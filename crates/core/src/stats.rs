//! Run instrumentation: phase timings and dependency/wait counters.
//!
//! §3.1 of the paper attributes the preprocessed doacross's overhead to
//! (1) runtime pre- and postprocessing and (2) execution-time dependency
//! checks (plus any busy waiting those checks trigger). [`RunStats`] exposes
//! each of those contributions so the benchmark harness can reproduce the
//! paper's overhead analysis rather than just end-to-end times.

use doacross_par::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

// Defined once, in the observability layer below this crate, so a solve
// record carries the very value a run's stats report.
pub use doacross_obs::PlanProvenance;

/// How the executor classified the right-hand-side references it resolved —
/// one count per (iteration, term) pair, matching Figure 5's three-way
/// branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepCounts {
    /// `check < 0`: true dependency on an earlier iteration (S3–S5).
    pub true_deps: u64,
    /// `check > 0`: antidependency or never-written element — the old value
    /// was used (S6–S7).
    pub anti_or_unwritten: u64,
    /// `check == 0`: intra-iteration reference served from the accumulator
    /// (S8).
    pub intra: u64,
}

impl DepCounts {
    /// Total references resolved.
    pub fn total(&self) -> u64 {
        self.true_deps + self.anti_or_unwritten + self.intra
    }
}

/// Everything measured about one preprocessed-doacross run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Outer-loop iterations executed.
    pub iterations: usize,
    /// Pool workers ("processors") used.
    pub workers: usize,
    /// Blocks executed (1 for the flat construct; ≥ 1 when strip-mined).
    pub blocks: usize,
    /// Inspector (preprocessing) wall time.
    pub inspector: Duration,
    /// Executor (doacross proper) wall time.
    pub executor: Duration,
    /// Postprocessing wall time.
    pub post: Duration,
    /// End-to-end wall time (≥ sum of phases; includes phase glue).
    ///
    /// Measured by every parallel run and by the engine's fault replay. A
    /// sequential solve on the engine is timed only when something in the
    /// engine consumes the time — observability, the profiler or the
    /// adaptive layer — and reports [`Duration::ZERO`] ("not measured")
    /// otherwise, so a warm solve nothing observes reads no clock. A
    /// caller that wants the wall time of such a solve times the call.
    pub total: Duration,
    /// Classification of every resolved right-hand-side reference.
    pub deps: DepCounts,
    /// True-dependency resolutions that actually stalled (the writer had
    /// not finished at first poll).
    pub stalls: u64,
    /// Total failed `ready` polls across all stalls — the busy-wait bill.
    pub wait_polls: u64,
    /// Level boundaries the run crossed: `levels − 1` for a wavefront run
    /// (its synchronization bill, which `wait_polls == 0` by construction
    /// would otherwise hide), 0 for the flag-based variants. A boundary is
    /// crossed by waiting for the earlier level's completion count, not at
    /// a barrier — the name is kept for the series and stores built on it.
    pub barrier_crossings: u64,
    /// Heap allocations the dispatching thread made during the solve —
    /// the zero-allocation-audit counter. Always 0 unless the process
    /// installed [`crate::alloc::CountingAllocator`] as its global
    /// allocator (bench/test profiles); a warm solve on the flat planned
    /// path reports exactly 0 even then.
    pub allocations: u64,
    /// Where this run's preprocessing came from (inline inspection vs. a
    /// prebuilt or cached execution plan).
    pub provenance: PlanProvenance,
    /// How many solve attempts the engine made to deliver this result:
    /// 1 for a clean solve, 2 when a faulted parallel solve fell back to
    /// the sequential variant, higher when saturation retries were spent.
    /// 0 when the run was produced outside the engine's fault-contained
    /// path (direct executor use).
    pub attempts: u32,
}

impl RunStats {
    /// The stats of one sequential pass over `iterations` iterations that
    /// took `total` (zero when the pass was not timed): one worker, one
    /// block, no inspector, executor region or postprocessor to time
    /// apart, nothing to wait on. The one
    /// description of "the source loop ran" — the plan executor's
    /// sequential variant and the engine's fault replay both report this.
    pub fn sequential(iterations: usize, total: Duration) -> Self {
        Self {
            iterations,
            workers: 1,
            blocks: 1,
            total,
            ..Self::default()
        }
    }

    /// Merges another run's statistics into this one (used by the blocked
    /// variant to aggregate per-block runs).
    pub fn absorb(&mut self, other: &RunStats) {
        self.iterations += other.iterations;
        self.workers = self.workers.max(other.workers);
        self.blocks += other.blocks;
        self.inspector += other.inspector;
        self.executor += other.executor;
        self.post += other.post;
        self.total += other.total;
        self.deps.true_deps += other.deps.true_deps;
        self.deps.anti_or_unwritten += other.deps.anti_or_unwritten;
        self.deps.intra += other.deps.intra;
        self.stalls += other.stalls;
        self.wait_polls += other.wait_polls;
        self.barrier_crossings += other.barrier_crossings;
        self.allocations += other.allocations;
        // Coldest wins: the aggregate claims only as much plan
        // amortization as its coldest constituent actually had. Absorbing
        // a PlanCold block into a PlanCached aggregate must not keep
        // reporting plan:cached.
        if other.provenance.coldness() > self.provenance.coldness() {
            self.provenance = other.provenance;
        }
        self.attempts = self.attempts.max(other.attempts);
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // A sequential pass ([`RunStats::sequential`]) times no region and
        // classifies no reference: its zeros there mean "not counted", and
        // a zero `total` means it was not timed.
        if self.workers == 1 && self.executor.is_zero() {
            if self.total.is_zero() {
                return write!(
                    f,
                    "{} iterations sequentially (not timed); preprocessing {}",
                    self.iterations, self.provenance,
                );
            }
            return write!(
                f,
                "{} iterations sequentially in {:?}; preprocessing {}",
                self.iterations, self.total, self.provenance,
            );
        }
        write!(
            f,
            "{} iterations on {} workers in {:?} (inspector {:?}, executor {:?}, post {:?}); \
             refs: {} true / {} old / {} intra; {} stalls, {} wait polls, \
             {} barrier crossings; preprocessing {}",
            self.iterations,
            self.workers,
            self.total,
            self.inspector,
            self.executor,
            self.post,
            self.deps.true_deps,
            self.deps.anti_or_unwritten,
            self.deps.intra,
            self.stalls,
            self.wait_polls,
            self.barrier_crossings,
            self.provenance,
        )
    }
}

/// Counters a worker accumulates in registers during the executor phase and
/// flushes once at region end.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalCounters {
    /// True-dependency resolutions (Figure 5 S3–S5).
    pub true_deps: u64,
    /// Old-value resolutions (S6–S7).
    pub anti_or_unwritten: u64,
    /// Intra-iteration resolutions (S8).
    pub intra: u64,
    /// True-dependency resolutions that found the writer unfinished.
    pub stalls: u64,
    /// Failed `ready` polls across all stalls.
    pub wait_polls: u64,
}

/// Per-worker atomic cells (cache-padded against false sharing) that
/// aggregate [`LocalCounters`] across a parallel region.
#[derive(Debug, Default)]
struct SinkCell {
    true_deps: AtomicU64,
    anti_or_unwritten: AtomicU64,
    intra: AtomicU64,
    stalls: AtomicU64,
    wait_polls: AtomicU64,
}

/// Collects executor-side counters from all workers of a region.
#[derive(Debug)]
pub struct StatsSink {
    cells: Vec<CachePadded<SinkCell>>,
}

impl StatsSink {
    pub fn new(workers: usize) -> Self {
        let mut cells = Vec::with_capacity(workers);
        cells.resize_with(workers, || CachePadded::new(SinkCell::default()));
        Self { cells }
    }

    /// Grows the sink to cover `workers` cells (never shrinks). Runtimes
    /// keep one sink as scratch and call this before each region, so warm
    /// solves allocate nothing — part of the zero-allocation steady state.
    /// Cells beyond the active worker count stay zero and drain as zeros.
    pub fn ensure_workers(&mut self, workers: usize) {
        if workers > self.cells.len() {
            self.cells
                .resize_with(workers, || CachePadded::new(SinkCell::default()));
        }
    }

    /// Number of per-worker cells currently allocated.
    pub fn workers(&self) -> usize {
        self.cells.len()
    }

    /// Zeroes every cell, restoring the reuse invariant after a
    /// [`StatsSink::drain_into`]. Relaxed stores suffice: reset happens
    /// between regions, with no workers depositing.
    pub fn reset(&self) {
        for c in &self.cells {
            c.true_deps.store(0, Ordering::Relaxed);
            c.anti_or_unwritten.store(0, Ordering::Relaxed);
            c.intra.store(0, Ordering::Relaxed);
            c.stalls.store(0, Ordering::Relaxed);
            c.wait_polls.store(0, Ordering::Relaxed);
        }
    }

    /// Adds a worker's locally-accumulated counters. Relaxed ordering is
    /// sufficient: the pool's region join orders these stores before the
    /// dispatcher's reads in [`StatsSink::drain_into`].
    pub fn deposit(&self, worker: usize, local: LocalCounters) {
        let c = &self.cells[worker];
        c.true_deps.fetch_add(local.true_deps, Ordering::Relaxed);
        c.anti_or_unwritten
            .fetch_add(local.anti_or_unwritten, Ordering::Relaxed);
        c.intra.fetch_add(local.intra, Ordering::Relaxed);
        c.stalls.fetch_add(local.stalls, Ordering::Relaxed);
        c.wait_polls.fetch_add(local.wait_polls, Ordering::Relaxed);
    }

    /// Sums all workers' counters into `stats`.
    pub fn drain_into(&self, stats: &mut RunStats) {
        for c in &self.cells {
            stats.deps.true_deps += c.true_deps.load(Ordering::Relaxed);
            stats.deps.anti_or_unwritten += c.anti_or_unwritten.load(Ordering::Relaxed);
            stats.deps.intra += c.intra.load(Ordering::Relaxed);
            stats.stalls += c.stalls.load(Ordering::Relaxed);
            stats.wait_polls += c.wait_polls.load(Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dep_counts_total() {
        let d = DepCounts {
            true_deps: 3,
            anti_or_unwritten: 4,
            intra: 5,
        };
        assert_eq!(d.total(), 12);
    }

    #[test]
    fn sink_aggregates_across_workers() {
        let sink = StatsSink::new(3);
        for w in 0..3 {
            sink.deposit(
                w,
                LocalCounters {
                    true_deps: 1,
                    anti_or_unwritten: 2,
                    intra: 3,
                    stalls: 4,
                    wait_polls: 5,
                },
            );
        }
        let mut stats = RunStats::default();
        sink.drain_into(&mut stats);
        assert_eq!(stats.deps.true_deps, 3);
        assert_eq!(stats.deps.anti_or_unwritten, 6);
        assert_eq!(stats.deps.intra, 9);
        assert_eq!(stats.stalls, 12);
        assert_eq!(stats.wait_polls, 15);
    }

    #[test]
    fn sink_grows_resets_and_reuses() {
        let mut sink = StatsSink::new(0);
        sink.ensure_workers(2);
        assert_eq!(sink.workers(), 2);
        sink.ensure_workers(1);
        assert_eq!(sink.workers(), 2, "never shrinks");
        sink.deposit(
            1,
            LocalCounters {
                true_deps: 3,
                stalls: 1,
                ..Default::default()
            },
        );
        let mut stats = RunStats::default();
        sink.drain_into(&mut stats);
        assert_eq!(stats.deps.true_deps, 3);
        sink.reset();
        let mut again = RunStats::default();
        sink.drain_into(&mut again);
        assert_eq!(again.deps.true_deps, 0, "reset restores the invariant");
        assert_eq!(again.stalls, 0);
    }

    #[test]
    fn absorb_accumulates_allocations() {
        let mut a = RunStats {
            allocations: 2,
            ..Default::default()
        };
        a.absorb(&RunStats {
            allocations: 5,
            ..Default::default()
        });
        assert_eq!(a.allocations, 7);
    }

    #[test]
    fn absorb_accumulates_blocks() {
        let mut a = RunStats {
            iterations: 10,
            workers: 4,
            blocks: 1,
            ..Default::default()
        };
        let b = RunStats {
            iterations: 5,
            workers: 2,
            blocks: 1,
            stalls: 7,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.iterations, 15);
        assert_eq!(a.workers, 4);
        assert_eq!(a.blocks, 2);
        assert_eq!(a.stalls, 7);
    }

    #[test]
    fn absorb_keeps_the_coldest_provenance() {
        // PlanCold absorbed into PlanCached must flip the aggregate.
        let mut a = RunStats {
            provenance: PlanProvenance::PlanCached,
            ..Default::default()
        };
        a.absorb(&RunStats {
            provenance: PlanProvenance::PlanCold,
            ..Default::default()
        });
        assert_eq!(a.provenance, PlanProvenance::PlanCold);
        // Absorbing a warmer block must NOT warm the aggregate back up.
        a.absorb(&RunStats {
            provenance: PlanProvenance::PlanCached,
            ..Default::default()
        });
        assert_eq!(a.provenance, PlanProvenance::PlanCold);
        // Inline is the coldest of all.
        a.absorb(&RunStats {
            provenance: PlanProvenance::Inline,
            ..Default::default()
        });
        assert_eq!(a.provenance, PlanProvenance::Inline);
    }

    #[test]
    fn absorb_accumulates_barrier_crossings() {
        let mut a = RunStats {
            barrier_crossings: 3,
            ..Default::default()
        };
        a.absorb(&RunStats {
            barrier_crossings: 4,
            ..Default::default()
        });
        assert_eq!(a.barrier_crossings, 7);
    }

    #[test]
    fn display_mentions_barrier_crossings() {
        let s = RunStats {
            barrier_crossings: 9,
            ..Default::default()
        };
        assert!(s.to_string().contains("9 barrier crossings"));
    }

    #[test]
    fn a_sequential_run_displays_no_uncounted_fields() {
        let mut seq = RunStats::sequential(42, Duration::from_nanos(1_500));
        seq.provenance = PlanProvenance::PlanCached;
        assert_eq!(
            seq.to_string(),
            "42 iterations sequentially in 1.5µs; preprocessing plan:cached"
        );
        let untimed = RunStats::sequential(42, Duration::ZERO);
        assert_eq!(
            untimed.to_string(),
            "42 iterations sequentially (not timed); preprocessing inline"
        );
        // A region-timed run keeps every counter.
        let par = RunStats {
            executor: Duration::from_nanos(900),
            ..seq.clone()
        };
        assert_eq!(
            par.to_string(),
            "42 iterations on 1 workers in 1.5µs (inspector 0ns, executor 900ns, post 0ns); \
             refs: 0 true / 0 old / 0 intra; 0 stalls, 0 wait polls, 0 barrier crossings; \
             preprocessing plan:cached"
        );
    }

    #[test]
    fn display_mentions_key_fields() {
        let s = RunStats {
            iterations: 42,
            workers: 8,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("42 iterations"));
        assert!(text.contains("8 workers"));
    }
}
