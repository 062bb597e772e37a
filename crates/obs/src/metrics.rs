//! The metrics registry: the solve ledger, and lock-free counters and
//! log-scaled latency histograms for everything else.
//!
//! Everything a delivered solve updates — the flight ring, the solve
//! counts, the per-variant and per-pool latency histograms, the
//! poll/stall/crossing totals and the per-structure series — is a plain
//! field of one solve ledger, which `SolveFinished` and a scrape each
//! lock once: the lock already serialises its writers, so no update under
//! it is an atomic read-modify-write. The per-structure series are bounded
//! by [`crate::ObsConfig::max_fingerprints`] — structures past the bound
//! aggregate into an `other` bucket rather than growing the map. Rare
//! events (plan builds, cache, store, adaptive decisions, pool dispatch)
//! are single `Relaxed` atomic RMWs on the registry's counters.

use crate::event::{FpId, ObsVariant, SolveRecord};
use crate::fphash::FpMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Upper bounds (ns) of the latency histogram buckets: factor-4 steps from
/// 256 ns to ~268 ms, followed by an implicit `+Inf`. Eleven finite
/// buckets cover sub-microsecond linear solves up through multi-hundred-ms
/// plan builds with ≤ 4× resolution everywhere.
pub const LATENCY_BUCKET_BOUNDS_NS: [u64; 11] = [
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
    67_108_864,
    268_435_456,
];

const NBUCKETS: usize = LATENCY_BUCKET_BOUNDS_NS.len() + 1; // + the +Inf bucket

/// Distinct sub-pool metric series kept per registry. Dispatches to pools
/// at or beyond this index aggregate under the `other` label — the same
/// bounded-cardinality discipline as the per-fingerprint map. Sixteen
/// covers every realistic partitioning of one engine's workers.
pub const MAX_POOL_SERIES: usize = 16;

/// The bucket `ns` falls in (`le` semantics: a bound is inclusive).
fn bucket_of(ns: u64) -> usize {
    LATENCY_BUCKET_BOUNDS_NS
        .iter()
        .position(|&b| ns <= b)
        .unwrap_or(NBUCKETS - 1)
}

/// A log-scaled latency histogram with an exact sum and count, updated
/// lock-free — for the rare events no lock guards.
#[derive(Default)]
pub(crate) struct Histogram {
    buckets: [AtomicU64; NBUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    pub(crate) fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A histogram's counts by value: what a scrape renders, and — recorded
/// into in place under a lock that already serialises its writers — the
/// histogram itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; the last entry is the `+Inf`
    /// bucket. The renderer accumulates for Prometheus `le` semantics.
    pub buckets: [u64; NBUCKETS],
    /// Sum of recorded values (ns), wrapping like an atomic add.
    pub sum_ns: u64,
    /// Total recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    pub(crate) fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.sum_ns = self.sum_ns.wrapping_add(ns);
        self.count += 1;
    }
}

/// Solve counts and total solve ns per variant, indexed by
/// [`ObsVariant::index`]: one structure's row, or the `other` row.
#[derive(Default, Clone, Copy)]
pub(crate) struct FpMetrics {
    pub(crate) solves: [u64; ObsVariant::ALL.len()],
    pub(crate) solve_ns_total: [u64; ObsVariant::ALL.len()],
}

impl FpMetrics {
    fn add(&mut self, variant: usize, ns: u64) {
        self.solves[variant] += 1;
        self.solve_ns_total[variant] = self.solve_ns_total[variant].wrapping_add(ns);
    }
}

/// What solve records update: the flight ring of every record, and for a
/// delivered one everything the registry counts of it. One per `Obs`
/// handle, behind one mutex.
pub(crate) struct SolveLedger {
    /// The last `flight_capacity` records, delivered or not, oldest first.
    pub(crate) flight: VecDeque<SolveRecord>,
    flight_capacity: usize,
    /// Solves by (variant, provenance).
    pub(crate) solves: [[u64; 3]; ObsVariant::ALL.len()],
    /// Solve latency by variant.
    pub(crate) solve_ns: [HistogramSnapshot; ObsVariant::ALL.len()],
    pub(crate) wait_polls_total: u64,
    pub(crate) stalls_total: u64,
    pub(crate) barrier_crossings_total: u64,
    /// Solve latency per sub-pool, bounded like
    /// [`Registry::pool_dispatches`]; recorded only once a dispatch has
    /// been, since a single-pool engine never traces one and never renders
    /// the family.
    pub(crate) pool_solve_ns: [HistogramSnapshot; MAX_POOL_SERIES],
    /// Per-structure breakdown, bounded at `max_fingerprints`; overflow
    /// aggregates under [`SolveLedger::overflow`].
    pub(crate) per_fp: FpMap<FpId, FpMetrics>,
    pub(crate) overflow: FpMetrics,
    max_fingerprints: usize,
}

impl SolveLedger {
    pub(crate) fn new(flight_capacity: usize, max_fingerprints: usize) -> Self {
        let flight_capacity = flight_capacity.max(1);
        Self {
            flight: VecDeque::with_capacity(flight_capacity),
            flight_capacity,
            solves: Default::default(),
            solve_ns: Default::default(),
            wait_polls_total: 0,
            stalls_total: 0,
            barrier_crossings_total: 0,
            pool_solve_ns: Default::default(),
            per_fp: FpMap::default(),
            overflow: FpMetrics::default(),
            max_fingerprints,
        }
    }

    /// Records one solve attempt. `pools_dispatched` is
    /// [`Registry::pools_dispatched`], the gate of the per-pool series.
    pub(crate) fn record(&mut self, record: &SolveRecord, pools_dispatched: bool) {
        if self.flight.len() == self.flight_capacity {
            self.flight.pop_front();
        }
        self.flight.push_back(*record);
        if !record.outcome.delivered() {
            // Failed attempts reach the flight ring but must not pollute
            // the throughput counters or latency histograms with partial
            // numbers.
            return;
        }
        let v = record.variant.index();
        self.solves[v][record.provenance.index()] += 1;
        self.solve_ns[v].record(record.total_ns);
        self.wait_polls_total = self.wait_polls_total.wrapping_add(record.wait_polls);
        self.stalls_total = self.stalls_total.wrapping_add(record.stalls);
        self.barrier_crossings_total = self
            .barrier_crossings_total
            .wrapping_add(record.barrier_crossings);
        if let (Some(pool), true) = (record.pool, pools_dispatched) {
            if let Some(h) = self.pool_solve_ns.get_mut(pool as usize) {
                h.record(record.total_ns);
            }
        }
        // One lookup for a structure already in the map; a second only
        // the first time it is seen.
        if let Some(slot) = self.per_fp.get_mut(&record.fp) {
            slot.add(v, record.total_ns);
        } else if self.per_fp.len() < self.max_fingerprints {
            self.per_fp
                .entry(record.fp)
                .or_default()
                .add(v, record.total_ns);
        } else {
            self.overflow.add(v, record.total_ns);
        }
    }
}

/// The rare events' counters. One per `Obs` handle; all fields are
/// updated from [`crate::Obs::emit`] and read by the renderers.
#[derive(Default)]
pub(crate) struct Registry {
    /// Plan builds by variant.
    pub(crate) plan_builds: [AtomicU64; ObsVariant::ALL.len()],
    pub(crate) plan_build_ns: Histogram,
    pub(crate) cache_invalidations_total: AtomicU64,
    pub(crate) plan_swaps_total: AtomicU64,
    pub(crate) store_saves_total: AtomicU64,
    pub(crate) store_loads_total: AtomicU64,
    pub(crate) store_plans_saved_total: AtomicU64,
    pub(crate) store_plans_restored_total: AtomicU64,
    pub(crate) cold_starts_total: AtomicU64,
    /// Soundness-verifier outcomes (build gate, store load, engine
    /// surface, adaptive promotion).
    pub(crate) verify_passes_total: AtomicU64,
    pub(crate) verify_failures_total: AtomicU64,
    pub(crate) divergences_total: AtomicU64,
    pub(crate) trials_started_total: AtomicU64,
    pub(crate) trials_committed_total: AtomicU64,
    pub(crate) trials_demoted_total: AtomicU64,
    pub(crate) baseline_probes_total: AtomicU64,
    /// Dispatches per scheduler sub-pool; index [`MAX_POOL_SERIES`] and
    /// beyond aggregate into [`Registry::pool_overflow_dispatches`].
    pub(crate) pool_dispatches: [AtomicU64; MAX_POOL_SERIES],
    pub(crate) pool_overflow_dispatches: AtomicU64,
    /// Whether any dispatch has been recorded — the one gate of every
    /// per-pool series, recorded and rendered alike.
    pub(crate) pools_dispatched: AtomicBool,
    /// Dispatches that the work-stealing fallback redirected.
    pub(crate) pool_steals_total: AtomicU64,
    /// Time spent waiting for a free sub-pool (0 on the fast path).
    pub(crate) pool_wait_ns: Histogram,
    /// Parallel attempts abandoned because a worker panicked.
    pub(crate) fault_panics_total: AtomicU64,
    /// Parallel attempts abandoned because the solve deadline expired.
    pub(crate) fault_timeouts_total: AtomicU64,
    /// Faulted attempts re-run (successfully) on the sequential variant.
    pub(crate) fault_fallbacks_total: AtomicU64,
    /// Corrupt warm-start stores renamed aside.
    pub(crate) store_quarantines_total: AtomicU64,
}

impl Registry {
    pub(crate) fn record_plan_built(&self, variant: ObsVariant, build_ns: u64) {
        self.plan_builds[variant.index()].fetch_add(1, Ordering::Relaxed);
        self.plan_build_ns.record(build_ns);
    }

    pub(crate) fn record_pool_dispatch(&self, pool: u64, stolen: bool, wait_ns: u64) {
        match self.pool_dispatches.get(pool as usize) {
            Some(c) => c.fetch_add(1, Ordering::Relaxed),
            None => self
                .pool_overflow_dispatches
                .fetch_add(1, Ordering::Relaxed),
        };
        if stolen {
            self.pool_steals_total.fetch_add(1, Ordering::Relaxed);
        }
        self.pool_wait_ns.record(wait_ns);
        if !self.pools_dispatched.load(Ordering::Relaxed) {
            self.pools_dispatched.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PlanProvenance, SolveOutcome};

    fn record(fp: FpId, generation: u64) -> SolveRecord {
        SolveRecord {
            fp,
            variant: ObsVariant::Doacross,
            provenance: PlanProvenance::PlanCached,
            generation,
            total_ns: 100,
            inspector_ns: 0,
            executor_ns: 100,
            post_ns: 0,
            iterations: 1,
            workers: 1,
            stalls: 0,
            wait_polls: 0,
            barrier_crossings: 0,
            pool: Some(0),
            outcome: SolveOutcome::Ok,
        }
    }

    #[test]
    fn bucket_bounds_are_strictly_increasing_factor_4() {
        for w in LATENCY_BUCKET_BOUNDS_NS.windows(2) {
            assert_eq!(w[1], w[0] * 4);
        }
    }

    #[test]
    fn histogram_places_values_in_the_right_bucket() {
        let atomic = Histogram::default();
        let mut plain = HistogramSnapshot::default();
        for ns in [0, 256, 257, u64::MAX] {
            // ≤ 256 → bucket 0 (the boundary is inclusive), 257 → bucket
            // 1, u64::MAX → +Inf.
            atomic.record(ns);
            plain.record(ns);
        }
        let snap = atomic.snapshot();
        assert_eq!(snap, plain, "both histograms count alike");
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[NBUCKETS - 1], 1);
        assert_eq!(snap.count, 4);
        // 0 + 256 + 257, then the u64::MAX record wraps the sum down by 1.
        assert_eq!(snap.sum_ns, 512);
    }

    #[test]
    fn per_fp_map_is_bounded_with_overflow_bucket() {
        let mut ledger = SolveLedger::new(128, 4);
        for i in 0..10u64 {
            ledger.record(&record(FpId(i, 0), 0), false);
        }
        assert_eq!(ledger.per_fp.len(), 4);
        assert_eq!(ledger.overflow.solves[ObsVariant::Doacross.index()], 6);
    }

    #[test]
    fn keeps_the_most_recent_capacity_records() {
        let mut ledger = SolveLedger::new(3, 64);
        for i in 0..8 {
            ledger.record(&record(FpId(i, i), i), false);
        }
        assert_eq!(ledger.flight.len(), 3);
        assert_eq!(ledger.flight[0].generation, 5);
        assert_eq!(ledger.flight[2].generation, 7);
    }

    #[test]
    fn pool_series_are_bounded_with_overflow() {
        let r = Registry::default();
        r.record_pool_dispatch(0, false, 10);
        r.record_pool_dispatch(0, true, 10);
        r.record_pool_dispatch(MAX_POOL_SERIES as u64, false, 10);
        assert_eq!(r.pool_dispatches[0].load(Ordering::Relaxed), 2);
        assert_eq!(r.pool_overflow_dispatches.load(Ordering::Relaxed), 1);
        assert_eq!(r.pool_steals_total.load(Ordering::Relaxed), 1);
        assert_eq!(r.pool_wait_ns.snapshot().count, 3);
    }
}
