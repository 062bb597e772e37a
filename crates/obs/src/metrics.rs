//! The metrics registry: lock-free counters and log-scaled latency
//! histograms, engine-wide and per-fingerprint.
//!
//! All hot-path updates are single `Relaxed` atomic RMWs; the only lock is
//! the per-fingerprint map's, taken once per *solve* (not per iteration)
//! and bounded by [`crate::ObsConfig::max_fingerprints`] — structures past
//! the bound aggregate into an `other` bucket rather than growing the map.

use crate::event::{FpId, ObsVariant};
use crate::fphash::FpMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// A log-scaled latency histogram with an exact sum and count.
#[derive(Default)]
pub(crate) struct Histogram {
    buckets: [AtomicU64; NBUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    pub(crate) fn record(&self, ns: u64) {
        let idx = LATENCY_BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(NBUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// (per-bucket counts, sum_ns, count) snapshot. Buckets are *not*
    /// cumulative here; the renderer accumulates for Prometheus `le`
    /// semantics.
    pub(crate) fn snapshot(&self) -> ([u64; NBUCKETS], u64, u64) {
        let mut b = [0u64; NBUCKETS];
        for (dst, src) in b.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        (
            b,
            self.sum_ns.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
        )
    }
}

/// A histogram snapshot ready for rendering.
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; the last entry is the `+Inf`
    /// bucket.
    pub buckets: [u64; NBUCKETS],
    /// Sum of recorded values (ns).
    pub sum_ns: u64,
    /// Total recorded values.
    pub count: u64,
}

#[derive(Default)]
pub(crate) struct FpMetrics {
    /// Solves per variant, indexed by [`ObsVariant::index`].
    pub(crate) solves: [AtomicU64; ObsVariant::ALL.len()],
    /// Total solve ns per variant.
    pub(crate) solve_ns_total: [AtomicU64; ObsVariant::ALL.len()],
}

impl FpMetrics {
    fn add(&self, variant: usize, ns: u64) {
        self.solves[variant].fetch_add(1, Ordering::Relaxed);
        self.solve_ns_total[variant].fetch_add(ns, Ordering::Relaxed);
    }
}

/// The registry. One per `Obs` handle; all fields are updated from
/// [`crate::Obs::emit`] and read by the renderers.
#[derive(Default)]
pub(crate) struct Registry {
    /// Solves by (variant, provenance).
    pub(crate) solves: [[AtomicU64; 3]; ObsVariant::ALL.len()],
    /// Solve latency by variant.
    pub(crate) solve_ns: [Histogram; ObsVariant::ALL.len()],
    pub(crate) wait_polls_total: AtomicU64,
    pub(crate) stalls_total: AtomicU64,
    pub(crate) barrier_crossings_total: AtomicU64,
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
    /// Solve latency per sub-pool (from `SolveFinished`, bounded like
    /// `pool_dispatches`; recorded only once a dispatch has been, since a
    /// single-pool engine never traces one and never renders the family).
    pub(crate) pool_solve_ns: [Histogram; MAX_POOL_SERIES],
    /// Parallel attempts abandoned because a worker panicked.
    pub(crate) fault_panics_total: AtomicU64,
    /// Parallel attempts abandoned because the solve deadline expired.
    pub(crate) fault_timeouts_total: AtomicU64,
    /// Faulted attempts re-run (successfully) on the sequential variant.
    pub(crate) fault_fallbacks_total: AtomicU64,
    /// Corrupt warm-start stores renamed aside.
    pub(crate) store_quarantines_total: AtomicU64,
    /// Per-structure breakdown, bounded; overflow aggregates under
    /// [`Registry::overflow`].
    pub(crate) per_fp: Mutex<FpMap<FpId, FpMetrics>>,
    /// Aggregate bucket for structures beyond `max_fingerprints`.
    pub(crate) overflow: FpMetrics,
}

impl Registry {
    pub(crate) fn record_solve(&self, record: &crate::SolveRecord, max_fingerprints: usize) {
        let v = record.variant.index();
        if !record.outcome.delivered() {
            // Failed attempts reach the flight recorder (the caller pushes
            // every record there) but must not pollute the throughput
            // counters or latency histograms with partial numbers.
            return;
        }
        self.solves[v][record.provenance.index()].fetch_add(1, Ordering::Relaxed);
        self.solve_ns[v].record(record.total_ns);
        // Most solves stall nowhere: adding zero is an RMW for nothing.
        for (total, n) in [
            (&self.wait_polls_total, record.wait_polls),
            (&self.stalls_total, record.stalls),
            (&self.barrier_crossings_total, record.barrier_crossings),
        ] {
            if n != 0 {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
        if let Some(pool) = record.pool {
            if self.pools_dispatched.load(Ordering::Relaxed) {
                if let Some(h) = self.pool_solve_ns.get(pool as usize) {
                    h.record(record.total_ns);
                }
            }
        }
        let mut map = match self.per_fp.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        // One lookup for a structure already in the map; a second only
        // the first time it is seen.
        if let Some(slot) = map.get(&record.fp) {
            slot.add(v, record.total_ns);
        } else if map.len() < max_fingerprints {
            map.entry(record.fp).or_default().add(v, record.total_ns);
        } else {
            drop(map);
            self.overflow.add(v, record.total_ns);
        }
    }

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

/// Snapshot of one variant's solve-latency histogram, paired with its
/// variant label — what `Obs::solve_latency` returns to the renderer.
pub(crate) struct VariantLatency {
    pub(crate) variant: ObsVariant,
    pub(crate) histogram: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PlanProvenance;

    #[test]
    fn bucket_bounds_are_strictly_increasing_factor_4() {
        for w in LATENCY_BUCKET_BOUNDS_NS.windows(2) {
            assert_eq!(w[1], w[0] * 4);
        }
    }

    #[test]
    fn histogram_places_values_in_the_right_bucket() {
        let h = Histogram::default();
        h.record(0); // ≤ 256 → bucket 0
        h.record(256); // boundary is inclusive (le semantics)
        h.record(257); // → bucket 1
        h.record(u64::MAX); // → +Inf
        let (b, sum, count) = h.snapshot();
        assert_eq!(b[0], 2);
        assert_eq!(b[1], 1);
        assert_eq!(b[NBUCKETS - 1], 1);
        assert_eq!(count, 4);
        // 0 + 256 + 257, then the u64::MAX record wraps the sum down by 1.
        assert_eq!(sum, 512);
    }

    #[test]
    fn per_fp_map_is_bounded_with_overflow_bucket() {
        let r = Registry::default();
        for i in 0..10u64 {
            let record = crate::SolveRecord {
                fp: FpId(i, 0),
                variant: ObsVariant::Doacross,
                provenance: PlanProvenance::PlanCached,
                generation: 0,
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
                outcome: crate::SolveOutcome::Ok,
            };
            r.record_solve(&record, 4);
        }
        let map = r.per_fp.lock().unwrap();
        assert_eq!(map.len(), 4);
        assert_eq!(
            r.overflow.solves[ObsVariant::Doacross.index()].load(Ordering::Relaxed),
            6
        );
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
        let (_, _, count) = r.pool_wait_ns.snapshot();
        assert_eq!(count, 3);
    }
}
