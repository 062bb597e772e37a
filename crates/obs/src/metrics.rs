//! The metrics registry: the solve ledger, and plain counters and
//! log-scaled latency histograms for everything else.
//!
//! Everything a delivered solve updates — the flight ring, the solve
//! counts, the per-variant and per-pool latency histograms, the
//! poll/stall/crossing totals and the per-structure series — is a plain
//! field of the solve ledger; the rare events (plan builds, cache, store,
//! adaptive decisions, pool dispatch) are plain fields of the registry.
//! Both live in the handle's one locked state beside the trace ring, so
//! every update is a plain add under the lock its emit already holds. The
//! per-structure series are bounded at 64 structures — those past the
//! bound aggregate into an `other` bucket rather than growing the map.

use crate::event::{FpId, ObsFault, ObsVariant, SolveRecord, TraceEvent};
use crate::fphash::FpMap;
use std::collections::VecDeque;

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

/// A log-scaled latency histogram with an exact sum and count: plain
/// counts, recorded into under the lock that serialises its writers, and
/// what a scrape renders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; the last entry is the `+Inf`
    /// bucket. The renderer accumulates for Prometheus `le` semantics.
    pub buckets: [u64; NBUCKETS],
    /// Sum of recorded values (ns), wrapping.
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

/// Flight-recorder capacity: the last records kept, delivered or not.
const FLIGHT_CAPACITY: usize = 128;

/// Structures with their own per-structure series; those past the bound
/// aggregate under `fingerprint="other"`.
const MAX_FINGERPRINTS: usize = 64;

/// What solve records update: the flight ring of every record, and for a
/// delivered one everything the registry counts of it.
pub(crate) struct SolveLedger {
    /// The last [`FLIGHT_CAPACITY`] records, oldest first.
    pub(crate) flight: VecDeque<SolveRecord>,
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
    /// Per-structure breakdown, bounded at [`MAX_FINGERPRINTS`]; overflow
    /// aggregates under [`SolveLedger::overflow`].
    pub(crate) per_fp: FpMap<FpId, FpMetrics>,
    pub(crate) overflow: FpMetrics,
}

impl SolveLedger {
    pub(crate) fn new() -> Self {
        Self {
            flight: VecDeque::with_capacity(FLIGHT_CAPACITY),
            solves: Default::default(),
            solve_ns: Default::default(),
            wait_polls_total: 0,
            stalls_total: 0,
            barrier_crossings_total: 0,
            pool_solve_ns: Default::default(),
            per_fp: FpMap::default(),
            overflow: FpMetrics::default(),
        }
    }

    /// Records one solve attempt. `pools_dispatched` is
    /// [`Registry::pools_dispatched`], the gate of the per-pool series.
    pub(crate) fn record(&mut self, record: &SolveRecord, pools_dispatched: bool) {
        if self.flight.len() == FLIGHT_CAPACITY {
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
        } else if self.per_fp.len() < MAX_FINGERPRINTS {
            self.per_fp
                .entry(record.fp)
                .or_default()
                .add(v, record.total_ns);
        } else {
            self.overflow.add(v, record.total_ns);
        }
    }
}

/// The rare events' unlabelled counters, `(name, help)`, in render order.
/// [`Registry::counters`] holds their values and [`Registry::count`] adds
/// to them by row.
#[rustfmt::skip]
pub(crate) const COUNTERS: [(&str, &str); 18] = [
    ("doacross_cache_invalidations_total", "Explicit plan invalidations."), // 0
    ("doacross_plan_swaps_total", "Adaptive in-place plan replacements."), // 1
    ("doacross_store_saves_total", "Plan-store save operations."), // 2
    ("doacross_store_loads_total", "Plan-store load operations."), // 3
    ("doacross_store_plans_saved_total", "Plans written across all saves."), // 4
    ("doacross_store_plans_restored_total", "Plans admitted to the cache across all loads."), // 5
    ("doacross_cold_starts_total", "Warm starts that fell back to an empty cache."), // 6
    ("doacross_verify_passes_total", "Plan schedules the soundness verifier proved sound."), // 7
    ("doacross_verify_failures_total", "Plan schedules the soundness verifier rejected."), // 8
    ("doacross_divergences_total", "Adaptive divergence detections."), // 9
    ("doacross_trials_started_total", "Adaptive challenger trials started."), // 10
    ("doacross_trials_committed_total", "Adaptive trials committed."), // 11
    ("doacross_trials_demoted_total", "Adaptive trials rolled back."), // 12
    ("doacross_baseline_probes_total", "Deliberate adaptive baseline re-measurements."), // 13
    ("doacross_fault_panics_total", "Parallel attempts abandoned because a worker panicked."), // 14
    ("doacross_fault_timeouts_total", "Parallel attempts abandoned because the solve deadline expired."), // 15
    ("doacross_fault_fallbacks_total", "Faulted attempts re-run successfully on the sequential variant."), // 16
    ("doacross_store_quarantines_total", "Corrupt warm-start stores renamed aside."), // 17
];

/// What the rare events count: everything but solve records.
#[derive(Default)]
pub(crate) struct Registry {
    /// Values of [`COUNTERS`], row for row.
    pub(crate) counters: [u64; COUNTERS.len()],
    /// Plan builds by variant.
    pub(crate) plan_builds: [u64; ObsVariant::ALL.len()],
    pub(crate) plan_build_ns: HistogramSnapshot,
    /// Dispatches per scheduler sub-pool; the last entry aggregates every
    /// pool at or past [`MAX_POOL_SERIES`].
    pub(crate) pool_dispatches: [u64; MAX_POOL_SERIES + 1],
    /// Whether any dispatch has been recorded — the one gate of every
    /// per-pool series, recorded and rendered alike.
    pub(crate) pools_dispatched: bool,
    /// Dispatches that the work-stealing fallback redirected.
    pub(crate) pool_steals_total: u64,
    /// Time spent waiting for a free sub-pool (0 on the fast path).
    pub(crate) pool_wait_ns: HistogramSnapshot,
}

impl Registry {
    /// Adds what `event` counts. Solve records are the ledger's; cache
    /// traffic is counted by the cache's own exact `CacheStats`, which the
    /// engine samples at scrape time, and profiled solves by the
    /// profiler, which renders its own families — the registry duplicates
    /// neither. The trace ring still records every event.
    pub(crate) fn count(&mut self, event: &TraceEvent) {
        let c = &mut self.counters;
        match *event {
            TraceEvent::PlanBuilt {
                variant, build_ns, ..
            } => {
                self.plan_builds[variant.index()] += 1;
                self.plan_build_ns.record(build_ns);
            }
            TraceEvent::PoolDispatched {
                pool,
                stolen,
                wait_ns,
            } => {
                self.pool_dispatches[(pool as usize).min(MAX_POOL_SERIES)] += 1;
                self.pool_steals_total += u64::from(stolen);
                self.pool_wait_ns.record(wait_ns);
                self.pools_dispatched = true;
            }
            TraceEvent::CacheInvalidated { .. } => c[0] += 1,
            TraceEvent::PlanSwapped { .. } => c[1] += 1,
            TraceEvent::StoreSaved { plans } => {
                c[2] += 1;
                c[4] += plans;
            }
            TraceEvent::StoreLoaded { restored, .. } => {
                c[3] += 1;
                c[5] += restored;
            }
            TraceEvent::ColdStart { .. } => c[6] += 1,
            TraceEvent::PlanVerified { sound, .. } => c[if sound { 7 } else { 8 }] += 1,
            TraceEvent::Divergence { .. } => c[9] += 1,
            TraceEvent::TrialStarted { .. } => c[10] += 1,
            TraceEvent::TrialCommitted { .. } => c[11] += 1,
            TraceEvent::TrialDemoted { .. } => c[12] += 1,
            TraceEvent::BaselineProbed { .. } => c[13] += 1,
            TraceEvent::SolvePoisoned { fault, .. } => match fault {
                ObsFault::WorkerPanic { .. } => c[14] += 1,
                ObsFault::DeadlineExpired => c[15] += 1,
            },
            TraceEvent::SolveFellBack { .. } => c[16] += 1,
            TraceEvent::StoreQuarantined { .. } => c[17] += 1,
            TraceEvent::SolveFinished { .. }
            | TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::CacheEvicted { .. }
            | TraceEvent::SolveProfiled { .. } => {}
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
        let mut h = HistogramSnapshot::default();
        for ns in [0, 256, 257, u64::MAX] {
            // ≤ 256 → bucket 0 (the boundary is inclusive), 257 → bucket
            // 1, u64::MAX → +Inf.
            h.record(ns);
        }
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[NBUCKETS - 1], 1);
        assert_eq!(h.count, 4);
        // 0 + 256 + 257, then the u64::MAX record wraps the sum down by 1.
        assert_eq!(h.sum_ns, 512);
    }

    #[test]
    fn per_fp_map_is_bounded_with_overflow_bucket() {
        let mut ledger = SolveLedger::new();
        for i in 0..MAX_FINGERPRINTS as u64 + 6 {
            ledger.record(&record(FpId(i, 0), 0), false);
        }
        assert_eq!(ledger.per_fp.len(), MAX_FINGERPRINTS);
        assert_eq!(ledger.overflow.solves[ObsVariant::Doacross.index()], 6);
    }

    #[test]
    fn keeps_the_most_recent_capacity_records() {
        let mut ledger = SolveLedger::new();
        let records = FLIGHT_CAPACITY as u64 + 5;
        for i in 0..records {
            ledger.record(&record(FpId(i, i), i), false);
        }
        assert_eq!(ledger.flight.len(), FLIGHT_CAPACITY);
        assert_eq!(ledger.flight[0].generation, 5);
        assert_eq!(ledger.flight[FLIGHT_CAPACITY - 1].generation, records - 1);
    }

    #[test]
    fn pool_series_are_bounded_with_overflow() {
        let mut r = Registry::default();
        for (pool, stolen) in [(0, false), (0, true), (MAX_POOL_SERIES as u64, false)] {
            r.count(&TraceEvent::PoolDispatched {
                pool,
                stolen,
                wait_ns: 10,
            });
        }
        assert_eq!(r.pool_dispatches[0], 2);
        assert_eq!(r.pool_dispatches[MAX_POOL_SERIES], 1);
        assert_eq!(r.pool_steals_total, 1);
        assert_eq!(r.pool_wait_ns.count, 3);
    }
}
