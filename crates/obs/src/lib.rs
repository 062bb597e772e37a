//! Observability layer for the preprocessed-doacross engine: structured
//! tracing, a metrics registry with Prometheus text export, and a solve
//! flight recorder.
//!
//! This crate has **zero dependencies** (std only) and sits below every
//! other crate in the workspace so plan, cache, persistence, adaptive, and
//! execute layers can all emit into one [`Obs`] handle. The handle is an
//! `Option<Arc<_>>` internally: a disabled handle is a single branch on
//! the hot path — no event is constructed, no lock touched, no time read.
//!
//! # Exported metrics
//!
//! Everything below is emitted by [`Obs::render_prometheus`] (and hence by
//! the engine's `metrics_text()`). Durations are nanoseconds; histograms
//! use the factor-4 bucket bounds in
//! [`metrics::LATENCY_BUCKET_BOUNDS_NS`] plus `+Inf`.
//!
//! | Metric | Type | Labels | Meaning |
//! |---|---|---|---|
//! | `doacross_solves_total` | counter | `variant`, `provenance` | Completed solves by executor variant and plan provenance (`inline` / `plan_cold` / `plan_cached`). |
//! | `doacross_solve_ns` | histogram | `variant` | End-to-end solve latency per variant. |
//! | `doacross_wait_polls_total` | counter | — | Busy-wait poll loops across all solves (flag-based variants). |
//! | `doacross_stalls_total` | counter | — | Busy-wait stall events across all solves. |
//! | `doacross_barrier_crossings_total` | counter | — | Wavefront barrier crossings across all solves. |
//! | `doacross_plan_builds_total` | counter | `variant` | Plans built, by chosen variant. |
//! | `doacross_plan_build_ns` | histogram | — | Plan build (preprocessing) latency. |
//! | `doacross_cache_invalidations_total` | counter | — | Explicit plan invalidations. |
//! | `doacross_plan_swaps_total` | counter | — | Adaptive in-place plan replacements. |
//! | `doacross_store_saves_total` | counter | — | Plan-store save operations. |
//! | `doacross_store_loads_total` | counter | — | Plan-store load operations. |
//! | `doacross_store_plans_saved_total` | counter | — | Plans written across all saves. |
//! | `doacross_store_plans_restored_total` | counter | — | Plans admitted to the cache across all loads. |
//! | `doacross_cold_starts_total` | counter | — | Warm starts that fell back to empty (missing or version-mismatched store). |
//! | `doacross_verify_passes_total` | counter | — | Plan schedules the soundness verifier proved sound. |
//! | `doacross_verify_failures_total` | counter | — | Plan schedules the soundness verifier rejected. |
//! | `doacross_divergences_total` | counter | — | Adaptive divergence detections (measured cost vs static prediction). |
//! | `doacross_trials_started_total` | counter | — | Adaptive challenger trials started. |
//! | `doacross_trials_committed_total` | counter | — | Trials that won and were committed. |
//! | `doacross_trials_demoted_total` | counter | — | Trials that lost and were rolled back. |
//! | `doacross_baseline_probes_total` | counter | — | Deliberate baseline re-measurements. |
//! | `doacross_fault_panics_total` | counter | — | Parallel attempts abandoned because a worker panicked (poison protocol). |
//! | `doacross_fault_timeouts_total` | counter | — | Parallel attempts abandoned because the solve deadline expired. |
//! | `doacross_fault_fallbacks_total` | counter | — | Faulted attempts re-run successfully on the sequential variant. |
//! | `doacross_store_quarantines_total` | counter | — | Corrupt warm-start stores renamed aside (`.corrupt-<n>`). |
//! | `doacross_pool_dispatches_total` | counter | `pool` | Solves routed per scheduler sub-pool (bounded; overflow aggregates under `pool="other"`). |
//! | `doacross_pool_steals_total` | counter | — | Dispatches redirected by the work-stealing fallback (preferred sub-pool busy). |
//! | `doacross_pool_wait_ns` | histogram | — | Time spent waiting for a free sub-pool (0 on the lock-free fast path). |
//! | `doacross_pool_solve_ns` | histogram | `pool` | End-to-end solve latency per sub-pool (emitted once any multi-pool dispatch has been traced; a solve that held no sub-pool is not in it). |
//! | `doacross_trace_events_total` | counter | — | Trace events ever emitted. |
//! | `doacross_trace_dropped_total` | counter | — | Trace events dropped to bound the ring. |
//! | `doacross_structure_solves_total` | counter | `fingerprint`, `variant` | Per-structure solve counts (bounded; overflow aggregates under `fingerprint="other"`). |
//! | `doacross_structure_solve_ns_total` | counter | `fingerprint`, `variant` | Per-structure total solve time. |
//!
//! Only solves that open a parallel region are admitted to a sub-pool, so
//! the `doacross_pool_*` families count parallel solves: a sequential plan
//! runs on the caller's thread, is dispatched nowhere, and its record
//! carries `pool: None`. An engine that has only run sequential plans
//! renders none of these families.
//!
//! Engines built with `EngineBuilder::profiling_default()` additionally
//! render the [`profile`] module's families (only once at least one solve
//! has been profiled, so unprofiled scrapes are byte-identical):
//! `doacross_profile_solves_total`, `doacross_profile_spans_total{kind}`,
//! `doacross_profile_dropped_spans_total`,
//! `doacross_profile_realized_critical_ns{variant}`,
//! `doacross_profile_priced_ns{variant}`, and the per-level
//! `doacross_profile_barrier_wait_ns{level}` histograms (levels past the
//! configured bound collapse under `level="other"`).
//!
//! The engine's `metrics_text()` prepends values it samples itself, which
//! live outside this registry and render on every engine, observability
//! on or off:
//!
//! | Metric | Type | Meaning |
//! |---|---|---|
//! | `doacross_workers` | gauge | Workers per scheduler sub-pool — the processor count `p` each solve runs on, not the engine's total (`doacross_workers × doacross_pools`). |
//! | `doacross_pools` | gauge | Scheduler sub-pool count. |
//! | `doacross_max_pending` | gauge | Callers allowed to wait for a free sub-pool before admission refuses. |
//! | `doacross_saturations_total` | counter | Admissions refused (every sub-pool busy, wait queue full). |
//! | `doacross_cache_plans` | gauge | Plans currently cached. |
//! | `doacross_cache_capacity` | gauge | Total plan capacity across cache shards. |
//! | `doacross_cache_shards` | gauge | Shard count of the plan cache. |
//! | `doacross_cache_{hits,misses,evictions,insertions}_total` | counter | The cache's exact traffic counters. |
//! | `doacross_adaptive_*_total` | counter | The adaptive loop's decision counters (`AdaptiveStats`), adaptive engines only. |
//!
//! # What "on" costs
//!
//! Off, every site is one branch. On, the engine's record stage reads the
//! clock once and stamps every event it emits with that reading
//! ([`Obs::emit_at`]); a delivered solve's `SolveFinished` is a handful of
//! relaxed atomic adds (zero-valued ones skipped) and three uncontended
//! locks — flight ring, trace-ring shard, per-structure map with one
//! lookup — and nothing is allocated. The per-structure map, like the
//! adaptive layer's telemetry shards and structure map, hashes with
//! [`FpBuildHasher`]: its keys are fingerprints — already 128-bit hashes
//! — so SipHash's DoS resistance is paid for twice, and one
//! multiply-fold per word replaces it. The fold is seeded once per
//! process from `RandomState`, so which fingerprints share a bucket
//! cannot be worked out ahead of time.

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
mod event;
mod flight;
mod fphash;
pub mod metrics;
pub mod profile;
pub mod render;
mod trace;

pub use event::{
    CandidatePrices, ColdStartReason, FpId, ObsFault, ObsVariant, PlanProvenance, SolveOutcome,
    SolveRecord, TraceEvent, TracedEvent,
};
pub use fphash::{FpBuildHasher, FpHasher, FpMap};
pub use metrics::HistogramSnapshot;

use flight::FlightRecorder;
use metrics::{Registry, VariantLatency};

/// Static `pool` label values for the bounded per-sub-pool series
/// (indices at or past [`metrics::MAX_POOL_SERIES`] render as `other`).
const POOL_LABELS: [&str; metrics::MAX_POOL_SERIES] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Capacity knobs for the observability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Total trace-ring capacity (events retained across all shards).
    pub trace_capacity: usize,
    /// Trace-ring shard count (rounded up to a power of two). More shards
    /// mean less producer contention; threads are assigned round-robin.
    pub trace_shards: usize,
    /// Flight-recorder capacity (recent solves retained).
    pub flight_capacity: usize,
    /// Per-fingerprint metric series bound; structures past it aggregate
    /// under the `fingerprint="other"` label.
    pub max_fingerprints: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            trace_capacity: 4096,
            trace_shards: 8,
            flight_capacity: 128,
            max_fingerprints: 64,
        }
    }
}

struct ObsInner {
    start: Instant,
    config: ObsConfig,
    trace: trace::TraceRing,
    registry: Registry,
    flight: FlightRecorder,
}

/// The observability handle. Cheap to clone (an `Option<Arc<_>>`); a
/// [`Obs::disabled`] handle makes every emit a single branch.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// A no-op handle: every emit is one branch, nothing is allocated.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle with the given capacities.
    pub fn new(config: ObsConfig) -> Self {
        Self {
            inner: Some(Arc::new(ObsInner {
                start: Instant::now(),
                config,
                trace: trace::TraceRing::new(config.trace_capacity, config.trace_shards),
                registry: Registry::default(),
                flight: FlightRecorder::new(config.flight_capacity),
            })),
        }
    }

    /// Whether events are being recorded. Call sites use this to skip
    /// event *construction* (reading clocks, cloning fingerprints) when
    /// observability is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `event`: updates the metrics registry, appends to the
    /// trace ring, feeds the flight recorder (for
    /// [`TraceEvent::SolveFinished`]). A no-op on a disabled handle.
    pub fn emit(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.absorb(inner.start.elapsed(), event);
        }
    }

    /// [`Obs::emit`] stamped with a clock reading the caller already took,
    /// so several events of one stage share one reading (and one
    /// `at_ns`). A no-op on a disabled handle.
    pub fn emit_at(&self, at: Instant, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.absorb(at.saturating_duration_since(inner.start), event);
        }
    }
}

impl ObsInner {
    fn absorb(&self, since_start: std::time::Duration, event: TraceEvent) {
        let at_ns = since_start.as_nanos() as u64;
        match &event {
            TraceEvent::SolveFinished { record } => {
                self.registry
                    .record_solve(record, self.config.max_fingerprints);
                self.flight.push(*record);
            }
            TraceEvent::PlanBuilt {
                variant, build_ns, ..
            } => self.registry.record_plan_built(*variant, *build_ns),
            TraceEvent::CacheInvalidated { .. } => {
                self.registry
                    .cache_invalidations_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::PlanSwapped { .. } => {
                self.registry
                    .plan_swaps_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::StoreSaved { plans } => {
                self.registry
                    .store_saves_total
                    .fetch_add(1, Ordering::Relaxed);
                self.registry
                    .store_plans_saved_total
                    .fetch_add(*plans, Ordering::Relaxed);
            }
            TraceEvent::StoreLoaded { restored, .. } => {
                self.registry
                    .store_loads_total
                    .fetch_add(1, Ordering::Relaxed);
                self.registry
                    .store_plans_restored_total
                    .fetch_add(*restored, Ordering::Relaxed);
            }
            TraceEvent::ColdStart { .. } => {
                self.registry
                    .cold_starts_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::PlanVerified { sound, .. } => {
                let counter = if *sound {
                    &self.registry.verify_passes_total
                } else {
                    &self.registry.verify_failures_total
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::Divergence { .. } => {
                self.registry
                    .divergences_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::TrialStarted { .. } => {
                self.registry
                    .trials_started_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::TrialCommitted { .. } => {
                self.registry
                    .trials_committed_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::TrialDemoted { .. } => {
                self.registry
                    .trials_demoted_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::BaselineProbed { .. } => {
                self.registry
                    .baseline_probes_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::PoolDispatched {
                pool,
                stolen,
                wait_ns,
            } => {
                self.registry.record_pool_dispatch(*pool, *stolen, *wait_ns);
            }
            TraceEvent::SolvePoisoned { fault, .. } => {
                let counter = match fault {
                    ObsFault::WorkerPanic { .. } => &self.registry.fault_panics_total,
                    ObsFault::DeadlineExpired => &self.registry.fault_timeouts_total,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::SolveFellBack { .. } => {
                self.registry
                    .fault_fallbacks_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::StoreQuarantined { .. } => {
                self.registry
                    .store_quarantines_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::CacheEvicted { .. } => {
                // Counted by the cache's own exact CacheStats, which the
                // engine samples at scrape time; the registry does not
                // duplicate them. The trace ring still records each one.
            }
            TraceEvent::SolveProfiled { .. } => {
                // Counted by the engine's Profiler, which renders its own
                // doacross_profile_* families; the registry does not
                // duplicate them. The ring still records the event.
            }
        }
        self.trace.push(at_ns, event);
    }
}

impl Obs {
    /// Snapshot of the retained trace events, oldest first.
    pub fn trace_events(&self) -> Vec<TracedEvent> {
        self.inner
            .as_ref()
            .map(|i| i.trace.snapshot())
            .unwrap_or_default()
    }

    /// Retained flight-recorder solves, oldest first.
    pub fn recent_solves(&self) -> Vec<SolveRecord> {
        self.inner
            .as_ref()
            .map(|i| i.flight.snapshot())
            .unwrap_or_default()
    }

    /// Per-variant solve-latency histograms (only variants with at least
    /// one recorded solve).
    fn solve_latency(&self) -> Vec<VariantLatency> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        ObsVariant::ALL
            .iter()
            .filter_map(|&v| {
                let (buckets, sum_ns, count) = inner.registry.solve_ns[v.index()].snapshot();
                (count > 0).then_some(VariantLatency {
                    variant: v,
                    histogram: HistogramSnapshot {
                        buckets,
                        sum_ns,
                        count,
                    },
                })
            })
            .collect()
    }

    /// Renders the registry in Prometheus text-exposition format into
    /// `buf`. The metric names are documented at the crate root. A no-op
    /// on a disabled handle.
    pub fn render_prometheus(&self, buf: &mut String) {
        let Some(inner) = &self.inner else { return };
        let r = &inner.registry;
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);

        let mut solve_samples: Vec<([(&str, &str); 2], u64)> = Vec::new();
        for v in ObsVariant::ALL {
            for p in PlanProvenance::ALL {
                let n = load(&r.solves[v.index()][p.index()]);
                if n > 0 {
                    solve_samples.push(([("variant", v.as_str()), ("provenance", p.as_str())], n));
                }
            }
        }
        let solve_refs: Vec<(&[(&str, &str)], u64)> =
            solve_samples.iter().map(|(l, n)| (&l[..], *n)).collect();
        render::counter_family(
            buf,
            "doacross_solves_total",
            "Completed solves by executor variant and plan provenance.",
            &solve_refs,
        );

        let latencies = self.solve_latency();
        let latency_labels: Vec<[(&str, &str); 1]> = latencies
            .iter()
            .map(|l| [("variant", l.variant.as_str())])
            .collect();
        let latency_refs: Vec<(&[(&str, &str)], &HistogramSnapshot)> = latencies
            .iter()
            .zip(latency_labels.iter())
            .map(|(l, labels)| (&labels[..], &l.histogram))
            .collect();
        render::histogram_family(
            buf,
            "doacross_solve_ns",
            "End-to-end solve latency in nanoseconds, by executor variant.",
            &latency_refs,
        );

        render::counter(
            buf,
            "doacross_wait_polls_total",
            "Busy-wait poll loops across all solves (flag-based variants).",
            load(&r.wait_polls_total),
        );
        render::counter(
            buf,
            "doacross_stalls_total",
            "Busy-wait stall events across all solves.",
            load(&r.stalls_total),
        );
        render::counter(
            buf,
            "doacross_barrier_crossings_total",
            "Wavefront barrier crossings across all solves.",
            load(&r.barrier_crossings_total),
        );

        let build_samples: Vec<([(&str, &str); 1], u64)> = ObsVariant::ALL
            .iter()
            .filter_map(|&v| {
                let n = load(&r.plan_builds[v.index()]);
                (n > 0).then_some(([("variant", v.as_str())], n))
            })
            .collect();
        let build_refs: Vec<(&[(&str, &str)], u64)> =
            build_samples.iter().map(|(l, n)| (&l[..], *n)).collect();
        render::counter_family(
            buf,
            "doacross_plan_builds_total",
            "Execution plans built, by chosen variant.",
            &build_refs,
        );
        let (buckets, sum_ns, count) = r.plan_build_ns.snapshot();
        let build_hist = HistogramSnapshot {
            buckets,
            sum_ns,
            count,
        };
        render::histogram_family(
            buf,
            "doacross_plan_build_ns",
            "Plan build (preprocessing) latency in nanoseconds.",
            &[(&[], &build_hist)],
        );

        render::counter(
            buf,
            "doacross_cache_invalidations_total",
            "Explicit plan invalidations.",
            load(&r.cache_invalidations_total),
        );
        render::counter(
            buf,
            "doacross_plan_swaps_total",
            "Adaptive in-place plan replacements.",
            load(&r.plan_swaps_total),
        );
        render::counter(
            buf,
            "doacross_store_saves_total",
            "Plan-store save operations.",
            load(&r.store_saves_total),
        );
        render::counter(
            buf,
            "doacross_store_loads_total",
            "Plan-store load operations.",
            load(&r.store_loads_total),
        );
        render::counter(
            buf,
            "doacross_store_plans_saved_total",
            "Plans written across all saves.",
            load(&r.store_plans_saved_total),
        );
        render::counter(
            buf,
            "doacross_store_plans_restored_total",
            "Plans admitted to the cache across all loads.",
            load(&r.store_plans_restored_total),
        );
        render::counter(
            buf,
            "doacross_cold_starts_total",
            "Warm starts that fell back to an empty cache.",
            load(&r.cold_starts_total),
        );
        render::counter(
            buf,
            "doacross_verify_passes_total",
            "Plan schedules the soundness verifier proved sound.",
            load(&r.verify_passes_total),
        );
        render::counter(
            buf,
            "doacross_verify_failures_total",
            "Plan schedules the soundness verifier rejected.",
            load(&r.verify_failures_total),
        );
        render::counter(
            buf,
            "doacross_divergences_total",
            "Adaptive divergence detections.",
            load(&r.divergences_total),
        );
        render::counter(
            buf,
            "doacross_trials_started_total",
            "Adaptive challenger trials started.",
            load(&r.trials_started_total),
        );
        render::counter(
            buf,
            "doacross_trials_committed_total",
            "Adaptive trials committed.",
            load(&r.trials_committed_total),
        );
        render::counter(
            buf,
            "doacross_trials_demoted_total",
            "Adaptive trials rolled back.",
            load(&r.trials_demoted_total),
        );
        render::counter(
            buf,
            "doacross_baseline_probes_total",
            "Deliberate adaptive baseline re-measurements.",
            load(&r.baseline_probes_total),
        );
        render::counter(
            buf,
            "doacross_fault_panics_total",
            "Parallel attempts abandoned because a worker panicked.",
            load(&r.fault_panics_total),
        );
        render::counter(
            buf,
            "doacross_fault_timeouts_total",
            "Parallel attempts abandoned because the solve deadline expired.",
            load(&r.fault_timeouts_total),
        );
        render::counter(
            buf,
            "doacross_fault_fallbacks_total",
            "Faulted attempts re-run successfully on the sequential variant.",
            load(&r.fault_fallbacks_total),
        );
        render::counter(
            buf,
            "doacross_store_quarantines_total",
            "Corrupt warm-start stores renamed aside.",
            load(&r.store_quarantines_total),
        );

        // Scheduler sub-pool series. The per-pool families only appear
        // once a dispatch has been traced, so a single-pool engine's
        // scrape is byte-for-byte what it was before the scheduler
        // existed.
        let mut pool_samples: Vec<([(&str, &str); 1], u64)> = Vec::new();
        for (i, c) in r.pool_dispatches.iter().enumerate() {
            let n = load(c);
            if n > 0 {
                pool_samples.push(([("pool", POOL_LABELS[i])], n));
            }
        }
        let overflow_dispatches = load(&r.pool_overflow_dispatches);
        if overflow_dispatches > 0 {
            pool_samples.push(([("pool", "other")], overflow_dispatches));
        }
        if r.pools_dispatched.load(Ordering::Relaxed) {
            let pool_refs: Vec<(&[(&str, &str)], u64)> =
                pool_samples.iter().map(|(l, n)| (&l[..], *n)).collect();
            render::counter_family(
                buf,
                "doacross_pool_dispatches_total",
                "Solves routed per scheduler sub-pool (overflow under pool=\"other\").",
                &pool_refs,
            );
            render::counter(
                buf,
                "doacross_pool_steals_total",
                "Dispatches redirected by the work-stealing fallback.",
                load(&r.pool_steals_total),
            );
            let (buckets, sum_ns, count) = r.pool_wait_ns.snapshot();
            let wait_hist = HistogramSnapshot {
                buckets,
                sum_ns,
                count,
            };
            render::histogram_family(
                buf,
                "doacross_pool_wait_ns",
                "Time spent waiting for a free scheduler sub-pool in nanoseconds.",
                &[(&[], &wait_hist)],
            );
            let pool_latencies: Vec<([(&str, &str); 1], HistogramSnapshot)> = r
                .pool_solve_ns
                .iter()
                .enumerate()
                .filter_map(|(i, h)| {
                    let (buckets, sum_ns, count) = h.snapshot();
                    (count > 0).then_some((
                        [("pool", POOL_LABELS[i])],
                        HistogramSnapshot {
                            buckets,
                            sum_ns,
                            count,
                        },
                    ))
                })
                .collect();
            let pool_latency_refs: Vec<(&[(&str, &str)], &HistogramSnapshot)> = pool_latencies
                .iter()
                .map(|(labels, h)| (&labels[..], h))
                .collect();
            render::histogram_family(
                buf,
                "doacross_pool_solve_ns",
                "End-to-end solve latency in nanoseconds, by scheduler sub-pool.",
                &pool_latency_refs,
            );
        }

        render::counter(
            buf,
            "doacross_trace_events_total",
            "Trace events ever emitted.",
            inner.trace.pushed(),
        );
        render::counter(
            buf,
            "doacross_trace_dropped_total",
            "Trace events dropped to bound the ring.",
            inner.trace.dropped(),
        );

        // Per-structure series, fingerprint-sorted for a stable scrape.
        let map = match r.per_fp.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut rows: Vec<(String, [u64; 6], [u64; 6])> = map
            .iter()
            .map(|(fp, m)| {
                let solves = std::array::from_fn(|i| load(&m.solves[i]));
                let ns = std::array::from_fn(|i| load(&m.solve_ns_total[i]));
                (fp.to_string(), solves, ns)
            })
            .collect();
        drop(map);
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let overflow_solves: [u64; 6] = std::array::from_fn(|i| load(&r.overflow.solves[i]));
        let overflow_ns: [u64; 6] = std::array::from_fn(|i| load(&r.overflow.solve_ns_total[i]));
        if overflow_solves.iter().any(|&n| n > 0) {
            rows.push(("other".to_string(), overflow_solves, overflow_ns));
        }
        let mut solve_rows: Vec<([(&str, &str); 2], u64)> = Vec::new();
        let mut ns_rows: Vec<([(&str, &str); 2], u64)> = Vec::new();
        for (fp, solves, ns) in &rows {
            for v in ObsVariant::ALL {
                let n = solves[v.index()];
                if n > 0 {
                    solve_rows.push(([("fingerprint", fp), ("variant", v.as_str())], n));
                    ns_rows.push((
                        [("fingerprint", fp), ("variant", v.as_str())],
                        ns[v.index()],
                    ));
                }
            }
        }
        let solve_row_refs: Vec<(&[(&str, &str)], u64)> =
            solve_rows.iter().map(|(l, n)| (&l[..], *n)).collect();
        render::counter_family(
            buf,
            "doacross_structure_solves_total",
            "Per-structure solve counts (bounded; overflow under fingerprint=\"other\").",
            &solve_row_refs,
        );
        let ns_row_refs: Vec<(&[(&str, &str)], u64)> =
            ns_rows.iter().map(|(l, n)| (&l[..], *n)).collect();
        render::counter_family(
            buf,
            "doacross_structure_solve_ns_total",
            "Per-structure total solve time in nanoseconds.",
            &ns_row_refs,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_event(fp: FpId, variant: ObsVariant, ns: u64) -> TraceEvent {
        TraceEvent::SolveFinished {
            record: SolveRecord {
                fp,
                variant,
                provenance: PlanProvenance::PlanCached,
                generation: 1,
                total_ns: ns,
                inspector_ns: 0,
                executor_ns: ns,
                post_ns: 0,
                iterations: 10,
                workers: 2,
                stalls: 1,
                wait_polls: 3,
                barrier_crossings: 0,
                pool: Some(0),
                outcome: SolveOutcome::Ok,
            },
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        obs.emit(solve_event(FpId(1, 2), ObsVariant::Doacross, 100));
        assert!(obs.trace_events().is_empty());
        assert!(obs.recent_solves().is_empty());
        let mut buf = String::new();
        obs.render_prometheus(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn emit_feeds_registry_ring_and_flight() {
        let obs = Obs::new(ObsConfig::default());
        obs.emit(solve_event(
            FpId(0xabc, 0xdef),
            ObsVariant::Wavefront,
            5_000,
        ));
        obs.emit(TraceEvent::CacheHit {
            fp: FpId(0xabc, 0xdef),
        });
        assert_eq!(obs.trace_events().len(), 2);
        let solves = obs.recent_solves();
        assert_eq!(solves.len(), 1);
        assert_eq!(solves[0].variant, ObsVariant::Wavefront);
        let mut buf = String::new();
        obs.render_prometheus(&mut buf);
        assert!(buf
            .contains("doacross_solves_total{variant=\"wavefront\",provenance=\"plan_cached\"} 1"));
        assert!(buf.contains("doacross_solve_ns_bucket{variant=\"wavefront\",le=\"+Inf\"} 1"));
        assert!(buf.contains("doacross_wait_polls_total 3"));
        assert!(buf.contains("doacross_trace_events_total 2"));
        assert!(buf.contains("doacross_structure_solves_total{fingerprint=\"0000000000000abc0000000000000def\",variant=\"wavefront\"} 1"));
    }

    #[test]
    fn pool_series_render_once_dispatched() {
        let obs = Obs::new(ObsConfig::default());
        // Before any dispatch, no pool families at all — a single-pool
        // engine's scrape is unchanged.
        let mut quiet = String::new();
        obs.render_prometheus(&mut quiet);
        assert!(!quiet.contains("doacross_pool_"));

        // A single-pool engine never traces a dispatch: its scrape has no
        // pool family, and the per-pool latency it would never render is
        // not recorded either.
        let single = Obs::new(ObsConfig::default());
        single.emit(solve_event(FpId(1, 1), ObsVariant::Sequential, 10));
        let mut text = String::new();
        single.render_prometheus(&mut text);
        assert!(!text.contains("doacross_pool_"));
        let (_, _, unrecorded) =
            single.inner.as_ref().unwrap().registry.pool_solve_ns[0].snapshot();
        assert_eq!(
            unrecorded, 0,
            "pool latency recorded where it is never shown"
        );

        // Multi-pool: each solve traces its dispatch before it finishes,
        // so every delivered solve lands in its pool's series.
        obs.emit(TraceEvent::PoolDispatched {
            pool: 1,
            stolen: true,
            wait_ns: 500,
        });
        obs.emit(solve_event(FpId(1, 1), ObsVariant::Sequential, 10));
        let mut buf = String::new();
        obs.render_prometheus(&mut buf);
        assert!(buf.contains("doacross_pool_dispatches_total{pool=\"1\"} 1"));
        assert!(buf.contains("doacross_pool_steals_total 1"));
        assert!(buf.contains("doacross_pool_wait_ns_count 1"));
        assert!(buf.contains("doacross_pool_solve_ns_bucket{pool=\"0\",le=\"+Inf\"} 1"));
    }

    #[test]
    fn a_solve_that_held_no_sub_pool_is_in_no_pool_series() {
        let obs = Obs::new(ObsConfig::default());
        obs.emit(TraceEvent::PoolDispatched {
            pool: 0,
            stolen: false,
            wait_ns: 0,
        });
        let mut event = solve_event(FpId(3, 3), ObsVariant::Sequential, 10);
        if let TraceEvent::SolveFinished { record } = &mut event {
            record.pool = None;
        }
        obs.emit(event);
        let r = &obs.inner.as_ref().unwrap().registry;
        assert!(r.pool_solve_ns.iter().all(|h| h.snapshot().2 == 0));
        let solves = obs.recent_solves();
        assert_eq!(solves.len(), 1);
        assert_eq!(solves[0].pool, None);
    }
}
