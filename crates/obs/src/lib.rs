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
//! | `doacross_trace_dropped_total` | counter | — | Trace events dropped to bound the ring (events − retained). |
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
//! `doacross_profile_barrier_wait_ns{level}` histograms (levels from 16 on
//! collapse under `level="other"`).
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
//! Off, every site is one branch. On, an enabled handle is one lock
//! around one state: the solve ledger (the flight ring, the solve counts,
//! the latency histograms, the poll/stall/crossing totals and the
//! per-structure map), the rare events' counters and histograms, and the
//! trace ring with its drop count and next sequence number — all plain
//! fields, so every update is a plain add under the lock. An emit takes
//! the lock once for its events: a solve's `SolveFinished` and, when the
//! profiler is armed, its `SolveProfiled` are counted and pushed in one
//! acquisition under consecutive sequence numbers ([`Obs::emit_at`],
//! stamped with the one clock reading the engine already took; a
//! sequential solve's is the reading that ended its run). The profiler's
//! harvest takes its ring lock once, its counters and per-level
//! histograms being fields under it. A warm observed, profiled sequential
//! solve therefore takes 2 locks (obs state, profile ring) and 0 atomic
//! read-modify-writes, down from 3 locks (ledger, trace shard, profile
//! ring) and 1 (the trace ring's sequence reservation), and nothing is
//! allocated; the adaptive hook, outside this crate, is not counted.
//! Every emitting thread shares the whole 4096-event trace ring. The
//! per-structure map, like the adaptive layer's structure map, hashes with
//! [`FpBuildHasher`]: its keys are fingerprints — already 128-bit hashes
//! — so SipHash's DoS resistance is paid for twice, and one
//! multiply-fold per word replaces it. The fold is seeded once per
//! process from `RandomState`, so which fingerprints share a bucket
//! cannot be worked out ahead of time.

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
mod event;
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

use metrics::{Registry, SolveLedger};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Static `pool` label values for the bounded per-sub-pool series
/// (indices at or past [`metrics::MAX_POOL_SERIES`] render as `other`).
const POOL_LABELS: [&str; metrics::MAX_POOL_SERIES] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];

/// Everything an enabled handle records, behind its one lock.
struct ObsState {
    ledger: SolveLedger,
    registry: Registry,
    trace: trace::TraceRing,
}

struct ObsInner {
    start: Instant,
    state: Mutex<ObsState>,
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

    /// An enabled handle: a 4096-event trace ring, a 128-solve flight
    /// recorder and 64 per-fingerprint metric series.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(ObsInner {
                start: Instant::now(),
                state: Mutex::new(ObsState {
                    ledger: SolveLedger::new(),
                    registry: Registry::default(),
                    trace: trace::TraceRing::new(),
                }),
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

    /// Records `event`: updates the metrics registry (or, for
    /// [`TraceEvent::SolveFinished`], the solve ledger and its flight
    /// recorder) and appends to the trace ring. A no-op on a disabled
    /// handle.
    pub fn emit(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.absorb(inner.start.elapsed(), &[event]);
        }
    }

    /// [`Obs::emit`] for the events of one stage, in order, stamped with a
    /// clock reading the caller already took: they share one reading (and
    /// one `at_ns`) and reach the trace ring in one push, under
    /// consecutive sequence numbers. A no-op on a disabled handle.
    pub fn emit_at(&self, at: Instant, events: &[TraceEvent]) {
        if let Some(inner) = &self.inner {
            inner.absorb(at.saturating_duration_since(inner.start), events);
        }
    }
}

impl ObsInner {
    fn state(&self) -> MutexGuard<'_, ObsState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Counts and traces `events` under one acquisition of the lock.
    fn absorb(&self, since_start: std::time::Duration, events: &[TraceEvent]) {
        let mut state = self.state();
        let ObsState {
            ledger,
            registry,
            trace,
        } = &mut *state;
        for event in events {
            match event {
                TraceEvent::SolveFinished { record } => {
                    ledger.record(record, registry.pools_dispatched)
                }
                _ => registry.count(event),
            }
        }
        trace.push(since_start.as_nanos() as u64, events);
    }
}

impl Obs {
    /// Snapshot of the retained trace events, oldest first.
    pub fn trace_events(&self) -> Vec<TracedEvent> {
        self.inner
            .as_ref()
            .map(|i| i.state().trace.events.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Retained flight-recorder solves, oldest first.
    pub fn recent_solves(&self) -> Vec<SolveRecord> {
        self.inner
            .as_ref()
            .map(|i| i.state().ledger.flight.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Renders the registry in Prometheus text-exposition format into
    /// `buf`, holding the handle's lock once for the whole render. The
    /// metric names are documented at the crate root. A no-op on a
    /// disabled handle.
    pub fn render_prometheus(&self, buf: &mut String) {
        let Some(inner) = &self.inner else { return };
        let state = inner.state();
        let (ledger, r) = (&state.ledger, &state.registry);
        let mut solve_samples: Vec<([(&str, &str); 2], u64)> = Vec::new();
        for v in ObsVariant::ALL {
            for p in PlanProvenance::ALL {
                let n = ledger.solves[v.index()][p.index()];
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

        // Only variants with at least one recorded solve.
        let latency_labels: Vec<([(&str, &str); 1], &HistogramSnapshot)> = ObsVariant::ALL
            .iter()
            .map(|&v| ([("variant", v.as_str())], &ledger.solve_ns[v.index()]))
            .filter(|(_, h)| h.count > 0)
            .collect();
        let latency_refs: Vec<(&[(&str, &str)], &HistogramSnapshot)> =
            latency_labels.iter().map(|(l, h)| (&l[..], *h)).collect();
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
            ledger.wait_polls_total,
        );
        render::counter(
            buf,
            "doacross_stalls_total",
            "Busy-wait stall events across all solves.",
            ledger.stalls_total,
        );
        render::counter(
            buf,
            "doacross_barrier_crossings_total",
            "Wavefront barrier crossings across all solves.",
            ledger.barrier_crossings_total,
        );

        let build_samples: Vec<([(&str, &str); 1], u64)> = ObsVariant::ALL
            .iter()
            .filter_map(|&v| {
                let n = r.plan_builds[v.index()];
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
        render::histogram_family(
            buf,
            "doacross_plan_build_ns",
            "Plan build (preprocessing) latency in nanoseconds.",
            &[(&[], &r.plan_build_ns)],
        );
        for ((name, help), &n) in metrics::COUNTERS.iter().zip(&r.counters) {
            render::counter(buf, name, help, n);
        }

        // Scheduler sub-pool series. The per-pool families only appear
        // once a dispatch has been traced, so a single-pool engine's
        // scrape is byte-for-byte what it was before the scheduler
        // existed.
        if r.pools_dispatched {
            let pool_samples: Vec<([(&str, &str); 1], u64)> = r
                .pool_dispatches
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| ([("pool", *POOL_LABELS.get(i).unwrap_or(&"other"))], n))
                .collect();
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
                r.pool_steals_total,
            );
            render::histogram_family(
                buf,
                "doacross_pool_wait_ns",
                "Time spent waiting for a free scheduler sub-pool in nanoseconds.",
                &[(&[], &r.pool_wait_ns)],
            );
            let pool_latencies: Vec<([(&str, &str); 1], &HistogramSnapshot)> = ledger
                .pool_solve_ns
                .iter()
                .zip(POOL_LABELS)
                .filter(|(h, _)| h.count > 0)
                .map(|(h, pool)| ([("pool", pool)], h))
                .collect();
            let pool_latency_refs: Vec<(&[(&str, &str)], &HistogramSnapshot)> = pool_latencies
                .iter()
                .map(|(labels, h)| (&labels[..], *h))
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
            state.trace.pushed,
        );
        render::counter(
            buf,
            "doacross_trace_dropped_total",
            "Trace events dropped to bound the ring.",
            state.trace.dropped,
        );

        // Per-structure series, fingerprint-sorted for a stable scrape.
        let mut rows: Vec<(String, &metrics::FpMetrics)> = ledger
            .per_fp
            .iter()
            .map(|(fp, m)| (fp.to_string(), m))
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if ledger.overflow.solves.iter().any(|&n| n > 0) {
            rows.push(("other".to_string(), &ledger.overflow));
        }
        let mut solve_rows: Vec<([(&str, &str); 2], u64)> = Vec::new();
        let mut ns_rows: Vec<([(&str, &str); 2], u64)> = Vec::new();
        for (fp, m) in &rows {
            for v in ObsVariant::ALL {
                let n = m.solves[v.index()];
                if n > 0 {
                    solve_rows.push(([("fingerprint", fp), ("variant", v.as_str())], n));
                    ns_rows.push((
                        [("fingerprint", fp), ("variant", v.as_str())],
                        m.solve_ns_total[v.index()],
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
        let obs = Obs::new();
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

    /// Each rare event lands in the rows of the counter table that name
    /// it, by what it carries, and in no other row.
    #[test]
    fn each_rare_event_counts_in_its_own_rows() {
        let (fp, v) = (FpId(1, 1), ObsVariant::Doacross);
        let cases: [(TraceEvent, &[(&str, u64)]); 16] = [
            (
                TraceEvent::CacheInvalidated {
                    fp,
                    generation: 1,
                    dropped: true,
                },
                &[("doacross_cache_invalidations_total", 1)],
            ),
            (
                TraceEvent::PlanSwapped {
                    fp,
                    variant: v,
                    generation: 2,
                },
                &[("doacross_plan_swaps_total", 1)],
            ),
            (
                TraceEvent::StoreSaved { plans: 3 },
                &[
                    ("doacross_store_saves_total", 1),
                    ("doacross_store_plans_saved_total", 3),
                ],
            ),
            (
                TraceEvent::StoreLoaded {
                    plans: 9,
                    restored: 4,
                },
                &[
                    ("doacross_store_loads_total", 1),
                    ("doacross_store_plans_restored_total", 4),
                ],
            ),
            (
                TraceEvent::ColdStart {
                    reason: ColdStartReason::Corrupt,
                },
                &[("doacross_cold_starts_total", 1)],
            ),
            (
                TraceEvent::PlanVerified {
                    fp,
                    variant: v,
                    sound: true,
                },
                &[("doacross_verify_passes_total", 1)],
            ),
            (
                TraceEvent::PlanVerified {
                    fp,
                    variant: v,
                    sound: false,
                },
                &[("doacross_verify_failures_total", 1)],
            ),
            (
                TraceEvent::Divergence {
                    fp,
                    variant: v,
                    static_price: 1.0,
                    refined_price: 2.0,
                },
                &[("doacross_divergences_total", 1)],
            ),
            (
                TraceEvent::TrialStarted {
                    fp,
                    challenger: v,
                    incumbent: ObsVariant::Sequential,
                },
                &[("doacross_trials_started_total", 1)],
            ),
            (
                TraceEvent::TrialCommitted { fp, variant: v },
                &[("doacross_trials_committed_total", 1)],
            ),
            (
                TraceEvent::TrialDemoted { fp, variant: v },
                &[("doacross_trials_demoted_total", 1)],
            ),
            (
                TraceEvent::BaselineProbed { fp, ns: 5 },
                &[("doacross_baseline_probes_total", 1)],
            ),
            (
                TraceEvent::SolvePoisoned {
                    fp,
                    variant: v,
                    pool: 0,
                    fault: ObsFault::WorkerPanic { worker: 1 },
                },
                &[("doacross_fault_panics_total", 1)],
            ),
            (
                TraceEvent::SolvePoisoned {
                    fp,
                    variant: v,
                    pool: 0,
                    fault: ObsFault::DeadlineExpired,
                },
                &[("doacross_fault_timeouts_total", 1)],
            ),
            (
                TraceEvent::SolveFellBack { fp, from: v },
                &[("doacross_fault_fallbacks_total", 1)],
            ),
            (
                TraceEvent::StoreQuarantined { index: 2 },
                &[("doacross_store_quarantines_total", 1)],
            ),
        ];
        let mut reached = vec![false; metrics::COUNTERS.len()];
        for (event, want) in cases {
            let obs = Obs::new();
            obs.emit(event);
            let mut text = String::new();
            obs.render_prometheus(&mut text);
            for (row, (name, _)) in metrics::COUNTERS.iter().enumerate() {
                let n = want.iter().find(|(w, _)| w == name).map_or(0, |&(_, n)| n);
                reached[row] |= n > 0;
                assert!(
                    text.contains(&format!("\n{name} {n}\n")),
                    "{event:?}: {name} should read {n}"
                );
            }
        }
        assert!(reached.iter().all(|&r| r), "a row no event reaches");
    }

    #[test]
    fn pool_series_render_once_dispatched() {
        let obs = Obs::new();
        // Before any dispatch, no pool families at all — a single-pool
        // engine's scrape is unchanged.
        let mut quiet = String::new();
        obs.render_prometheus(&mut quiet);
        assert!(!quiet.contains("doacross_pool_"));

        // A single-pool engine never traces a dispatch: its scrape has no
        // pool family, and the per-pool latency it would never render is
        // not recorded either.
        let single = Obs::new();
        single.emit(solve_event(FpId(1, 1), ObsVariant::Sequential, 10));
        let mut text = String::new();
        single.render_prometheus(&mut text);
        assert!(!text.contains("doacross_pool_"));
        let unrecorded = single.inner.as_ref().unwrap().state().ledger.pool_solve_ns[0].count;
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
        let obs = Obs::new();
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
        let state = obs.inner.as_ref().unwrap().state();
        assert!(state.ledger.pool_solve_ns.iter().all(|h| h.count == 0));
        drop(state);
        let solves = obs.recent_solves();
        assert_eq!(solves.len(), 1);
        assert_eq!(solves[0].pool, None);
    }
}
