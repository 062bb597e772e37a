//! [`Engine`]: the Arc-shareable doacross session.

use crate::adaptive::{AdaptiveRuntime, AdaptiveStats, TelemetryTotals};
use crate::builder::EngineBuilder;
use crate::error::EngineError;
use crate::fault::FallbackPolicy;
use crate::prepared::PreparedLoop;
use crate::solve::{clamp_ns, LeaseScratch};
use doacross_core::{AccessPattern, DoacrossLoop, RunStats};
use doacross_obs::profile::{Profiler, SolveProfile};
use doacross_obs::{render, Obs, SolveRecord, TraceEvent, TracedEvent};
use doacross_par::ThreadPool;
use doacross_plan::{
    selection, CacheStats, ConcurrentPlanCache, PatternFingerprint, PlanStore, Planner,
};
use doacross_sched::{PoolSet, PoolStats};
use doacross_sim::CalibratedModel;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks `mutex`, recovering the guard if a panic poisoned it: every
/// engine lock guards state that stays whole across an unwinding solve,
/// evaluation or probe, so one panic must not wedge the engine.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared state behind every [`Engine`] clone and [`PreparedLoop`] handle.
pub(crate) struct EngineInner {
    /// The scheduler: engine workers partitioned into sub-pools, each an
    /// independent [`ThreadPool`], behind a lock-light dispatcher with
    /// bounded admission. One sub-pool (the default on small hosts)
    /// behaves exactly like the old single-pool engine.
    pub(crate) pools: PoolSet,
    pub(crate) planner: Planner,
    pub(crate) cache: ConcurrentPlanCache,
    /// Host calibration the planner's model came from (present unless
    /// `.planner(..)` was given) — the refinement anchor when adaptive.
    pub(crate) calibration: Option<&'static CalibratedModel>,
    /// The feedback loop (present for `adaptive()` engines).
    pub(crate) adaptive: Option<AdaptiveRuntime>,
    /// The observability handle every layer emits into (disabled unless
    /// built with [`EngineBuilder::observability_default`] — then each
    /// emit is a single branch).
    pub(crate) obs: Obs,
    /// The deep solve profiler (present when built with
    /// [`EngineBuilder::profiling_default`]): per-pool span arenas the
    /// executors deposit per-worker timelines into, harvested after every
    /// successful solve into the profile ring and the
    /// `doacross_profile_` metric families.
    pub(crate) profiler: Option<Profiler>,
    /// What each sub-pool's lease comes with — scratch executor and
    /// pristine-input buffer — indexed by `PoolGuard::index()`
    /// ([`crate::solve`]'s parallel path is the only reader).
    pub(crate) scratch: Vec<Mutex<LeaseScratch>>,
    /// Wall-clock budget per parallel solve
    /// ([`EngineBuilder::solve_deadline`]); `None` means unbounded.
    pub(crate) solve_deadline: Option<Duration>,
    /// What to do when a parallel solve faults
    /// ([`EngineBuilder::fallback`]).
    pub(crate) fallback: FallbackPolicy,
    /// Whether anything in the engine consumes a solve's wall time:
    /// observability on, a profiler, or adaptation. Derived at build and
    /// settable by nothing; when it is false a sequential solve reads no
    /// clock and reports `RunStats::total` as zero ([`crate::solve`]).
    pub(crate) timed: bool,
}

/// A thread-safe doacross session: one shared thread pool, one planner,
/// one plan cache — every entry point behind `&self`.
///
/// `Engine` is a cheap handle (clones share all state via `Arc`), and it
/// is `Send + Sync`: hand clones to threads, or share one instance behind
/// an `Arc`/`&'static` — both work. Parallel executions serialize at
/// region dispatch of their sub-pool (one parallel region at a time, like
/// a single shared-memory machine). Executes never take the plan cache's
/// lock: a prepared handle checks staleness with one atomic load.
/// Prepares serialize on that one lock, and a miss builds its plan under
/// it.
///
/// ```
/// use doacross_core::TestLoop;
/// use doacross_engine::Engine;
///
/// let engine = Engine::builder().workers(2).cache_capacity(16).build();
/// let loop_ = TestLoop::new(400, 1, 8);
///
/// // Prepared once; the handle is cloneable and usable from any thread.
/// let prepared = engine.prepare(&loop_).unwrap();
/// let worker = {
///     let (prepared, loop_) = (prepared.clone(), loop_.clone());
///     std::thread::spawn(move || {
///         let mut y = loop_.initial_y();
///         prepared.execute(&loop_, &mut y).unwrap();
///         y
///     })
/// };
/// let mut y = loop_.initial_y();
/// prepared.execute(&loop_, &mut y).unwrap();
/// assert_eq!(worker.join().unwrap(), y);
/// ```
#[derive(Clone)]
pub struct Engine {
    pub(crate) inner: Arc<EngineInner>,
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        pools: PoolSet,
        planner: Planner,
        cache: ConcurrentPlanCache,
        calibration: Option<&'static CalibratedModel>,
        adaptive: Option<AdaptiveRuntime>,
        obs: Obs,
        profiler: Option<Profiler>,
        solve_deadline: Option<Duration>,
        fallback: FallbackPolicy,
    ) -> Self {
        let scratch = (0..pools.pools())
            .map(|_| Mutex::new(LeaseScratch::new()))
            .collect();
        let timed = obs.enabled() || profiler.is_some() || adaptive.is_some();
        Self {
            inner: Arc::new(EngineInner {
                pools,
                planner,
                cache,
                calibration,
                adaptive,
                obs,
                profiler,
                scratch,
                solve_deadline,
                fallback,
                timed,
            }),
        }
    }

    /// Worker ("processor") count each solve runs on — the paper's `p`,
    /// per scheduler sub-pool. Total capacity is
    /// [`Engine::total_workers`].
    pub fn threads(&self) -> usize {
        self.inner.pools.workers_per_pool()
    }

    /// The primary sub-pool's thread pool — for running non-plan work
    /// (other solvers, the simulator's calibration loops) on the engine's
    /// workers instead of spawning a second pool.
    pub fn pool(&self) -> &ThreadPool {
        self.inner.pools.primary()
    }

    /// Scheduler sub-pool count ([`crate::EngineBuilder::pools`]).
    pub fn pools(&self) -> usize {
        self.inner.pools.pools()
    }

    /// Workers across all sub-pools (`pools() × threads()`).
    pub fn total_workers(&self) -> usize {
        self.inner.pools.total_workers()
    }

    /// Callers allowed to wait for a free sub-pool before admission
    /// refuses with [`EngineError::Saturated`]
    /// ([`crate::DEFAULT_MAX_PENDING`]).
    pub fn max_pending(&self) -> usize {
        self.inner.pools.max_pending()
    }

    /// Solve admissions refused with [`EngineError::Saturated`] so far —
    /// parallel solves only, since a sequential plan is never admitted.
    pub fn saturations(&self) -> u64 {
        self.inner.pools.saturations()
    }

    /// What this engine does when a parallel solve faults
    /// ([`crate::EngineBuilder::fallback`]).
    pub fn fallback_policy(&self) -> FallbackPolicy {
        self.inner.fallback
    }

    /// Per-sub-pool dispatch and steal counters, in pool order. The
    /// dispatch sum reconciles exactly with the solves this engine has
    /// admitted: every parallel solve leases exactly one sub-pool, once,
    /// and nothing else ever leases one. A sequential plan is not
    /// admitted — it runs on the caller's thread and occupies no worker —
    /// so on a fault-free run the sum is the number of solves whose
    /// variant is not `sequential`.
    pub fn pool_stats(&self) -> Vec<PoolStats> {
        self.inner.pools.stats()
    }

    /// The planner selecting and pricing variants.
    pub fn planner(&self) -> &Planner {
        &self.inner.planner
    }

    /// Traffic counters of the plan cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Plans currently cached.
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// Resolves `pattern` to a [`PreparedLoop`] handle: fingerprint →
    /// cached plan (or a fresh build on miss) → handle. The handle is a
    /// cheap cloneable value; build once, execute from many threads.
    ///
    /// Two concurrent `prepare` calls for the same structure build the
    /// plan once — the second blocks on the cache lock and then hits.
    pub fn prepare<P: AccessPattern + ?Sized>(
        &self,
        pattern: &P,
    ) -> Result<PreparedLoop, EngineError> {
        let fingerprint = PatternFingerprint::of(pattern);
        // Plans are priced for one sub-pool's worker count — the
        // parallelism a solve actually gets — and planning-time probes run
        // on the primary sub-pool.
        // Every resident plan was built or restored for this engine's
        // model and worker count ([`Engine::warm_from`]).
        let (plan, generation_cell, generation, hit) =
            self.inner.cache.get_or_build(&fingerprint, || {
                self.inner.planner.plan_with_fingerprint(
                    self.inner.pools.primary(),
                    pattern,
                    fingerprint,
                )
            })?;
        if !hit && self.inner.obs.enabled() {
            let census = plan.census();
            let measured = |value: u64| census.is_classified().then_some(value);
            self.inner.obs.emit(TraceEvent::PlanBuilt {
                fp: plan.fingerprint().into(),
                variant: plan.variant().into(),
                build_ns: clamp_ns(plan.build_time()),
                iterations: census.iterations as u64,
                true_deps: measured(census.true_deps),
                critical_path: measured(census.critical_path as u64),
                chosen_price: plan.costs().of(plan.variant()).unwrap_or(f64::NAN),
                candidate_prices: plan.costs().as_candidate_prices(),
            });
        }
        Ok(PreparedLoop::new(
            Arc::clone(&self.inner),
            plan,
            generation_cell,
            generation,
            hit,
        ))
    }

    /// Prepares and executes in one call: plan on first sight of the
    /// access pattern, preprocessing skipped thereafter. Results are
    /// bit-identical to `doacross_core::seq::run_sequential`; the returned
    /// stats carry `PlanProvenance::PlanCold` when this call built the
    /// plan and `PlanProvenance::PlanCached` when the cache served it.
    ///
    /// **Price:** every call fingerprints the pattern — one scan of its
    /// index arrays to find the plan, hit or miss; at Table-1 size that is
    /// ≈ 1.2 bare sequential solves before the solve starts (the benchmark
    /// ledger's `plan.cache_hit_ns` 21–24 µs against `sparse.bare_p01_ns`
    /// ≈ 19 µs, one CPU of a 2-vCPU x86-64 host). A caller that solves one
    /// structure repeatedly should call [`Engine::prepare`] once and
    /// [`PreparedLoop::execute`] per solve: the handle carries the plan, so
    /// a warmed solve scans nothing. A miss adds the build: for a plan the
    /// reference counts settle as sequential (a linear left-hand side, the
    /// usual case for this host's prices) one sum of the row lengths and
    /// one bounds pass over the references, and no census pass; any other
    /// plan adds the census pass and whatever its variant needs.
    ///
    /// The returned `total` follows [`PreparedLoop::execute`]: zero ("not
    /// measured") for a sequential solve on an engine that consumes no
    /// solve time.
    pub fn run<L: DoacrossLoop + ?Sized>(
        &self,
        loop_: &L,
        y: &mut [f64],
    ) -> Result<RunStats, EngineError> {
        self.prepare(loop_)?.execute(loop_, y)
    }

    /// Invalidates the cached plan (if any) for `fingerprint` and advances
    /// the structure's generation, so outstanding [`PreparedLoop`] handles
    /// for it fail fast with [`EngineError::StalePlan`] instead of
    /// silently executing an outdated plan. Returns `true` when a cached
    /// plan was dropped.
    ///
    /// Use when a pattern's index arrays are about to be mutated in place:
    /// the fingerprint of the *new* contents would differ anyway, but
    /// handles prepared against the old contents would otherwise keep
    /// executing the old plan forever.
    pub fn invalidate(&self, fingerprint: &PatternFingerprint) -> bool {
        if let Some(adaptive) = &self.inner.adaptive {
            // The caller asserts the structure changed: its observations,
            // rejections, and trial budget no longer apply.
            adaptive.forget(fingerprint);
        }
        self.inner.cache.invalidate(fingerprint)
    }

    /// Whether this engine runs the adaptive feedback loop
    /// ([`crate::EngineBuilder::adaptive`]).
    pub fn is_adaptive(&self) -> bool {
        self.inner.adaptive.is_some()
    }

    /// Counters of the adaptive loop (`None` for a static engine).
    pub fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        self.inner.adaptive.as_ref().map(|a| a.stats())
    }

    /// Engine-wide telemetry aggregates (`None` for a static engine).
    pub fn telemetry_totals(&self) -> Option<TelemetryTotals> {
        self.inner.adaptive.as_ref().map(|a| a.telemetry_totals())
    }

    /// The host calibration this engine prices with: this process's
    /// measurement ([`doacross_sim::host_calibration`]), present unless
    /// `.planner(..)` was given. A warm start never changes it.
    pub fn calibration(&self) -> Option<&'static CalibratedModel> {
        self.inner.calibration
    }

    /// Captures the plan cache — resident plans in recency order, tagged
    /// with their invalidation generations — as an in-memory
    /// [`PlanStore`]: structure and this engine's decisions, never its cost
    /// model or an adaptive engine's telemetry. Serialize with
    /// [`PlanStore::to_bytes`] or go straight to disk with
    /// [`Engine::save_plans`].
    pub fn snapshot(&self) -> PlanStore {
        self.inner.cache.snapshot()
    }

    /// Restores `store` into the plan cache: recency-preserving, and
    /// generation-aware — plans whose structure was invalidated after the
    /// store was captured are dropped, and the store's invalidation
    /// generations are merged forward so pre-snapshot staleness survives
    /// the restart. Returns the number of plans inserted (a store larger
    /// than the cache evicts its own oldest entries during the restore;
    /// [`Engine::cache_len`] is the resident count).
    ///
    /// A stored plan is restored only when it was priced for this
    /// engine's worker count per pool and this engine's model selects its
    /// variant ([`doacross_plan::selection`], re-priced from the census and
    /// features it keeps), and it is restored with the prices that
    /// selection computes, so its `costs()` are this engine's, not the
    /// writer's (a plan already carrying them is restored as the stored
    /// `Arc`). Any other plan is skipped — its generation still merges —
    /// and the first [`Engine::prepare`] of its structure rebuilds it, so
    /// every resident plan is this engine's own decision at its own prices.
    pub fn warm_from(&self, store: &PlanStore) -> usize {
        let (model, workers) = (self.inner.planner.costs(), self.threads());
        let restored = self.inner.cache.warm_from(store, |plan| {
            if plan.processors() != workers {
                return None;
            }
            let (variant, costs) = selection(model, plan)?;
            (variant == plan.variant()).then(|| plan.repriced(costs))
        });
        if self.inner.obs.enabled() {
            self.inner.obs.emit(TraceEvent::StoreLoaded {
                plans: store.len() as u64,
                restored: restored as u64,
            });
        }
        restored
    }

    /// Snapshots the plan cache and writes it to `path` (atomic
    /// temp-file-and-rename). Returns the number of plans saved. A later
    /// [`Engine::load_plans`] — or [`crate::EngineBuilder::warm_start`] on
    /// the next process — makes the first solve of every saved structure a
    /// cache hit instead of a full preprocessing pass.
    pub fn save_plans(&self, path: impl AsRef<std::path::Path>) -> Result<usize, EngineError> {
        let store = self.snapshot();
        store.save(path)?;
        if self.inner.obs.enabled() {
            self.inner.obs.emit(TraceEvent::StoreSaved {
                plans: store.len() as u64,
            });
        }
        Ok(store.len())
    }

    /// Loads the plan store at `path` and warm-starts the cache from it
    /// (see [`Engine::warm_from`]: only plans this engine selects are
    /// restored). Returns the number of plans restored.
    /// A missing, corrupt, truncated, or version-mismatched store fails
    /// with [`EngineError::Persist`] and leaves the cache untouched.
    pub fn load_plans(&self, path: impl AsRef<std::path::Path>) -> Result<usize, EngineError> {
        let store = PlanStore::load(path)?;
        Ok(self.warm_from(&store))
    }

    /// Whether observability was enabled at build time.
    pub fn observability_enabled(&self) -> bool {
        self.inner.obs.enabled()
    }

    /// Whether the deep solve profiler was enabled at build time
    /// ([`EngineBuilder::profiling_default`]).
    pub fn profiling_enabled(&self) -> bool {
        self.inner.profiler.is_some()
    }

    /// The profile ring: the last N successfully profiled solves (oldest
    /// first), each with its per-worker span timeline, per-kind time
    /// attribution, and realized critical path. Empty when profiling is
    /// disabled.
    pub fn recent_profiles(&self) -> Vec<SolveProfile> {
        self.inner
            .profiler
            .as_ref()
            .map(|p| p.recent())
            .unwrap_or_default()
    }

    /// Renders the retained profiles as Chrome trace-event JSON — one
    /// process per profiled solve, one track per worker (plus the
    /// dispatcher), complete events for every work/wait span. Loads
    /// directly in Perfetto or `about://tracing`; structurally checkable
    /// with [`doacross_obs::profile::validate_chrome_trace`]. An engine
    /// without profiling renders an empty (but valid) trace document.
    pub fn profile_chrome_trace(&self) -> String {
        match &self.inner.profiler {
            Some(p) => p.chrome_trace(),
            None => String::from("{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}"),
        }
    }

    /// The flight recorder: the last N completed solves (oldest first),
    /// each with its structure, variant, provenance, generation, timing
    /// split, and synchronization counters. Empty when observability is
    /// disabled.
    pub fn recent_solves(&self) -> Vec<SolveRecord> {
        self.inner.obs.recent_solves()
    }

    /// The retained trace events, oldest first (empty when observability
    /// is disabled). The ring keeps the newest 4096 events, whichever
    /// threads emitted them, under consecutive `seq` numbers;
    /// `doacross_trace_dropped_total` counts the older ones it dropped.
    pub fn trace_events(&self) -> Vec<TracedEvent> {
        self.inner.obs.trace_events()
    }

    /// Renders the engine's metrics in Prometheus text-exposition format:
    /// first the engine-sampled values (pool and cache gauges, the cache's
    /// exact traffic counters, the adaptive decision counters under the
    /// `doacross_adaptive_` prefix), then — when observability is enabled
    /// — the full `doacross-obs` registry (solve counters and latency
    /// histograms by variant, plan-build/persistence/policy counters,
    /// per-structure series). Metric names are documented at
    /// [`doacross_obs`]'s crate root.
    ///
    /// The sampled section works on any engine; an observability-disabled
    /// engine simply scrapes a shorter document.
    pub fn metrics_text(&self) -> String {
        let mut buf = String::new();
        render::gauge(
            &mut buf,
            "doacross_workers",
            "Workers per scheduler sub-pool (the processor count each solve runs on).",
            self.threads() as u64,
        );
        render::gauge(
            &mut buf,
            "doacross_pools",
            "Scheduler sub-pool count (each sub-pool runs one solve at a time).",
            self.pools() as u64,
        );
        render::gauge(
            &mut buf,
            "doacross_max_pending",
            "Callers allowed to wait for a free sub-pool before Saturated.",
            self.max_pending() as u64,
        );
        render::counter(
            &mut buf,
            "doacross_saturations_total",
            "Solve admissions refused because every sub-pool was busy and the wait queue full.",
            self.saturations(),
        );
        let (plans, capacity, cache) = self.inner.cache.gauges();
        render::gauge(
            &mut buf,
            "doacross_cache_plans",
            "Execution plans currently cached.",
            plans as u64,
        );
        render::gauge(
            &mut buf,
            "doacross_cache_capacity",
            "Plans the cache holds before it evicts the least recently used.",
            capacity as u64,
        );
        render::counter(
            &mut buf,
            "doacross_cache_hits_total",
            "Plan-cache lookups served from a cached plan.",
            cache.hits,
        );
        render::counter(
            &mut buf,
            "doacross_cache_misses_total",
            "Plan-cache lookups that required a build.",
            cache.misses,
        );
        render::counter(
            &mut buf,
            "doacross_cache_evictions_total",
            "Plans pushed out by LRU capacity.",
            cache.evictions,
        );
        render::counter(
            &mut buf,
            "doacross_cache_insertions_total",
            "Plans admitted to the cache.",
            cache.insertions,
        );
        if let Some(a) = self.adaptive_stats() {
            render::counter(
                &mut buf,
                "doacross_adaptive_repricings_total",
                "Adaptive evaluation points reached.",
                a.repricings,
            );
            render::counter(
                &mut buf,
                "doacross_adaptive_trials_total",
                "Adaptive trials started (plans swapped in on refined evidence).",
                a.trials,
            );
            render::counter(
                &mut buf,
                "doacross_adaptive_promotions_total",
                "Adaptive trials committed.",
                a.promotions,
            );
            render::counter(
                &mut buf,
                "doacross_adaptive_demotions_total",
                "Adaptive trials rolled back.",
                a.demotions,
            );
            render::counter(
                &mut buf,
                "doacross_adaptive_baseline_probes_total",
                "Sequential baseline probes run to anchor refinement.",
                a.baseline_probes,
            );
            render::counter(
                &mut buf,
                "doacross_adaptive_fallbacks_total",
                "Faulted parallel solves replayed on the sequential variant.",
                a.fallbacks,
            );
        }
        self.inner.obs.render_prometheus(&mut buf);
        if let Some(profiler) = &self.inner.profiler {
            profiler.render_prometheus(&mut buf);
        }
        buf
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads())
            .field("cache", &self.inner.cache)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::{seq::run_sequential, DoacrossError, PlanProvenance, TestLoop};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn engine_and_handles_are_send_sync() {
        assert_send_sync::<Engine>();
        assert_send_sync::<PreparedLoop>();
    }

    #[test]
    fn run_plans_once_and_matches_the_oracle() {
        let engine = Engine::builder().workers(2).build();
        let loop_ = TestLoop::new(600, 2, 8);
        let y0 = loop_.initial_y();
        let mut oracle = y0.clone();
        run_sequential(&loop_, &mut oracle);

        let mut y = y0.clone();
        let cold = engine.run(&loop_, &mut y).unwrap();
        assert_eq!(cold.provenance, PlanProvenance::PlanCold);
        assert_eq!(y, oracle);

        let mut y = y0;
        let hot = engine.run(&loop_, &mut y).unwrap();
        assert_eq!(hot.provenance, PlanProvenance::PlanCached);
        assert_eq!(hot.inspector, std::time::Duration::ZERO);
        assert_eq!(y, oracle);
        assert_eq!(engine.cache_stats().misses, 1);
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn clones_share_the_cache() {
        let engine = Engine::builder().workers(2).build();
        let clone = engine.clone();
        let loop_ = TestLoop::new(300, 1, 7);
        let mut y = loop_.initial_y();
        engine.run(&loop_, &mut y).unwrap();
        let mut y = loop_.initial_y();
        let hot = clone.run(&loop_, &mut y).unwrap();
        assert_eq!(hot.provenance, PlanProvenance::PlanCached);
        assert_eq!(clone.cache_len(), 1);
    }

    #[test]
    fn rejects_what_the_planner_rejects() {
        let engine = Engine::builder().workers(2).build();
        struct OutOfBounds;
        impl AccessPattern for OutOfBounds {
            fn iterations(&self) -> usize {
                1
            }
            fn data_len(&self) -> usize {
                1
            }
            fn lhs(&self, _: usize) -> usize {
                0
            }
            fn terms(&self, _: usize) -> usize {
                1
            }
            fn term_element(&self, _: usize, _: usize) -> usize {
                5
            }
        }
        let err = engine.prepare(&OutOfBounds).unwrap_err();
        assert_eq!(
            err,
            EngineError::Doacross(DoacrossError::SubscriptOutOfBounds {
                iteration: 0,
                element: 5,
                data_len: 1,
            })
        );
        assert_eq!(engine.cache_len(), 0, "failed builds are not cached");
    }

    #[test]
    fn mismatched_buffer_is_rejected() {
        let engine = Engine::builder().workers(2).build();
        let loop_ = TestLoop::new(100, 1, 7);
        let mut y = vec![0.0; 3];
        let err = engine.run(&loop_, &mut y).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Doacross(DoacrossError::DataLenMismatch { got: 3, .. })
        ));
        // The rejection fails that call only, and the next solve of the
        // same structure delivers.
        let mut y = loop_.initial_y();
        engine.run(&loop_, &mut y).unwrap();
        let mut oracle = loop_.initial_y();
        run_sequential(&loop_, &mut oracle);
        assert_eq!(y, oracle);
    }
}
