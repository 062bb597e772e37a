//! [`EngineBuilder`]: engine configuration, including which cost model
//! the planner prices with (the host's, unless one is given), the
//! adaptive feedback loop, and warm starts from persisted plan stores.

use crate::adaptive::AdaptiveRuntime;
use crate::engine::Engine;
use crate::fault::FallbackPolicy;
use doacross_obs::profile::Profiler;
use doacross_obs::{ColdStartReason, Obs, TraceEvent};
use doacross_plan::{default_shard_count, ConcurrentPlanCache, PersistError, PlanStore, Planner};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Default total plan capacity across shards.
const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Configures and builds an [`Engine`].
///
/// ```
/// use doacross_engine::Engine;
///
/// let engine = Engine::builder()
///     .workers(2)
///     .cache_capacity(32)
///     .shards(4)
///     .build();
/// assert_eq!(engine.threads(), 2);
/// assert_eq!(engine.shards(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    workers: Option<usize>,
    pools: Option<usize>,
    cache_capacity: usize,
    shards: Option<usize>,
    planner: Planner,
    warm_start: Option<PathBuf>,
    calibrate: bool,
    adaptive: bool,
    observability: bool,
    profiling: bool,
    solve_deadline: Option<Duration>,
    fallback: FallbackPolicy,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// Builder with defaults: host-sized worker count, a
    /// 128-plan cache sharded per the host's
    /// available parallelism ([`doacross_plan::default_shard_count`]),
    /// and a planner pricing with this host's measured costs (see
    /// [`EngineBuilder::calibrated`]).
    pub fn new() -> Self {
        Self {
            workers: None,
            pools: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            shards: None,
            planner: Planner::new(),
            warm_start: None,
            calibrate: true,
            adaptive: false,
            observability: false,
            profiling: false,
            solve_deadline: None,
            fallback: FallbackPolicy::default(),
        }
    }

    /// Workers per sub-pool (the paper's processor count `p`): the solving
    /// thread itself plus `p − 1` helper threads. Defaults to the host's
    /// available parallelism, capped at 8 — oversubscribing busy-wait
    /// executors degrades everyone.
    ///
    /// # Panics
    /// [`EngineBuilder::build`] panics if `workers` is 0.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Scheduler sub-pool count: the engine's workers are partitioned
    /// into `pools` independent thread pools of
    /// [`EngineBuilder::workers`] threads each, and every parallel solve
    /// leases exactly one — so up to `pools` solves from concurrent
    /// tenants execute truly in parallel instead of serializing at region
    /// dispatch. Each sub-pool keeps its own scratch executor, so the
    /// paper's scratch-reuse economics survive multi-tenancy. A
    /// sequential plan leases none: it runs on the caller's thread, so
    /// any number of sequential solves proceed beside the `pools`
    /// parallel ones.
    ///
    /// Defaults to the host's available parallelism divided by the worker
    /// count (at least 1): a 16-way host with `workers(4)` gets 4
    /// sub-pools; a 1-core container gets 1 and behaves exactly like the
    /// historical single-pool engine.
    ///
    /// A count above [`doacross_sched::MAX_POOLS`] is clamped to it.
    ///
    /// # Panics
    /// [`EngineBuilder::build`] panics if `pools` is 0.
    pub fn pools(mut self, pools: usize) -> Self {
        self.pools = Some(pools);
        self
    }

    /// Total plan capacity, spread over the shards (0 disables caching —
    /// every prepare replans; useful for measuring the uncached baseline).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Explicit shard count for the concurrent plan cache (rounded up to
    /// a power of two). More shards mean less lock contention between
    /// unrelated structures; capacity per shard shrinks correspondingly.
    /// When not set, the shard count adapts to the host:
    /// [`doacross_plan::default_shard_count`] matches it to the available
    /// parallelism (contention scales with threads that can actually run
    /// concurrently, so a 1-core container keeps its whole capacity in
    /// one LRU while a 32-way server spreads over 32 shards).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Explicit planner: [`Planner::new`] for the paper's Encore Multimax
    /// preset, [`Planner::with_costs`] for custom constants. Replaces host
    /// pricing — the engine measures nothing and reports
    /// [`Engine::calibration`] `None` — until a later
    /// [`EngineBuilder::calibrated`] re-arms it.
    pub fn planner(mut self, planner: Planner) -> Self {
        self.planner = planner;
        self.calibrate = false;
        self
    }

    /// Prices variants with a cost model measured on *this host* —
    /// sequential per-term/per-iteration costs, doacross executor
    /// overheads, pool dispatch latency and the wavefront's level
    /// hand-off, in normalized units — instead of the paper's Encore
    /// Multimax. This is the default; calling it only matters after an
    /// earlier [`EngineBuilder::planner`], which it overrides.
    ///
    /// The host is measured once per process
    /// ([`doacross_sim::host_calibration`]): the first engine built pays
    /// 10–25 ms (release, on a 2-vCPU x86-64 host), every later one
    /// nothing. A [`EngineBuilder::warm_start`] build pays it too: a plan
    /// store carries no cost model, so the model is always this process's
    /// own.
    pub fn calibrated(mut self) -> Self {
        self.calibrate = true;
        self
    }

    /// Turns on the adaptive feedback loop: every execute records its
    /// timing in the structure's telemetry; every 12 solves (once the
    /// running variant has 6 samples) the cost model is refined from the
    /// measurements and the plan re-priced; when the running variant's
    /// refined price leaves its static price by more than a factor of 1.5
    /// and the planner's choice under the refined model wins by 5 %, that
    /// variant is trialed (swapped in under the shard lock with a
    /// generation bump — outstanding handles fail typed with
    /// [`crate::EngineError::StalePlan`]), then committed or rolled back on
    /// the measured comparison, with the same 5 % hysteresis; after 3
    /// trials a structure is pinned. The thresholds are fixed; the engine's
    /// private `adaptive` module documents the policy in full. Telemetry
    /// lives in memory only: a warm-started engine observes afresh.
    ///
    /// Adaptation needs a cache to swap plans in: it is disabled when
    /// [`EngineBuilder::cache_capacity`] is 0.
    pub fn adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Turns on the observability layer with default capacities: every
    /// plan build, cache operation, persistence operation, adaptive
    /// decision, and completed solve emits a structured
    /// [`doacross_obs::TraceEvent`] into a bounded ring, feeds the metric
    /// registry behind [`crate::Engine::metrics_text`], and (for solves)
    /// the flight recorder behind [`crate::Engine::recent_solves`]. Off
    /// by default — a disabled handle costs one branch per would-be
    /// event. The capacities: a 4096-event trace ring; a 128-solve flight
    /// recorder; 64 per-fingerprint metric series.
    pub fn observability_default(mut self) -> Self {
        self.observability = true;
        self
    }

    /// Turns on the deep solve profiler with default capacities: every
    /// solve deposits per-worker timeline spans (work intervals,
    /// ready-flag stalls, level-boundary waits, dispatch waits) into a
    /// bounded per-pool arena, harvested after each successful solve into
    /// a [`doacross_obs::profile::SolveProfile`] ring behind
    /// [`crate::Engine::recent_profiles`] /
    /// [`crate::Engine::profile_chrome_trace`], with realized-critical-
    /// path and per-level barrier-wait metrics under the
    /// `doacross_profile_` prefix. Independent of
    /// [`EngineBuilder::observability_default`] (the profiler keeps its
    /// own counters), though the per-solve `solve_profiled` trace event
    /// only flows when observability is also on. Off by default — a disabled
    /// profiler costs one branch per would-be span site. The capacities: a
    /// 32-profile ring; 4096 spans per worker per solve; 16 per-level
    /// barrier-wait series.
    pub fn profiling_default(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// Wall-clock budget for each parallel solve. When a solve runs past
    /// the deadline, every worker aborts cooperatively at its next poll
    /// site (ready-flag wait, wavefront level gate, or the claim-loop
    /// check every few dozen iterations), the region is drained, and the
    /// solve fails with [`crate::EngineError::SolveTimeout`] — unless the
    /// [`EngineBuilder::fallback`] policy then delivers the answer on the
    /// sequential variant. Partial statistics for the aborted attempt
    /// land in the flight recorder. Unset by default: solves may run
    /// arbitrarily long. A sequential plan has no poll site and runs on
    /// the caller's thread; the deadline neither bounds nor costs it.
    pub fn solve_deadline(mut self, deadline: Duration) -> Self {
        self.solve_deadline = Some(deadline);
        self
    }

    /// What to do when a parallel solve panics or times out:
    /// [`FallbackPolicy::SequentialRetry`] (the default) replays the
    /// solve once on the sequential variant against a pristine copy of
    /// the caller's input and delivers that answer;
    /// [`FallbackPolicy::Disabled`] surfaces the typed error.
    pub fn fallback(mut self, policy: FallbackPolicy) -> Self {
        self.fallback = policy;
        self
    }

    /// Warm-starts the engine from the plan store at `path` (written by a
    /// previous process via [`Engine::save_plans`]): every structure in
    /// the store begins life cached, so its first solve after a restart
    /// skips preprocessing entirely — each plan that this engine's own
    /// model selects for its worker count ([`Engine::warm_from`]); any
    /// other is rebuilt by its first prepare. The store carries plans, not
    /// a cost model and not an adaptive engine's telemetry: adaptation
    /// starts observing afresh after a restart.
    ///
    /// A **missing** file is a clean cold start (the natural first-boot
    /// state), and so is a store written by a different
    /// `persist::FORMAT_VERSION` (the version policy: a rejected store is
    /// just a cold start, and the next save rewrites the current format —
    /// a format-bumping deploy must not crash-loop on its own previous
    /// checkpoint). A corrupt, truncated, or structurally invalid store
    /// of the current format is **quarantined**: renamed aside to
    /// `<path>.corrupt-<n>` (the two newest quarantine files are kept for
    /// post-mortem, older ones pruned), a
    /// [`doacross_obs::TraceEvent::StoreQuarantined`] and a
    /// [`doacross_obs::ColdStartReason::Corrupt`] cold start are traced,
    /// and the boot proceeds cold — a damaged checkpoint must never
    /// crash-loop the service that wrote it. The damage stays loud (the
    /// trace, the `doacross_store_quarantines_total` counter, and the
    /// preserved `.corrupt-*` file) without becoming a boot failure; the
    /// strict typed-error path remains available via
    /// [`Engine::load_plans`].
    pub fn warm_start(mut self, path: impl Into<PathBuf>) -> Self {
        self.warm_start = Some(path.into());
        self
    }

    /// Builds the engine: spawns the worker pool, assembles the shared
    /// session state, and applies the [`EngineBuilder::warm_start`] store
    /// if one was configured.
    ///
    /// The cost model is the one [`EngineBuilder::planner`] gave, else this
    /// host's measurement ([`EngineBuilder::calibrated`]); the store's
    /// plans warm the cache only where that model selects them. First-boot
    /// rules as in [`EngineBuilder::warm_start`]: missing or
    /// version-superseded stores are a clean cold start, damaged stores
    /// are quarantined aside and the boot proceeds cold — no store makes
    /// a build fail.
    ///
    /// # Panics
    /// Panics while spawning the pools if
    /// - [`EngineBuilder::workers`] was given 0, or more than 65 536 (one
    ///   thread pool's limit);
    /// - [`EngineBuilder::pools`] was given 0.
    ///
    /// No warm-start store, however damaged, makes the build panic.
    pub fn build(self) -> Engine {
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(2)
                .min(8)
        });
        let pools = self
            .pools
            .unwrap_or_else(|| {
                let avail = std::thread::available_parallelism()
                    .map(|v| v.get())
                    .unwrap_or(1);
                (avail / workers.max(1)).max(1)
            })
            .min(doacross_sched::MAX_POOLS);
        let obs = if self.observability {
            Obs::new()
        } else {
            Obs::disabled()
        };
        let store = match &self.warm_start {
            None => None,
            Some(path) => match PlanStore::load(path) {
                Ok(store) => Some(store),
                Err(PersistError::NotFound) => {
                    obs.emit(TraceEvent::ColdStart {
                        reason: ColdStartReason::NotFound,
                    });
                    None
                }
                Err(PersistError::UnsupportedVersion { .. }) => {
                    obs.emit(TraceEvent::ColdStart {
                        reason: ColdStartReason::VersionMismatch,
                    });
                    None
                }
                // Corruption-class failure: quarantine the damaged store
                // and boot cold rather than crash-looping on a checkpoint
                // this very process may have half-written before dying.
                Err(_corrupt) => {
                    if let Some(index) = quarantine_store(path) {
                        obs.emit(TraceEvent::StoreQuarantined { index });
                    }
                    obs.emit(TraceEvent::ColdStart {
                        reason: ColdStartReason::Corrupt,
                    });
                    None
                }
            },
        };
        // The cost model: an explicit planner, else the process-wide
        // measurement, taken by whichever build gets here first.
        let (planner, calibration) = if self.calibrate {
            let host = doacross_sim::host_calibration();
            (Planner::with_costs(host.model), Some(host))
        } else {
            (self.planner, None)
        };
        let shards = self.shards.unwrap_or_else(default_shard_count);
        let adaptive = (self.adaptive && self.cache_capacity > 0) // nothing to swap plans in
            .then(|| AdaptiveRuntime::new(calibration.map(|c| c.unit_ns)));
        let mut cache = ConcurrentPlanCache::new(self.cache_capacity, shards);
        cache.set_obs(obs.clone());
        let profiler = self.profiling.then(|| Profiler::new(pools, workers));
        let engine = Engine::from_parts(
            doacross_sched::PoolSet::new(pools, workers, doacross_sched::DEFAULT_MAX_PENDING),
            planner,
            cache,
            calibration,
            adaptive,
            obs,
            profiler,
            self.solve_deadline,
            self.fallback,
        );
        if let Some(store) = &store {
            engine.warm_from(store);
        }
        engine
    }
}

/// Renames a damaged plan store to `<path>.corrupt-<n>` so the next boot
/// finds no store (clean cold start) while the bytes survive for
/// post-mortem. Keeps the two newest quarantine files and prunes older
/// ones — a crash-looping writer must not fill the disk with corpses.
/// Returns the suffix index on success; `None` when the rename failed
/// (the boot still proceeds cold — quarantine is best-effort).
pub(crate) fn quarantine_store(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?.to_owned();
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let prefix = format!("{name}.corrupt-");
    let mut existing: Vec<(u64, PathBuf)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let file = entry.file_name();
            let Some(file) = file.to_str() else { continue };
            if let Some(index) = file
                .strip_prefix(&prefix)
                .and_then(|suffix| suffix.parse::<u64>().ok())
            {
                existing.push((index, entry.path()));
            }
        }
    }
    let next = existing.iter().map(|(i, _)| i + 1).max().unwrap_or(0);
    std::fs::rename(path, dir.join(format!("{prefix}{next}"))).ok()?;
    // The file just written plus the newest survivor make two.
    existing.sort_unstable_by_key(|(i, _)| *i);
    while existing.len() > 1 {
        let (_, stale) = existing.remove(0);
        let _ = std::fs::remove_file(stale);
    }
    Some(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::{seq::run_sequential, TestLoop};

    #[test]
    fn defaults_are_sane() {
        let engine = EngineBuilder::new().workers(2).build();
        assert_eq!(engine.threads(), 2);
        // The shard count adapts to the host (clamped power of two);
        // explicit settings still win.
        assert_eq!(engine.shards(), doacross_plan::default_shard_count());
        assert!(engine.cache_stats().hits == 0 && engine.cache_len() == 0);
        assert!(!engine.is_adaptive());
        assert_eq!(engine.adaptive_stats(), None);
        // The planner prices with this host's measured costs.
        let calibration = engine.calibration().expect("host pricing is the default");
        assert!(std::ptr::eq(calibration, doacross_sim::host_calibration()));
        assert_eq!(engine.planner().costs(), &calibration.model);
        let fixed = EngineBuilder::new().workers(2).shards(8).build();
        assert_eq!(fixed.shards(), 8);
    }

    #[test]
    fn the_host_is_measured_once_per_process_and_a_given_planner_wins() {
        // One measurement: both builds hold the process-wide one.
        let first = EngineBuilder::new().workers(2).build();
        let second = EngineBuilder::new().workers(1).build();
        let host = doacross_sim::host_calibration();
        assert!(std::ptr::eq(first.calibration().unwrap(), host));
        assert!(std::ptr::eq(second.calibration().unwrap(), host));

        let preset = Planner::new();
        let pinned = EngineBuilder::new()
            .workers(2)
            .planner(preset.clone())
            .build();
        assert!(pinned.calibration().is_none());
        assert_eq!(pinned.planner().costs(), preset.costs());

        let rearmed = EngineBuilder::new()
            .workers(2)
            .planner(preset)
            .calibrated()
            .build();
        assert!(std::ptr::eq(rearmed.calibration().unwrap(), host));
        assert_eq!(rearmed.planner().costs(), &host.model);
    }

    #[test]
    fn fresh_engine_stats_report_zero_hit_rate() {
        // Regression for the 0/0 hit-rate case: a fresh engine's merged
        // multi-shard stats must report 0.0, never NaN.
        let engine = EngineBuilder::new().workers(2).build();
        let rate = engine.cache_stats().hit_rate();
        assert_eq!(rate, 0.0);
        assert!(!rate.is_nan());
    }

    #[test]
    fn warm_start_with_missing_store_is_a_cold_start() {
        let path = std::env::temp_dir().join(format!(
            "doacross-warm-start-missing-{}.plans",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let engine = EngineBuilder::new().workers(2).warm_start(&path).build();
        assert_eq!(engine.cache_len(), 0);
        assert_eq!(engine.cache_stats().hit_rate(), 0.0);
    }

    #[test]
    fn quarantine_rotation_keeps_the_two_newest_corpses() {
        let dir = std::env::temp_dir().join(format!(
            "doacross-quarantine-rotation-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("engine.plans");
        for round in 0..4u64 {
            std::fs::write(&store, b"definitely not a plan store").unwrap();
            let index = quarantine_store(&store).expect("rename succeeds");
            assert_eq!(index, round);
            assert!(!store.exists(), "original moved aside");
        }
        let corpses: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(corpses.len(), 2, "{corpses:?}");
        assert!(corpses.contains(&"engine.plans.corrupt-2".to_owned()));
        assert!(corpses.contains(&"engine.plans.corrupt-3".to_owned()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_warm_start_quarantines_and_boots_cold() {
        let dir =
            std::env::temp_dir().join(format!("doacross-quarantine-boot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("engine.plans");
        std::fs::write(&store, b"garbage bytes, not a store").unwrap();
        let engine = EngineBuilder::new().workers(2).warm_start(&store).build();
        assert_eq!(engine.cache_len(), 0, "booted cold");
        assert!(!store.exists(), "damaged store moved aside");
        assert!(dir.join("engine.plans.corrupt-0").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let engine = Engine::builder().workers(2).cache_capacity(0).build();
        let loop_ = TestLoop::new(200, 1, 8);
        for _ in 0..2 {
            let mut y = loop_.initial_y();
            engine.run(&loop_, &mut y).unwrap();
        }
        let s = engine.cache_stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn calibrated_engine_still_computes_correctly() {
        // Calibration changes pricing, never semantics: any selected
        // variant must match the sequential oracle bit for bit.
        let engine = Engine::builder().workers(2).calibrated().build();
        for l in [7usize, 8] {
            let loop_ = TestLoop::new(800, 2, l);
            let mut y = loop_.initial_y();
            engine.run(&loop_, &mut y).unwrap();
            let mut oracle = loop_.initial_y();
            run_sequential(&loop_, &mut oracle);
            assert_eq!(y, oracle, "L={l}");
        }
    }
}
