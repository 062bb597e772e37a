//! [`ConcurrentPlanCache`]: the internally-synchronized plan cache behind
//! `doacross_engine::Engine`.
//!
//! A session object served from many threads needs a cache it can reach
//! through `&self`. This type is one `std::sync::Mutex` around one state
//! (the crate-private `CacheState`: the plans with their use stamps, the
//! traffic counters and the generation cells), so its capacity is exact
//! and its recency is one global order. Executes never take the lock — a
//! prepared handle's staleness check is one atomic load — so only
//! prepares, invalidations, swaps, snapshots and scrapes meet on it.
//!
//! Two deliberate design points:
//!
//! * **Builds happen under the lock.** A cache miss holds the mutex while
//!   the planner runs, so a second thread racing on the *same* structure
//!   blocks briefly and then hits, instead of both planning the same
//!   pattern. (Plan builds take microseconds-to-milliseconds; the
//!   alternative — duplicate builds with last-writer-wins — wastes
//!   strictly more work.) A build that panics leaves the state whole —
//!   its miss counted, nothing inserted — so the lock is recovered, not
//!   poisoned for good.
//! * **Invalidation is a generation bump, not just a removal.** Plans are
//!   handed out as `Arc`s, so dropping a cache entry cannot recall handles
//!   already in flight. Each fingerprint carries a monotonically
//!   increasing *generation* (0 until first invalidated); a handle records
//!   the generation it was prepared under plus the shared atomic cell
//!   tracking the current one, so staleness checks on the execute hot path
//!   are one lock-free load.

use crate::cache::{CacheState, CacheStats};
use crate::fingerprint::PatternFingerprint;
use crate::persist::PlanStore;
use crate::plan::ExecutionPlan;
use doacross_obs::{Obs, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Fingerprint-keyed plan cache, safe to share via `&self` (see module
/// docs).
pub struct ConcurrentPlanCache {
    state: Mutex<CacheState>,
    /// Trace emitter for hit/miss/evict/invalidate/swap events (disabled
    /// by default — one branch per operation). Events are emitted *after*
    /// the lock is released so observability never extends the critical
    /// section.
    obs: Obs,
}

impl ConcurrentPlanCache {
    /// Cache holding up to `capacity` plans, exactly. A capacity of 0 is
    /// legal and makes every lookup a miss.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(CacheState::new(capacity)),
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle; subsequent cache operations emit
    /// [`TraceEvent`]s through it. Called by the engine builder before the
    /// cache is shared.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The state, recovered if a build panicked while holding it.
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Plans currently held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no plan is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traffic counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    /// Plans held, capacity and traffic counters, in that order, read
    /// under one acquisition of the lock — one consistent cut for a
    /// metrics scrape.
    pub fn gauges(&self) -> (usize, usize, CacheStats) {
        let state = self.lock();
        (state.len(), state.capacity(), state.stats())
    }

    /// Invalidates `key`: drops any cached plan and bumps the key's
    /// generation so handles prepared under earlier generations fail fast.
    /// Returns `true` when a cached plan was actually dropped. The
    /// generation advances either way — a plan already evicted from the
    /// LRU can still be live behind `Arc` handles.
    pub fn invalidate(&self, key: &PatternFingerprint) -> bool {
        let mut state = self.lock();
        let generation = state.generation_cell(key).fetch_add(1, Ordering::AcqRel) + 1;
        let dropped = state.remove(key).is_some();
        drop(state);
        if self.obs.enabled() {
            self.obs.emit(TraceEvent::CacheInvalidated {
                fp: key.into(),
                generation,
                dropped,
            });
        }
        dropped
    }

    /// Replaces the cached plan for `plan`'s own fingerprint and bumps the
    /// key's generation, atomically under the lock — the adaptive
    /// promotion/demotion primitive. Handles prepared under the
    /// old plan observe the bump and fail fast with a typed staleness
    /// error instead of silently executing the superseded variant;
    /// re-preparing serves the new plan. Returns the key's new generation.
    pub fn swap_plan(&self, plan: Arc<ExecutionPlan>) -> u64 {
        let key = *plan.fingerprint();
        let variant = plan.variant();
        let mut state = self.lock();
        let generation = state.generation_cell(&key).fetch_add(1, Ordering::AcqRel) + 1;
        let evicted = state.insert(plan); // replaces in place for an existing key
        drop(state);
        if self.obs.enabled() {
            self.obs.emit(TraceEvent::PlanSwapped {
                fp: (&key).into(),
                variant: variant.into(),
                generation,
            });
            if let Some(out) = &evicted {
                self.obs.emit(TraceEvent::CacheEvicted {
                    fp: out.fingerprint().into(),
                });
            }
        }
        generation
    }

    /// Looks up `key`; on a miss, builds a plan with `build` — while
    /// holding the lock, see module docs — and stores it.
    /// Returns the plan, the key's shared generation cell (the lock-free
    /// watch point for staleness checks), the generation **read while the
    /// lock was held** — so the (plan, generation) pair is
    /// consistent even against a concurrent [`ConcurrentPlanCache::swap_plan`]
    /// or [`ConcurrentPlanCache::invalidate`]; a caller re-reading the
    /// cell after unlocking could pair the *old* plan with the *new*
    /// generation and never observe staleness — and whether this was a
    /// hit.
    #[allow(clippy::type_complexity)]
    pub fn get_or_build<E>(
        &self,
        key: &PatternFingerprint,
        build: impl FnOnce() -> Result<ExecutionPlan, E>,
    ) -> Result<(Arc<ExecutionPlan>, Arc<AtomicU64>, u64, bool), E> {
        let mut state = self.lock();
        let cell = state.generation_cell(key);
        let generation = cell.load(Ordering::Acquire);
        if let Some(plan) = state.get(key) {
            drop(state);
            if self.obs.enabled() {
                self.obs.emit(TraceEvent::CacheHit { fp: key.into() });
            }
            return Ok((plan, cell, generation, true));
        }
        // Miss: the build below dwarfs the sweep and the eviction scan.
        state.prune_generations(key);
        let plan = Arc::new(build()?);
        let evicted = state.insert(Arc::clone(&plan));
        drop(state);
        if self.obs.enabled() {
            self.obs.emit(TraceEvent::CacheMiss { fp: key.into() });
            if let Some(out) = &evicted {
                self.obs.emit(TraceEvent::CacheEvicted {
                    fp: out.fingerprint().into(),
                });
            }
        }
        Ok((plan, cell, generation, false))
    }

    /// Captures every resident plan (most recently used first, tagged with
    /// its key's current generation) plus all nonzero invalidation
    /// generations into a [`PlanStore`] — the cross-run warm-start
    /// artifact — under one acquisition of the lock, so the snapshot is
    /// one consistent cut.
    pub fn snapshot(&self) -> PlanStore {
        let mut store = PlanStore::new();
        let state = self.lock();
        for plan in state.by_recency() {
            store.push_entry(state.generation_of(plan.fingerprint()), Arc::clone(plan));
        }
        for (key, generation) in state.invalidated() {
            store.push_generation(key, generation);
        }
        store
    }

    /// Restores `store` into this cache: generation counters first (so
    /// invalidations survive the restart — `fetch_max`, never backwards),
    /// then the plans, least recently used first so the store's recency
    /// becomes the cache's recency, each as `restore` maps it (the stored
    /// `Arc` itself, or a copy with other prices). A stored plan whose
    /// key's current generation has advanced past the one it was captured
    /// under was invalidated after the snapshot and is **dropped**, not
    /// resurrected; a plan `restore` maps to `None` is skipped, and its
    /// generation still merges.
    /// Restores count as insertions, never as hits or misses. Returns the
    /// number of plans *inserted*; if the store outsizes the capacity,
    /// normal LRU eviction applies during the restore, so the final
    /// resident count ([`ConcurrentPlanCache::len`]) can be smaller — the
    /// most recently used plans win, as everywhere else.
    pub fn warm_from(
        &self,
        store: &PlanStore,
        restore: impl Fn(&Arc<ExecutionPlan>) -> Option<Arc<ExecutionPlan>>,
    ) -> usize {
        let mut state = self.lock();
        for (key, generation) in store.generations() {
            state
                .generation_cell(key)
                .fetch_max(generation, Ordering::AcqRel);
        }
        if state.capacity() == 0 {
            return 0;
        }
        let mut restored = 0;
        for (generation, plan) in store.entries.iter().rev() {
            if state.generation_of(plan.fingerprint()) > *generation {
                continue; // invalidated since this plan was captured
            }
            let Some(plan) = restore(plan) else {
                continue; // refused
            };
            state.insert(plan);
            restored += 1;
        }
        restored
    }
}

impl std::fmt::Debug for ConcurrentPlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (len, capacity, stats) = self.gauges();
        f.debug_struct("ConcurrentPlanCache")
            .field("capacity", &capacity)
            .field("len", &len)
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use doacross_core::IndirectLoop;
    use doacross_par::ThreadPool;

    fn scatter_loop(n: usize) -> IndirectLoop {
        let a: Vec<usize> = (0..n).collect();
        IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap()
    }

    fn build_plan(pool: &ThreadPool, l: &IndirectLoop) -> Arc<ExecutionPlan> {
        Arc::new(Planner::new().plan(pool, l).unwrap())
    }

    // Test-side reads and writes of the state, under the lock.
    fn resident(cache: &ConcurrentPlanCache, key: &PatternFingerprint) -> bool {
        cache.lock().peek(key).is_some()
    }

    fn generation(cache: &ConcurrentPlanCache, key: &PatternFingerprint) -> u64 {
        cache.lock().generation_of(key)
    }

    fn insert(cache: &ConcurrentPlanCache, plan: Arc<ExecutionPlan>) {
        cache.lock().insert(plan);
    }

    /// A lookup that builds nothing: the served plan on a hit, `None` (a
    /// counted miss) otherwise.
    fn lookup(cache: &ConcurrentPlanCache, key: &PatternFingerprint) -> Option<Arc<ExecutionPlan>> {
        let (plan, ..) = cache.get_or_build(key, || Err(())).ok()?;
        Some(plan)
    }

    fn stored_generation(store: &PlanStore, key: &PatternFingerprint) -> u64 {
        store
            .generations()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, generation)| generation)
    }

    #[test]
    fn hit_miss_and_merged_stats() {
        let pool = ThreadPool::new(2);
        // Ample capacity: no evictions.
        let cache = ConcurrentPlanCache::new(24);
        let loops: Vec<IndirectLoop> = (1..=6).map(scatter_loop).collect();
        for l in &loops {
            let key = crate::PatternFingerprint::of(l);
            let build = || Planner::new().plan(&pool, l);
            let (_, _, _, hit) = cache.get_or_build(&key, build).unwrap();
            assert!(!hit && resident(&cache, &key));
            let (_, _, _, hit) = cache.get_or_build(&key, build).unwrap();
            assert!(hit);
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (6, 6, 6));
        assert_eq!(cache.len(), 6);
        for l in &loops {
            assert!(cache.invalidate(&crate::PatternFingerprint::of(l)));
        }
        assert!(cache.is_empty());
    }

    #[test]
    fn get_or_build_builds_once_per_key() {
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(8);
        let l = scatter_loop(9);
        let key = crate::PatternFingerprint::of(&l);
        let mut builds = 0;
        for round in 0..3 {
            let (plan, cell, generation, hit) = cache
                .get_or_build(&key, || {
                    builds += 1;
                    Planner::new().plan(&pool, &l)
                })
                .unwrap();
            assert_eq!(hit, round > 0);
            assert_eq!(cell.load(Ordering::Acquire), 0);
            assert_eq!(generation, 0, "generation read under the lock");
            assert_eq!(plan.fingerprint(), &key);
        }
        assert_eq!(builds, 1);
    }

    #[test]
    fn get_or_build_generation_is_consistent_with_the_returned_plan() {
        // Regression for the prepare-vs-swap race: the generation a
        // handle records must be the one read while the lock held
        // both the plan and the counter — after any number of swaps and
        // invalidations, (plan, generation) pairs stay consistent, so a
        // later bump always makes the pair observable as stale.
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(8);
        let l = scatter_loop(21);
        let key = crate::PatternFingerprint::of(&l);
        cache.invalidate(&key); // generation 1 before anything is cached
        let (plan, cell, generation, hit) = cache
            .get_or_build(&key, || Planner::new().plan(&pool, &l))
            .unwrap();
        assert!(!hit);
        assert_eq!(generation, 1, "the under-lock value, not a stale 0");
        assert_eq!(cell.load(Ordering::Acquire), generation);

        // A swap after the lookup bumps past the recorded generation:
        // the pair (plan, 1) is now verifiably stale.
        let bumped = cache.swap_plan(build_plan(&pool, &l));
        assert_eq!(bumped, 2);
        assert!(cell.load(Ordering::Acquire) > generation);
        let served = lookup(&cache, &key).expect("swapped plan resident");
        assert!(!Arc::ptr_eq(&served, &plan), "old pair no longer served");
    }

    #[test]
    fn invalidation_bumps_generation_and_drops_the_plan() {
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(8);
        let l = scatter_loop(5);
        let key = crate::PatternFingerprint::of(&l);
        assert_eq!(generation(&cache, &key), 0);
        assert!(!cache.invalidate(&key), "nothing cached yet");
        assert_eq!(generation(&cache, &key), 1, "generation advances anyway");

        insert(&cache, build_plan(&pool, &l));
        assert!(cache.invalidate(&key), "cached plan dropped");
        assert_eq!(generation(&cache, &key), 2);
        assert!(!resident(&cache, &key));

        // A rebuild after invalidation serves the *new* generation, and
        // the cell keeps tracking later invalidations lock-free.
        let (_, cell, _, hit) = cache
            .get_or_build(&key, || Planner::new().plan(&pool, &l))
            .unwrap();
        assert!(!hit);
        assert_eq!(cell.load(Ordering::Acquire), 2);
        cache.invalidate(&key);
        assert_eq!(cell.load(Ordering::Acquire), 3, "same cell, new value");
    }

    #[test]
    fn rejected_match_counts_as_miss_and_rebuilds() {
        // A stored plan the restore refuses is not resident: the first
        // lookup misses and builds, while the store's generations merge.
        let pool = ThreadPool::new(2);
        let source = ConcurrentPlanCache::new(4);
        let l = scatter_loop(7);
        let key = crate::PatternFingerprint::of(&l);
        insert(&source, build_plan(&pool, &l));
        let ghost = crate::PatternFingerprint::of(&scatter_loop(8));
        source.invalidate(&ghost);
        let cache = ConcurrentPlanCache::new(4);
        assert_eq!(cache.warm_from(&source.snapshot(), |_| None), 0);
        assert!(cache.is_empty());
        assert_eq!(generation(&cache, &ghost), 1, "generations still merge");
        let (_, _, _, hit) = cache
            .get_or_build(&key, || Planner::new().plan(&pool, &l))
            .unwrap();
        assert!(!hit, "a refused plan is rebuilt");
        let s = cache.stats();
        assert_eq!((s.misses, s.insertions), (1, 1));
    }

    #[test]
    fn unwatched_generation_cells_are_pruned_on_misses() {
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(64);
        // Prepare many structures, dropping every cell immediately: the
        // generation map must not grow with traffic.
        for n in 1..=20 {
            let l = scatter_loop(n);
            let key = crate::PatternFingerprint::of(&l);
            let (_, cell, _, _) = cache
                .get_or_build(&key, || Planner::new().plan(&pool, &l))
                .unwrap();
            drop(cell);
        }
        // A watched cell and an invalidated key survive pruning.
        let watched_loop = scatter_loop(30);
        let watched_key = crate::PatternFingerprint::of(&watched_loop);
        let (_, watched_cell, _, _) = cache
            .get_or_build(&watched_key, || Planner::new().plan(&pool, &watched_loop))
            .unwrap();
        let invalidated_key = crate::PatternFingerprint::of(&scatter_loop(31));
        cache.invalidate(&invalidated_key);

        // The next miss sweeps: only the watched and invalidated cells
        // (and the key being built) remain.
        let fresh = scatter_loop(32);
        let fresh_key = crate::PatternFingerprint::of(&fresh);
        let (_, _, _, _) = cache
            .get_or_build(&fresh_key, || Planner::new().plan(&pool, &fresh))
            .unwrap();
        let retained = cache.lock().generation_cells();
        assert!(
            retained <= 3,
            "unwatched, never-invalidated cells pruned (kept {retained})"
        );
        assert_eq!(watched_cell.load(Ordering::Acquire), 0);
        assert_eq!(generation(&cache, &invalidated_key), 1);
    }

    #[test]
    fn fresh_and_warm_started_caches_report_zero_hit_rate() {
        // Regression: the cache's stats must inherit the
        // 0/0 → 0.0 guard, with and without warm-started insertions.
        let cache = ConcurrentPlanCache::new(16);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert!(!cache.stats().hit_rate().is_nan());

        let pool = ThreadPool::new(2);
        insert(&cache, build_plan(&pool, &scatter_loop(5)));
        let warm = ConcurrentPlanCache::new(16);
        assert_eq!(
            warm.warm_from(&cache.snapshot(), |plan| Some(Arc::clone(plan))),
            1
        );
        assert_eq!(warm.stats().hit_rate(), 0.0, "restores are not traffic");
        assert_eq!(warm.stats().insertions, 1);
    }

    #[test]
    fn snapshot_round_trips_plans_recency_and_generations() {
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(8);
        let loops: Vec<IndirectLoop> = (1..=4).map(scatter_loop).collect();
        let keys: Vec<_> = loops.iter().map(crate::PatternFingerprint::of).collect();
        for l in &loops {
            insert(&cache, build_plan(&pool, l));
        }
        // Touch key 0 so recency is [0, 3, 2, 1]; invalidate key 1 (which
        // also drops its plan) and bump a never-cached key's generation.
        assert!(lookup(&cache, &keys[0]).is_some());
        assert!(cache.invalidate(&keys[1]));
        let ghost = crate::PatternFingerprint::of(&scatter_loop(9));
        cache.invalidate(&ghost);

        let store = cache.snapshot();
        assert_eq!(store.len(), 3, "invalidated plan not captured");
        assert_eq!(stored_generation(&store, &keys[1]), 1);
        assert_eq!(stored_generation(&store, &ghost), 1);
        assert_eq!(stored_generation(&store, &keys[0]), 0);

        let restored = ConcurrentPlanCache::new(8);
        assert_eq!(restored.warm_from(&store, |plan| Some(Arc::clone(plan))), 3);
        assert_eq!(
            restored.lock().keys_by_recency(),
            cache.lock().keys_by_recency(),
            "recency order survives the round trip"
        );
        // Invalidation generations survive too: a handle prepared at
        // generation 0 before the save would still be stale after restore.
        assert_eq!(generation(&restored, &keys[1]), 1);
        assert_eq!(generation(&restored, &ghost), 1);
    }

    #[test]
    fn snapshot_and_warm_from_preserve_recency() {
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(4);
        let plans: Vec<_> = (1..=3)
            .map(|n| build_plan(&pool, &scatter_loop(n)))
            .collect();
        for plan in &plans {
            insert(&cache, Arc::clone(plan));
        }
        // Touch the first so recency is [1, 3, 2].
        assert!(lookup(&cache, plans[0].fingerprint()).is_some());
        let recency = cache.lock().keys_by_recency();
        let store = cache.snapshot();

        // Same recency, and the restored plan is the same Arc (no deep
        // copy on warm).
        let fresh = ConcurrentPlanCache::new(4);
        assert_eq!(fresh.warm_from(&store, |plan| Some(Arc::clone(plan))), 3);
        let s = fresh.stats();
        assert_eq!(
            (s.hits, s.misses, s.insertions),
            (0, 0, 3),
            "restores are not traffic"
        );
        let state = fresh.lock();
        assert_eq!(state.keys_by_recency(), recency);
        let first = plans[0].fingerprint();
        assert!(Arc::ptr_eq(state.peek(first).unwrap(), &plans[0]));
        drop(state);

        // A smaller cache keeps the *most recent* plans from the store.
        let small = ConcurrentPlanCache::new(2);
        assert_eq!(
            small.warm_from(&store, |plan| Some(Arc::clone(plan))),
            3,
            "all offered, LRU evicted"
        );
        assert_eq!(small.lock().keys_by_recency(), recency[..2]);

        // Capacity 0 restores nothing.
        assert_eq!(
            ConcurrentPlanCache::new(0).warm_from(&store, |plan| Some(Arc::clone(plan))),
            0
        );
    }

    #[test]
    fn warm_from_drops_plans_invalidated_after_the_snapshot() {
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(8);
        let keep = scatter_loop(6);
        let retire = scatter_loop(7);
        insert(&cache, build_plan(&pool, &keep));
        insert(&cache, build_plan(&pool, &retire));
        let store = cache.snapshot();
        assert_eq!(store.len(), 2);

        // Invalidate after the snapshot: restoring the store into the same
        // cache must not resurrect the retired plan.
        let retired_key = crate::PatternFingerprint::of(&retire);
        cache.invalidate(&retired_key);
        assert!(!resident(&cache, &retired_key));
        assert_eq!(
            cache.warm_from(&store, |plan| Some(Arc::clone(plan))),
            1,
            "only the live plan returns"
        );
        assert!(resident(&cache, &crate::PatternFingerprint::of(&keep)));
        assert!(
            !resident(&cache, &retired_key),
            "pre-snapshot-generation plan dropped on restore"
        );

        // Same rule across processes: a fresh cache that first learns the
        // newer generation table, then sees an older store.
        let newer = cache.snapshot(); // carries generation 1 for retired_key
        let fresh = ConcurrentPlanCache::new(8);
        fresh.warm_from(&newer, |plan| Some(Arc::clone(plan)));
        assert_eq!(
            fresh.warm_from(&store, |plan| Some(Arc::clone(plan))),
            1,
            "stale entry in an older store is dropped"
        );
        assert!(!resident(&fresh, &retired_key));
    }

    #[test]
    fn swap_plan_bumps_generation_and_replaces_in_place() {
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(8);
        let l = scatter_loop(11);
        let key = crate::PatternFingerprint::of(&l);
        let (_, cell, _, _) = cache
            .get_or_build(&key, || Planner::new().plan(&pool, &l))
            .unwrap();
        assert_eq!(cell.load(Ordering::Acquire), 0);

        let replacement = build_plan(&pool, &l);
        let generation = cache.swap_plan(Arc::clone(&replacement));
        assert_eq!(generation, 1, "swap advances the key's generation");
        assert_eq!(cell.load(Ordering::Acquire), 1, "watchers see the bump");
        let served = lookup(&cache, &key).expect("plan still cached");
        assert!(
            Arc::ptr_eq(&served, &replacement),
            "the swapped plan is the one served"
        );
        assert_eq!(cache.len(), 1, "replacement, not a second entry");

        // Swapping a never-cached key inserts it and still bumps.
        let fresh = scatter_loop(13);
        let fresh_plan = build_plan(&pool, &fresh);
        let fresh_key = *fresh_plan.fingerprint();
        assert_eq!(cache.swap_plan(fresh_plan), 1);
        assert!(resident(&cache, &fresh_key));
    }

    #[test]
    fn eviction_holds_the_exact_capacity() {
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(4);
        for n in 1..=32 {
            insert(&cache, build_plan(&pool, &scatter_loop(n)));
        }
        let (len, capacity, s) = cache.gauges();
        assert_eq!((len, capacity), (4, 4), "full, never over");
        assert_eq!(s.insertions - s.evictions, len as u64);
        assert_eq!(s.evictions, 28);
    }
}
