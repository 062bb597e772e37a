//! [`ConcurrentPlanCache`]: the sharded, internally-synchronized plan
//! cache behind `doacross_engine::Engine`.
//!
//! A session object served from many threads needs a cache it can reach
//! through `&self`. This type shards the key space across `N`
//! mutex-guarded LRUs (the crate-private `PlanCache`), routed by the top
//! bits of the [`PatternFingerprint`]'s hash, so concurrent callers contend only when
//! their structures land in the same shard. Each shard keeps its own LRU
//! recency and counters; [`ConcurrentPlanCache::stats`] merges them.
//!
//! Two deliberate design points:
//!
//! * **Builds happen under the shard lock.** A cache miss holds its
//!   shard's mutex while the planner runs, so a second thread racing on
//!   the *same* structure blocks briefly and then hits, instead of both
//!   planning the same pattern. Other shards stay available throughout.
//!   (Plan builds take microseconds-to-milliseconds; the alternative —
//!   duplicate builds with last-writer-wins — wastes strictly more work.)
//! * **Invalidation is a generation bump, not just a removal.** Plans are
//!   handed out as `Arc`s, so dropping a cache entry cannot recall handles
//!   already in flight. Each fingerprint carries a monotonically
//!   increasing *generation* (0 until first invalidated); a handle records
//!   the generation it was prepared under plus the shared atomic cell
//!   tracking the current one, so staleness checks on the execute hot path
//!   are one lock-free load.

use crate::cache::{CacheStats, PlanCache};
use crate::fingerprint::PatternFingerprint;
use crate::persist::PlanStore;
use crate::plan::ExecutionPlan;
use doacross_obs::{Obs, TraceEvent};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on the shard count (a power of two; beyond this the
/// per-shard LRUs are too small to be useful).
const MAX_SHARDS: usize = 4096;

/// Fallback shard count when the host's parallelism cannot be queried.
const FALLBACK_SHARDS: usize = 8;

/// Upper bound for [`default_shard_count`]: shards exist to keep
/// concurrent callers off each other's locks, and callers are threads —
/// beyond a generous multiple of any sane machine's core count, extra
/// shards only fragment the LRU capacity.
const DEFAULT_SHARDS_CAP: usize = 64;

/// Shard count matched to *this host*: the available parallelism, rounded
/// up to a power of two and clamped to `1..=64` (8 when the host cannot
/// be queried). Contention on
/// the cache scales with the threads that can actually run concurrently,
/// so a 1-core container gets one shard (its whole capacity in one LRU)
/// while a 32-way server gets 32.
///
/// `shard_of` depends on the shard count, so a routing is only stable for
/// the lifetime of one cache — which is all the engine needs; persisted
/// stores are keyed by fingerprint, not by shard.
pub fn default_shard_count() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(FALLBACK_SHARDS)
        .clamp(1, DEFAULT_SHARDS_CAP)
        .next_power_of_two()
}

struct Shard {
    lru: PlanCache,
    /// Per-fingerprint generation cells. Handed out as `Arc`s by
    /// [`ConcurrentPlanCache::get_or_build`] so prepared-loop handles can
    /// check staleness with one atomic load instead of taking this
    /// shard's lock on every execute. Writes (invalidation bumps) happen
    /// under the shard lock; reads are lock-free.
    ///
    /// Growth is pruned on cache misses: cells nobody watches
    /// (`strong_count == 1`) that were never invalidated (`load == 0`)
    /// are dropped, so the map is bounded by live handles plus distinct
    /// fingerprints ever invalidated — not by cache traffic.
    generations: HashMap<PatternFingerprint, Arc<AtomicU64>>,
}

impl Shard {
    fn generation_of(&self, key: &PatternFingerprint) -> u64 {
        self.generations
            .get(key)
            .map_or(0, |cell| cell.load(Ordering::Acquire))
    }

    fn generation_cell(&mut self, key: &PatternFingerprint) -> Arc<AtomicU64> {
        Arc::clone(
            self.generations
                .entry(*key)
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }
}

/// Sharded fingerprint-keyed plan cache, safe to share via `&self` (see
/// module docs).
pub struct ConcurrentPlanCache {
    shards: Box<[Mutex<Shard>]>,
    /// `64 − log2(shards.len())`: shard index = fingerprint high bits.
    shift: u32,
    /// Trace emitter for hit/miss/evict/invalidate/swap events (disabled
    /// by default — one branch per operation). Events are emitted *after*
    /// the shard lock is released so observability never extends the
    /// critical section.
    obs: Obs,
}

impl ConcurrentPlanCache {
    /// Cache holding up to `capacity` plans in total, spread over
    /// `shards` shards (rounded up to a power of two, clamped to
    /// `1..=4096`). Each shard holds `ceil(capacity / shards)`
    /// plans, so the realized total capacity may slightly exceed
    /// `capacity`. A capacity of 0 is legal and makes every lookup a miss.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let nshards = shards.clamp(1, MAX_SHARDS).next_power_of_two();
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(nshards)
        };
        let shards: Box<[Mutex<Shard>]> = (0..nshards)
            .map(|_| {
                Mutex::new(Shard {
                    lru: PlanCache::new(per_shard),
                    generations: HashMap::new(),
                })
            })
            .collect();
        Self {
            shift: 64 - nshards.trailing_zeros(),
            shards,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle; subsequent cache operations emit
    /// [`TraceEvent`]s through it. Called by the engine builder before the
    /// cache is shared.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total plan capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shards[0].lock().lru.capacity()
    }

    /// Plans currently held, summed over shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().lru.len()).sum()
    }

    /// Whether no shard holds a plan.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merged traffic counters of all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.iter() {
            total.absorb(&shard.lock().lru.stats());
        }
        total
    }

    /// The shard index `key` routes to.
    fn shard_of(&self, key: &PatternFingerprint) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (key.high_bits() >> self.shift) as usize
        }
    }

    /// Invalidates `key`: drops any cached plan and bumps the key's
    /// generation so handles prepared under earlier generations fail fast.
    /// Returns `true` when a cached plan was actually dropped. The
    /// generation advances either way — a plan already evicted from the
    /// LRU can still be live behind `Arc` handles.
    pub fn invalidate(&self, key: &PatternFingerprint) -> bool {
        let mut shard = self.shard(key).lock();
        let generation = shard.generation_cell(key).fetch_add(1, Ordering::AcqRel) + 1;
        let dropped = shard.lru.remove(key).is_some();
        drop(shard);
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
    /// key's generation, atomically with respect to the owning shard — the
    /// adaptive promotion/demotion primitive. Handles prepared under the
    /// old plan observe the bump and fail fast with a typed staleness
    /// error instead of silently executing the superseded variant;
    /// re-preparing serves the new plan. Returns the key's new generation.
    pub fn swap_plan(&self, plan: Arc<ExecutionPlan>) -> u64 {
        let key = *plan.fingerprint();
        let variant = plan.variant();
        let mut shard = self.shard(&key).lock();
        let generation = shard.generation_cell(&key).fetch_add(1, Ordering::AcqRel) + 1;
        let evicted = shard.lru.insert(plan); // replaces in place for an existing key
        drop(shard);
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
    /// holding the shard lock, see module docs — and stores it.
    /// Returns the plan, the key's shared generation cell (the lock-free
    /// watch point for staleness checks), the generation **read while the
    /// shard lock was held** — so the (plan, generation) pair is
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
        let mut shard = self.shard(key).lock();
        let cell = shard.generation_cell(key);
        let generation = cell.load(Ordering::Acquire);
        if let Some(plan) = shard.lru.get(key) {
            drop(shard);
            if self.obs.enabled() {
                self.obs.emit(TraceEvent::CacheHit { fp: key.into() });
            }
            return Ok((plan, cell, generation, true));
        }
        // Miss: prune generation cells nobody can observe anymore (no
        // outstanding handle, never invalidated) so the map stays bounded;
        // the build below dwarfs this sweep.
        shard
            .generations
            .retain(|k, c| k == key || Arc::strong_count(c) > 1 || c.load(Ordering::Relaxed) > 0);
        let plan = Arc::new(build()?);
        let evicted = shard.lru.insert(Arc::clone(&plan));
        drop(shard);
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

    /// Captures every resident plan (per-shard MRU-first, tagged with its
    /// key's current generation) plus all nonzero invalidation generations
    /// into a [`PlanStore`] — the cross-run warm-start artifact.
    ///
    /// Shards are locked one at a time, so each shard's view is internally
    /// consistent but the snapshot as a whole is not a global atomic cut;
    /// for the intended use (quiescent save at shutdown / periodic
    /// checkpoint) that is exactly enough.
    pub fn snapshot(&self) -> PlanStore {
        let mut store = PlanStore::new();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            for key in shard.lru.keys_by_recency() {
                let plan = shard
                    .lru
                    .peek(&key)
                    .expect("recency-listed key is resident");
                store.push_entry(shard.generation_of(&key), Arc::clone(plan));
            }
            for (key, cell) in shard.generations.iter() {
                let generation = cell.load(Ordering::Acquire);
                if generation > 0 {
                    store.push_generation(*key, generation);
                }
            }
        }
        store
    }

    /// Restores `store` into this cache: generation counters first (so
    /// invalidations survive the restart — `fetch_max`, never backwards),
    /// then the plans, least recently used first so the store's recency
    /// becomes each shard's recency, each as `restore` maps it (the stored
    /// `Arc` itself, or a copy with other prices). A stored plan whose
    /// key's current generation has advanced past the one it was captured
    /// under was invalidated after the snapshot and is **dropped**, not
    /// resurrected; a plan `restore` maps to `None` is skipped, and its
    /// generation still merges.
    /// Restores count as insertions, never as hits or misses. Returns the
    /// number of plans *inserted*; if the store outsizes a shard's
    /// capacity, normal LRU eviction applies during the restore, so the
    /// final resident count ([`ConcurrentPlanCache::len`]) can be smaller
    /// — the most recently used plans win, as everywhere else.
    pub fn warm_from(
        &self,
        store: &PlanStore,
        restore: impl Fn(&Arc<ExecutionPlan>) -> Option<Arc<ExecutionPlan>>,
    ) -> usize {
        for (key, generation) in store.generations() {
            let mut shard = self.shard(key).lock();
            shard
                .generation_cell(key)
                .fetch_max(generation, Ordering::AcqRel);
        }
        let mut restored = 0;
        for (generation, plan) in store.entries.iter().rev() {
            let key = plan.fingerprint();
            let mut shard = self.shard(key).lock();
            if shard.lru.capacity() == 0 {
                continue;
            }
            if shard.generation_of(key) > *generation {
                continue; // invalidated since this plan was captured
            }
            let Some(plan) = restore(plan) else {
                continue; // refused
            };
            shard.lru.insert(plan);
            restored += 1;
        }
        restored
    }

    fn shard(&self, key: &PatternFingerprint) -> &Mutex<Shard> {
        &self.shards[self.shard_of(key)]
    }
}

impl std::fmt::Debug for ConcurrentPlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentPlanCache")
            .field("shards", &self.shard_count())
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("stats", &self.stats())
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

    // Test-side reads and writes of one key's shard, under its lock.
    fn resident(cache: &ConcurrentPlanCache, key: &PatternFingerprint) -> bool {
        cache.shard(key).lock().lru.peek(key).is_some()
    }

    fn generation(cache: &ConcurrentPlanCache, key: &PatternFingerprint) -> u64 {
        cache.shard(key).lock().generation_of(key)
    }

    fn insert(cache: &ConcurrentPlanCache, plan: Arc<ExecutionPlan>) {
        let key = *plan.fingerprint();
        cache.shard(&key).lock().lru.insert(plan);
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
    fn shard_count_normalizes_to_powers_of_two() {
        assert_eq!(ConcurrentPlanCache::new(16, 0).shard_count(), 1);
        assert_eq!(ConcurrentPlanCache::new(16, 1).shard_count(), 1);
        assert_eq!(ConcurrentPlanCache::new(16, 3).shard_count(), 4);
        assert_eq!(ConcurrentPlanCache::new(16, 8).shard_count(), 8);
        assert_eq!(
            ConcurrentPlanCache::new(16, usize::MAX).shard_count(),
            MAX_SHARDS
        );
    }

    #[test]
    fn capacity_spreads_over_shards() {
        let cache = ConcurrentPlanCache::new(10, 4);
        assert_eq!(cache.capacity(), 12, "ceil(10/4) = 3 per shard");
        assert_eq!(ConcurrentPlanCache::new(0, 4).capacity(), 0);
    }

    #[test]
    fn hit_miss_and_merged_stats() {
        let pool = ThreadPool::new(2);
        // Ample per-shard capacity (24/4 = 6): no evictions regardless of
        // how the six fingerprints distribute over the shards.
        let cache = ConcurrentPlanCache::new(24, 4);
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
        let cache = ConcurrentPlanCache::new(8, 2);
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
            assert_eq!(generation, 0, "generation read under the shard lock");
            assert_eq!(plan.fingerprint(), &key);
        }
        assert_eq!(builds, 1);
    }

    #[test]
    fn get_or_build_generation_is_consistent_with_the_returned_plan() {
        // Regression for the prepare-vs-swap race: the generation a
        // handle records must be the one read while the shard lock held
        // both the plan and the counter — after any number of swaps and
        // invalidations, (plan, generation) pairs stay consistent, so a
        // later bump always makes the pair observable as stale.
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(8, 2);
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
        let cache = ConcurrentPlanCache::new(8, 2);
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
        let source = ConcurrentPlanCache::new(4, 1);
        let l = scatter_loop(7);
        let key = crate::PatternFingerprint::of(&l);
        insert(&source, build_plan(&pool, &l));
        let ghost = crate::PatternFingerprint::of(&scatter_loop(8));
        source.invalidate(&ghost);
        let cache = ConcurrentPlanCache::new(4, 1);
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
        let cache = ConcurrentPlanCache::new(64, 1);
        // Prepare many structures, dropping every cell immediately: the
        // single shard's generation map must not grow with traffic.
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
        let retained = cache.shards[0].lock().generations.len();
        assert!(
            retained <= 3,
            "unwatched, never-invalidated cells pruned (kept {retained})"
        );
        assert_eq!(watched_cell.load(Ordering::Acquire), 0);
        assert_eq!(generation(&cache, &invalidated_key), 1);
    }

    #[test]
    fn fresh_and_warm_started_caches_report_zero_hit_rate() {
        // Regression: the merged multi-shard stats path must inherit the
        // 0/0 → 0.0 guard, with and without warm-started insertions.
        let cache = ConcurrentPlanCache::new(16, 4);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        assert!(!cache.stats().hit_rate().is_nan());

        let pool = ThreadPool::new(2);
        insert(&cache, build_plan(&pool, &scatter_loop(5)));
        let warm = ConcurrentPlanCache::new(16, 4);
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
        // One shard so recency is a single total order we can assert on.
        let cache = ConcurrentPlanCache::new(8, 1);
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

        let restored = ConcurrentPlanCache::new(8, 1);
        assert_eq!(restored.warm_from(&store, |plan| Some(Arc::clone(plan))), 3);
        assert_eq!(
            restored.shards[0].lock().lru.keys_by_recency(),
            cache.shards[0].lock().lru.keys_by_recency(),
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
        let cache = ConcurrentPlanCache::new(4, 1);
        let plans: Vec<_> = (1..=3)
            .map(|n| build_plan(&pool, &scatter_loop(n)))
            .collect();
        for plan in &plans {
            insert(&cache, Arc::clone(plan));
        }
        // Touch the first so recency is [1, 3, 2].
        assert!(lookup(&cache, plans[0].fingerprint()).is_some());
        let recency = cache.shards[0].lock().lru.keys_by_recency();
        let store = cache.snapshot();

        // Same recency, and the restored plan is the same Arc (no deep
        // copy on warm).
        let fresh = ConcurrentPlanCache::new(4, 1);
        assert_eq!(fresh.warm_from(&store, |plan| Some(Arc::clone(plan))), 3);
        let s = fresh.stats();
        assert_eq!(
            (s.hits, s.misses, s.insertions),
            (0, 0, 3),
            "restores are not traffic"
        );
        let shard = fresh.shards[0].lock();
        assert_eq!(shard.lru.keys_by_recency(), recency);
        let first = plans[0].fingerprint();
        assert!(Arc::ptr_eq(shard.lru.peek(first).unwrap(), &plans[0]));
        drop(shard);

        // A smaller cache keeps the *most recent* plans from the store.
        let small = ConcurrentPlanCache::new(2, 1);
        assert_eq!(
            small.warm_from(&store, |plan| Some(Arc::clone(plan))),
            3,
            "all offered, LRU evicted"
        );
        assert_eq!(small.shards[0].lock().lru.keys_by_recency(), recency[..2]);

        // Capacity 0 restores nothing.
        assert_eq!(
            ConcurrentPlanCache::new(0, 1).warm_from(&store, |plan| Some(Arc::clone(plan))),
            0
        );
    }

    #[test]
    fn warm_from_drops_plans_invalidated_after_the_snapshot() {
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(8, 2);
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
        let fresh = ConcurrentPlanCache::new(8, 2);
        fresh.warm_from(&newer, |plan| Some(Arc::clone(plan)));
        assert_eq!(
            fresh.warm_from(&store, |plan| Some(Arc::clone(plan))),
            1,
            "stale entry in an older store is dropped"
        );
        assert!(!resident(&fresh, &retired_key));
    }

    #[test]
    fn default_shard_count_is_a_clamped_power_of_two() {
        let n = default_shard_count();
        assert!(n.is_power_of_two());
        assert!((1..=DEFAULT_SHARDS_CAP).contains(&n));
        // Deterministic within a process: shard routing built from it is
        // stable for the lifetime of any one cache.
        assert_eq!(n, default_shard_count());
    }

    #[test]
    fn swap_plan_bumps_generation_and_replaces_in_place() {
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(8, 2);
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
    fn per_shard_eviction_respects_total_capacity() {
        let pool = ThreadPool::new(2);
        let cache = ConcurrentPlanCache::new(4, 4);
        for n in 1..=32 {
            insert(&cache, build_plan(&pool, &scatter_loop(n)));
        }
        let s = cache.stats();
        assert!(cache.len() <= cache.capacity());
        assert_eq!(s.insertions - s.evictions, cache.len() as u64);
    }
}
