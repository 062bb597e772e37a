//! The plan cache's state: everything
//! [`ConcurrentPlanCache`](crate::ConcurrentPlanCache) holds under its one
//! lock.
//!
//! This is where the amortization the paper argues for in §2.1 becomes a
//! systems feature: a solver iterating on a fixed sparse structure, or a
//! service replaying the same loop shapes for many requests, pays
//! inspection + dependence analysis + ordering once per *structure*
//! instead of once per *run*. The state is an LRU over
//! [`PatternFingerprint`] keys kept with a use clock: a hit stamps its
//! entry with the next clock value in O(1), and an insert into a full
//! cache evicts the entry with the smallest stamp, found by one scan —
//! paid only by a miss that has just built a plan, or by a restore.
//! Hit/miss/eviction counters make the skip observable from the outside.

use crate::fingerprint::PatternFingerprint;
use crate::plan::ExecutionPlan;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Plans evicted to make room.
    pub evictions: u64,
    /// Plans stored, including same-key replacements.
    pub insertions: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The plan cache's one state (see the module docs). Plans are handed
/// out as [`Arc`]s, so a caller can keep executing a plan that has since
/// been evicted.
#[derive(Debug, Default)]
pub(crate) struct CacheState {
    capacity: usize,
    /// Each resident plan with the clock value of its last use.
    plans: HashMap<PatternFingerprint, (Arc<ExecutionPlan>, u64)>,
    /// The use clock: advanced by every hit and every insertion.
    clock: u64,
    stats: CacheStats,
    /// Per-fingerprint generation cells, handed out as `Arc`s so a
    /// prepared handle checks staleness with one atomic load instead of
    /// taking the cache lock on every execute. Bumps happen under the
    /// lock; reads are lock-free. [`CacheState::prune_generations`] keeps
    /// the map bounded by live handles plus keys ever invalidated.
    generations: HashMap<PatternFingerprint, Arc<AtomicU64>>,
}

impl CacheState {
    /// State holding up to `capacity` plans. A capacity of 0 is legal and
    /// makes every lookup a miss (useful for measuring the uncached
    /// baseline).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn len(&self) -> usize {
        self.plans.len()
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, counting a hit (and stamping the entry as the most
    /// recently used) or a miss.
    pub(crate) fn get(&mut self, key: &PatternFingerprint) -> Option<Arc<ExecutionPlan>> {
        let Some((plan, used)) = self.plans.get_mut(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.clock += 1;
        *used = self.clock;
        self.stats.hits += 1;
        Some(Arc::clone(plan))
    }

    /// Stores `plan` under its own fingerprint as the most recently used,
    /// replacing any plan for the same fingerprint, else evicting the
    /// least recently used entry if full. Returns the evicted plan —
    /// same-key replacement is not an eviction.
    pub(crate) fn insert(&mut self, plan: Arc<ExecutionPlan>) -> Option<Arc<ExecutionPlan>> {
        if self.capacity == 0 {
            return None;
        }
        let key = *plan.fingerprint();
        let mut evicted = None;
        if self.plans.len() >= self.capacity && !self.plans.contains_key(&key) {
            let (&lru, _) = self
                .plans
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .expect("a full cache holds a plan");
            evicted = self.remove(&lru);
            self.stats.evictions += 1;
        }
        self.clock += 1;
        self.plans.insert(key, (plan, self.clock));
        self.stats.insertions += 1;
        evicted
    }

    /// Removes the plan stored under `key`, returning it if present.
    /// Removal is not cache *traffic*: no counter moves. Used by
    /// invalidation.
    pub(crate) fn remove(&mut self, key: &PatternFingerprint) -> Option<Arc<ExecutionPlan>> {
        self.plans.remove(key).map(|(plan, _)| plan)
    }

    /// Resident plans, most recently used first: the order a snapshot
    /// captures.
    pub(crate) fn by_recency(&self) -> Vec<&Arc<ExecutionPlan>> {
        let mut plans: Vec<_> = self.plans.values().collect();
        plans.sort_unstable_by_key(|(_, used)| Reverse(*used));
        plans.into_iter().map(|(plan, _)| plan).collect()
    }

    /// `key`'s current generation: 0 until first invalidated.
    pub(crate) fn generation_of(&self, key: &PatternFingerprint) -> u64 {
        self.generations
            .get(key)
            .map_or(0, |cell| cell.load(Ordering::Acquire))
    }

    /// `key`'s shared generation cell, created at 0 on first use.
    pub(crate) fn generation_cell(&mut self, key: &PatternFingerprint) -> Arc<AtomicU64> {
        Arc::clone(
            self.generations
                .entry(*key)
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Every nonzero generation, the ones a snapshot carries.
    pub(crate) fn invalidated(&self) -> impl Iterator<Item = (PatternFingerprint, u64)> + '_ {
        self.generations
            .iter()
            .map(|(key, cell)| (*key, cell.load(Ordering::Acquire)))
            .filter(|&(_, generation)| generation > 0)
    }

    /// Drops the generation cells nobody can observe anymore — no
    /// outstanding handle, never invalidated — except `key`'s.
    pub(crate) fn prune_generations(&mut self, key: &PatternFingerprint) {
        self.generations
            .retain(|k, c| k == key || Arc::strong_count(c) > 1 || c.load(Ordering::Relaxed) > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use doacross_core::IndirectLoop;
    use doacross_par::ThreadPool;

    /// Test-side reads of the state, shared with `concurrent`'s tests.
    impl CacheState {
        /// The plan stored under `key`, without touching recency or
        /// counters.
        pub(crate) fn peek(&self, key: &PatternFingerprint) -> Option<&Arc<ExecutionPlan>> {
            self.plans.get(key).map(|(plan, _)| plan)
        }

        pub(crate) fn keys_by_recency(&self) -> Vec<PatternFingerprint> {
            self.by_recency().iter().map(|p| *p.fingerprint()).collect()
        }

        pub(crate) fn generation_cells(&self) -> usize {
            self.generations.len()
        }
    }

    fn plan_for(n: usize) -> (PatternFingerprint, Arc<ExecutionPlan>) {
        let a: Vec<usize> = (0..n).collect();
        let l = IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
        let pool = ThreadPool::new(2);
        let plan = Planner::new().plan(&pool, &l).unwrap();
        (*plan.fingerprint(), Arc::new(plan))
    }

    fn hit(cache: &mut CacheState, key: &PatternFingerprint) -> bool {
        cache.get(key).is_some()
    }

    #[test]
    fn hit_miss_and_stats() {
        let mut cache = CacheState::new(4);
        let (key, plan) = plan_for(10);
        assert!(!hit(&mut cache, &key));
        cache.insert(plan);
        assert!(hit(&mut cache, &key));
        assert!(cache.peek(&key).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_is_zero_without_traffic_never_nan() {
        // Regression: `hits / (hits + misses)` on a fresh cache is 0/0;
        // the guard must report 0.0, not NaN.
        let fresh = CacheState::new(4).stats();
        assert_eq!(fresh.hit_rate(), 0.0);
        assert!(!fresh.hit_rate().is_nan());
        assert_eq!(CacheStats::default().hit_rate(), 0.0);

        // Insertions alone (a warm-started cache) are still not traffic.
        let mut cache = CacheState::new(4);
        cache.insert(plan_for(3).1);
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn get_hits_promote_recency() {
        // Regression: a hit must touch the LRU, or snapshots serialize a
        // wrong recency order and eviction picks the wrong victim.
        let mut cache = CacheState::new(3);
        let (k1, p1) = plan_for(1);
        let (k2, p2) = plan_for(2);
        let (k3, p3) = plan_for(3);
        cache.insert(p1);
        cache.insert(p2);
        cache.insert(p3);
        assert_eq!(cache.keys_by_recency(), vec![k3, k2, k1]);

        assert!(hit(&mut cache, &k1));
        assert_eq!(cache.keys_by_recency(), vec![k1, k3, k2]);
        assert!(hit(&mut cache, &k2));
        assert_eq!(cache.keys_by_recency(), vec![k2, k1, k3]);
        assert!(hit(&mut cache, &k3));
        assert_eq!(cache.keys_by_recency(), vec![k3, k2, k1]);

        // Eviction respects the touched order: k1 is now the LRU.
        let (k4, p4) = plan_for(4);
        cache.insert(p4);
        assert!(cache.peek(&k1).is_none(), "LRU after the touches");
        assert_eq!(cache.keys_by_recency(), vec![k4, k3, k2]);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = CacheState::new(2);
        let (k1, p1) = plan_for(1);
        let (k2, p2) = plan_for(2);
        let (k3, p3) = plan_for(3);
        assert!(cache.insert(p1).is_none());
        assert!(cache.insert(p2).is_none());
        // Touch k1 so k2 becomes the LRU.
        assert!(hit(&mut cache, &k1));
        let evicted = cache.insert(p3).expect("full cache evicts");
        assert_eq!(evicted.fingerprint(), &k2, "the LRU plan is returned");
        assert!(cache.peek(&k2).is_none(), "LRU evicted");
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.keys_by_recency(), vec![k3, k1]);
    }

    #[test]
    fn eviction_churn_preserves_linkage() {
        let mut cache = CacheState::new(3);
        let plans: Vec<_> = (1..=10).map(plan_for).collect();
        for (_, p) in &plans {
            cache.insert(Arc::clone(p));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 7);
        // The three most recent survive, in recency order.
        assert_eq!(
            cache.keys_by_recency(),
            vec![plans[9].0, plans[8].0, plans[7].0]
        );
        // Touch the middle one and insert another: oldest goes.
        assert!(hit(&mut cache, &plans[8].0));
        let (extra, p) = plan_for(11);
        cache.insert(p);
        assert_eq!(cache.keys_by_recency(), vec![extra, plans[8].0, plans[9].0]);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut cache = CacheState::new(0);
        let (key, plan) = plan_for(5);
        cache.insert(plan);
        assert_eq!(cache.len(), 0);
        assert!(!hit(&mut cache, &key));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn reinsert_same_key_replaces_without_eviction() {
        let mut cache = CacheState::new(2);
        let (key, p1) = plan_for(6);
        let (_, p1b) = plan_for(6);
        cache.insert(p1);
        cache.insert(Arc::clone(&p1b));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        assert!(Arc::ptr_eq(cache.peek(&key).unwrap(), &p1b));
    }

    #[test]
    fn eviction_and_removal_release_the_plan_arc() {
        let mut cache = CacheState::new(1);
        let (_, p1) = plan_for(3);
        let (k2, p2) = plan_for(4);
        cache.insert(Arc::clone(&p1));
        assert_eq!(Arc::strong_count(&p1), 2);
        cache.insert(Arc::clone(&p2));
        assert_eq!(Arc::strong_count(&p1), 1, "eviction frees the plan");

        let removed = cache.remove(&k2).expect("resident");
        drop(removed);
        assert_eq!(Arc::strong_count(&p2), 1, "removal frees the plan");
        assert_eq!(cache.len(), 0);
        assert!(cache.remove(&k2).is_none(), "second removal is a no-op");

        // The room is reusable.
        cache.insert(Arc::clone(&p2));
        assert!(cache.peek(&k2).is_some());
    }
}
