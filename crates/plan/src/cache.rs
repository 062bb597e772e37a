//! Fingerprint-keyed LRU of execution plans: one shard of
//! [`ConcurrentPlanCache`](crate::ConcurrentPlanCache).
//!
//! This is where the amortization the paper argues for in §2.1 becomes a
//! systems feature: a solver iterating on a fixed sparse structure, or a
//! service replaying the same loop shapes for many requests, pays
//! inspection + dependence analysis + ordering once per *structure*
//! instead of once per *run*. A shard is a plain LRU over
//! [`PatternFingerprint`] keys — a doubly-linked recency list threaded
//! through a slab, O(1) hit, insert, and eviction — with hit/miss/eviction
//! counters so the skip is observable from the outside.

use crate::fingerprint::PatternFingerprint;
use crate::plan::ExecutionPlan;
use std::collections::HashMap;
use std::sync::Arc;

const NIL: usize = usize::MAX;

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
    /// Adds `other`'s counters into `self` — used to merge per-shard stats
    /// into one cache-wide view.
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.insertions += other.insertions;
    }

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

#[derive(Debug)]
struct Entry {
    key: PatternFingerprint,
    /// `None` only while the slot sits on the free list — resident
    /// entries always hold a plan. Clearing on eviction/removal matters:
    /// a parked `Arc` would keep a retired plan's claim stream
    /// (O(iterations + references)) alive until the slot is reused.
    plan: Option<Arc<ExecutionPlan>>,
    prev: usize,
    next: usize,
}

/// The plan of an entry that is linked into the recency list.
fn resident(entry: &Entry) -> &Arc<ExecutionPlan> {
    entry.plan.as_ref().expect("resident entry holds a plan")
}

/// LRU cache of [`ExecutionPlan`]s keyed by [`PatternFingerprint`]: the
/// shard type of [`ConcurrentPlanCache`](crate::ConcurrentPlanCache),
/// which owns every instance and calls it under the shard's lock.
///
/// Plans are handed out as [`Arc`]s, so a caller can keep executing a plan
/// that has since been evicted.
#[derive(Debug)]
pub(crate) struct PlanCache {
    capacity: usize,
    map: HashMap<PatternFingerprint, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    stats: CacheStats,
}

impl PlanCache {
    /// Cache holding up to `capacity` plans. A capacity of 0 is legal and
    /// makes every lookup a miss (useful for measuring the uncached
    /// baseline).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Maximum number of plans held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Plans currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Traffic counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The plan stored under `key`, without touching recency or counters —
    /// the read snapshots use. [`PlanCache::get_matching`] is the traffic
    /// path.
    pub fn peek(&self, key: &PatternFingerprint) -> Option<&Arc<ExecutionPlan>> {
        self.map.get(key).map(|&slot| resident(&self.slab[slot]))
    }

    /// Looks up `key`, but counts an entry failing `matches` as a miss —
    /// used to reject plans whose pricing context (e.g. the worker count)
    /// no longer applies. The stale entry stays until a subsequent
    /// [`PlanCache::insert`] for the same key replaces it.
    pub fn get_matching(
        &mut self,
        key: &PatternFingerprint,
        matches: impl FnOnce(&ExecutionPlan) -> bool,
    ) -> Option<Arc<ExecutionPlan>> {
        match self.map.get(key) {
            Some(&slot) if matches(resident(&self.slab[slot])) => {
                self.stats.hits += 1;
                self.unlink(slot);
                self.push_front(slot);
                Some(Arc::clone(resident(&self.slab[slot])))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores `plan` under its own fingerprint, evicting the least
    /// recently used entry if full. Replaces any existing plan for the
    /// same fingerprint. Returns the evicted plan, if the insert pushed
    /// one out — same-key replacement is not an eviction.
    pub fn insert(&mut self, plan: Arc<ExecutionPlan>) -> Option<Arc<ExecutionPlan>> {
        let key = *plan.fingerprint();
        if let Some(&slot) = self.map.get(&key) {
            self.slab[slot].plan = Some(plan);
            self.unlink(slot);
            self.push_front(slot);
            self.stats.insertions += 1;
            return None;
        }
        if self.capacity == 0 {
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            self.map.remove(&self.slab[lru].key);
            evicted = self.slab[lru].plan.take();
            self.free.push(lru);
            self.stats.evictions += 1;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Entry {
                    key,
                    plan: Some(plan),
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.slab.push(Entry {
                    key,
                    plan: Some(plan),
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        self.stats.insertions += 1;
        evicted
    }

    /// Removes the plan stored under `key`, returning it if present.
    /// Removal is not cache *traffic*: hit/miss counters are untouched and
    /// no eviction is recorded. Used by invalidation.
    pub fn remove(&mut self, key: &PatternFingerprint) -> Option<Arc<ExecutionPlan>> {
        let slot = self.map.remove(key)?;
        self.unlink(slot);
        let plan = self.slab[slot].plan.take();
        self.free.push(slot);
        plan
    }

    /// Keys from most to least recently used: the order a snapshot
    /// captures.
    pub fn keys_by_recency(&self) -> Vec<PatternFingerprint> {
        let mut keys = Vec::with_capacity(self.map.len());
        let mut slot = self.head;
        while slot != NIL {
            keys.push(self.slab[slot].key);
            slot = self.slab[slot].next;
        }
        keys
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot].prev = NIL;
        self.slab[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use doacross_core::IndirectLoop;
    use doacross_par::ThreadPool;

    fn plan_for(n: usize) -> (PatternFingerprint, Arc<ExecutionPlan>) {
        let a: Vec<usize> = (0..n).collect();
        let l = IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
        let pool = ThreadPool::new(2);
        let plan = Planner::new().plan(&pool, &l).unwrap();
        (*plan.fingerprint(), Arc::new(plan))
    }

    fn hit(cache: &mut PlanCache, key: &PatternFingerprint) -> bool {
        cache.get_matching(key, |_| true).is_some()
    }

    #[test]
    fn hit_miss_and_stats() {
        let mut cache = PlanCache::new(4);
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
        // the guard must report 0.0, not NaN — including for stats merged
        // from idle shards via `absorb` (the engine's fresh-stats path).
        let fresh = PlanCache::new(4).stats();
        assert_eq!(fresh.hit_rate(), 0.0);
        assert!(!fresh.hit_rate().is_nan());

        let mut merged = CacheStats::default();
        for _ in 0..8 {
            merged.absorb(&CacheStats::default());
        }
        assert_eq!(merged.hit_rate(), 0.0);
        assert!(!merged.hit_rate().is_nan());

        // Insertions alone (a warm-started cache) are still not traffic.
        let mut cache = PlanCache::new(4);
        cache.insert(plan_for(3).1);
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn get_matching_hits_promote_recency_like_get() {
        // Regression: a hit must touch the LRU, or snapshots serialize a
        // wrong recency order and eviction picks the wrong victim; a
        // rejected match must not.
        let mut cache = PlanCache::new(3);
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

        // A rejected match is a miss and must NOT promote.
        assert!(cache.get_matching(&k1, |_| false).is_none());
        assert_eq!(cache.keys_by_recency(), vec![k3, k2, k1]);

        // Eviction respects the touched order: k1 is now the LRU.
        let (k4, p4) = plan_for(4);
        cache.insert(p4);
        assert!(cache.peek(&k1).is_none(), "LRU after the touches");
        assert_eq!(cache.keys_by_recency(), vec![k4, k3, k2]);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
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
        let mut cache = PlanCache::new(3);
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
        let mut cache = PlanCache::new(0);
        let (key, plan) = plan_for(5);
        cache.insert(plan);
        assert_eq!(cache.len(), 0);
        assert!(!hit(&mut cache, &key));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn reinsert_same_key_replaces_without_eviction() {
        let mut cache = PlanCache::new(2);
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
        let mut cache = PlanCache::new(1);
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

        // A freed slot is reusable.
        cache.insert(Arc::clone(&p2));
        assert!(cache.peek(&k2).is_some());
    }
}
