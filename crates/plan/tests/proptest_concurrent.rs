//! Property tests of the plan cache: for any sequence of lookups,
//! invalidations, swaps and warm restarts, a [`ConcurrentPlanCache`]
//! behaves like a recency-ordered list of exactly its capacity, and
//! invalidation generations are monotone per key.

use doacross_core::IndirectLoop;
use doacross_obs::{FpId, Obs, TraceEvent};
use doacross_par::ThreadPool;
use doacross_plan::{CacheStats, ConcurrentPlanCache, PatternFingerprint, Planner};
use proptest::prelude::*;
use std::sync::Arc;

/// Distinct injective structures indexable by a small id. Mixes doall
/// scatters, chains, and mixed-dependence shapes so variant selection is
/// exercised, not just cache plumbing.
fn structure(id: usize) -> IndirectLoop {
    let n = 8 + 4 * id;
    match id % 3 {
        // Reverse scatter, no reads: doall.
        0 => {
            let a: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
            IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap()
        }
        // Distance-1 chain.
        1 => {
            let a: Vec<usize> = (1..=n).collect();
            let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
            IndirectLoop::new(n + 1, a, rhs, vec![vec![0.5]; n]).unwrap()
        }
        // Identity writes with mixed-distance reads.
        _ => {
            let a: Vec<usize> = (0..n).collect();
            let rhs: Vec<Vec<usize>> = (0..n)
                .map(|i| if i >= 3 { vec![i - 3] } else { vec![] })
                .collect();
            let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.25; r.len()]).collect();
            IndirectLoop::new(n, a, rhs, coeff).unwrap()
        }
    }
}

/// The reference model: resident structure ids, most recently used
/// first, and what the cache's counters should read.
struct Model {
    capacity: usize,
    recency: Vec<usize>,
    stats: CacheStats,
    generations: [u64; 6],
}

impl Model {
    /// A lookup: a hit moves `id` to the front.
    fn get(&mut self, id: usize) -> bool {
        let Some(at) = self.recency.iter().position(|&r| r == id) else {
            self.stats.misses += 1;
            return false;
        };
        self.recency.remove(at);
        self.recency.insert(0, id);
        self.stats.hits += 1;
        true
    }

    /// Stores `id` as the most recently used; returns the id evicted.
    fn insert(&mut self, id: usize) -> Option<usize> {
        if self.capacity == 0 {
            return None;
        }
        self.stats.insertions += 1;
        let mut evicted = None;
        if let Some(at) = self.recency.iter().position(|&r| r == id) {
            self.recency.remove(at);
        } else if self.recency.len() == self.capacity {
            evicted = self.recency.pop();
            self.stats.evictions += 1;
        }
        self.recency.insert(0, id);
        evicted
    }
}

/// The keys of the plans the cache evicted since the last call.
fn evictions(obs: &Obs, seen: &mut usize) -> Vec<FpId> {
    let events = obs.trace_events();
    let fresh = events[*seen..]
        .iter()
        .filter_map(|traced| match traced.event {
            TraceEvent::CacheEvicted { fp } => Some(fp),
            _ => None,
        })
        .collect();
    *seen = events.len();
    fresh
}

fn observed(capacity: usize) -> (ConcurrentPlanCache, Obs) {
    let mut cache = ConcurrentPlanCache::new(capacity);
    let obs = Obs::new();
    cache.set_obs(obs.clone());
    (cache, obs)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Every operation agrees with the model: hit or miss, the key
    /// evicted, `len() <= capacity`, the counters, and the snapshot's
    /// order (most recently used first). Operation codes: 0–3 a lookup
    /// that builds on a miss, 4 an invalidation, 5–6 a plan swap, 7 a
    /// snapshot restored into a fresh cache that then replaces this one.
    #[test]
    fn the_cache_is_an_lru_of_exactly_its_capacity(
        capacity in 0usize..=5,
        ops in proptest::collection::vec((0usize..8, 0usize..6), 1..40),
    ) {
        let pool = ThreadPool::new(2);
        let planner = Planner::new();
        let loops: Vec<IndirectLoop> = (0..6).map(structure).collect();
        let keys: Vec<PatternFingerprint> = loops.iter().map(PatternFingerprint::of).collect();
        let (mut cache, mut obs) = observed(capacity);
        let mut seen = 0;
        let mut model = Model {
            capacity,
            recency: Vec::new(),
            stats: CacheStats::default(),
            generations: [0; 6],
        };
        for &(op, id) in &ops {
            let mut expected_evicted = None;
            match op {
                0..=3 => {
                    let (plan, _, generation, hit) = cache
                        .get_or_build(&keys[id], || planner.plan(&pool, &loops[id]))
                        .expect("plannable");
                    let model_hit = model.get(id);
                    if !model_hit {
                        expected_evicted = model.insert(id);
                    }
                    prop_assert_eq!(hit, model_hit, "op {} on {}", op, id);
                    prop_assert_eq!(plan.fingerprint(), &keys[id]);
                    prop_assert_eq!(generation, model.generations[id]);
                }
                4 => {
                    let resident = model.recency.contains(&id);
                    model.recency.retain(|&r| r != id);
                    model.generations[id] += 1;
                    prop_assert_eq!(cache.invalidate(&keys[id]), resident);
                }
                5 | 6 => {
                    let plan = Arc::new(planner.plan(&pool, &loops[id]).expect("plannable"));
                    expected_evicted = model.insert(id);
                    model.generations[id] += 1;
                    prop_assert_eq!(cache.swap_plan(plan), model.generations[id]);
                }
                _ => {
                    let store = cache.snapshot();
                    let (fresh, fresh_obs) = observed(capacity);
                    let restored = fresh.warm_from(&store, |plan| Some(Arc::clone(plan)));
                    prop_assert_eq!(restored, model.recency.len());
                    model.stats = CacheStats {
                        insertions: restored as u64,
                        ..CacheStats::default()
                    };
                    (cache, obs, seen) = (fresh, fresh_obs, 0);
                }
            }
            let evicted = evictions(&obs, &mut seen);
            let expected: Vec<FpId> = expected_evicted.iter().map(|&e| (&keys[e]).into()).collect();
            prop_assert_eq!(evicted, expected, "evicted key after op {} on {}", op, id);
            prop_assert!(cache.len() <= capacity);
            prop_assert_eq!(cache.len(), model.recency.len());
            prop_assert_eq!(cache.stats(), model.stats);
            let order: Vec<PatternFingerprint> =
                cache.snapshot().plans().map(|plan| *plan.fingerprint()).collect();
            let expected: Vec<PatternFingerprint> = model.recency.iter().map(|&r| keys[r]).collect();
            prop_assert_eq!(order, expected, "recency after op {} on {}", op, id);
        }
    }

    /// Generations: 0 until first invalidation, +1 per invalidation, and
    /// independent across keys.
    #[test]
    fn invalidation_generations_are_monotone_and_per_key(
        invalidations in proptest::collection::vec(0usize..4, 0..12),
    ) {
        let cache = ConcurrentPlanCache::new(8);
        let keys: Vec<PatternFingerprint> =
            (0..4).map(|id| PatternFingerprint::of(&structure(id))).collect();
        let mut expected = [0u64; 4];
        for &k in &invalidations {
            cache.invalidate(&keys[k]);
            expected[k] += 1;
            // A snapshot carries every nonzero generation.
            let store = cache.snapshot();
            for (i, key) in keys.iter().enumerate() {
                let generation = store
                    .generations()
                    .find(|(k, _)| *k == key)
                    .map_or(0, |(_, generation)| generation);
                prop_assert_eq!(generation, expected[i], "key {}", i);
            }
        }
    }
}
