//! Property tests of the sharded cache: for any access sequence, a
//! [`ConcurrentPlanCache`] of any shard count agrees with a one-shard one
//! on plan selection — same variant, same census, same hit/miss outcome
//! per access (given no evictions) — and invalidation generations are
//! monotone per key.

use doacross_core::IndirectLoop;
use doacross_par::ThreadPool;
use doacross_plan::{ConcurrentPlanCache, PatternFingerprint, Planner};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Same access sequence, ample capacity: identical per-access
    /// (variant, hit) outcomes and identical merged traffic counters,
    /// regardless of shard count — sharding changes nothing.
    #[test]
    fn sharded_and_unsharded_caches_agree_on_plan_selection(
        shards in 1usize..=8,
        accesses in proptest::collection::vec(0usize..6, 1..40),
    ) {
        let pool = ThreadPool::new(2);
        let planner = Planner::new();
        let distinct = 6usize;
        let unsharded = ConcurrentPlanCache::new(distinct, 1);
        // The shard count is rounded up to a power of two, so size against
        // the *rounded* count: every shard then holds ≥ `distinct` plans
        // and the sharded cache never evicts, however the keys distribute.
        let sharded =
            ConcurrentPlanCache::new(distinct * shards.next_power_of_two(), shards);

        for &id in &accesses {
            let l = structure(id);
            let key = PatternFingerprint::of(&l);
            let (plan_u, _, _, hit_u) = unsharded
                .get_or_build(&key, || planner.plan(&pool, &l))
                .expect("plannable");
            let (plan_s, _, _, hit_s) = sharded
                .get_or_build(&key, || planner.plan(&pool, &l))
                .expect("plannable");
            prop_assert_eq!(hit_u, hit_s, "hit/miss outcome agrees");
            prop_assert_eq!(plan_u.variant(), plan_s.variant(), "same selection");
            prop_assert_eq!(plan_u.census(), plan_s.census(), "same analysis");
            prop_assert_eq!(plan_u.fingerprint(), plan_s.fingerprint());
        }
        prop_assert_eq!(unsharded.stats(), sharded.stats(), "merged ledgers agree");
        prop_assert_eq!(unsharded.len(), sharded.len());
    }

    /// Generations: 0 until first invalidation, +1 per invalidation, and
    /// independent across keys.
    #[test]
    fn invalidation_generations_are_monotone_and_per_key(
        invalidations in proptest::collection::vec(0usize..4, 0..12),
    ) {
        let cache = ConcurrentPlanCache::new(8, 4);
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
