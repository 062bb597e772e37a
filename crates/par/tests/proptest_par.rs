//! Property-based tests of the parallel substrate: claim coverage and
//! order, and wait-primitive behaviour under arbitrary parameters.

use doacross_par::{claim_chunks, parallel_for, ThreadPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn drive_covers_exactly_once_in_order(
        chunk in 0usize..32,
        n in 0usize..2_000,
        p in 1usize..9,
    ) {
        // Sequential drive of all workers: coverage and order must hold for
        // any interleaving, including this degenerate one.
        let counter = AtomicUsize::new(0);
        let mut seen = vec![0u8; n];
        let mut order_ok = true;
        let mut claims_ok = true;
        for _ in 0..p {
            let mut last: i64 = -1;
            claim_chunks(&counter, n, chunk, |claim| {
                claims_ok &= !claim.is_empty() && claim.len() <= chunk.max(1);
                for i in claim {
                    seen[i] += 1;
                    order_ok &= i as i64 > last;
                    last = i as i64;
                }
            });
        }
        prop_assert!(order_ok, "per-worker claim order must increase");
        prop_assert!(claims_ok, "every claim is non-empty and at most `chunk` long");
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn parallel_for_touches_every_index_exactly_once(
        chunk in 0usize..32,
        n in 0usize..5_000,
        p in 1usize..5,
    ) {
        let pool = ThreadPool::new(p);
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        parallel_for(&pool, n, chunk, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn wait_until_counts_at_least_the_misses(threshold in 1u32..500) {
        use doacross_par::{RegionPoison, WaitStrategy};
        let poison = RegionPoison::new();
        for strategy in [
            WaitStrategy::Spin,
            WaitStrategy::SpinYield { spins: 16 },
            WaitStrategy::Backoff { max_spin_batch: 8 },
        ] {
            let calls = AtomicU32::new(0);
            let misses = strategy
                .wait_until_guarded(|| calls.fetch_add(1, Ordering::Relaxed) >= threshold, &poison, None)
                .expect("a clean region never aborts the wait");
            prop_assert!(misses >= threshold as u64, "{:?}", strategy);
        }
    }
}
