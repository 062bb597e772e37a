//! Property-based tests of the plan subsystem: for *any* runtime-generated
//! pattern, a planned run — the plan's first execution or a later one — is
//! bit-identical to the sequential oracle, fingerprints are stable and
//! collision-free across generated structures, and the cache actually
//! serves hits.

use doacross_core::{seq::run_sequential, Doacross, IndirectLoop, PlanProvenance};
use doacross_obs::profile::{ProfArena, SpanKind};
use doacross_par::ThreadPool;
use doacross_plan::{CensusPass, ConcurrentPlanCache, PatternFingerprint, PlanExecutor, Planner};
use proptest::prelude::*;
use std::sync::Arc;

/// An arbitrary valid loop: injective lhs (a permutation prefix of the
/// data space), arbitrary rhs references, deterministic coefficients.
fn arb_loop(max_n: usize) -> impl Strategy<Value = (IndirectLoop, Vec<f64>)> {
    (1..=max_n)
        .prop_flat_map(move |n| {
            let data_len = 2 * n + 1;
            let lhs = Just((0..data_len).collect::<Vec<usize>>())
                .prop_shuffle()
                .prop_map(move |perm| perm[..n].to_vec());
            let rhs =
                proptest::collection::vec(proptest::collection::vec(0..data_len, 0..4), n..=n);
            let y0 = proptest::collection::vec(-2.0..2.0f64, data_len..=data_len);
            (lhs, rhs, y0, Just(data_len))
        })
        .prop_map(|(lhs, rhs, y0, data_len)| {
            let coeff: Vec<Vec<f64>> = rhs
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    r.iter()
                        .enumerate()
                        .map(|(j, _)| 0.25 + ((i + j) % 3) as f64 * 0.125)
                        .collect()
                })
                .collect();
            let loop_ = IndirectLoop::new(data_len, lhs, rhs, coeff).expect("valid");
            (loop_, y0)
        })
}

/// Like [`arb_loop`] but with a possibly non-injective lhs, exercising the
/// blocked/sequential fallback paths.
fn arb_any_loop(max_n: usize) -> impl Strategy<Value = (IndirectLoop, Vec<f64>)> {
    (1..=max_n)
        .prop_flat_map(move |n| {
            let data_len = n + 3;
            let lhs = proptest::collection::vec(0..data_len, n..=n);
            let rhs =
                proptest::collection::vec(proptest::collection::vec(0..data_len, 0..3), n..=n);
            let y0 = proptest::collection::vec(-1.0..1.0f64, data_len..=data_len);
            (lhs, rhs, y0, Just(data_len))
        })
        .prop_map(|(lhs, rhs, y0, data_len)| {
            let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.375; r.len()]).collect();
            let loop_ = IndirectLoop::new(data_len, lhs, rhs, coeff).expect("valid");
            (loop_, y0)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn planned_runs_first_and_repeated_match_sequential((loop_, y0) in arb_loop(40)) {
        let pool = ThreadPool::new(3);
        let mut expect = y0.clone();
        run_sequential(&loop_, &mut expect);

        let plan = Planner::new().plan(&pool, &loop_).expect("injective lhs");
        let mut rt = PlanExecutor::new();
        let mut y_cold = y0.clone();
        let cold = rt.execute(&pool, &loop_, &mut y_cold, &plan, None).expect("first");
        prop_assert_eq!(cold.provenance, PlanProvenance::PlanCold);
        prop_assert_eq!(&y_cold, &expect);

        let mut y_hot = y0.clone();
        let hot = rt.execute(&pool, &loop_, &mut y_hot, &plan, None).expect("repeated");
        prop_assert_eq!(hot.inspector, std::time::Duration::ZERO);
        prop_assert_eq!(&y_hot, &expect, "repeated run must be bit-identical");
        prop_assert_eq!(&y_hot, &y_cold);
    }

    #[test]
    fn any_pattern_gets_a_correct_plan((loop_, y0) in arb_any_loop(32)) {
        // Non-injective patterns included: the planner must fall back to a
        // legal variant, never error, and stay bit-identical to the oracle.
        let pool = ThreadPool::new(3);
        let mut expect = y0.clone();
        run_sequential(&loop_, &mut expect);
        let plan = Planner::new().plan(&pool, &loop_).expect("every pattern is plannable");
        let mut rt = PlanExecutor::new();
        for _ in 0..2 {
            let mut y = y0.clone();
            rt.execute(&pool, &loop_, &mut y, &plan, None).expect("legal variant");
            prop_assert_eq!(&y, &expect);
        }
    }

    #[test]
    fn wavefront_execution_matches_the_sequential_oracle((loop_, y0) in arb_loop(40)) {
        // The level-scheduled executor is bit-identical to the sequential
        // loop on ANY injective pattern — true deps, antideps, intra
        // references, unwritten reads, any level shape — at any worker
        // count, under any chunking, with zero
        // busy-wait polls by construction. Profiled, every worker that
        // joined the region (worker 0 always; the tracks carrying a work
        // span) records exactly one boundary wait per level boundary,
        // whether it found the earlier level's count full or had to wait
        // for it, and an absent worker records nothing.
        let pass = CensusPass::of(&loop_);
        let (offsets, order) = pass.sorted_levels();
        let schedule = pass
            .stream(&loop_, Some(&order), Some(&offsets))
            .expect("arb_loop lhs is injective and in bounds");
        let census = &pass.census;
        prop_assert_eq!(schedule.level_count(), census.critical_path);
        prop_assert_eq!(schedule.iterations(), census.iterations);

        let mut expect = y0.clone();
        run_sequential(&loop_, &mut expect);
        let expect: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
        for workers in [1usize, 2, 4] {
            use doacross_core::AccessPattern;
            let pool = ThreadPool::new(workers);
            let arena = ProfArena::new(workers, 4 * census.critical_path + 4);
            let mut rt = Doacross::new(loop_.data_len());
            for chunk in [None, Some(1), Some(2), Some(8), Some(1000)] {
                let case = format!("{workers} workers, chunk {chunk:?}");
                arena.reset();
                let mut y = y0.clone();
                let stats = rt
                    .run_planned(&pool, &loop_, &mut y, &schedule, chunk, Some(&arena))
                    .expect("valid");
                let bits: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&bits, &expect, "{}", case);
                prop_assert_eq!(stats.wait_polls, 0);
                prop_assert_eq!(stats.stalls, 0);
                prop_assert_eq!(stats.deps.total(), census.total_terms);
                prop_assert_eq!(stats.barrier_crossings + 1, census.critical_path as u64);
                let (spans, dropped) = arena.take();
                prop_assert_eq!(dropped, 0);
                for worker in 0..workers as u32 {
                    let joined = spans
                        .iter()
                        .any(|s| s.worker == worker && s.kind == SpanKind::Work);
                    prop_assert!(joined || worker > 0, "worker 0 always joins: {}", case);
                    let waits = spans
                        .iter()
                        .filter(|s| s.worker == worker && s.kind == SpanKind::BarrierWait)
                        .count() as u64;
                    let expect = if joined { stats.barrier_crossings } else { 0 };
                    prop_assert_eq!(waits, expect, "worker {}: {}", worker, case);
                }
            }
        }
    }

    #[test]
    fn fingerprints_are_stable_and_value_blind((loop_, _y0) in arb_loop(32)) {
        let a = PatternFingerprint::of(&loop_);
        let b = PatternFingerprint::of(&loop_);
        prop_assert_eq!(a, b, "same pattern, same fingerprint");
        prop_assert_eq!(a.iterations(), loop_.lhs_array().len());
    }

    #[test]
    fn distinct_structures_get_distinct_fingerprints(
        (loop_a, _) in arb_loop(24),
        (loop_b, _) in arb_loop(24),
    ) {
        use doacross_core::AccessPattern;
        let same_structure = loop_a.iterations() == loop_b.iterations()
            && loop_a.data_len() == loop_b.data_len()
            && (0..loop_a.iterations()).all(|i| {
                loop_a.lhs(i) == loop_b.lhs(i)
                    && loop_a.terms(i) == loop_b.terms(i)
                    && (0..loop_a.terms(i))
                        .all(|j| loop_a.term_element(i, j) == loop_b.term_element(i, j))
            });
        prop_assert_eq!(
            PatternFingerprint::of(&loop_a) == PatternFingerprint::of(&loop_b),
            same_structure
        );
    }

    #[test]
    fn cache_eviction_keeps_lru_invariants(capacity in 1usize..6, touches in 8usize..40) {
        let pool = ThreadPool::new(2);
        let planner = Planner::new();
        let cache = ConcurrentPlanCache::new(capacity, 1);
        // A rotating working set twice the capacity: forced evictions.
        let distinct = capacity * 2;
        let loops: Vec<IndirectLoop> = (1..=distinct)
            .map(|n| {
                let a: Vec<usize> = (0..n).collect();
                IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap()
            })
            .collect();
        for t in 0..touches {
            let l = &loops[t % distinct];
            let key = PatternFingerprint::of(l);
            let (plan, ..) = cache
                .get_or_build(&key, |_| true, || planner.plan(&pool, l))
                .expect("plannable");
            prop_assert_eq!(plan.fingerprint(), &key);
            prop_assert!(cache.len() <= capacity, "capacity respected");
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, touches as u64);
        prop_assert_eq!(s.insertions, s.misses);
        prop_assert!(s.evictions <= s.insertions);
        // Recency list and map agree: a snapshot walks the list.
        prop_assert_eq!(cache.snapshot().len(), cache.len());
    }

    #[test]
    fn plans_are_shareable_snapshots((loop_, y0) in arb_loop(24)) {
        // An Arc'd plan keeps working after the cache dropped it.
        let pool = ThreadPool::new(2);
        let planner = Planner::new();
        let cache = ConcurrentPlanCache::new(1, 1);
        let key = PatternFingerprint::of(&loop_);
        let (plan, ..) = cache
            .get_or_build(&key, |_| true, || planner.plan(&pool, &loop_))
            .expect("plannable");
        let held: Arc<_> = Arc::clone(&plan);
        prop_assert!(cache.invalidate(&key));
        let mut rt = PlanExecutor::new();
        let mut y = y0.clone();
        let mut expect = y0;
        run_sequential(&loop_, &mut expect);
        rt.execute(&pool, &loop_, &mut y, &held, None).expect("valid plan");
        prop_assert_eq!(&y, &expect);
    }
}
