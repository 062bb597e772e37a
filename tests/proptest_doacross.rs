//! Property-based tests of the core invariant: for *any* runtime-generated
//! dependence pattern, the preprocessed doacross (in every variant)
//! computes exactly what the sequential loop computes.

use preprocessed_doacross::core::{seq::run_sequential, Doacross, DoacrossError, IndirectLoop};
use preprocessed_doacross::par::ThreadPool;
use preprocessed_doacross::plan::CensusPass;
use proptest::prelude::*;

/// An arbitrary valid loop: injective lhs (a permutation prefix of the
/// data space), arbitrary rhs references, small coefficients.
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
            (lhs, rhs, y0, Just(n), Just(data_len))
        })
        .prop_map(|(lhs, rhs, y0, n, data_len)| {
            // Deterministic small coefficients keep chains bounded.
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
            let loop_ =
                IndirectLoop::new(data_len, lhs, rhs, coeff).expect("valid by construction");
            let _ = n;
            (loop_, y0)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn doacross_equals_sequential_for_any_pattern((loop_, y0) in arb_loop(48)) {
        let pool = ThreadPool::new(3);
        let mut expect = y0.clone();
        run_sequential(&loop_, &mut expect);

        let mut y = y0.clone();
        Doacross::for_loop(&loop_).run(&pool, &loop_, &mut y).expect("injective lhs");
        prop_assert_eq!(&y, &expect);
    }

    #[test]
    fn blocked_equals_sequential_for_any_pattern_and_block_size(
        (loop_, y0) in arb_loop(40),
        block in 1usize..16,
    ) {
        let pool = ThreadPool::new(3);
        let mut expect = y0.clone();
        run_sequential(&loop_, &mut expect);

        let mut y = y0.clone();
        Doacross::new(0)
            .run_blocked(&pool, &loop_, &mut y, block)
            .expect("injective lhs");
        prop_assert_eq!(&y, &expect);
    }

    #[test]
    fn every_schedule_agrees((loop_, y0) in arb_loop(32), chunk in 1usize..8) {
        let pool = ThreadPool::new(3);
        let mut expect = y0.clone();
        run_sequential(&loop_, &mut expect);
        let mut rt = Doacross::for_loop(&loop_);
        let mut y = y0.clone();
        rt.run(&pool, &loop_, &mut y).expect("injective lhs");
        prop_assert_eq!(&y, &expect, "inspected");
        let stream = CensusPass::of(&loop_)
            .stream(&loop_, None, None)
            .expect("injective, in-bounds lhs");
        for grain in [Some(1), Some(chunk), None] {
            let mut y = y0.clone();
            rt.run_planned(&pool, &loop_, &mut y, &stream, grain, None)
                .expect("the loop's own stream");
            prop_assert_eq!(&y, &expect, "grain {:?}", grain);
        }
    }

    #[test]
    fn scratch_invariant_holds_after_every_run((loop_, y0) in arb_loop(32)) {
        let pool = ThreadPool::new(2);
        let mut rt = Doacross::for_loop(&loop_);
        let mut y = y0;
        rt.run(&pool, &loop_, &mut y).expect("injective lhs");
        prop_assert!(rt.scratch_is_clean());
    }

    #[test]
    fn output_dependencies_always_detected(
        n in 2usize..24,
        dup_a in 0usize..24,
        dup_b in 0usize..24,
    ) {
        prop_assume!(dup_a % n != dup_b % n);
        // Force two iterations to write the same element.
        let mut lhs: Vec<usize> = (0..n).collect();
        let target = n; // element outside the identity range
        lhs[dup_a % n] = target;
        lhs[dup_b % n] = target;
        let loop_ = IndirectLoop::new(
            n + 1,
            lhs,
            vec![vec![]; n],
            vec![vec![]; n],
        ).expect("in bounds");
        let pool = ThreadPool::new(2);
        let mut y = vec![0.0; n + 1];
        let err = Doacross::for_loop(&loop_).run(&pool, &loop_, &mut y).unwrap_err();
        prop_assert_eq!(err, DoacrossError::OutputDependency { element: target });
    }
}
