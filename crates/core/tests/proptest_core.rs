//! Property-based tests of the core runtime over arbitrary parameters:
//! Figure 4 grid points, linear-vs-inspected equivalence on arbitrary
//! strided loops, and measured-vs-ground-truth dependence classification.

use doacross_core::IndirectLoop;
use doacross_core::{seq::run_sequential, AccessPattern, Doacross, LinearSubscript, TestLoop};
use doacross_par::ThreadPool;
use proptest::prelude::*;

/// An arbitrary loop with a linear lhs `a(i) = c·i + d` and in-bounds rhs.
fn arb_strided_loop() -> impl Strategy<Value = (IndirectLoop, LinearSubscript, Vec<f64>)> {
    (1usize..4, 0usize..6, 1usize..40)
        .prop_flat_map(|(c, d, n)| {
            let data_len = c * n + d + 4;
            let rhs =
                proptest::collection::vec(proptest::collection::vec(0..data_len, 0..3), n..=n);
            let y0 = proptest::collection::vec(-1.0..1.0f64, data_len..=data_len);
            (Just((c, d, n, data_len)), rhs, y0)
        })
        .prop_map(|((c, d, n, data_len), rhs, y0)| {
            let a: Vec<usize> = (0..n).map(|i| c * i + d).collect();
            let coeff: Vec<Vec<f64>> = rhs
                .iter()
                .map(|r| r.iter().map(|_| 0.375).collect())
                .collect();
            let loop_ = IndirectLoop::new(data_len, a, rhs, coeff).expect("valid");
            (loop_, LinearSubscript::new(c, d), y0)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn linear_and_inspected_agree_on_any_strided_loop(
        (loop_, subscript, y0) in arb_strided_loop(),
    ) {
        let pool = ThreadPool::new(3);
        let mut expect = y0.clone();
        run_sequential(&loop_, &mut expect);

        let mut y_inspected = y0.clone();
        Doacross::for_loop(&loop_)
            .run(&pool, &loop_, &mut y_inspected)
            .expect("injective lhs");
        prop_assert_eq!(&y_inspected, &expect);

        let mut y_linear = y0;
        Doacross::new(loop_.data_len())
            .run_linear(&pool, &loop_, &mut y_linear, subscript)
            .expect("declared subscript matches");
        prop_assert_eq!(&y_linear, &expect);
    }

    #[test]
    fn testloop_census_matches_runtime_classification(
        n in 1usize..400,
        m in 0usize..6,
        l in 1usize..=14,
    ) {
        let loop_ = TestLoop::new(n, m, l);
        let census = loop_.census();
        prop_assert_eq!(
            census.true_deps + census.anti_deps + census.intra + census.unwritten,
            (n * m) as u64
        );
        let pool = ThreadPool::new(2);
        let mut y = loop_.initial_y();
        let stats = Doacross::for_loop(&loop_)
            .run(&pool, &loop_, &mut y)
            .expect("test loop is valid");
        prop_assert_eq!(stats.deps.true_deps, census.true_deps);
        prop_assert_eq!(stats.deps.intra, census.intra);
        prop_assert_eq!(
            stats.deps.anti_or_unwritten,
            census.anti_deps + census.unwritten
        );
    }

    #[test]
    fn testloop_all_variants_agree(
        n in 1usize..300,
        m in 0usize..4,
        l in 1usize..=14,
        block in 1usize..64,
    ) {
        let loop_ = TestLoop::new(n, m, l);
        let pool = ThreadPool::new(3);
        let mut expect = loop_.initial_y();
        run_sequential(&loop_, &mut expect);

        let mut y1 = loop_.initial_y();
        Doacross::for_loop(&loop_).run(&pool, &loop_, &mut y1).expect("valid");
        prop_assert_eq!(&y1, &expect);

        let mut y2 = loop_.initial_y();
        Doacross::new(loop_.data_len())
            .run_linear(&pool, &loop_, &mut y2, loop_.linear_subscript())
            .expect("linear");
        prop_assert_eq!(&y2, &expect);

        let mut y3 = loop_.initial_y();
        Doacross::new(0)
            .run_blocked(&pool, &loop_, &mut y3, block)
            .expect("valid");
        prop_assert_eq!(&y3, &expect);
    }

    #[test]
    fn writer_of_inverts_lhs(n in 1usize..500, m in 0usize..4, l in 1usize..=14) {
        let loop_ = TestLoop::new(n, m, l);
        for i in 0..n {
            prop_assert_eq!(loop_.writer_of(loop_.lhs(i)), Some(i));
        }
        // Odd elements adjacent to written ones are never written.
        prop_assert_eq!(loop_.writer_of(loop_.lhs(0) + 1), None);
    }
}
