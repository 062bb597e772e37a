//! Property-based tests of the substrates: sparse kernels, ILU(0), the
//! doconsider reordering, and the simulator's schedule invariants.

use preprocessed_doacross::core::AccessPattern;
use preprocessed_doacross::doconsider::{
    doconsider_order, is_topological_order, DependenceDag, LevelAssignment,
};
use preprocessed_doacross::sim::{Machine, SimOptions};
use preprocessed_doacross::sparse::{
    dense::{matmul, max_diff},
    ilu0, TriangularMatrix, TripletBuilder,
};
use preprocessed_doacross::trisolve::TriSolveLoop;
use proptest::prelude::*;

/// An arbitrary square diagonally-dominant sparse matrix.
fn arb_dominant_matrix(
    max_n: usize,
) -> impl Strategy<Value = preprocessed_doacross::sparse::CsrMatrix> {
    (2..=max_n)
        .prop_flat_map(|n| {
            let offdiag = proptest::collection::vec(((0..n), (0..n), 0.1..1.0f64), 0..(3 * n));
            (Just(n), offdiag)
        })
        .prop_map(|(n, offdiag)| {
            let mut b = TripletBuilder::new(n, n);
            let mut row_sums = vec![0.0f64; n];
            for (r, c, v) in offdiag {
                if r != c {
                    b.push(r, c, -v);
                    row_sums[r] += v;
                }
            }
            for (r, sum) in row_sums.iter().enumerate() {
                b.push(r, r, 1.0 + sum * 1.5);
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn ilu0_reproduces_a_on_its_pattern(a in arb_dominant_matrix(20)) {
        let f = ilu0(&a);
        prop_assert!(f.l.is_lower_triangular());
        prop_assert!(f.u.is_upper_triangular());
        let n = a.nrows();
        let mut ld = f.l.to_dense();
        for (i, row) in ld.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        let prod = matmul(&ld, &f.u.to_dense());
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for (&j, &aij) in a.row_cols(i).iter().zip(a.row_values(i)) {
                prop_assert!(
                    (prod[i][j] - aij).abs() <= 1e-9 * (1.0 + aij.abs()),
                    "(LU)[{}][{}] = {} vs {}", i, j, prod[i][j], aij
                );
            }
        }
    }

    #[test]
    fn triangular_solve_inverts_matvec(a in arb_dominant_matrix(24)) {
        let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
        let x: Vec<f64> = (0..l.n()).map(|i| 0.5 + (i % 5) as f64 * 0.25).collect();
        let rhs = l.matvec(&x);
        let got = l.forward_solve(&rhs);
        prop_assert!(max_diff(&got, &x) < 1e-8);
    }

    #[test]
    fn doconsider_order_is_topological_permutation(a in arb_dominant_matrix(24)) {
        let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
        let rhs = vec![1.0; l.n()];
        let loop_ = TriSolveLoop::new(&l, &rhs);
        let order = doconsider_order(&loop_);
        // Permutation:
        let mut seen = vec![false; order.len()];
        for &i in &order {
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        // Topological:
        let dag = DependenceDag::build(&loop_);
        prop_assert!(is_topological_order(&dag, &order));
    }

    #[test]
    fn levels_respect_dependencies(a in arb_dominant_matrix(24)) {
        let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
        let dag = DependenceDag::from_predecessors(l.n(), |i| l.row_cols(i).iter().copied());
        let levels = LevelAssignment::compute(&dag);
        for i in 0..l.n() {
            for &p in dag.predecessors(i) {
                prop_assert!(levels.level(p) < levels.level(i));
            }
        }
        prop_assert!(levels.critical_path() <= l.n().max(1));
        prop_assert_eq!(levels.critical_path(), l.critical_path_len());
    }

    #[test]
    fn simulator_time_bounded_by_work_and_critical_path(a in arb_dominant_matrix(20)) {
        let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
        let rhs = vec![1.0; l.n()];
        let loop_ = TriSolveLoop::new(&l, &rhs);
        let machine = Machine::multimax();
        let opts = SimOptions { include_inspector: false, light_post: true, chunk: 1 };
        let r = machine.simulate_doacross(&loop_, None, opts);

        // Lower bound: total work / p (no schedule can beat it).
        let n = loop_.iterations() as f64;
        let terms: usize = (0..loop_.iterations()).map(|i| loop_.terms(i)).sum();
        let c = &machine.costs;
        let work = n * (c.schedule_grab + c.iteration_setup + c.publish)
            + terms as f64 * (c.check + c.term);
        prop_assert!(r.t_executor + 1e-9 >= work / 16.0, "exec {} < work/p {}", r.t_executor, work / 16.0);

        // Efficiency and speedup stay physical.
        prop_assert!(r.efficiency <= 1.0 + 1e-9);
        prop_assert!(r.speedup() <= 16.0 + 1e-9);

        // Reordering must not systematically hurt: on arbitrary small
        // instances a level order can lose a little to the natural order
        // (different claim interleavings), but never by much — and it must
        // obey the same physical bounds.
        let re = machine.simulate_doacross(&loop_, Some(&doconsider_order(&loop_)), opts);
        prop_assert!(
            re.t_executor <= r.t_executor * 1.15 + machine.costs.region_dispatch,
            "reordered {} vs natural {}", re.t_executor, r.t_executor
        );
        prop_assert!(re.t_executor + 1e-9 >= work / 16.0);
    }
}
