//! Tests of the forward solve on the runtime's flat entry points: the §2.3
//! linear subscript (no inspector) and the inspected executor, rows claimed
//! in natural order.

use doacross_sparse::{ilu0, stencil::five_point, TriangularMatrix};

/// The `L` factor of a five-point ILU(0) operator and a right-hand side.
pub(crate) fn grid_system(nx: usize, ny: usize, seed: u64) -> (TriangularMatrix, Vec<f64>) {
    let a = five_point(nx, ny, seed);
    let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
    let rhs = (0..l.n()).map(|i| 1.0 + (i % 9) as f64 * 0.25).collect();
    (l, rhs)
}

mod tests {
    use super::grid_system;
    use crate::TriSolveLoop;
    use doacross_core::Doacross;
    use doacross_par::ThreadPool;

    #[test]
    fn both_backends_match_sequential_bitwise() {
        let (l, rhs) = grid_system(12, 10, 77);
        let expect = l.forward_solve(&rhs);
        let pool = ThreadPool::new(4);
        let loop_ = TriSolveLoop::new(&l, &rhs);
        let mut runtime = Doacross::new(l.n());
        for linear in [true, false] {
            let mut y = vec![0.0; l.n()];
            let stats = if linear {
                runtime.run_linear(&pool, &loop_, &mut y, TriSolveLoop::subscript(), None)
            } else {
                runtime.run(&pool, &loop_, &mut y)
            }
            .unwrap();
            assert_eq!(y, expect, "linear={linear}");
            assert_eq!(stats.iterations, l.n());
            assert_eq!(
                stats.deps.true_deps,
                l.nnz() as u64,
                "every off-diagonal is a true dependency (linear={linear})"
            );
        }
    }

    #[test]
    fn solver_is_reusable_across_systems() {
        let pool = ThreadPool::new(2);
        let mut runtime = Doacross::new(0);
        for seed in [1u64, 2, 3] {
            let (l, rhs) = grid_system(9, 7, seed);
            let loop_ = TriSolveLoop::new(&l, &rhs);
            let mut y = vec![0.0; l.n()];
            runtime
                .run_linear(&pool, &loop_, &mut y, TriSolveLoop::subscript(), None)
                .unwrap();
            assert_eq!(y, l.forward_solve(&rhs), "seed {seed}");
        }
    }
}
