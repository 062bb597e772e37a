//! Tests of the forward solve with rows claimed in doconsider order: the
//! §2.3 linear subscript run over the plan's wavefront order.

mod tests {
    use crate::plan::levels_of;
    use crate::solver::grid_system;
    use crate::TriSolveLoop;
    use doacross_core::Doacross;
    use doacross_doconsider::reorder::order_from_levels;
    use doacross_par::ThreadPool;
    use doacross_sparse::{CsrMatrix, TriangularMatrix};

    #[test]
    fn reordered_matches_sequential_bitwise() {
        let (l, rhs) = grid_system(11, 9, 31);
        let order = order_from_levels(&levels_of(&l));
        let pool = ThreadPool::new(4);
        let mut y = vec![0.0; l.n()];
        let stats = Doacross::new(l.n())
            .run_linear(
                &pool,
                &TriSolveLoop::new(&l, &rhs),
                &mut y,
                TriSolveLoop::subscript(),
                Some(&order),
            )
            .unwrap();
        assert_eq!(y, l.forward_solve(&rhs));
        assert_eq!(stats.deps.true_deps, l.nnz() as u64);
    }

    #[test]
    fn diagonal_matrix_order_is_identity() {
        let m = CsrMatrix::from_parts(4, 4, vec![0; 5], vec![], vec![]);
        let levels = levels_of(&TriangularMatrix::from_strict_lower(&m));
        assert_eq!(order_from_levels(&levels), vec![0, 1, 2, 3]);
        assert_eq!(levels.critical_path(), 1);
    }
}
