//! Tests of a forward solve's doconsider plan: its wavefront levels, the
//! claim order they induce and the per-level widths.

use crate::TriSolveLoop;
use doacross_doconsider::{DependenceDag, LevelAssignment};
use doacross_sparse::TriangularMatrix;

/// Wavefront levels of the forward solve over `l`.
pub(crate) fn levels_of(l: &TriangularMatrix) -> LevelAssignment {
    let rhs = vec![0.0; l.n()];
    LevelAssignment::compute(&DependenceDag::build(&TriSolveLoop::new(l, &rhs)))
}

mod tests {
    use super::levels_of;
    use doacross_doconsider::{level_histogram, reorder::order_from_levels};
    use doacross_sparse::{CsrMatrix, TriangularMatrix};

    #[test]
    fn plan_for_bidiagonal_chain() {
        let m = CsrMatrix::from_parts(4, 4, vec![0, 0, 1, 2, 3], vec![0, 1, 2], vec![1.0; 3]);
        let levels = levels_of(&TriangularMatrix::from_strict_lower(&m));
        assert_eq!(levels.critical_path(), 4);
        assert_eq!(order_from_levels(&levels), vec![0, 1, 2, 3]);
        assert_eq!(level_histogram(&levels), vec![1; 4]);
        assert_eq!(levels.level(0), 1);
        assert_eq!(levels.level(3), 4);
    }

    #[test]
    fn empty_matrix_plan() {
        let m = CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]);
        let levels = levels_of(&TriangularMatrix::from_strict_lower(&m));
        assert_eq!(levels.critical_path(), 0);
        assert!(order_from_levels(&levels).is_empty());
    }
}
