//! Solve planning: the runtime preprocessing behind the reordered solver
//! and the simulated Table 1 runs.
//!
//! For a given triangular structure, [`SolvePlan`] computes the
//! true-dependence wavefront levels and the doconsider (level-sorted)
//! claim order once; the plan is then reused across every solve with that
//! structure — the same amortization argument the paper makes for its
//! inspector: sparse solvers call the triangular solve once per Krylov
//! iteration on a fixed structure, so per-structure preprocessing is paid
//! once and used many times.

use doacross_doconsider::{
    level_histogram, reorder::order_from_levels, DependenceDag, LevelAssignment,
};
use doacross_sparse::TriangularMatrix;
use std::time::{Duration, Instant};

/// Precomputed reordering information for one triangular structure.
#[derive(Debug, Clone)]
pub struct SolvePlan {
    /// Wavefront level of every row.
    pub levels: LevelAssignment,
    /// Level-sorted (doconsider) claim order; rows of one level are
    /// contiguous.
    pub order: Vec<usize>,
    /// Rows per level (`histogram[l-1]` = width of level `l`).
    pub histogram: Vec<usize>,
    /// Wall time spent planning (the preprocessing cost to report).
    pub planning_time: Duration,
}

impl SolvePlan {
    /// Builds the plan for `l`'s dependence structure.
    pub fn for_matrix(l: &TriangularMatrix) -> Self {
        let start = Instant::now();
        let dag = DependenceDag::from_predecessors(l.n(), |i| l.row_cols(i).iter().copied());
        let levels = LevelAssignment::compute(&dag);
        let order = order_from_levels(&levels);
        let histogram = level_histogram(&levels);
        Self {
            levels,
            order,
            histogram,
            planning_time: start.elapsed(),
        }
    }

    /// Number of wavefronts (the dependence critical path in rows).
    pub fn critical_path(&self) -> usize {
        self.levels.critical_path()
    }

    /// The contiguous range of `order` positions holding level `level`
    /// (1-based).
    pub fn level_range(&self, level: usize) -> std::ops::Range<usize> {
        debug_assert!(level >= 1 && level <= self.histogram.len());
        let start: usize = self.histogram[..level - 1].iter().sum();
        start..start + self.histogram[level - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_sparse::{ilu0, stencil::five_point, CsrMatrix, TriangularMatrix};

    #[test]
    fn plan_for_bidiagonal_chain() {
        let m = CsrMatrix::from_parts(4, 4, vec![0, 0, 1, 2, 3], vec![0, 1, 2], vec![1.0; 3]);
        let l = TriangularMatrix::from_strict_lower(&m);
        let plan = SolvePlan::for_matrix(&l);
        assert_eq!(plan.critical_path(), 4);
        assert_eq!(plan.order, vec![0, 1, 2, 3]);
        assert_eq!(plan.histogram, vec![1; 4]);
        assert_eq!(plan.level_range(1), 0..1);
        assert_eq!(plan.level_range(4), 3..4);
    }

    #[test]
    fn plan_for_grid_factor_has_wide_levels() {
        let a = five_point(10, 10, 55);
        let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
        let plan = SolvePlan::for_matrix(&l);
        // A 10x10 five-point ILU(0) L factor has wavefronts along
        // anti-diagonals: critical path 19, widths 1..10..1.
        assert_eq!(plan.critical_path(), 19);
        assert_eq!(plan.histogram.iter().sum::<usize>(), 100);
        assert_eq!(*plan.histogram.iter().max().unwrap(), 10);
        // level ranges tile 0..n in order.
        let mut next = 0;
        for lvl in 1..=plan.critical_path() {
            let r = plan.level_range(lvl);
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, 100);
        // Order must place each level's rows contiguously.
        for lvl in 1..=plan.critical_path() {
            for k in plan.level_range(lvl) {
                assert_eq!(plan.levels.level(plan.order[k]), lvl);
            }
        }
    }

    #[test]
    fn empty_matrix_plan() {
        let m = CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]);
        let l = TriangularMatrix::from_strict_lower(&m);
        let plan = SolvePlan::for_matrix(&l);
        assert_eq!(plan.critical_path(), 0);
        assert!(plan.order.is_empty());
    }
}
