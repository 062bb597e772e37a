//! Doconsider-reordered doacross solve (Table 1, column "Preprocessed
//! Doacross Iterations Rearranged").
//!
//! "A modified loop was produced by carrying out the loop iterations in a
//! more advantageous order. This reordering of loop iterations leaves the
//! inter-iteration dependencies unchanged but reduces the effects of these
//! dependencies on performance. […] The resulting loop is parallelized
//! using the preprocessed doacross mechanism" (§3.2). The advantageous
//! order is the wavefront-sorted doconsider permutation from
//! [`SolvePlan`]; under self-scheduling it hands consecutive processors
//! mutually independent rows, so waiting collapses to the level-boundary
//! stragglers instead of every dependent pair.

use crate::plan::SolvePlan;
use crate::solver::{DoacrossSolver, SolverBackend};
use doacross_core::{DoacrossConfig, DoacrossError, RunStats};
use doacross_par::ThreadPool;
use doacross_sparse::TriangularMatrix;

/// Preprocessed-doacross solver with a cached doconsider reordering.
///
/// The plan (wavefront levels + claim order) is computed once per
/// structure and reused across solves, mirroring the paper's amortization
/// of runtime preprocessing over the many triangular solves of a Krylov
/// iteration.
///
/// ```
/// use doacross_par::ThreadPool;
/// use doacross_sparse::{ilu0, stencil::five_point, TriangularMatrix};
/// use doacross_trisolve::ReorderedSolver;
///
/// let a = five_point(8, 8, 3);
/// let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
/// let rhs = vec![1.0; l.n()];
/// let pool = ThreadPool::new(2);
///
/// let mut solver = ReorderedSolver::new(l.n());
/// let plan = solver.prepare(&l);
/// assert_eq!(plan.critical_path(), 15); // 8x8 grid -> 15 wavefronts
/// let (y, _) = solver.solve(&pool, &l, &rhs).unwrap();
/// assert_eq!(y, l.forward_solve(&rhs));
/// ```
#[derive(Debug)]
pub struct ReorderedSolver {
    inner: DoacrossSolver,
    plan: Option<SolvePlan>,
}

impl ReorderedSolver {
    /// Solver for systems up to dimension `n`, default configuration.
    pub fn new(n: usize) -> Self {
        Self::with_config(n, DoacrossConfig::default())
    }

    /// Solver with explicit doacross configuration (linear backend — the
    /// identity subscript needs no inspector).
    pub fn with_config(n: usize, config: DoacrossConfig) -> Self {
        Self {
            inner: DoacrossSolver::with_config(n, SolverBackend::Linear, config),
            plan: None,
        }
    }

    /// Computes (or recomputes) the doconsider plan for `l` and caches it.
    /// Returns the plan for inspection (critical path, level widths,
    /// planning time).
    pub fn prepare(&mut self, l: &TriangularMatrix) -> &SolvePlan {
        self.plan = Some(SolvePlan::for_matrix(l));
        self.plan.as_ref().expect("just set")
    }

    /// The cached plan, if [`ReorderedSolver::prepare`] has run.
    pub fn plan(&self) -> Option<&SolvePlan> {
        self.plan.as_ref()
    }

    /// Solves `L y = rhs` claiming rows in the doconsider order. Computes
    /// the plan on first use; callers that change `l`'s structure must call
    /// [`ReorderedSolver::prepare`] again (using a stale plan for a
    /// different structure is caught by the runtime's topological-order
    /// validation in full-validation mode).
    pub fn solve(
        &mut self,
        pool: &ThreadPool,
        l: &TriangularMatrix,
        rhs: &[f64],
    ) -> Result<(Vec<f64>, RunStats), DoacrossError> {
        if self
            .plan
            .as_ref()
            .map(|p| p.order.len() != l.n())
            .unwrap_or(true)
        {
            self.prepare(l);
        }
        let order = &self.plan.as_ref().expect("plan prepared").order;
        self.inner.solve_ordered(pool, l, rhs, Some(order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_sparse::{ilu0, stencil::five_point, CsrMatrix};

    fn grid_system(nx: usize, ny: usize, seed: u64) -> (TriangularMatrix, Vec<f64>) {
        let a = five_point(nx, ny, seed);
        let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
        let rhs: Vec<f64> = (0..l.n()).map(|i| (i % 11) as f64 * 0.5 + 1.0).collect();
        (l, rhs)
    }

    #[test]
    fn reordered_matches_sequential_bitwise() {
        let (l, rhs) = grid_system(11, 9, 31);
        let expect = l.forward_solve(&rhs);
        let pool = ThreadPool::new(4);
        let mut solver = ReorderedSolver::new(l.n());
        let (y, stats) = solver.solve(&pool, &l, &rhs).unwrap();
        assert_eq!(y, expect);
        assert_eq!(stats.deps.true_deps, l.nnz() as u64);
    }

    #[test]
    fn plan_is_cached_across_solves() {
        let (l, rhs) = grid_system(8, 8, 13);
        let pool = ThreadPool::new(2);
        let mut solver = ReorderedSolver::new(l.n());
        assert!(solver.plan().is_none());
        solver.solve(&pool, &l, &rhs).unwrap();
        let cp = solver.plan().unwrap().critical_path();
        assert!(cp > 0);
        // Second solve reuses the plan (same pointer contents).
        let order_before = solver.plan().unwrap().order.clone();
        solver.solve(&pool, &l, &rhs).unwrap();
        assert_eq!(solver.plan().unwrap().order, order_before);
    }

    #[test]
    fn explicit_prepare_reports_structure() {
        let (l, _) = grid_system(10, 10, 21);
        let mut solver = ReorderedSolver::new(l.n());
        let plan = solver.prepare(&l);
        assert_eq!(plan.critical_path(), 19, "10x10 ILU(0) wavefronts");
        assert_eq!(plan.order.len(), 100);
    }

    #[test]
    fn plan_recomputed_when_dimension_changes() {
        let (l1, rhs1) = grid_system(6, 6, 1);
        let (l2, rhs2) = grid_system(9, 9, 2);
        let pool = ThreadPool::new(2);
        let mut solver = ReorderedSolver::new(l1.n().max(l2.n()));
        solver.solve(&pool, &l1, &rhs1).unwrap();
        assert_eq!(solver.plan().unwrap().order.len(), 36);
        solver.solve(&pool, &l2, &rhs2).unwrap();
        assert_eq!(solver.plan().unwrap().order.len(), 81);
        let y = solver.solve(&pool, &l2, &rhs2).unwrap().0;
        assert_eq!(y, l2.forward_solve(&rhs2));
    }

    #[test]
    fn diagonal_matrix_order_is_identity() {
        let m = CsrMatrix::from_parts(4, 4, vec![0; 5], vec![], vec![]);
        let l = TriangularMatrix::from_strict_lower(&m);
        let mut solver = ReorderedSolver::new(4);
        let plan = solver.prepare(&l);
        assert_eq!(plan.order, vec![0, 1, 2, 3]);
        assert_eq!(plan.critical_path(), 1);
    }
}
