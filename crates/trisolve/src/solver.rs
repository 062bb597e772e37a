//! The preprocessed-doacross triangular solver (Table 1, column
//! "Preprocessed Doacross").

use crate::fig7::TriSolveLoop;
use doacross_core::{Doacross, DoacrossConfig, DoacrossError, RunStats};
use doacross_par::ThreadPool;
use doacross_sparse::TriangularMatrix;

/// Which doacross machinery backs the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverBackend {
    /// §2.3 linear-subscript fast path (`a(i) = i`): no inspector, no
    /// `iter` array. The natural choice for Figure 7 and the default.
    Linear,
    /// Full inspector/executor pipeline — what a compiler that cannot see
    /// the identity subscript would emit. Kept for overhead ablations.
    Inspected,
}

/// Reusable preprocessed-doacross solver for unit lower-triangular systems.
///
/// ```
/// use doacross_par::ThreadPool;
/// use doacross_sparse::{ilu0, stencil::five_point, TriangularMatrix};
/// use doacross_trisolve::DoacrossSolver;
///
/// let a = five_point(8, 8, 7);
/// let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
/// let rhs = vec![1.0; l.n()];
/// let pool = ThreadPool::new(2);
/// let mut solver = DoacrossSolver::new(l.n());
/// let (y, _stats) = solver.solve(&pool, &l, &rhs).unwrap();
/// assert_eq!(y, l.forward_solve(&rhs));
/// ```
#[derive(Debug)]
pub struct DoacrossSolver {
    backend: SolverBackend,
    runtime: Doacross,
}

impl DoacrossSolver {
    /// Solver for systems up to dimension `n`, linear backend, default
    /// configuration.
    pub fn new(n: usize) -> Self {
        Self::with_config(n, SolverBackend::Linear, DoacrossConfig::default())
    }

    /// Solver with an explicit backend and configuration.
    pub fn with_config(n: usize, backend: SolverBackend, config: DoacrossConfig) -> Self {
        Self {
            backend,
            runtime: Doacross::with_config(n, config),
        }
    }

    /// The backend in use.
    pub fn backend(&self) -> SolverBackend {
        self.backend
    }

    /// Selects the backend (both run on the one runtime's scratch).
    pub fn set_backend(&mut self, backend: SolverBackend) {
        self.backend = backend;
    }

    /// Solves `L y = rhs` in parallel; returns `y` and the run statistics.
    ///
    /// The result is bit-identical to [`TriangularMatrix::forward_solve`]:
    /// each row performs the same reduction in the same order, only the
    /// cross-row schedule differs.
    pub fn solve(
        &mut self,
        pool: &ThreadPool,
        l: &TriangularMatrix,
        rhs: &[f64],
    ) -> Result<(Vec<f64>, RunStats), DoacrossError> {
        self.solve_ordered(pool, l, rhs, None)
    }

    /// Solves claiming rows in `order` (a topological permutation, e.g.
    /// from `SolvePlan`); `None` claims rows in natural order.
    pub fn solve_ordered(
        &mut self,
        pool: &ThreadPool,
        l: &TriangularMatrix,
        rhs: &[f64],
        order: Option<&[usize]>,
    ) -> Result<(Vec<f64>, RunStats), DoacrossError> {
        let loop_ = TriSolveLoop::new(l, rhs);
        // The executor's `init` ignores the old value (it seeds from rhs),
        // so y's initial contents are arbitrary.
        let mut y = vec![0.0; l.n()];
        let stats = match self.backend {
            SolverBackend::Linear => {
                self.runtime
                    .run_linear(pool, &loop_, &mut y, TriSolveLoop::subscript(), order)?
            }
            SolverBackend::Inspected => self.runtime.run_with_order(pool, &loop_, &mut y, order)?,
        };
        Ok((y, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_sparse::{ilu0, stencil::five_point, vec_ops::max_abs_diff, CsrMatrix};

    fn grid_system(nx: usize, ny: usize, seed: u64) -> (TriangularMatrix, Vec<f64>) {
        let a = five_point(nx, ny, seed);
        let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
        let rhs: Vec<f64> = (0..l.n()).map(|i| 1.0 + (i % 9) as f64 * 0.25).collect();
        (l, rhs)
    }

    #[test]
    fn both_backends_match_sequential_bitwise() {
        let (l, rhs) = grid_system(12, 10, 77);
        let expect = l.forward_solve(&rhs);
        let pool = ThreadPool::new(4);
        for backend in [SolverBackend::Linear, SolverBackend::Inspected] {
            let mut solver = DoacrossSolver::with_config(l.n(), backend, DoacrossConfig::default());
            let (y, stats) = solver.solve(&pool, &l, &rhs).unwrap();
            assert_eq!(y, expect, "{backend:?}");
            assert_eq!(stats.iterations, l.n());
            assert_eq!(
                stats.deps.true_deps,
                l.nnz() as u64,
                "every off-diagonal is a true dependency ({backend:?})"
            );
        }
    }

    #[test]
    fn solver_is_reusable_across_systems() {
        let pool = ThreadPool::new(2);
        let mut solver = DoacrossSolver::new(0);
        for seed in [1u64, 2, 3] {
            let (l, rhs) = grid_system(9, 7, seed);
            let (y, _) = solver.solve(&pool, &l, &rhs).unwrap();
            assert!(
                max_abs_diff(&y, &l.forward_solve(&rhs)) == 0.0,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn single_worker_solve_works() {
        let (l, rhs) = grid_system(6, 6, 5);
        let pool = ThreadPool::new(1);
        let mut solver = DoacrossSolver::new(l.n());
        let (y, _) = solver.solve(&pool, &l, &rhs).unwrap();
        assert_eq!(y, l.forward_solve(&rhs));
    }

    #[test]
    fn diagonal_system_is_trivially_parallel() {
        let m = CsrMatrix::from_parts(5, 5, vec![0; 6], vec![], vec![]);
        let l = TriangularMatrix::from_strict_lower(&m);
        let rhs = vec![3.0; 5];
        let pool = ThreadPool::new(2);
        let mut solver = DoacrossSolver::new(5);
        let (y, stats) = solver.solve(&pool, &l, &rhs).unwrap();
        assert_eq!(y, rhs);
        assert_eq!(stats.deps.total(), 0);
        assert_eq!(stats.stalls, 0);
    }

    #[test]
    fn backend_switching() {
        let (l, rhs) = grid_system(5, 5, 9);
        let pool = ThreadPool::new(2);
        let mut solver = DoacrossSolver::new(l.n());
        assert_eq!(solver.backend(), SolverBackend::Linear);
        let (y1, _) = solver.solve(&pool, &l, &rhs).unwrap();
        solver.set_backend(SolverBackend::Inspected);
        let (y2, _) = solver.solve(&pool, &l, &rhs).unwrap();
        assert_eq!(y1, y2);
    }
}
