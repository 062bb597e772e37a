//! Backward substitution (`U x = rhs`) as a preprocessed doacross —
//! extending the paper's Figure 7 forward solve to the other half of an
//! ILU preconditioner application.
//!
//! In a backward solve, row `i` depends on rows `j > i`: dependencies point
//! *forward* in row order, which a doacross cannot wait on. The fix is an
//! index reversal: iterate `k = 0..n` over rows `i = n−1−k`. In `k`-space
//! every dependency points backward again (`row j > i` ⇔ `iteration
//! n−1−j < k`), so the unmodified executor machinery applies. The non-unit
//! diagonal division is the [`DoacrossLoop::finish`] hook.

use crate::plan::SolvePlan;
use doacross_core::{
    AccessPattern, Doacross, DoacrossConfig, DoacrossError, DoacrossLoop, RunStats,
};
use doacross_doconsider::{reorder::order_from_levels, DependenceDag, LevelAssignment};
use doacross_par::ThreadPool;
use doacross_sparse::UpperTriangularMatrix;
use std::ops::Range;
use std::time::Instant;

/// The backward solve viewed as a doacross loop over reversed rows.
#[derive(Debug, Clone, Copy)]
pub struct UpperSolveLoop<'a> {
    u: &'a UpperTriangularMatrix,
    rhs: &'a [f64],
}

impl<'a> UpperSolveLoop<'a> {
    /// Wraps the system `U x = rhs`.
    ///
    /// # Panics
    /// Panics if `rhs.len() != u.n()`.
    pub fn new(u: &'a UpperTriangularMatrix, rhs: &'a [f64]) -> Self {
        assert_eq!(rhs.len(), u.n(), "rhs length must match the matrix");
        Self { u, rhs }
    }

    /// Row solved by iteration `k`.
    #[inline]
    fn row(&self, k: usize) -> usize {
        self.u.n() - 1 - k
    }
}

impl AccessPattern for UpperSolveLoop<'_> {
    #[inline]
    fn iterations(&self) -> usize {
        self.u.n()
    }

    #[inline]
    fn data_len(&self) -> usize {
        self.u.n()
    }

    /// Iteration `k` writes `x[n−1−k]` — injective, reversed identity.
    #[inline]
    fn lhs(&self, k: usize) -> usize {
        self.row(k)
    }

    #[inline]
    fn terms(&self, k: usize) -> usize {
        let i = self.row(k);
        self.u.row_cols(i).len()
    }

    #[inline]
    fn term_element(&self, k: usize, j: usize) -> usize {
        self.u.row_cols(self.row(k))[j]
    }

    fn block_window(&self, iter_range: Range<usize>) -> Range<usize> {
        if iter_range.is_empty() {
            return 0..0;
        }
        // lhs decreases with k: window is [row(end-1), row(start)].
        self.row(iter_range.end - 1)..self.row(iter_range.start) + 1
    }
}

impl DoacrossLoop for UpperSolveLoop<'_> {
    #[inline]
    fn init(&self, k: usize, _old_lhs: f64) -> f64 {
        self.rhs[self.row(k)]
    }

    #[inline]
    fn combine(&self, k: usize, j: usize, acc: f64, operand: f64) -> f64 {
        let i = self.row(k);
        acc - self.u.row_values(i)[j] * operand
    }

    /// The backward solve's diagonal division.
    #[inline]
    fn finish(&self, k: usize, acc: f64) -> f64 {
        acc / self.u.diag()[self.row(k)]
    }
}

/// Preprocessed-doacross backward solver, with an optional cached
/// doconsider reordering (in `k`-space).
#[derive(Debug)]
pub struct UpperSolver {
    runtime: Doacross,
    plan: Option<SolvePlan>,
    reorder: bool,
}

impl UpperSolver {
    /// Solver for systems up to dimension `n`, natural (reversed-row)
    /// claim order.
    pub fn new(n: usize) -> Self {
        Self::with_config(n, DoacrossConfig::default())
    }

    /// Solver with explicit configuration.
    pub fn with_config(n: usize, config: DoacrossConfig) -> Self {
        Self {
            runtime: Doacross::with_config(n, config),
            plan: None,
            reorder: false,
        }
    }

    /// Enables the doconsider (wavefront-sorted) claim order; the plan is
    /// computed on first solve and cached.
    pub fn with_reordering(mut self) -> Self {
        self.reorder = true;
        self
    }

    /// The cached plan, if reordering is enabled and a solve has run.
    pub fn plan(&self) -> Option<&SolvePlan> {
        self.plan.as_ref()
    }

    fn plan_for(&mut self, u: &UpperTriangularMatrix) -> &SolvePlan {
        let needs = self
            .plan
            .as_ref()
            .map(|p| p.order.len() != u.n())
            .unwrap_or(true);
        if needs {
            let start = Instant::now();
            let n = u.n();
            // Predecessors in k-space: iteration k depends on iterations
            // n-1-j for every stored column j of row n-1-k.
            let dag = DependenceDag::from_predecessors(n, |k| {
                let i = n - 1 - k;
                u.row_cols(i).iter().map(move |&j| n - 1 - j)
            });
            let levels = LevelAssignment::compute(&dag);
            let order = order_from_levels(&levels);
            let histogram = doacross_doconsider::level_histogram(&levels);
            self.plan = Some(SolvePlan {
                levels,
                order,
                histogram,
                planning_time: start.elapsed(),
            });
        }
        self.plan.as_ref().expect("plan prepared")
    }

    /// Solves `U x = rhs` in parallel; bit-identical to
    /// [`UpperTriangularMatrix::backward_solve`].
    pub fn solve(
        &mut self,
        pool: &ThreadPool,
        u: &UpperTriangularMatrix,
        rhs: &[f64],
    ) -> Result<(Vec<f64>, RunStats), DoacrossError> {
        let loop_ = UpperSolveLoop::new(u, rhs);
        let mut x = vec![0.0; u.n()];
        let order = if self.reorder {
            self.plan_for(u);
            self.plan.as_ref().map(|p| &p.order[..])
        } else {
            None
        };
        let stats = self.runtime.run_with_order(pool, &loop_, &mut x, order)?;
        Ok((x, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::seq::run_sequential;
    use doacross_sparse::{ilu0, stencil::five_point, CsrMatrix};

    fn system(seed: u64) -> (UpperTriangularMatrix, Vec<f64>) {
        let a = five_point(9, 8, seed);
        let u = UpperTriangularMatrix::from_upper(&ilu0(&a).u);
        let rhs: Vec<f64> = (0..u.n()).map(|i| 1.0 + (i % 6) as f64 * 0.5).collect();
        (u, rhs)
    }

    #[test]
    fn sequential_oracle_equals_backward_solve() {
        let (u, rhs) = system(71);
        let loop_ = UpperSolveLoop::new(&u, &rhs);
        let mut x = vec![0.0; u.n()];
        run_sequential(&loop_, &mut x);
        assert_eq!(x, u.backward_solve(&rhs));
    }

    #[test]
    fn parallel_solver_matches_bitwise() {
        let (u, rhs) = system(72);
        let expect = u.backward_solve(&rhs);
        let pool = ThreadPool::new(4);
        let mut solver = UpperSolver::new(u.n());
        let (x, stats) = solver.solve(&pool, &u, &rhs).unwrap();
        assert_eq!(x, expect);
        assert_eq!(stats.deps.true_deps, u.nnz() as u64);
    }

    #[test]
    fn reordered_solver_matches_and_reduces_stalls_structurally() {
        let (u, rhs) = system(73);
        let expect = u.backward_solve(&rhs);
        let pool = ThreadPool::new(4);
        let mut solver = UpperSolver::new(u.n()).with_reordering();
        let (x, _) = solver.solve(&pool, &u, &rhs).unwrap();
        assert_eq!(x, expect);
        let plan = solver.plan().expect("plan cached");
        assert!(plan.critical_path() >= 1);
        assert_eq!(plan.order.len(), u.n());
    }

    #[test]
    fn diagonal_only_system() {
        let m = CsrMatrix::from_parts(3, 3, vec![0, 1, 2, 3], vec![0, 1, 2], vec![2.0, 4.0, 8.0]);
        let u = UpperTriangularMatrix::from_upper(&m);
        let pool = ThreadPool::new(2);
        let mut solver = UpperSolver::new(3);
        let (x, stats) = solver.solve(&pool, &u, &[2.0, 4.0, 8.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0, 1.0]);
        assert_eq!(stats.deps.total(), 0);
    }

    #[test]
    fn block_window_covers_reversed_lhs() {
        let (u, rhs) = system(74);
        let loop_ = UpperSolveLoop::new(&u, &rhs);
        let w = loop_.block_window(3..9);
        for k in 3..9 {
            assert!(w.contains(&loop_.lhs(k)));
        }
    }
}
