//! Backward substitution (`U x = rhs`) as a preprocessed doacross —
//! extending the paper's Figure 7 forward solve to the other half of an
//! ILU preconditioner application.
//!
//! In a backward solve, row `i` depends on rows `j > i`: dependencies point
//! *forward* in row order, which a doacross cannot wait on. The fix is an
//! index reversal: iterate `k = 0..n` over rows `i = n−1−k`. In `k`-space
//! every dependency points backward again (`row j > i` ⇔ `iteration
//! n−1−j < k`), so the unmodified executor machinery applies. The non-unit
//! diagonal division is the [`DoacrossLoop::finish`] hook, and the
//! sequential kernel's row fold ([`DoacrossLoop::fold_terms`]) walks the
//! row's strictly-upper slices once, as [`crate::TriSolveLoop`]'s does. The
//! loop is planned and priced like any other; [`crate::IluPreconditioner`]
//! holds it as a prepared loop.

use doacross_core::{AccessPattern, DoacrossLoop};
use doacross_sparse::UpperTriangularMatrix;
use std::ops::Range;

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

    /// Row `n−1−k`'s strictly-upper slices, zipped: the default body's
    /// `combine`s in its order, with the row bounds read once and no S8
    /// branch (a strictly upper row never reads `x(i)`;
    /// `UpperTriangularMatrix::from_upper` splits the diagonal out).
    #[inline(always)]
    fn fold_terms(&self, k: usize, _lhs: usize, mut acc: f64, y: &[f64]) -> f64 {
        let (cols, values) = self.u.row(self.row(k));
        for (&c, &v) in cols.iter().zip(values) {
            acc -= v * y[c];
        }
        acc
    }

    /// The backward solve's diagonal division.
    #[inline]
    fn finish(&self, k: usize, acc: f64) -> f64 {
        acc / self.u.diag()[self.row(k)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::{seq::run_sequential, RunStats};
    use doacross_engine::{Engine, PreparedLoop};
    use doacross_plan::{PlanVariant, Planner};
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

    /// Prepares and runs `U x = rhs` on four workers priced by the
    /// paper's Multimax preset, which plans this grid factor parallel (the
    /// default engine may keep it sequential): the diagonal division runs
    /// as the `finish` hook inside a planned executor.
    fn preset_solve(u: &UpperTriangularMatrix, rhs: &[f64]) -> (PreparedLoop, Vec<f64>, RunStats) {
        let engine = Engine::builder()
            .workers(4)
            .pools(1)
            .planner(Planner::new())
            .build();
        let loop_ = UpperSolveLoop::new(u, rhs);
        let prepared = engine.prepare(&loop_).unwrap();
        let mut x = vec![0.0; u.n()];
        let stats = prepared.execute(&loop_, &mut x).unwrap();
        (prepared, x, stats)
    }

    #[test]
    fn parallel_solver_matches_bitwise() {
        let (u, rhs) = system(72);
        let (prepared, x, stats) = preset_solve(&u, &rhs);
        assert_ne!(prepared.variant(), PlanVariant::Sequential);
        assert_eq!(x, u.backward_solve(&rhs));
        assert_eq!(stats.deps.true_deps, u.nnz() as u64);
    }

    #[test]
    fn reordered_solver_matches_and_reduces_stalls_structurally() {
        // The plan claims iterations in the level-sorted (doconsider)
        // order of k-space.
        let (u, rhs) = system(73);
        let (prepared, x, _) = preset_solve(&u, &rhs);
        assert_eq!(prepared.variant(), PlanVariant::Reordered);
        assert_eq!(x, u.backward_solve(&rhs));
        let plan = prepared.plan();
        assert!(plan.census().critical_path >= 1);
        let order = plan
            .stream()
            .and_then(|s| s.order())
            .expect("a claim order");
        assert_eq!(order.len(), u.n());
    }

    #[test]
    fn diagonal_only_system() {
        let m = CsrMatrix::from_parts(3, 3, vec![0, 1, 2, 3], vec![0, 1, 2], vec![2.0, 4.0, 8.0]);
        let u = UpperTriangularMatrix::from_upper(&m);
        let rhs = [2.0, 4.0, 8.0];
        let mut x = vec![0.0; 3];
        let stats = Engine::builder()
            .workers(2)
            .build()
            .run(&UpperSolveLoop::new(&u, &rhs), &mut x)
            .unwrap();
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
