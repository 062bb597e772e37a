//! The Figure 7 loop as a [`DoacrossLoop`].
//!
//! ```fortran
//! do i = 1, n
//!     y(i) = rhs(i)
//!     do j = low(i), high(i)
//!         y(i) = y(i) - a(j) * y(column(j))
//!     end do
//! end do
//! ```
//!
//! Mapping onto the doacross traits: `lhs(i) = i` (identity — the §2.3
//! linear subscript with `c = 1, d = 0`), `term_element(i, j) =
//! column(low(i) + j)`, `init(i, _) = rhs(i)`, and
//! `combine = acc − a(j)·operand`. Every reference is a true dependency
//! (`column(j) < i` in a strictly lower-triangular structure), so the
//! executor's three-way check always takes the S3–S5 branch — the paper's
//! triangular solve is the pure-waiting stress case for the construct.
//!
//! Both row folds of [`DoacrossLoop`] are overridden with the Figure 7
//! inner loop itself: one zipped walk over the row's `column` and `a`
//! slices, bit-identical to the per-term default (same operations, same
//! order) without its per-term trait calls and index checks. The
//! sequential kernel's [`DoacrossLoop::fold_terms`] also drops the
//! intra-iteration branch; the parallel executor's
//! [`DoacrossLoop::fold_terms_with`] hands each column to the executor's
//! operand callback.

use doacross_core::{AccessPattern, DoacrossLoop, LinearSubscript};
use doacross_sparse::TriangularMatrix;
use std::ops::Range;

/// Borrowing adapter: a `(L, rhs)` pair viewed as a doacross loop over rows.
#[derive(Debug, Clone, Copy)]
pub struct TriSolveLoop<'a> {
    l: &'a TriangularMatrix,
    rhs: &'a [f64],
}

impl<'a> TriSolveLoop<'a> {
    /// Wraps the system `L y = rhs`.
    ///
    /// # Panics
    /// Panics if `rhs.len() != l.n()`.
    pub fn new(l: &'a TriangularMatrix, rhs: &'a [f64]) -> Self {
        assert_eq!(rhs.len(), l.n(), "rhs length must match the matrix");
        Self { l, rhs }
    }

    /// The identity output subscript (`a(i) = i`) — hands the solver the
    /// paper's inspector-free fast path.
    pub fn subscript() -> LinearSubscript {
        LinearSubscript::new(1, 0)
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &TriangularMatrix {
        self.l
    }
}

impl AccessPattern for TriSolveLoop<'_> {
    #[inline]
    fn iterations(&self) -> usize {
        self.l.n()
    }

    #[inline]
    fn data_len(&self) -> usize {
        self.l.n()
    }

    #[inline]
    fn lhs(&self, i: usize) -> usize {
        i
    }

    #[inline]
    fn terms(&self, i: usize) -> usize {
        self.l.high(i) - self.l.low(i)
    }

    #[inline]
    fn term_element(&self, i: usize, j: usize) -> usize {
        self.l.column()[self.l.low(i) + j]
    }

    fn block_window(&self, iter_range: Range<usize>) -> Range<usize> {
        // Identity lhs: the write window is the iteration range itself.
        iter_range
    }
}

impl DoacrossLoop for TriSolveLoop<'_> {
    #[inline]
    fn init(&self, i: usize, _old_lhs: f64) -> f64 {
        self.rhs[i]
    }

    #[inline]
    fn combine(&self, i: usize, j: usize, acc: f64, operand: f64) -> f64 {
        acc - self.l.coeff()[self.l.low(i) + j] * operand
    }

    /// Row `i`'s column and coefficient slices, zipped: the default body's
    /// `combine`s in its order, with `low(i)`/`high(i)` read once and no
    /// S8 branch (a strictly lower row never reads `y(i)`;
    /// `TriangularMatrix::from_strict_lower` asserts it).
    #[inline(always)]
    fn fold_terms(&self, i: usize, _lhs: usize, mut acc: f64, y: &[f64]) -> f64 {
        let row = self.l.low(i)..self.l.high(i);
        let (cols, coeffs) = (&self.l.column()[row.clone()], &self.l.coeff()[row]);
        for (&c, &a) in cols.iter().zip(coeffs) {
            acc -= a * y[c];
        }
        acc
    }

    /// The same zipped walk for the parallel executor: term `j`'s operand
    /// is `operand(j, column(low(i) + j), acc)`.
    #[inline(always)]
    fn fold_terms_with(
        &self,
        i: usize,
        mut acc: f64,
        operand: &mut dyn FnMut(usize, usize, f64) -> f64,
    ) -> f64 {
        let row = self.l.low(i)..self.l.high(i);
        let (cols, coeffs) = (&self.l.column()[row.clone()], &self.l.coeff()[row]);
        for (j, (&c, &a)) in cols.iter().zip(coeffs).enumerate() {
            acc -= a * operand(j, c, acc);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::seq::run_sequential;
    use doacross_engine::Engine;
    use doacross_plan::Planner;
    use doacross_sparse::{ilu0, stencil::five_point, CsrMatrix};

    fn small() -> (TriangularMatrix, Vec<f64>) {
        let a = five_point(6, 6, 33);
        let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
        let rhs: Vec<f64> = (0..l.n()).map(|i| 1.0 + (i % 5) as f64).collect();
        (l, rhs)
    }

    #[test]
    fn adapter_shape_matches_matrix() {
        let (l, rhs) = small();
        let loop_ = TriSolveLoop::new(&l, &rhs);
        assert_eq!(loop_.iterations(), 36);
        assert_eq!(loop_.data_len(), 36);
        for i in 0..l.n() {
            assert_eq!(loop_.lhs(i), i);
            assert_eq!(loop_.terms(i), l.row_cols(i).len());
            for (j, &col) in l.row_cols(i).iter().enumerate() {
                assert_eq!(loop_.term_element(i, j), col);
            }
        }
    }

    #[test]
    fn sequential_oracle_equals_forward_solve() {
        // run_sequential over the adapter must reproduce the matrix's own
        // forward substitution bit for bit (same reduction order).
        let (l, rhs) = small();
        let loop_ = TriSolveLoop::new(&l, &rhs);
        let mut y = vec![0.0; l.n()];
        run_sequential(&loop_, &mut y);
        assert_eq!(y, l.forward_solve(&rhs));
    }

    #[test]
    fn block_window_is_iteration_range() {
        let (l, rhs) = small();
        let loop_ = TriSolveLoop::new(&l, &rhs);
        assert_eq!(loop_.block_window(3..9), 3..9);
    }

    #[test]
    fn subscript_is_identity() {
        let s = TriSolveLoop::subscript();
        assert_eq!(s.at(0), 0);
        assert_eq!(s.at(41), 41);
    }

    fn grid_factor(nx: usize, ny: usize, seed: u64) -> TriangularMatrix {
        TriangularMatrix::from_strict_lower(&ilu0(&five_point(nx, ny, seed)).l)
    }

    #[test]
    fn prepared_handles_cover_any_rhs() {
        // Fingerprints are value-blind: a handle prepared on a zero rhs
        // executes the system with any other.
        let l = grid_factor(10, 10, 55);
        let engine = Engine::builder().workers(4).cache_capacity(2).build();
        let zero = vec![0.0; l.n()];
        let prepared = engine.prepare(&TriSolveLoop::new(&l, &zero)).unwrap();
        for round in 0..3 {
            let rhs: Vec<f64> = (0..l.n()).map(|i| ((i * round) % 7) as f64).collect();
            let mut y = vec![0.0; l.n()];
            prepared
                .execute(&TriSolveLoop::new(&l, &rhs), &mut y)
                .unwrap();
            assert_eq!(y, l.forward_solve(&rhs), "round {round}");
        }
    }

    #[test]
    fn trisolve_plans_pick_a_parallel_variant_on_grids() {
        // The 10x10 five-point ILU(0) factor has average parallelism ≈ 5;
        // priced for the paper's machine (the Multimax preset — this
        // host's own model decides for itself) the planner must not fall
        // back to sequential on 4 workers.
        let l = grid_factor(10, 10, 55);
        let engine = Engine::builder()
            .workers(4)
            .cache_capacity(2)
            .planner(Planner::new())
            .build();
        let rhs = vec![1.0; l.n()];
        let mut y = vec![0.0; l.n()];
        let stats = engine.run(&TriSolveLoop::new(&l, &rhs), &mut y).unwrap();
        assert!(
            stats.workers > 1,
            "expected a parallel plan for a wide wavefront structure"
        );
        assert_eq!(y, l.forward_solve(&rhs));
    }

    #[test]
    #[should_panic(expected = "rhs length")]
    fn mismatched_rhs_rejected() {
        let m = CsrMatrix::from_parts(2, 2, vec![0, 0, 1], vec![0], vec![1.0]);
        let l = TriangularMatrix::from_strict_lower(&m);
        let rhs = vec![1.0];
        let _ = TriSolveLoop::new(&l, &rhs);
    }
}
