//! The sparse triangular system of the paper's Figure 7.
//!
//! ```fortran
//! S1  do i = 1, n
//!         y(i) = rhs(i)
//!         do j = low(i), high(i)
//!             y(i) = y(i) - a(j) * y(column(j))
//!         end do
//!     end do
//! ```
//!
//! [`TriangularMatrix`] stores exactly the `low/high/column/a` arrays of
//! that loop: the strictly-lower part of a *unit* lower-triangular matrix
//! in CSR layout (`low(i) = row_ptr[i]`, `high(i) = row_ptr[i+1] - 1`).
//! The unit diagonal is implicit — ILU(0)'s `L` factor has exactly this
//! shape, which is why no division appears in the loop.

use crate::csr::CsrMatrix;

/// A unit lower-triangular matrix stored as its strictly-lower part in CSR
/// layout. See the module docs for the Figure 7 correspondence.
#[derive(Debug, Clone, PartialEq)]
pub struct TriangularMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl TriangularMatrix {
    /// Wraps a strictly-lower CSR matrix (as produced by
    /// [`crate::ilu::ilu0`]) as a unit lower-triangular system.
    ///
    /// # Panics
    /// Panics if the matrix is not square or any entry has `col >= row`.
    pub fn from_strict_lower(m: &CsrMatrix) -> Self {
        assert_eq!(m.nrows(), m.ncols(), "triangular matrix must be square");
        for i in 0..m.nrows() {
            for &j in m.row_cols(i) {
                assert!(j < i, "entry ({i},{j}) is not strictly lower");
            }
        }
        Self {
            n: m.nrows(),
            row_ptr: m.row_ptr().to_vec(),
            col_idx: m.col_idx().to_vec(),
            values: m.values().to_vec(),
        }
    }

    /// Dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored (strictly-lower) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The paper's `low(i)` (0-based inclusive start of row `i`'s entries).
    #[inline]
    pub fn low(&self, i: usize) -> usize {
        self.row_ptr[i]
    }

    /// One past the paper's `high(i)` (0-based exclusive end).
    #[inline]
    pub fn high(&self, i: usize) -> usize {
        self.row_ptr[i + 1]
    }

    /// The paper's `column` array.
    #[inline]
    pub fn column(&self) -> &[usize] {
        &self.col_idx
    }

    /// The paper's `a` array.
    #[inline]
    pub fn coeff(&self) -> &[f64] {
        &self.values
    }

    /// Column indices of row `i` (all `< i`).
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Coefficients of row `i`.
    #[inline]
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Sequential forward substitution (the Figure 7 loop verbatim):
    /// returns `y` with `L y = rhs`.
    pub fn forward_solve(&self, rhs: &[f64]) -> Vec<f64> {
        assert_eq!(rhs.len(), self.n, "rhs length mismatch");
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let mut acc = rhs[i];
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc -= self.values[p] * y[self.col_idx[p]];
            }
            y[i] = acc;
        }
        y
    }

    /// Multiplies `L x` (unit diagonal included): used to manufacture
    /// right-hand sides with known solutions.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "x length mismatch");
        let mut out = x.to_vec();
        #[allow(clippy::needless_range_loop)] // row index mirrors CSR layout
        for i in 0..self.n {
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[i] += self.values[p] * x[self.col_idx[p]];
            }
        }
        out
    }

    /// The length of the longest chain of rows linked by direct
    /// dependencies (row `i` depends on row `j` when `L_ij != 0`) — the
    /// critical path of the forward solve, in rows. A lower bound on
    /// parallel solve time in units of row work.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![1usize; self.n];
        let mut max = if self.n == 0 { 0 } else { 1 };
        for i in 0..self.n {
            for &j in self.row_cols(i) {
                depth[i] = depth[i].max(depth[j] + 1);
            }
            max = max.max(depth[i]);
        }
        max
    }
}

/// An upper-triangular matrix with an explicit (non-unit) diagonal, stored
/// as diagonal + strictly-upper CSR — the shape of ILU(0)'s `U` factor and
/// of the backward-substitution half of a preconditioner application.
#[derive(Debug, Clone, PartialEq)]
pub struct UpperTriangularMatrix {
    n: usize,
    diag: Vec<f64>,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl UpperTriangularMatrix {
    /// Splits an upper-triangular CSR matrix (diagonal included, as
    /// produced by [`crate::ilu::ilu0`]) into diagonal + strictly-upper
    /// storage.
    ///
    /// # Panics
    /// Panics if the matrix is not square, has an entry below the
    /// diagonal, is missing a diagonal entry, or has a zero diagonal.
    pub fn from_upper(m: &CsrMatrix) -> Self {
        assert_eq!(
            m.nrows(),
            m.ncols(),
            "upper triangular matrix must be square"
        );
        let n = m.nrows();
        let mut diag = vec![0.0f64; n];
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::with_capacity(m.nnz().saturating_sub(n));
        let mut values = Vec::with_capacity(m.nnz().saturating_sub(n));
        for i in 0..n {
            let mut saw_diag = false;
            for (&j, &v) in m.row_cols(i).iter().zip(m.row_values(i)) {
                assert!(j >= i, "entry ({i},{j}) is below the diagonal");
                if j == i {
                    assert!(v != 0.0, "zero diagonal at row {i}");
                    diag[i] = v;
                    saw_diag = true;
                } else {
                    col_idx.push(j);
                    values.push(v);
                    row_ptr[i + 1] += 1;
                }
            }
            assert!(saw_diag, "row {i} has no diagonal entry");
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        Self {
            n,
            diag,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of strictly-upper stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The diagonal.
    #[inline]
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// Column indices of row `i`'s strictly-upper entries (all `> i`).
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Coefficients of row `i`'s strictly-upper entries.
    #[inline]
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Row `i`'s strictly-upper column indices and coefficients, sliced
    /// from one read of the row bounds.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let row = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[row.clone()], &self.values[row])
    }

    /// Sequential backward substitution: returns `x` with `U x = rhs`.
    pub fn backward_solve(&self, rhs: &[f64]) -> Vec<f64> {
        assert_eq!(rhs.len(), self.n, "rhs length mismatch");
        let mut x = vec![0.0; self.n];
        for i in (0..self.n).rev() {
            let mut acc = rhs[i];
            let (cols, values) = self.row(i);
            for (&j, &v) in cols.iter().zip(values) {
                acc -= v * x[j];
            }
            x[i] = acc / self.diag[i];
        }
        x
    }

    /// Multiplies `U x` (diagonal included): for manufacturing solutions.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "x length mismatch");
        let mut out: Vec<f64> = (0..self.n).map(|i| self.diag[i] * x[i]).collect();
        #[allow(clippy::needless_range_loop)] // row index mirrors CSR layout
        for i in 0..self.n {
            for (&j, &v) in self.row_cols(i).iter().zip(self.row_values(i)) {
                out[i] += v * x[j];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{forward_solve_unit, max_diff};
    use crate::ilu::ilu0;
    use crate::stencil::five_point;

    fn small_tri() -> TriangularMatrix {
        // L = [[1,0,0],[0.5,1,0],[0.25,-1,1]] (strict lower stored)
        let m = CsrMatrix::from_parts(3, 3, vec![0, 0, 1, 3], vec![0, 0, 1], vec![0.5, 0.25, -1.0]);
        TriangularMatrix::from_strict_lower(&m)
    }

    #[test]
    fn figure7_arrays_are_exposed() {
        let t = small_tri();
        assert_eq!(t.n(), 3);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.low(2), 1);
        assert_eq!(t.high(2), 3);
        assert_eq!(t.column(), &[0, 0, 1]);
        assert_eq!(t.row_cols(2), &[0, 1]);
        assert_eq!(t.row_values(1), &[0.5]);
    }

    #[test]
    fn forward_solve_matches_dense_reference() {
        let t = small_tri();
        let dense = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.5, 1.0, 0.0],
            vec![0.25, -1.0, 1.0],
        ];
        let rhs = vec![2.0, 1.0, -3.0];
        let got = t.forward_solve(&rhs);
        let expect = forward_solve_unit(&dense, &rhs);
        assert!(max_diff(&got, &expect) < 1e-14);
    }

    #[test]
    fn matvec_then_solve_round_trips() {
        let a = five_point(8, 8, 21);
        let t = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
        let x: Vec<f64> = (0..t.n()).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
        let rhs = t.matvec(&x);
        let got = t.forward_solve(&rhs);
        assert!(max_diff(&got, &x) < 1e-10);
    }

    #[test]
    fn critical_path_of_chain_is_n() {
        // Bidiagonal: row i depends on row i-1 -> critical path = n.
        let m = CsrMatrix::from_parts(
            4,
            4,
            vec![0, 0, 1, 2, 3],
            vec![0, 1, 2],
            vec![1.0, 1.0, 1.0],
        );
        let t = TriangularMatrix::from_strict_lower(&m);
        assert_eq!(t.critical_path_len(), 4);
    }

    #[test]
    fn critical_path_of_diagonal_is_one() {
        let m = CsrMatrix::from_parts(3, 3, vec![0, 0, 0, 0], vec![], vec![]);
        let t = TriangularMatrix::from_strict_lower(&m);
        assert_eq!(t.critical_path_len(), 1);
        assert_eq!(t.forward_solve(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "not strictly lower")]
    fn diagonal_entry_rejected() {
        let m = CsrMatrix::from_parts(2, 2, vec![0, 1, 1], vec![0], vec![1.0]);
        let _ = TriangularMatrix::from_strict_lower(&m);
    }

    #[test]
    fn empty_system() {
        let m = CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]);
        let t = TriangularMatrix::from_strict_lower(&m);
        assert_eq!(t.n(), 0);
        assert_eq!(t.critical_path_len(), 0);
        assert!(t.forward_solve(&[]).is_empty());
    }

    #[test]
    fn upper_from_ilu_round_trips() {
        let a = five_point(7, 6, 23);
        let u = UpperTriangularMatrix::from_upper(&ilu0(&a).u);
        assert_eq!(u.n(), 42);
        assert!(u.nnz() > 0);
        let x: Vec<f64> = (0..u.n()).map(|i| 0.25 + (i % 4) as f64).collect();
        let rhs = u.matvec(&x);
        let got = u.backward_solve(&rhs);
        assert!(max_diff(&got, &x) < 1e-9);
    }

    #[test]
    fn upper_matches_dense_backward_solve() {
        let a = five_point(5, 5, 29);
        let f = ilu0(&a);
        let u = UpperTriangularMatrix::from_upper(&f.u);
        let rhs: Vec<f64> = (0..u.n()).map(|i| (i % 3) as f64 - 1.0).collect();
        let expect = crate::dense::backward_solve(&f.u.to_dense(), &rhs);
        let got = u.backward_solve(&rhs);
        assert!(max_diff(&got, &expect) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "below the diagonal")]
    fn upper_rejects_lower_entries() {
        let m = CsrMatrix::from_parts(2, 2, vec![0, 1, 3], vec![0, 0, 1], vec![1.0; 3]);
        let _ = UpperTriangularMatrix::from_upper(&m);
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn upper_rejects_zero_diagonal() {
        let m = CsrMatrix::from_parts(1, 1, vec![0, 1], vec![0], vec![0.0]);
        let _ = UpperTriangularMatrix::from_upper(&m);
    }
}
