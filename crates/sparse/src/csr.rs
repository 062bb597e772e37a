//! Compressed sparse row storage.

/// A sparse matrix in CSR form: row `i`'s nonzeros live at positions
/// `row_ptr[i] .. row_ptr[i+1]` of `col_idx`/`values`, with column indices
/// strictly increasing within each row.
///
/// This is the FORTRAN `low(i)/high(i)/column(j)/a(j)` layout of the
/// paper's Figure 7, modernized: `low(i) = row_ptr[i]`,
/// `high(i) = row_ptr[i+1] - 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating the invariants
    /// (monotone `row_ptr`, sorted strictly-increasing columns per row,
    /// in-range indices, consistent lengths).
    ///
    /// # Panics
    /// Panics with a descriptive message if any invariant fails — matrix
    /// construction is a setup-time operation, so the cost of full
    /// validation is acceptable and the failure mode should be loud.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(
            row_ptr.len(),
            nrows + 1,
            "row_ptr must have nrows+1 entries"
        );
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(
            *row_ptr.last().unwrap(),
            col_idx.len(),
            "row_ptr must end at nnz"
        );
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx/values length mismatch"
        );
        for i in 0..nrows {
            assert!(row_ptr[i] <= row_ptr[i + 1], "row_ptr must be monotone");
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {i}: columns must strictly increase");
            }
            if let Some(&last) = row.last() {
                assert!(last < ncols, "row {i}: column {last} out of range");
            }
        }
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row-pointer array (`nrows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// All column indices, row-major.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// All values, row-major.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// The stored value at `(i, j)`, or `None` if the position is not in
    /// the pattern. Binary search within the row.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        let cols = self.row_cols(i);
        cols.binary_search(&j)
            .ok()
            .map(|k| self.values[self.row_ptr[i] + k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense and structural views the crate's unit tests compare against.
    impl CsrMatrix {
        /// An `n × n` identity matrix.
        pub(crate) fn identity(n: usize) -> Self {
            Self::from_parts(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
        }

        /// Whether every stored entry satisfies `col <= row` (lower
        /// triangular pattern).
        pub(crate) fn is_lower_triangular(&self) -> bool {
            (0..self.nrows).all(|i| self.row_cols(i).iter().all(|&j| j <= i))
        }

        /// Whether every stored entry satisfies `col >= row` (upper
        /// triangular pattern).
        pub(crate) fn is_upper_triangular(&self) -> bool {
            (0..self.nrows).all(|i| self.row_cols(i).iter().all(|&j| j >= i))
        }

        /// Dense copy (row-major `nrows × ncols`); for tests and small
        /// reference computations only.
        pub(crate) fn to_dense(&self) -> Vec<Vec<f64>> {
            let mut out = vec![vec![0.0; self.ncols]; self.nrows];
            #[allow(clippy::needless_range_loop)] // row index mirrors CSR layout
            for i in 0..self.nrows {
                for (&j, &v) in self.row_cols(i).iter().zip(self.row_values(i)) {
                    out[i][j] = v;
                }
            }
            out
        }

        /// Transpose (CSR of the transposed matrix), via counting sort — O(nnz).
        pub(crate) fn transpose(&self) -> CsrMatrix {
            let mut counts = vec![0usize; self.ncols + 1];
            for &j in &self.col_idx {
                counts[j + 1] += 1;
            }
            for k in 0..self.ncols {
                counts[k + 1] += counts[k];
            }
            let row_ptr_t = counts.clone();
            let mut cursor = counts;
            let mut col_idx_t = vec![0usize; self.nnz()];
            let mut values_t = vec![0.0f64; self.nnz()];
            for i in 0..self.nrows {
                for (&j, &v) in self.row_cols(i).iter().zip(self.row_values(i)) {
                    let slot = cursor[j];
                    cursor[j] += 1;
                    col_idx_t[slot] = i;
                    values_t[slot] = v;
                }
            }
            CsrMatrix::from_parts(self.ncols, self.nrows, row_ptr_t, col_idx_t, values_t)
        }
    }

    /// [[1, 2, 0], [0, 3, 0], [4, 0, 5]]
    fn sample() -> CsrMatrix {
        CsrMatrix::from_parts(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 1, 1, 0, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
    }

    #[test]
    fn basic_queries() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_cols(0), &[0, 1]);
        assert_eq!(m.row_values(2), &[4.0, 5.0]);
        assert_eq!(m.get(0, 1), Some(2.0));
        assert_eq!(m.get(1, 0), None);
        assert_eq!(m.get(2, 2), Some(5.0));
    }

    #[test]
    fn to_dense_round_trip() {
        let d = sample().to_dense();
        assert_eq!(
            d,
            vec![
                vec![1.0, 2.0, 0.0],
                vec![0.0, 3.0, 0.0],
                vec![4.0, 0.0, 5.0]
            ]
        );
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        let d = m.to_dense();
        let dt = t.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(d[i][j], dt[j][i], "({i},{j})");
            }
        }
        // Double transpose is the identity.
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn identity_properties() {
        let i5 = CsrMatrix::identity(5);
        assert_eq!(i5.nnz(), 5);
        assert!(i5.is_lower_triangular());
        assert!(i5.is_upper_triangular());
        for k in 0..5 {
            assert_eq!(i5.get(k, k), Some(1.0));
        }
    }

    #[test]
    fn triangularity_checks() {
        let lower = CsrMatrix::from_parts(3, 3, vec![0, 1, 3, 4], vec![0, 0, 1, 2], vec![1.0; 4]);
        assert!(lower.is_lower_triangular());
        assert!(!lower.is_upper_triangular());
        assert!(!sample().is_lower_triangular());
    }

    #[test]
    #[should_panic(expected = "columns must strictly increase")]
    fn duplicate_columns_rejected() {
        let _ = CsrMatrix::from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_rejected() {
        let _ = CsrMatrix::from_parts(1, 2, vec![0, 1], vec![2], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "row_ptr must end at nnz")]
    fn inconsistent_row_ptr_rejected() {
        let _ = CsrMatrix::from_parts(1, 2, vec![0, 2], vec![0], vec![1.0]);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]);
        assert_eq!(m.nnz(), 0);
        assert!(m.is_lower_triangular());
        let t = m.transpose();
        assert_eq!(t.nrows(), 0);
    }
}
