//! Sparse matrix–vector products (sequential reference kernels).

use crate::csr::CsrMatrix;

/// `y = A x` for a CSR matrix.
///
/// # Panics
/// Panics if `x.len() != a.ncols()`.
pub fn csr_matvec(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), a.ncols(), "x length mismatch");
    let mut y = vec![0.0; a.nrows()];
    #[allow(clippy::needless_range_loop)] // row index mirrors CSR layout
    for i in 0..a.nrows() {
        let mut acc = 0.0;
        for (&j, &v) in a.row_cols(i).iter().zip(a.row_values(i)) {
            acc += v * x[j];
        }
        y[i] = acc;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::matvec;
    use crate::stencil::nine_point;

    #[test]
    fn csr_matvec_matches_dense() {
        let a = nine_point(5, 4, 17);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
        let sparse = csr_matvec(&a, &x);
        let dense = matvec(&a.to_dense(), &x);
        for (s, d) in sparse.iter().zip(&dense) {
            assert!((s - d).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_matvec() {
        let i = CsrMatrix::identity(3);
        assert_eq!(csr_matvec(&i, &[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_x_length_panics() {
        let i = CsrMatrix::identity(3);
        let _ = csr_matvec(&i, &[1.0]);
    }
}
