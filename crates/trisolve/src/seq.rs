//! Sequential triangular solve — the paper's `T_seq` baseline.

use doacross_sparse::TriangularMatrix;

/// Figure 7 verbatim: sequential forward substitution. Returns `y`.
pub fn solve_sequential(l: &TriangularMatrix, rhs: &[f64]) -> Vec<f64> {
    l.forward_solve(rhs)
}
