//! Small dense linear-algebra reference routines (tests and validation
//! only — everything here is O(n²) or worse and allocates freely).

/// Dense matrix–vector product `A x`.
pub(crate) fn matvec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    a.iter()
        .map(|row| row.iter().zip(x).map(|(aij, xj)| aij * xj).sum())
        .collect()
}

/// Dense matrix product `A B`.
pub(crate) fn matmul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = a.len();
    let m = if b.is_empty() { 0 } else { b[0].len() };
    let k = b.len();
    let mut out = vec![vec![0.0; m]; n];
    for i in 0..n {
        for l in 0..k {
            let ail = a[i][l];
            if ail == 0.0 {
                continue;
            }
            for j in 0..m {
                out[i][j] += ail * b[l][j];
            }
        }
    }
    out
}

/// Forward substitution for a dense *unit* lower-triangular `L`:
/// solves `L y = rhs` (diagonal assumed 1 and not read).
pub(crate) fn forward_solve_unit(l: &[Vec<f64>], rhs: &[f64]) -> Vec<f64> {
    let n = l.len();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut acc = rhs[i];
        for j in 0..i {
            acc -= l[i][j] * y[j];
        }
        y[i] = acc;
    }
    y
}

/// Backward substitution for a dense upper-triangular `U`: solves
/// `U x = rhs`.
///
/// # Panics
/// Panics if a diagonal entry is exactly zero.
pub(crate) fn backward_solve(u: &[Vec<f64>], rhs: &[f64]) -> Vec<f64> {
    let n = u.len();
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = rhs[i];
        for j in i + 1..n {
            acc -= u[i][j] * x[j];
        }
        assert!(u[i][i] != 0.0, "zero diagonal at {i}");
        x[i] = acc / u[i][i];
    }
    x
}

/// Max-norm of the difference of two vectors.
pub(crate) fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let i = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert_eq!(matvec(&i, &[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let b = vec![vec![5.0, 6.0], vec![7.0, 8.0]];
        assert_eq!(matmul(&a, &b), vec![vec![19.0, 22.0], vec![43.0, 50.0]]);
    }

    #[test]
    fn forward_solve_inverts_multiplication() {
        let l = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.5, 1.0, 0.0],
            vec![0.25, -1.0, 1.0],
        ];
        let y_true = vec![2.0, -1.0, 3.0];
        let rhs = matvec(&l, &y_true);
        let y = forward_solve_unit(&l, &rhs);
        assert!(max_diff(&y, &y_true) < 1e-12);
    }

    #[test]
    fn backward_solve_inverts_multiplication() {
        let u = vec![
            vec![2.0, 1.0, -1.0],
            vec![0.0, 3.0, 0.5],
            vec![0.0, 0.0, 4.0],
        ];
        let x_true = vec![1.0, -2.0, 0.5];
        let rhs = matvec(&u, &x_true);
        let x = backward_solve(&u, &rhs);
        assert!(max_diff(&x, &x_true) < 1e-12);
    }

    #[test]
    fn max_diff_basics() {
        assert_eq!(max_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_diff(&[], &[]), 0.0);
    }
}
