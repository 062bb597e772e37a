//! The normaliser: the paper's Figure 7 loop written by hand.
//!
//! Every time the benchmark gates is a ratio against this kernel, sampled
//! in alternation with the subject, so drift of the host cancels. It owns
//! copies of the CSR arrays and calls nothing in the repo from the timed
//! region; it must not change between commits.

use doacross_sparse::TriangularMatrix;

pub struct BareCsr {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    rhs: Vec<f64>,
}

impl BareCsr {
    /// Copies the arrays of `L y = rhs` out of the repo's matrix type.
    pub fn copy_of(l: &TriangularMatrix, rhs: &[f64]) -> Self {
        assert_eq!(rhs.len(), l.n());
        let mut row_ptr = Vec::with_capacity(l.n() + 1);
        row_ptr.push(0);
        row_ptr.extend((0..l.n()).map(|i| l.high(i)));
        Self {
            row_ptr,
            col_idx: l.column().to_vec(),
            values: l.coeff().to_vec(),
            rhs: rhs.to_vec(),
        }
    }

    pub fn n(&self) -> usize {
        self.rhs.len()
    }

    /// Forward substitution into `y`, same per-row reduction order as the
    /// repo's loops, so results compare bit for bit.
    #[inline(never)]
    pub fn solve(&self, y: &mut [f64]) {
        let n = self.rhs.len();
        assert_eq!(y.len(), n);
        for i in 0..n {
            let mut acc = self.rhs[i];
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc -= self.values[p] * y[self.col_idx[p]];
            }
            y[i] = acc;
        }
    }

    /// Bytes one solve touches, computed from array sizes (cache misses
    /// are not counted): `row_ptr`, `column`, `a`, `rhs`, the gathered
    /// `y` reads and the `y` writes.
    pub fn computed_bytes_per_solve(&self) -> usize {
        let word = std::mem::size_of::<usize>();
        let (n, nnz) = (self.rhs.len(), self.values.len());
        (n + 1) * word + nnz * (word + 8 + 8) + n * (8 + 8)
    }
}

/// Bit-for-bit equality; `==` would let `-0.0` pass for `0.0`.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    #[test]
    fn bare_kernel_matches_forward_solve_on_all_five_structures() {
        let systems = inputs::table1(7);
        assert_eq!(systems.len(), 5);
        for sys in &systems {
            let mut y = vec![f64::NAN; sys.bare.n()];
            sys.bare.solve(&mut y);
            assert!(
                bits_equal(&y, &sys.l.forward_solve(&sys.rhs)),
                "{} differs from TriangularMatrix::forward_solve",
                sys.name
            );
            assert!(bits_equal(&y, &sys.oracle));
        }
    }

    #[test]
    fn bit_equality_is_stricter_than_float_equality() {
        assert!(bits_equal(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!bits_equal(&[0.0], &[-0.0]));
        assert!(!bits_equal(&[1.0], &[1.0, 2.0]));
    }
}
