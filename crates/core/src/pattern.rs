//! Loop descriptions: what the symbolic transformation extracts from source.
//!
//! The paper derives inspector and executor procedures from a source loop by
//! symbolic transformation. In library form, the information those
//! transformations extract is captured by two traits:
//!
//! * [`AccessPattern`] — the *shape*: iteration count, data-space size, the
//!   left-hand-side subscript `a(i)`, and the right-hand-side element of
//!   every term `b(i) + nbrs(j)`. This is all the inspector, the
//!   postprocessor, and the doconsider reordering need.
//! * [`DoacrossLoop`] — the shape plus the *arithmetic*: the seed value of
//!   an iteration's output element (Figure 5 statement S2) and the fold
//!   applied per term (S5/S7/S8). This is what the executor runs.
//!
//! [`IndirectLoop`] is the general concrete form — explicit index arrays,
//! exactly the "loop with execution time determined dependencies" of
//! Figure 1 — and `doacross_core::testloop::TestLoop` is the paper's
//! parameterized Figure 4 instance.

use crate::error::DoacrossError;
use std::ops::Range;

/// The dependence-relevant shape of a loop nest: subscript functions only.
///
/// Implementations must be cheap to query; the executor calls `lhs` /
/// `terms` / `term_element` once per (iteration, term) in its hot loop.
pub trait AccessPattern: Sync {
    /// Number of outer-loop iterations (`N`).
    fn iterations(&self) -> usize;

    /// Size of the data space: all subscripts must lie in `0..data_len()`.
    fn data_len(&self) -> usize;

    /// The element written by iteration `i` — the paper's `a(i)`.
    fn lhs(&self, i: usize) -> usize;

    /// Number of right-hand-side terms of iteration `i` — the paper's `M`
    /// (may vary per iteration, as in the sparse triangular solve).
    fn terms(&self, i: usize) -> usize;

    /// The element read by term `j` of iteration `i` — the paper's
    /// `b(i) + nbrs(j)`.
    fn term_element(&self, i: usize, j: usize) -> usize;

    /// For the strip-mined variant (§2.3): an element window guaranteed to
    /// contain every left-hand-side subscript of iterations
    /// `iter_range` (reads may fall outside). Tighter windows shrink the
    /// blocked runtime's scratch arrays; the default is the whole data
    /// space.
    fn block_window(&self, iter_range: Range<usize>) -> Range<usize> {
        let _ = iter_range;
        0..self.data_len()
    }
}

/// A full doacross loop body: shape plus per-iteration arithmetic.
///
/// The executor computes, for iteration `i`,
///
/// ```text
/// acc = init(i, y[lhs(i)])                       // Figure 5, S2
/// for j in 0..terms(i):
///     acc = combine(i, j, acc, value_of(term_element(i, j)))
/// ynew[lhs(i)] = acc; ready[lhs(i)] = DONE
/// ```
///
/// where `value_of` performs the three-way old/new/accumulator resolution.
/// Keeping `acc` in a register instead of re-writing `ynew(a(i))` per term
/// (as Figure 5 literally does) is observationally equivalent: the only
/// reader of the partial value is iteration `i` itself (the `check == 0`
/// branch), which the executor serves from the accumulator; every other
/// iteration reads `ynew(a(i))` only after observing `ready == DONE`.
///
/// The sequential kernel ([`crate::seq::run_sequential`]) folds each
/// iteration's terms through [`DoacrossLoop::fold_terms`], which a
/// CSR-shaped loop overrides to walk its row slices once. The engine's
/// speed claims hold for monomorphic callers: through `&dyn DoacrossLoop`
/// every trait call is indirect. On a 2-vCPU Xeon (AVX-512) host the
/// sequential Figure 7 solve of the five Table-1 operators read 1.4–1.6×
/// a hand-written CSR loop that way (geometric mean of p01 ratios; 4.0–4.6×
/// before the triangular loops overrode `fold_terms`), against 0.92–1.04×
/// monomorphic.
pub trait DoacrossLoop: AccessPattern {
    /// Seed of the output element, given the *old* value `y[lhs(i)]`.
    /// Figure 5's S2 is `|_, old| old`; a triangular solve uses
    /// `|i, _| rhs[i]`.
    fn init(&self, i: usize, old_lhs: f64) -> f64;

    /// Folds term `j`'s resolved operand into the accumulator (Figure 5's
    /// `ynew(a(i)) = ynew(a(i)) + val(j) * operand`).
    fn combine(&self, i: usize, j: usize, acc: f64, operand: f64) -> f64;

    /// Final transform applied to the accumulator before it is published
    /// (default: identity). A non-unit-diagonal triangular solve divides by
    /// the diagonal here; intra-iteration references (`check == 0`) see the
    /// *unfinished* accumulator, matching source-loop semantics where the
    /// transform is outside the inner loop.
    #[inline]
    fn finish(&self, _i: usize, acc: f64) -> f64 {
        acc
    }

    /// Folds every term of iteration `i` into `acc` in term order, reading
    /// operands from `y` — the sequential kernel's inner loop. `lhs` is
    /// `self.lhs(i)`; a term that references it reads the accumulator
    /// instead of `y` (the intra-iteration rule, Figure 5's S8).
    ///
    /// An override must return the default body's result bit for bit:
    /// the same `combine` operations in the same order. It may drop the
    /// S8 branch only when its type rules out intra-iteration references
    /// (a strictly triangular row never reads its own output).
    #[inline]
    fn fold_terms(&self, i: usize, lhs: usize, mut acc: f64, y: &[f64]) -> f64 {
        for j in 0..self.terms(i) {
            let off = self.term_element(i, j);
            // In the source loop the iteration's own partial result is
            // visible through y[lhs]; mirror that with the accumulator.
            let operand = if off == lhs { acc } else { y[off] };
            acc = self.combine(i, j, acc, operand);
        }
        acc
    }
}

/// The general runtime-dependency loop of Figure 1, with explicit index
/// arrays:
///
/// ```text
/// do i = 0, n-1
///     y[a[i]] = y[a[i]] + Σ_j coeff[i][j] · y[rhs[i][j]]
/// end do
/// ```
///
/// `a`, `rhs` and `coeff` are data, not code — exactly the situation where
/// compile-time dependence analysis fails and the preprocessed doacross
/// applies.
#[derive(Debug, Clone)]
pub struct IndirectLoop {
    data_len: usize,
    a: Vec<usize>,
    rhs: Vec<Vec<usize>>,
    coeff: Vec<Vec<f64>>,
}

impl IndirectLoop {
    /// Builds the loop, validating that the index arrays are consistent and
    /// in bounds (`a` injectivity — the no-output-dependency requirement —
    /// is checked at run time by the inspector, as in the paper).
    pub fn new(
        data_len: usize,
        a: Vec<usize>,
        rhs: Vec<Vec<usize>>,
        coeff: Vec<Vec<f64>>,
    ) -> Result<Self, DoacrossError> {
        if rhs.len() != a.len() || coeff.len() != a.len() {
            return Err(DoacrossError::DataLenMismatch {
                got: rhs.len().min(coeff.len()),
                expected: a.len(),
            });
        }
        for (i, (&lhs, (r, c))) in a.iter().zip(rhs.iter().zip(coeff.iter())).enumerate() {
            if lhs >= data_len {
                return Err(DoacrossError::SubscriptOutOfBounds {
                    iteration: i,
                    element: lhs,
                    data_len,
                });
            }
            if r.len() != c.len() {
                return Err(DoacrossError::DataLenMismatch {
                    got: c.len(),
                    expected: r.len(),
                });
            }
            if let Some(&bad) = r.iter().find(|&&e| e >= data_len) {
                return Err(DoacrossError::SubscriptOutOfBounds {
                    iteration: i,
                    element: bad,
                    data_len,
                });
            }
        }
        Ok(Self {
            data_len,
            a,
            rhs,
            coeff,
        })
    }
}

impl AccessPattern for IndirectLoop {
    #[inline]
    fn iterations(&self) -> usize {
        self.a.len()
    }

    #[inline]
    fn data_len(&self) -> usize {
        self.data_len
    }

    #[inline]
    fn lhs(&self, i: usize) -> usize {
        self.a[i]
    }

    #[inline]
    fn terms(&self, i: usize) -> usize {
        self.rhs[i].len()
    }

    #[inline]
    fn term_element(&self, i: usize, j: usize) -> usize {
        self.rhs[i][j]
    }

    fn block_window(&self, iter_range: Range<usize>) -> Range<usize> {
        if iter_range.is_empty() {
            return 0..0;
        }
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for i in iter_range {
            let e = self.a[i];
            lo = lo.min(e);
            hi = hi.max(e);
        }
        lo..hi + 1
    }
}

impl DoacrossLoop for IndirectLoop {
    #[inline]
    fn init(&self, _i: usize, old_lhs: f64) -> f64 {
        old_lhs
    }

    #[inline]
    fn combine(&self, i: usize, j: usize, acc: f64, operand: f64) -> f64 {
        acc + self.coeff[i][j] * operand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> IndirectLoop {
        IndirectLoop::new(
            6,
            vec![1, 3, 5],
            vec![vec![0, 2], vec![1], vec![3, 4]],
            vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]],
        )
        .unwrap()
    }

    #[test]
    fn shape_queries() {
        let l = simple();
        assert_eq!(l.iterations(), 3);
        assert_eq!(l.data_len(), 6);
        assert_eq!(l.lhs(1), 3);
        assert_eq!(l.terms(0), 2);
        assert_eq!(l.terms(1), 1);
        assert_eq!(l.term_element(2, 1), 4);
        assert_eq!(l.a, [1, 3, 5]);
    }

    #[test]
    fn arithmetic_is_axpy_like() {
        let l = simple();
        assert_eq!(l.init(0, 10.0), 10.0);
        assert_eq!(l.combine(0, 1, 10.0, 3.0), 16.0); // 10 + 2*3
    }

    #[test]
    fn rejects_out_of_bounds_lhs() {
        let err = IndirectLoop::new(2, vec![2], vec![vec![]], vec![vec![]]).unwrap_err();
        assert!(matches!(
            err,
            DoacrossError::SubscriptOutOfBounds { element: 2, .. }
        ));
    }

    #[test]
    fn rejects_out_of_bounds_rhs() {
        let err = IndirectLoop::new(3, vec![0], vec![vec![3]], vec![vec![1.0]]).unwrap_err();
        assert!(matches!(
            err,
            DoacrossError::SubscriptOutOfBounds { element: 3, .. }
        ));
    }

    #[test]
    fn rejects_mismatched_arrays() {
        assert!(IndirectLoop::new(4, vec![0, 1], vec![vec![]], vec![vec![]]).is_err());
        assert!(
            IndirectLoop::new(4, vec![0], vec![vec![1, 2]], vec![vec![1.0]]).is_err(),
            "coeff/rhs length mismatch per iteration"
        );
    }

    #[test]
    fn default_block_window_is_whole_data_space() {
        // Use a thin wrapper to exercise the trait default.
        struct Thin;
        impl AccessPattern for Thin {
            fn iterations(&self) -> usize {
                4
            }
            fn data_len(&self) -> usize {
                10
            }
            fn lhs(&self, i: usize) -> usize {
                i
            }
            fn terms(&self, _: usize) -> usize {
                0
            }
            fn term_element(&self, _: usize, _: usize) -> usize {
                unreachable!()
            }
        }
        assert_eq!(Thin.block_window(1..3), 0..10);
    }

    #[test]
    fn indirect_block_window_is_tight() {
        let l = simple(); // lhs = [1, 3, 5]
        assert_eq!(l.block_window(0..3), 1..6);
        assert_eq!(l.block_window(0..1), 1..2);
        assert_eq!(l.block_window(1..3), 3..6);
        assert_eq!(l.block_window(2..2), 0..0);
    }

    #[test]
    fn empty_loop_is_valid() {
        let l = IndirectLoop::new(0, vec![], vec![], vec![]).unwrap();
        assert_eq!(l.iterations(), 0);
        assert_eq!(l.data_len(), 0);
    }
}
