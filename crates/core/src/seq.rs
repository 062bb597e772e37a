//! Sequential reference executor — the semantics oracle.
//!
//! Runs a [`DoacrossLoop`] exactly as the original source loop of Figure 1 /
//! Figure 4 would: iterations in order, every read seeing every prior write.
//! All parallel executors in this workspace are tested for bit-exact
//! equality against this function (the arithmetic per iteration is
//! identical — same order of combines — so floating-point results must
//! match exactly, not just approximately).
//!
//! This is also the paper's `T_seq` measurement kernel: "the time required
//! to solve a problem using an optimized sequential version" (§3). Each
//! iteration is `init`, one [`DoacrossLoop::fold_terms`] over its terms,
//! then `finish`: a loop that overrides `fold_terms` (the triangular
//! solves hand over their row slices) runs its own inner loop here, and
//! every caller of this function — the engine's sequential plans, its
//! fallback replay, `&dyn` callers — gets it with no further change.

use crate::pattern::DoacrossLoop;

/// Executes `loop_` sequentially, updating `y` in place.
///
/// # Panics
/// Panics if `y.len() != loop_.data_len()` or a subscript is out of bounds
/// (the parallel runtimes report these as `DoacrossError`s; the oracle is
/// kept branch-light on purpose).
pub fn run_sequential<L: DoacrossLoop + ?Sized>(loop_: &L, y: &mut [f64]) {
    assert_eq!(
        y.len(),
        loop_.data_len(),
        "y buffer must match the loop's data space"
    );
    for i in 0..loop_.iterations() {
        let lhs = loop_.lhs(i);
        y[lhs] = loop_.finish(i, loop_.fold_terms(i, lhs, loop_.init(i, y[lhs]), y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IndirectLoop;

    #[test]
    fn chain_of_true_dependencies() {
        // y[i+1] = y[i+1] + 1.0 * y[i]: prefix-sum-like chain.
        let n = 5;
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let coeff = vec![vec![1.0]; n];
        let l = IndirectLoop::new(n + 1, a, rhs, coeff).unwrap();
        let mut y = vec![1.0; n + 1];
        run_sequential(&l, &mut y);
        // y[k] = y[k] + y[k-1] resolves to k + 1 with all-ones input.
        for (k, v) in y.iter().enumerate() {
            assert_eq!(*v, (k + 1) as f64, "y[{k}]");
        }
    }

    #[test]
    fn antidependency_reads_old_value() {
        // Iteration 0 reads y[1] (written by iteration 1): must see the
        // ORIGINAL y[1] in sequential order.
        let l = IndirectLoop::new(
            2,
            vec![0, 1],
            vec![vec![1], vec![0]],
            vec![vec![1.0], vec![1.0]],
        )
        .unwrap();
        let mut y = vec![10.0, 100.0];
        run_sequential(&l, &mut y);
        // i=0: y[0] = 10 + 100 = 110; i=1: y[1] = 100 + 110 = 210.
        assert_eq!(y, vec![110.0, 210.0]);
    }

    #[test]
    fn intra_iteration_reference_sees_partial_sum() {
        // y[0] = y[0] + y[0] + y[0]: the second term must see the partial
        // accumulation (source semantics: y(a(i)) is updated per term).
        let l = IndirectLoop::new(1, vec![0], vec![vec![0, 0]], vec![vec![1.0, 1.0]]).unwrap();
        let mut y = vec![3.0];
        run_sequential(&l, &mut y);
        // acc = 3; term 0: acc = 3 + 3 = 6; term 1: acc = 6 + 6 = 12.
        assert_eq!(y, vec![12.0]);
    }

    #[test]
    fn empty_loop_leaves_y_untouched() {
        let l = IndirectLoop::new(3, vec![], vec![], vec![]).unwrap();
        let mut y = vec![1.0, 2.0, 3.0];
        run_sequential(&l, &mut y);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn finish_hook_applies_after_terms() {
        use crate::pattern::{AccessPattern, DoacrossLoop};
        // y[i] = (rhs - y[i-1]) / 2 — a scaled chain exercising `finish`.
        struct Scaled;
        impl AccessPattern for Scaled {
            fn iterations(&self) -> usize {
                4
            }
            fn data_len(&self) -> usize {
                4
            }
            fn lhs(&self, i: usize) -> usize {
                i
            }
            fn terms(&self, i: usize) -> usize {
                usize::from(i > 0)
            }
            fn term_element(&self, i: usize, _j: usize) -> usize {
                i - 1
            }
        }
        impl DoacrossLoop for Scaled {
            fn init(&self, _i: usize, _old: f64) -> f64 {
                8.0
            }
            fn combine(&self, _i: usize, _j: usize, acc: f64, v: f64) -> f64 {
                acc - v
            }
            fn finish(&self, _i: usize, acc: f64) -> f64 {
                acc / 2.0
            }
        }
        let mut y = vec![0.0; 4];
        run_sequential(&Scaled, &mut y);
        // y0 = 8/2 = 4; y1 = (8-4)/2 = 2; y2 = (8-2)/2 = 3; y3 = (8-3)/2 = 2.5
        assert_eq!(y, vec![4.0, 2.0, 3.0, 2.5]);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn wrong_buffer_length_panics() {
        let l = IndirectLoop::new(3, vec![], vec![], vec![]).unwrap();
        let mut y = vec![0.0; 2];
        run_sequential(&l, &mut y);
    }
}
