//! §2.3's linear-subscript variant: no inspector, no `iter` array.
//!
//! "When the left hand side arrays are indexed by a linear subscript
//! function (i.e. `a(i)` is replaced by some known linear function
//! `c × i + d`), it is possible to eliminate the execution time
//! preprocessing phase along with the need to allocate storage for array
//! `iter`. […] we can determine whether `y(b(i) + nbrs(j))` can be written
//! to by testing to see whether `(b(i) + nbrs(j) - d) mod c` is equal
//! to 0. If a write is carried out it occurs during loop iteration
//! `(b(i) + nbrs(j) - d)/c`."
//!
//! [`Doacross::run_linear`] is the entry point for this case: it touches
//! only `ready` and `ynew` of the runtime's scratch, answers the executor's
//! writer queries arithmetically via [`LinearWriter`], and optionally
//! verifies at run time that the loop's `lhs` really is the declared linear
//! function.

use crate::error::DoacrossError;
use crate::executor::{Flags, Region};
use crate::inspector::ErrorSlot;
use crate::oracle::{ByWriter, LinearWriter};
use crate::pattern::DoacrossLoop;
use crate::post::Post;
use crate::runtime::{check_y_len, region_stats, Doacross};
use crate::stats::{PlanProvenance, RunStats};
use doacross_par::{parallel_for, ThreadPool};
use std::time::Instant;

/// The declared left-hand-side subscript function `a(i) = c·i + d`
/// (0-based iteration index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearSubscript {
    /// Stride `c ≥ 1`. Strides ≥ 1 are automatically injective, so the
    /// no-output-dependency requirement holds by construction.
    pub c: usize,
    /// Offset `d`.
    pub d: usize,
}

impl LinearSubscript {
    /// `a(i) = c·i + d`.
    ///
    /// # Panics
    /// Panics if `c == 0`.
    pub fn new(c: usize, d: usize) -> Self {
        assert!(c > 0, "linear subscript requires stride c >= 1");
        Self { c, d }
    }

    /// Evaluates the subscript at iteration `i`.
    #[inline]
    pub fn at(&self, i: usize) -> usize {
        self.c * i + self.d
    }
}

impl Doacross {
    /// Preprocessed doacross without preprocessing: runs the loop under the
    /// declared linear `subscript` (§2.3), updating `y` in place. No
    /// inspector runs and the `iter` array is never touched — the memory
    /// the paper saves is exactly that array. Iterations are claimed in
    /// natural order; a doconsider order is a plan's claim stream, run by
    /// [`Doacross::run_planned`].
    ///
    /// `validate_terms` controls the whole validation pass (there is no
    /// inspector to piggyback on): when set, a parallel pre-pass checks
    /// that `lhs(i) == c·i + d` and that all subscripts are in bounds, and
    /// the `inspector` field of the returned stats holds its time. When
    /// off that field is zero — the paper's "eliminated preprocessing".
    ///
    /// ```
    /// use doacross_core::{seq::run_sequential, Doacross, TestLoop};
    /// use doacross_par::ThreadPool;
    ///
    /// // Figure 4's a(i) = 2i is linear, so no inspector is needed.
    /// let loop_ = TestLoop::new(200, 2, 6);
    /// let pool = ThreadPool::new(2);
    /// let mut y = loop_.initial_y();
    /// let mut oracle = y.clone();
    ///
    /// let mut rt = Doacross::new(y.len());
    /// rt.run_linear(&pool, &loop_, &mut y, loop_.linear_subscript()).unwrap();
    /// run_sequential(&loop_, &mut oracle);
    /// assert_eq!(y, oracle);
    /// ```
    pub fn run_linear<L: DoacrossLoop + ?Sized>(
        &mut self,
        pool: &ThreadPool,
        loop_: &L,
        y: &mut [f64],
        subscript: LinearSubscript,
    ) -> Result<RunStats, DoacrossError> {
        let data_len = check_y_len(loop_, y)?;
        self.ensure_data_len(data_len);
        let n = loop_.iterations();
        let mut stats = region_stats(pool, n, PlanProvenance::Inline);
        let t_start = Instant::now();

        // Optional validation pass (replaces the inspector).
        if self.config.validate_terms {
            let mismatch = ErrorSlot::new();
            let oob = ErrorSlot::new();
            parallel_for(pool, n, 1, |i| {
                let lhs = loop_.lhs(i);
                if lhs != subscript.at(i) {
                    mismatch.try_set(i, lhs);
                }
                if lhs >= data_len {
                    oob.try_set(i, lhs);
                }
                for j in 0..loop_.terms(i) {
                    let off = loop_.term_element(i, j);
                    if off >= data_len {
                        oob.try_set(i, off);
                    }
                }
            });
            if let Some((iteration, element)) = oob.get() {
                return Err(DoacrossError::SubscriptOutOfBounds {
                    iteration,
                    element,
                    data_len,
                });
            }
            if let Some((iteration, got)) = mismatch.get() {
                return Err(DoacrossError::SubscriptNotLinear {
                    iteration,
                    expected: subscript.at(iteration),
                    got,
                });
            }
            stats.inspector = t_start.elapsed();
        }

        // The executor runs with the arithmetic writer oracle; the
        // copy-back follows in the same region (no `iter` to clear).
        let oracle = LinearWriter::new(subscript.c, subscript.d, n);
        let outcome = self.scratch.run(
            pool,
            Region {
                loop_,
                claims: &ByWriter { oracle: &oracle },
                slots: 0..n,
                window: 0..data_len,
                y,
                post: Post { map: None },
                grain: Some(1),
            },
            Flags,
            &mut stats,
            None,
        );
        outcome.expect("a by-writer source never rejects a row");
        stats.total = t_start.elapsed();
        debug_assert!(self.scratch_is_clean());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{AccessPattern, IndirectLoop};
    use crate::runtime::DoacrossConfig;
    use crate::seq::run_sequential;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    /// y[2i+1] += 0.5 * y[2i] + 0.25 * y[2i+2]: linear lhs with stride 2.
    fn strided_loop(n: usize) -> (IndirectLoop, LinearSubscript) {
        let dl = 2 * n + 2;
        let a: Vec<usize> = (0..n).map(|i| 2 * i + 1).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![2 * i, 2 * i + 2]).collect();
        let coeff = vec![vec![0.5, 0.25]; n];
        (
            IndirectLoop::new(dl, a, rhs, coeff).unwrap(),
            LinearSubscript::new(2, 1),
        )
    }

    #[test]
    fn linear_matches_sequential_and_inspected() {
        let (l, sub) = strided_loop(300);
        let y0: Vec<f64> = (0..l.data_len()).map(|e| (e % 7) as f64).collect();

        let mut oracle = y0.clone();
        run_sequential(&l, &mut oracle);

        let mut y_lin = y0.clone();
        let mut lin = Doacross::new(l.data_len());
        lin.run_linear(&pool(), &l, &mut y_lin, sub).unwrap();
        assert_eq!(y_lin, oracle);

        let mut y_insp = y0;
        let mut insp = Doacross::for_loop(&l);
        insp.run(&pool(), &l, &mut y_insp).unwrap();
        assert_eq!(y_insp, oracle, "linear and inspected paths must agree");
    }

    #[test]
    fn mismatched_subscript_is_rejected() {
        let (l, _) = strided_loop(10);
        let mut lin = Doacross::new(l.data_len());
        let mut y = vec![0.0; l.data_len()];
        let err = lin
            .run_linear(&pool(), &l, &mut y, LinearSubscript::new(2, 0))
            .unwrap_err();
        assert!(matches!(
            err,
            DoacrossError::SubscriptNotLinear {
                iteration: 0,
                expected: 0,
                got: 1
            }
        ));
    }

    #[test]
    fn skipping_validation_skips_the_pre_pass() {
        let (l, sub) = strided_loop(50);
        let cfg = DoacrossConfig {
            validate_terms: false,
        };
        let mut lin = Doacross::with_config(l.data_len(), cfg);
        let mut y = vec![1.0; l.data_len()];
        let mut oracle = y.clone();
        let stats = lin.run_linear(&pool(), &l, &mut y, sub).unwrap();
        run_sequential(&l, &mut oracle);
        assert_eq!(y, oracle);
        assert_eq!(
            stats.inspector,
            std::time::Duration::ZERO,
            "no preprocessing at all in the paper's eliminated-inspector mode"
        );
    }

    #[test]
    fn identity_subscript_solves_chains() {
        // a(i) = i (c=1, d=0): the triangular-solve shape.
        let n = 128;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i.saturating_sub(1)]).collect();
        let l = IndirectLoop::new(n, a, rhs, vec![vec![1.0]; n]).unwrap();
        let y0 = vec![1.0; n];
        let mut oracle = y0.clone();
        run_sequential(&l, &mut oracle);
        let mut y = y0;
        let mut lin = Doacross::new(n);
        let stats = lin
            .run_linear(&pool(), &l, &mut y, LinearSubscript::new(1, 0))
            .unwrap();
        assert_eq!(y, oracle);
        // Iteration 0 reads element 0 -> intra; the rest are true deps.
        assert_eq!(stats.deps.intra, 1);
        assert_eq!(stats.deps.true_deps, (n - 1) as u64);
    }

    #[test]
    fn runtime_reuse_and_data_len_checks() {
        let (l, sub) = strided_loop(20);
        let mut lin = Doacross::new(l.data_len());
        let mut wrong = vec![0.0; 3];
        assert!(matches!(
            lin.run_linear(&pool(), &l, &mut wrong, sub),
            Err(DoacrossError::DataLenMismatch { .. })
        ));
        let mut y = vec![1.0; l.data_len()];
        for _ in 0..3 {
            lin.run_linear(&pool(), &l, &mut y, sub).unwrap();
            assert!(lin.scratch_is_clean());
        }
    }

    #[test]
    #[should_panic(expected = "stride c >= 1")]
    fn zero_stride_rejected() {
        let _ = LinearSubscript::new(0, 3);
    }

    #[test]
    fn subscript_evaluation() {
        let s = LinearSubscript::new(3, 2);
        assert_eq!(s.at(0), 2);
        assert_eq!(s.at(10), 32);
    }
}
