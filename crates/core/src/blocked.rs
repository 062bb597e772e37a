//! §2.3's strip-mined (blocked) doacross: `L → L_outer × L_inner`.
//!
//! "It is possible to transform the original loop L into a pair of nested
//! loops L_outer and L_inner. The inner loop L_inner would range over
//! contiguous iterations of the original loop L. Loop L_inner would be
//! parallelized using the preprocessed doacross methods described above;
//! loop L_outer would be carried out in a sequential manner. Preprocessing
//! and postprocessing involving arrays ready, iter, ynew, and yold is
//! carried out before and after each set of L_inner iterations. This
//! transformation reduces memory requirements because during each iteration
//! of L_outer we can reuse ready and iter."
//!
//! [`Doacross::run_blocked`] implements exactly that: blocks of
//! `block_size` contiguous iterations execute as flat preprocessed
//! doacrosses, with the scratch arrays sized to the largest *element
//! window* any block declares ([`crate::AccessPattern::block_window`])
//! instead of the full data space. Cross-block dependencies need no flags
//! at all — each block's postprocessing copies results back into `y`
//! before the next block starts, so later blocks simply read `y`.
//!
//! A semantic bonus the paper does not dwell on: because scratch state is
//! reset between blocks, the injectivity requirement on `a` only applies
//! *within* a block; loops whose output element is written by several
//! sufficiently-separated iterations run correctly when blocked.

use crate::error::DoacrossError;
use crate::executor::{Flags, Region};
use crate::inspector::{reset_scratch, run_inspector};
use crate::oracle::{ByWriter, InspectedWriter};
use crate::pattern::DoacrossLoop;
use crate::post::Post;
use crate::runtime::{check_y_len, region_stats, Doacross};
use crate::stats::{PlanProvenance, RunStats};
use doacross_par::ThreadPool;
use std::time::Instant;

impl Doacross {
    /// Runs the loop strip-mined, `block_size` iterations per `L_outer`
    /// step (see module docs), updating `y` in place exactly as the
    /// sequential source loop would. The returned stats aggregate all
    /// blocks (`stats.blocks` reports how many executed). A runtime used
    /// only this way grows its scratch to the largest block window, not the
    /// data space.
    ///
    /// ```
    /// use doacross_core::{seq::run_sequential, Doacross, TestLoop};
    /// use doacross_par::ThreadPool;
    ///
    /// let loop_ = TestLoop::new(500, 2, 8);
    /// let pool = ThreadPool::new(2);
    /// let mut y = loop_.initial_y();
    /// let mut oracle = y.clone();
    ///
    /// // 50 iterations per block: scratch shrinks to the block's window.
    /// let mut rt = Doacross::new(0);
    /// let stats = rt.run_blocked(&pool, &loop_, &mut y, 50).unwrap();
    /// run_sequential(&loop_, &mut oracle);
    /// assert_eq!(y, oracle);
    /// assert_eq!(stats.blocks, 10);
    /// ```
    pub fn run_blocked<L: DoacrossLoop + ?Sized>(
        &mut self,
        pool: &ThreadPool,
        loop_: &L,
        y: &mut [f64],
        block_size: usize,
    ) -> Result<RunStats, DoacrossError> {
        if block_size == 0 {
            return Err(DoacrossError::EmptyBlock);
        }
        let data_len = check_y_len(loop_, y)?;
        let n = loop_.iterations();
        let mut total = RunStats {
            workers: pool.threads(),
            ..Default::default()
        };
        let t_start = Instant::now();

        for lo in (0..n).step_by(block_size) {
            let hi = (lo + block_size).min(n);
            let window = {
                let w = loop_.block_window(lo..hi);
                w.start.min(data_len)..w.end.min(data_len)
            };
            self.ensure_data_len(window.len());
            self.ensure_iter(window.len());
            let mut stats = region_stats(pool, hi - lo, PlanProvenance::Inline);

            // Per-block inspector.
            let t0 = Instant::now();
            if let Err(e) = run_inspector(
                pool,
                loop_,
                lo..hi,
                window.clone(),
                &self.iter,
                self.config.validate_terms,
            ) {
                reset_scratch(pool, &self.iter, window.len());
                return Err(e);
            }
            stats.inspector = t0.elapsed();

            // Per-block executor and, in the same region, postprocessing:
            // the copy-back carries the cross-block dependencies.
            let oracle = InspectedWriter::new(&self.iter, window.clone());
            self.scratch.run(
                pool,
                Region {
                    loop_,
                    claims: &ByWriter { oracle: &oracle },
                    slots: lo..hi,
                    window: window.clone(),
                    y: &mut *y,
                    post: Post {
                        map: Some(&self.iter),
                    },
                    grain: Some(1),
                },
                Flags,
                &mut stats,
                None,
            );
            stats.total = stats.inspector + stats.executor + stats.post;
            total.absorb(&stats);
        }
        total.total = t_start.elapsed();
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{AccessPattern, IndirectLoop};
    use crate::seq::run_sequential;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn mixed_loop(n: usize) -> IndirectLoop {
        let dl = n + 8;
        let a: Vec<usize> = (0..n).map(|i| i + 3).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i, (i + 5) % dl, i + 3]).collect();
        let coeff = vec![vec![0.5, 0.25, 0.125]; n];
        IndirectLoop::new(dl, a, rhs, coeff).unwrap()
    }

    #[test]
    fn blocked_matches_sequential_for_many_block_sizes() {
        let l = mixed_loop(200);
        let y0: Vec<f64> = (0..l.data_len()).map(|e| 1.0 + (e % 5) as f64).collect();
        let mut oracle = y0.clone();
        run_sequential(&l, &mut oracle);
        for bs in [1usize, 2, 7, 32, 200, 1000] {
            let mut rt = Doacross::new(0);
            let mut y = y0.clone();
            let stats = rt.run_blocked(&pool(), &l, &mut y, bs).unwrap();
            assert_eq!(y, oracle, "block_size={bs}");
            assert_eq!(stats.blocks, 200usize.div_ceil(bs));
            assert_eq!(stats.iterations, 200);
        }
    }

    #[test]
    fn blocked_agrees_with_flat_runtime() {
        let l = mixed_loop(150);
        let y0 = vec![2.0; l.data_len()];
        let mut y_flat = y0.clone();
        Doacross::for_loop(&l)
            .run(&pool(), &l, &mut y_flat)
            .unwrap();
        let mut y_blocked = y0;
        Doacross::new(0)
            .run_blocked(&pool(), &l, &mut y_blocked, 16)
            .unwrap();
        assert_eq!(y_flat, y_blocked);
    }

    #[test]
    fn scratch_is_window_sized_not_data_sized() {
        // lhs(i) = i + 3 -> a block of 16 iterations has a window of 16
        // elements, regardless of the data space (the §2.3 memory claim).
        let l = mixed_loop(160);
        let mut rt = Doacross::new(0);
        let mut y = vec![0.0; l.data_len()];
        rt.run_blocked(&pool(), &l, &mut y, 16).unwrap();
        assert_eq!(rt.data_len(), 16);
        assert!(rt.data_len() < l.data_len());
    }

    #[test]
    fn zero_block_size_is_rejected() {
        let l = mixed_loop(4);
        let mut y = vec![0.0; l.data_len()];
        assert_eq!(
            Doacross::new(0)
                .run_blocked(&pool(), &l, &mut y, 0)
                .unwrap_err(),
            DoacrossError::EmptyBlock
        );
    }

    #[test]
    fn cross_block_duplicate_lhs_is_allowed() {
        // Element 0 is written by iterations 0 and 2. Flat runtime rejects
        // this; with block_size 1 the blocks serialize and sequential
        // semantics hold.
        let l = IndirectLoop::new(
            2,
            vec![0, 0],
            vec![vec![1], vec![1]],
            vec![vec![1.0], vec![2.0]],
        )
        .unwrap();
        let mut rt = Doacross::for_loop(&l);
        let mut y = vec![0.0, 3.0];
        assert!(matches!(
            rt.run(&pool(), &l, &mut y),
            Err(DoacrossError::OutputDependency { element: 0 })
        ));
        // The same runtime, strip-mined: the failed flat run left it usable.
        let mut y2 = vec![0.0, 3.0];
        rt.run_blocked(&pool(), &l, &mut y2, 1).unwrap();
        let mut oracle = vec![0.0, 3.0];
        run_sequential(&l, &mut oracle);
        assert_eq!(y2, oracle);
    }

    #[test]
    fn within_block_duplicate_lhs_is_still_rejected() {
        let l =
            IndirectLoop::new(2, vec![0, 0], vec![vec![], vec![]], vec![vec![], vec![]]).unwrap();
        let mut blocked = Doacross::new(0);
        let mut y = vec![0.0, 0.0];
        assert!(matches!(
            blocked.run_blocked(&pool(), &l, &mut y, 2),
            Err(DoacrossError::OutputDependency { element: 0 })
        ));
        assert!(blocked.scratch_is_clean(), "error path restores invariant");
    }

    #[test]
    fn cross_block_true_dependencies_flow_through_y() {
        // Chain y[i+1] += y[i] with tiny blocks: every dependency crosses a
        // block boundary and must be satisfied via copy-back.
        let n = 64;
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let l = IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
        let mut y = vec![1.0; n + 1];
        Doacross::new(0)
            .run_blocked(&pool(), &l, &mut y, 4)
            .unwrap();
        // y[k] = y[k] + y[k-1] resolves to k + 1 with all-ones input.
        for (k, v) in y.iter().enumerate() {
            assert_eq!(*v, (k + 1) as f64, "y[{k}]");
        }
    }

    #[test]
    fn stats_aggregate_across_blocks() {
        let l = mixed_loop(100);
        let mut rt = Doacross::new(0);
        let mut y = vec![1.0; l.data_len()];
        let stats = rt.run_blocked(&pool(), &l, &mut y, 10).unwrap();
        assert_eq!(stats.blocks, 10);
        assert_eq!(stats.iterations, 100);
        assert_eq!(stats.deps.total(), 300, "3 terms x 100 iterations");
    }

    #[test]
    fn default_window_pattern_still_works() {
        // A pattern that does not override block_window falls back to the
        // full data space: correctness must be unaffected.
        struct NoWindow(IndirectLoop);
        impl AccessPattern for NoWindow {
            fn iterations(&self) -> usize {
                self.0.iterations()
            }
            fn data_len(&self) -> usize {
                self.0.data_len()
            }
            fn lhs(&self, i: usize) -> usize {
                self.0.lhs(i)
            }
            fn terms(&self, i: usize) -> usize {
                self.0.terms(i)
            }
            fn term_element(&self, i: usize, j: usize) -> usize {
                self.0.term_element(i, j)
            }
            // block_window: default (whole data space)
        }
        impl crate::pattern::DoacrossLoop for NoWindow {
            fn init(&self, i: usize, old: f64) -> f64 {
                self.0.init(i, old)
            }
            fn combine(&self, i: usize, j: usize, acc: f64, v: f64) -> f64 {
                self.0.combine(i, j, acc, v)
            }
        }
        let inner = mixed_loop(60);
        let mut oracle = vec![1.0; inner.data_len()];
        run_sequential(&inner, &mut oracle);
        let wrapped = NoWindow(mixed_loop(60));
        let mut y = vec![1.0; wrapped.data_len()];
        let mut rt = Doacross::new(0);
        rt.run_blocked(&pool(), &wrapped, &mut y, 8).unwrap();
        assert_eq!(y, oracle);
        assert_eq!(rt.data_len(), wrapped.data_len());
    }
}
