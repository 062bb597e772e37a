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
//! [`LinearDoacross`] is the [`crate::Doacross`] counterpart for this case:
//! it owns only `ready` and `ynew`, answers the executor's writer queries
//! arithmetically via [`LinearWriter`], and optionally verifies at run time
//! that the loop's `lhs` really is the declared linear function.

use crate::error::DoacrossError;
use crate::flags::ReadyFlags;
use crate::inspector::ErrorSlot;
use crate::oracle::{LinearWriter, WriterOracle};
use crate::pattern::DoacrossLoop;
use crate::runtime::{exec_and_post, DoacrossConfig};
use crate::stats::{RunStats, StatsSink};
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

/// Preprocessed doacross without preprocessing: the linear-subscript
/// runtime of §2.3. Owns `ready` flags and the shadow array only —
/// the memory the paper saves is exactly the `iter` array.
///
/// ```
/// use doacross_core::{seq::run_sequential, LinearDoacross, LinearSubscript, TestLoop};
/// use doacross_par::ThreadPool;
///
/// // Figure 4's a(i) = 2i is linear, so no inspector is needed.
/// let loop_ = TestLoop::new(200, 2, 6);
/// let pool = ThreadPool::new(2);
/// let mut y = loop_.initial_y();
/// let mut oracle = y.clone();
///
/// let mut rt = LinearDoacross::new(y.len());
/// let stats = rt.run(&pool, &loop_, loop_.linear_subscript(), &mut y).unwrap();
/// run_sequential(&loop_, &mut oracle);
/// assert_eq!(y, oracle);
/// ```
#[derive(Debug)]
pub struct LinearDoacross {
    config: DoacrossConfig,
    data_len: usize,
    ready: ReadyFlags,
    ynew: Vec<f64>,
    /// Per-worker counter cells, reused across runs (grow-don't-shrink +
    /// reset after drain) so a warm solve allocates nothing.
    sink: StatsSink,
}

impl LinearDoacross {
    /// Runtime covering `data_len` elements with default configuration.
    pub fn new(data_len: usize) -> Self {
        Self::with_config(data_len, DoacrossConfig::default())
    }

    /// Runtime with explicit configuration. `validate_terms` here controls
    /// the whole validation pass (there is no inspector to piggyback on):
    /// when `true`, a parallel pre-pass checks that `lhs(i) == c·i + d` and
    /// that all subscripts are in bounds.
    pub fn with_config(data_len: usize, config: DoacrossConfig) -> Self {
        Self {
            config,
            data_len,
            ready: ReadyFlags::new(data_len),
            ynew: vec![0.0; data_len],
            sink: StatsSink::new(0),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &DoacrossConfig {
        &self.config
    }

    /// Mutable configuration.
    pub fn config_mut(&mut self) -> &mut DoacrossConfig {
        &mut self.config
    }

    /// Size of the data space the scratch arrays cover.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Grows the scratch to cover `len` elements.
    pub fn ensure_data_len(&mut self, len: usize) {
        if len > self.data_len {
            self.data_len = len;
            self.ready = ReadyFlags::new(len);
            self.ynew = vec![0.0; len];
        }
    }

    /// Whether the `ready` flags satisfy the reuse invariant.
    pub fn scratch_is_clean(&self) -> bool {
        self.ready.all_clear()
    }

    /// The shadow array `ynew` (results live here at written elements
    /// after a run with `copy_back = false`).
    pub fn shadow(&self) -> &[f64] {
        &self.ynew
    }

    /// Runs the loop under the declared subscript, updating `y` in place.
    ///
    /// The `inspector` field of the returned stats holds the validation
    /// pass's time (zero when `validate_terms` is off — the paper's
    /// "eliminated preprocessing").
    pub fn run<L: DoacrossLoop + ?Sized>(
        &mut self,
        pool: &ThreadPool,
        loop_: &L,
        subscript: LinearSubscript,
        y: &mut [f64],
    ) -> Result<RunStats, DoacrossError> {
        self.run_with_order(pool, loop_, subscript, y, None)
    }

    /// Like [`LinearDoacross::run`], but claims iterations in the supplied
    /// doconsider order (must be a permutation and a topological order of
    /// the true dependencies; both are checked, the latter only in
    /// full-validation mode).
    pub fn run_with_order<L: DoacrossLoop + ?Sized>(
        &mut self,
        pool: &ThreadPool,
        loop_: &L,
        subscript: LinearSubscript,
        y: &mut [f64],
        order: Option<&[usize]>,
    ) -> Result<RunStats, DoacrossError> {
        let data_len = loop_.data_len();
        if y.len() != data_len {
            return Err(DoacrossError::DataLenMismatch {
                got: y.len(),
                expected: data_len,
            });
        }
        self.ensure_data_len(data_len);
        let n = loop_.iterations();
        let schedule = self.config.schedule;
        let mut stats = RunStats {
            iterations: n,
            workers: pool.threads(),
            blocks: 1,
            ..Default::default()
        };
        let t_start = Instant::now();

        // Optional validation pass (replaces the inspector).
        let t0 = Instant::now();
        if self.config.validate_terms {
            let mismatch = ErrorSlot::new();
            let oob = ErrorSlot::new();
            parallel_for(pool, n, schedule, |i| {
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
            stats.inspector = t0.elapsed();
        }

        // Validate the claim order against the arithmetic writer oracle.
        if let Some(ord) = order {
            if ord.len() != n {
                return Err(DoacrossError::OrderLengthMismatch {
                    got: ord.len(),
                    expected: n,
                });
            }
            let mut position = vec![usize::MAX; n];
            for (k, &i) in ord.iter().enumerate() {
                if i >= n || position[i] != usize::MAX {
                    return Err(DoacrossError::OrderNotPermutation { entry: i });
                }
                position[i] = k;
            }
            if self.config.validate_terms {
                let oracle = LinearWriter::new(subscript.c, subscript.d, n);
                let violation = ErrorSlot::new();
                let position = &position[..];
                parallel_for(pool, n, schedule, |i| {
                    for j in 0..loop_.terms(i) {
                        let w = oracle.writer(loop_.term_element(i, j));
                        if w != crate::flags::MAXINT && (w as usize) < i {
                            let w = w as usize;
                            if position[w] > position[i] {
                                violation.try_set(i, w);
                            }
                        }
                    }
                });
                if let Some((reader, writer)) = violation.get() {
                    return Err(DoacrossError::OrderNotTopological { reader, writer });
                }
            }
        }

        // Executor with the arithmetic writer oracle, then — in the same
        // region — copy-back unless the caller reads results from the
        // shadow array (no `iter` to clear).
        self.sink.ensure_workers(pool.threads());
        let oracle = LinearWriter::new(subscript.c, subscript.d, n);
        exec_and_post(
            pool,
            &self.config,
            loop_,
            y,
            &mut self.ynew,
            &mut self.ready,
            &oracle,
            order,
            None,
            &self.sink,
            &mut stats,
            None,
        );
        stats.total = t_start.elapsed();
        debug_assert!(self.scratch_is_clean());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{AccessPattern, IndirectLoop};
    use crate::runtime::Doacross;
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
        let mut lin = LinearDoacross::new(l.data_len());
        lin.run(&pool(), &l, sub, &mut y_lin).unwrap();
        assert_eq!(y_lin, oracle);

        let mut y_insp = y0;
        let mut insp = Doacross::for_loop(&l);
        insp.run(&pool(), &l, &mut y_insp).unwrap();
        assert_eq!(y_insp, oracle, "linear and inspected paths must agree");
    }

    #[test]
    fn mismatched_subscript_is_rejected() {
        let (l, _) = strided_loop(10);
        let mut lin = LinearDoacross::new(l.data_len());
        let mut y = vec![0.0; l.data_len()];
        let err = lin
            .run(&pool(), &l, LinearSubscript::new(2, 0), &mut y)
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
            ..Default::default()
        };
        let mut lin = LinearDoacross::with_config(l.data_len(), cfg);
        let mut y = vec![1.0; l.data_len()];
        let mut oracle = y.clone();
        let stats = lin.run(&pool(), &l, sub, &mut y).unwrap();
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
        let mut lin = LinearDoacross::new(n);
        let stats = lin
            .run(&pool(), &l, LinearSubscript::new(1, 0), &mut y)
            .unwrap();
        assert_eq!(y, oracle);
        // Iteration 0 reads element 0 -> intra; the rest are true deps.
        assert_eq!(stats.deps.intra, 1);
        assert_eq!(stats.deps.true_deps, (n - 1) as u64);
    }

    #[test]
    fn runtime_reuse_and_data_len_checks() {
        let (l, sub) = strided_loop(20);
        let mut lin = LinearDoacross::new(l.data_len());
        let mut wrong = vec![0.0; 3];
        assert!(matches!(
            lin.run(&pool(), &l, sub, &mut wrong),
            Err(DoacrossError::DataLenMismatch { .. })
        ));
        let mut y = vec![1.0; l.data_len()];
        for _ in 0..3 {
            lin.run(&pool(), &l, sub, &mut y).unwrap();
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
