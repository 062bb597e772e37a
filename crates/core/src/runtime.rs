//! [`Doacross`]: the preprocessed-doacross runtime — the one execution
//! core behind every way of running a loop.
//!
//! Owns the reusable scratch state — the `iter` writer map, the region
//! scratch of the one driver ([`crate::executor`]: the shadow array
//! `ynew`, the `ready` flags, the per-level cells and the per-worker
//! counter cells) and the claim-order buffer — and runs the three phases
//! (inspector → executor → postprocessor) over any [`DoacrossLoop`].
//! Reuse across many loop instances is the point of the paper's
//! postprocessing phase: "In order to limit the cost of
//! initialization and the use of memory associated with this implementation
//! of the doacross construct, we reuse the same arrays iter and ready for
//! multiple preprocessed doacross loops" (§2.1). Here that covers every
//! variant too: one scratch, grown to the largest loop seen and never
//! shrunk, serves the entry points
//!
//! * [`Doacross::run`] / [`Doacross::run_with_order`] — inspector inline;
//! * [`Doacross::run_planned`] — a prebuilt claim stream, no inspector and
//!   no writer map: under ready flags, or level by level when the stream
//!   carries level offsets;
//! * [`Doacross::run_linear`] — §2.3's `a(i) = c·i + d`, no writer map;
//! * [`Doacross::run_blocked`] — §2.3's strip-mined loop, windowed scratch;
//!
//! and after warm-up none of them allocates.

use crate::error::DoacrossError;
use crate::executor::{Flags, Levels, Region, Scratch};
use crate::flags::{IterMap, ReadyFlags, MAXINT};
use crate::inspector::{reset_scratch, run_inspector, ErrorSlot};
use crate::oracle::{ByWriter, InspectedWriter, WriterOracle};
use crate::pattern::{AccessPattern, DoacrossLoop};
use crate::post::Post;
use crate::stats::{PlanProvenance, RunStats};
use crate::wavefront::{check_stream, ClaimStream};
use doacross_obs::profile::ProfArena;
use doacross_par::{parallel_for, ThreadPool, WaitStrategy};
use std::time::Instant;

/// Tunables of a doacross run.
#[derive(Debug, Clone, Copy)]
pub struct DoacrossConfig {
    /// Busy-wait policy for true-dependency stalls and level gates.
    /// Default: spin-then-yield, which is safe under oversubscription.
    pub wait: WaitStrategy,
    /// When set (default), the inspector also bounds-checks every
    /// right-hand-side subscript and reports
    /// [`DoacrossError::SubscriptOutOfBounds`] instead of relying on the
    /// executor's asserts, claim orders are checked to be topological, and
    /// [`Doacross::run_linear`] — which has no inspector to piggyback on —
    /// runs a pre-pass checking `lhs(i) == c·i + d`. Disable to measure the
    /// paper-faithful cost (one store per iteration; no preprocessing at
    /// all for a linear subscript).
    pub validate_terms: bool,
}

impl Default for DoacrossConfig {
    fn default() -> Self {
        Self {
            wait: WaitStrategy::default(),
            validate_terms: true,
        }
    }
}

/// Reusable preprocessed-doacross runtime (see module docs).
///
/// ```
/// use doacross_core::{Doacross, IndirectLoop};
/// use doacross_par::ThreadPool;
///
/// // Two loop instances sharing one runtime's scratch arrays.
/// let l1 = IndirectLoop::new(4, vec![1, 2], vec![vec![0], vec![1]],
///                            vec![vec![1.0], vec![1.0]]).unwrap();
/// let l2 = IndirectLoop::new(4, vec![3], vec![vec![2]], vec![vec![2.0]]).unwrap();
/// let pool = ThreadPool::new(2);
/// let mut y = vec![1.0, 0.0, 0.0, 0.0];
/// let mut rt = Doacross::for_loop(&l1);
/// rt.run(&pool, &l1, &mut y).unwrap(); // y[1] += y[0]; y[2] += y[1]
/// rt.run(&pool, &l2, &mut y).unwrap(); // y[3] += 2*y[2]
/// assert_eq!(y, vec![1.0, 1.0, 1.0, 2.0]);
/// ```
#[derive(Debug)]
pub struct Doacross {
    pub(crate) config: DoacrossConfig,
    /// Writer map. Only the entry points that inspect grow it
    /// ([`Doacross::ensure_iter`]), so a runtime that only executes
    /// prebuilt plans never carries one.
    pub(crate) iter: IterMap,
    /// The region driver's scratch, its `ynew` and `ready` covering
    /// [`Doacross::data_len`] elements.
    pub(crate) scratch: Scratch,
    /// Claim-order validation scratch of the entry points that take a
    /// caller's order (`position[i]` = slot that claims iteration `i`),
    /// reused across runs for the same reason.
    pub(crate) position: Vec<usize>,
}

impl Doacross {
    /// Creates a runtime whose scratch arrays cover a data space of
    /// `data_len` elements.
    pub fn new(data_len: usize) -> Self {
        Self::with_config(data_len, DoacrossConfig::default())
    }

    /// Creates a runtime sized for `pattern`'s data space.
    pub fn for_loop<P: AccessPattern + ?Sized>(pattern: &P) -> Self {
        Self::new(pattern.data_len())
    }

    /// Creates a runtime with explicit configuration.
    pub fn with_config(data_len: usize, config: DoacrossConfig) -> Self {
        Self {
            config,
            iter: IterMap::new(0),
            scratch: Scratch::new(data_len),
            position: Vec::new(),
        }
    }

    /// Mutable configuration (e.g. to switch wait strategies between runs).
    pub fn config_mut(&mut self) -> &mut DoacrossConfig {
        &mut self.config
    }

    /// Elements the scratch arrays cover: the largest data space a flat run
    /// has seen, or the largest block window of a strip-mined one — the
    /// §2.3 memory footprint.
    pub fn data_len(&self) -> usize {
        self.scratch.ynew.len()
    }

    /// Grows the scratch arrays to cover `len` elements (no-op if already
    /// large enough). Newly added entries satisfy the reuse invariant.
    pub fn ensure_data_len(&mut self, len: usize) {
        if len > self.data_len() {
            self.scratch.ready = ReadyFlags::new(len);
            self.scratch.ynew = vec![0.0; len];
        }
    }

    /// Grows the writer map to `len` entries, all `MAXINT`.
    pub(crate) fn ensure_iter(&mut self, len: usize) {
        if len > self.iter.len() {
            self.iter = IterMap::new(len);
        }
    }

    /// Whether the scratch arrays satisfy the between-runs reuse invariant
    /// (`iter` all `MAXINT`, `ready` all `NOTDONE`). O(data_len); intended
    /// for tests.
    pub fn scratch_is_clean(&self) -> bool {
        self.iter.all_clear() && self.scratch.ready.all_clear()
    }

    /// Runs the full preprocessed doacross (inspector → executor →
    /// postprocessor) for `loop_`, updating `y` in place exactly as the
    /// sequential source loop would.
    ///
    /// On success the scratch arrays are restored to the reuse invariant;
    /// on error they are reset wholesale before returning, so the runtime
    /// stays usable either way.
    pub fn run<L: DoacrossLoop + ?Sized>(
        &mut self,
        pool: &ThreadPool,
        loop_: &L,
        y: &mut [f64],
    ) -> Result<RunStats, DoacrossError> {
        self.run_with_order(pool, loop_, y, None)
    }

    /// Like [`Doacross::run`], but claims iterations in the supplied order
    /// — the doconsider "rearranged iterations" mechanism of §3.2. The
    /// order must be a permutation of `0..iterations` that is topologically
    /// consistent with the loop's true dependencies; both properties are
    /// verified (the topological check only in full-validation mode, since
    /// it costs a pass over all references).
    ///
    /// Semantics are identical to the unordered run — the paper's point is
    /// that reordering "leaves the inter-iteration dependencies unchanged
    /// but reduces the effects of these dependencies on performance".
    pub fn run_with_order<L: DoacrossLoop + ?Sized>(
        &mut self,
        pool: &ThreadPool,
        loop_: &L,
        y: &mut [f64],
        order: Option<&[usize]>,
    ) -> Result<RunStats, DoacrossError> {
        let data_len = check_y_len(loop_, y)?;
        self.ensure_data_len(data_len);
        self.ensure_iter(data_len);
        let n = loop_.iterations();
        debug_assert!(self.scratch_is_clean(), "reuse invariant violated on entry");

        let mut stats = region_stats(pool, n, PlanProvenance::Inline);
        let t_start = Instant::now();

        // Phase 1: inspector (Figure 3, left), then the claim order, if one
        // was supplied: the inspector has already filled `iter`, so the
        // topological check is a lookup per reference.
        let oracle = InspectedWriter::new(&self.iter, 0..data_len);
        let inspected = run_inspector(
            pool,
            loop_,
            0..n,
            0..data_len,
            &self.iter,
            self.config.validate_terms,
        )
        .and_then(|()| {
            stats.inspector = t_start.elapsed();
            order.map_or(Ok(()), |ord| {
                validate_order(&self.config, &mut self.position, pool, loop_, ord, &oracle)
            })
        });
        if let Err(e) = inspected {
            reset_scratch(pool, &self.iter, data_len);
            return Err(e);
        }

        // Phases 2 + 3: executor (Figure 5), then postprocessor (Figure 3,
        // right) — the post pass clears this run's `iter` entries to
        // restore the reuse invariant.
        self.scratch.run(
            pool,
            self.config.wait,
            Region {
                loop_,
                claims: &ByWriter {
                    oracle: &oracle,
                    order,
                },
                slots: 0..n,
                window: 0..data_len,
                y,
                post: Post {
                    map: Some(&self.iter),
                },
                grain: Some(1),
            },
            Flags,
            &mut stats,
            None,
        );
        stats.total = t_start.elapsed();
        debug_assert!(self.scratch_is_clean(), "reuse invariant violated on exit");
        Ok(stats)
    }

    /// Runs the executor and postprocessor phases against a prebuilt
    /// [`ClaimStream`], skipping the inspector entirely — the paper's
    /// inspect-once / execute-many amortization made concrete. Claims
    /// follow the stream's order (natural when it has none) and every
    /// operand class is read from the stream; no writer map exists.
    ///
    /// The stream picks the gate. Without level offsets a true dependence
    /// waits on its element's ready flag (Figure 5). With them the loop
    /// runs as a sequence of level doalls in the same region, each entered
    /// once the previous level's completion count is full: the stats then
    /// report zero `stalls` and zero `wait_polls` by construction and
    /// `barrier_crossings` = levels − 1, and no flag is raised.
    ///
    /// `stream` must have been built for this loop's access pattern. The
    /// iteration count and every claim's reference count are checked here
    /// ([`DoacrossError::PlanMismatch`] /
    /// [`DoacrossError::ScheduleTermsMismatch`], before dispatch, `y`
    /// untouched); *content* equality is the caller's contract — the
    /// `doacross-plan` crate enforces it with structural fingerprints, and
    /// `doacross-verify` proves the stream's order topological, its levels
    /// independent and its classes right, once, when the plan is built or
    /// loaded. The stream is only read, so it serves arbitrarily many runs.
    ///
    /// `grain` is the claim-slot count per counter grab: `Some(c)` on
    /// every level ([`crate::wavefront::claim_grain`] derives `c` from what
    /// a plan knows; 1 is the paper's policy), `None` derived from each
    /// level's width.
    ///
    /// With `prof` set, per-worker profiling spans (work per level, level
    /// boundary waits and true-dependency flag waits) are deposited there;
    /// `None` costs one branch per would-be span site and reads no clock.
    ///
    /// The returned stats report `inspector == Duration::ZERO`, `deps`
    /// stamped from the stream's [`ClaimStream::class_counts`] and
    /// [`PlanProvenance::PlanCold`]; plan caches overwrite the provenance
    /// with [`PlanProvenance::PlanCached`] on hits.
    ///
    /// ```
    /// use doacross_core::{ClaimStream, Doacross, IndirectLoop};
    /// use doacross_core::seq::run_sequential;
    /// use doacross_par::ThreadPool;
    ///
    /// // y[i+1] += y[i]: a chain — levels are the iterations themselves.
    /// let n = 64;
    /// let a: Vec<usize> = (1..=n).collect();
    /// let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    /// let loop_ = IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
    ///
    /// // Level assignment for the chain: level(i) = i + 1; every reference is
    /// // a true dependency except iteration 0's read of the unwritten y[0].
    /// let levels: Vec<usize> = (1..=n).collect();
    /// let term_offsets: Vec<usize> = (0..=n).collect();
    /// let mut classes = vec![0u8; n];
    /// classes[0] = 1;
    /// let stream = ClaimStream::from_levels(&levels, n, &term_offsets, classes).unwrap();
    ///
    /// let pool = ThreadPool::new(2);
    /// let mut rt = Doacross::new(n + 1);
    /// let mut y = vec![1.0; n + 1];
    /// let mut oracle = y.clone();
    /// let stats = rt.run_planned(&pool, &loop_, &mut y, &stream, None, None).unwrap();
    /// run_sequential(&loop_, &mut oracle);
    /// assert_eq!(y, oracle);
    /// assert_eq!(stats.wait_polls, 0, "no busy waiting, ever");
    /// assert_eq!(stats.barrier_crossings, 63);
    /// ```
    pub fn run_planned<L: DoacrossLoop + ?Sized>(
        &mut self,
        pool: &ThreadPool,
        loop_: &L,
        y: &mut [f64],
        stream: &ClaimStream,
        grain: Option<usize>,
        prof: Option<&ProfArena>,
    ) -> Result<RunStats, DoacrossError> {
        let data_len = check_stream(loop_, y, stream)?;
        self.ensure_data_len(data_len);
        let n = loop_.iterations();
        debug_assert!(self.scratch_is_clean(), "reuse invariant violated on entry");

        let mut stats = region_stats(pool, n, PlanProvenance::PlanCold);
        let t_start = Instant::now();

        // Executor + postprocessor; `map: None` — there is no map to clear.
        let region = Region {
            loop_,
            claims: stream,
            slots: 0..n,
            window: 0..data_len,
            y,
            post: Post { map: None },
            grain,
        };
        let (scratch, wait) = (&mut self.scratch, self.config.wait);
        match stream.level_offsets() {
            Some(levels) => scratch.run(pool, wait, region, Levels(levels), &mut stats, prof),
            None => scratch.run(pool, wait, region, Flags, &mut stats, prof),
        }
        stats.deps = stream.class_counts();
        stats.total = t_start.elapsed();
        debug_assert!(self.scratch_is_clean(), "reuse invariant violated on exit");
        Ok(stats)
    }
}

/// Rejects a `y` that does not cover the loop's data space; returns the
/// data-space size otherwise.
pub(crate) fn check_y_len<P: AccessPattern + ?Sized>(
    pattern: &P,
    y: &[f64],
) -> Result<usize, DoacrossError> {
    let expected = pattern.data_len();
    if y.len() != expected {
        return Err(DoacrossError::DataLenMismatch {
            got: y.len(),
            expected,
        });
    }
    Ok(expected)
}

/// The stats of a one-block region of `iterations` iterations, before any
/// phase has run.
pub(crate) fn region_stats(
    pool: &ThreadPool,
    iterations: usize,
    provenance: PlanProvenance,
) -> RunStats {
    RunStats {
        iterations,
        workers: pool.threads(),
        blocks: 1,
        provenance,
        ..Default::default()
    }
}

/// Checks that `order` is a permutation of `0..n` and — in
/// full-validation mode — that no true dependency's writer is claimed
/// after its reader, as `oracle` (the runtime's own scratch map or a
/// linear subscript's arithmetic) names the writers. Only the entry points
/// that take a caller's order come through here; a plan's order is
/// validated once, at [`ClaimStream::from_parts`]. `position` is the
/// caller's reusable scratch.
pub(crate) fn validate_order<L: DoacrossLoop + ?Sized, W: WriterOracle>(
    config: &DoacrossConfig,
    position: &mut Vec<usize>,
    pool: &ThreadPool,
    loop_: &L,
    order: &[usize],
    oracle: &W,
) -> Result<(), DoacrossError> {
    let n = loop_.iterations();
    if order.len() != n {
        return Err(DoacrossError::OrderLengthMismatch {
            got: order.len(),
            expected: n,
        });
    }
    position.clear();
    position.resize(n, usize::MAX);
    for (k, &i) in order.iter().enumerate() {
        if i >= n || position[i] != usize::MAX {
            return Err(DoacrossError::OrderNotPermutation { entry: i });
        }
        position[i] = k;
    }
    if config.validate_terms {
        let violation = ErrorSlot::new();
        let position = &position[..];
        parallel_for(pool, n, 1, |i| {
            for j in 0..loop_.terms(i) {
                let w = oracle.writer(loop_.term_element(i, j));
                if w != MAXINT && (w as usize) < i {
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IndirectLoop;
    use crate::seq::run_sequential;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn chain_loop(n: usize) -> IndirectLoop {
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap()
    }

    #[test]
    fn end_to_end_matches_sequential() {
        let l = chain_loop(200);
        let mut y = vec![1.0; 201];
        let mut oracle = y.clone();
        let mut rt = Doacross::for_loop(&l);
        let stats = rt.run(&pool(), &l, &mut y).unwrap();
        run_sequential(&l, &mut oracle);
        assert_eq!(y, oracle);
        assert_eq!(stats.iterations, 200);
        assert_eq!(stats.blocks, 1);
        assert!(rt.scratch_is_clean());
    }

    #[test]
    fn runtime_is_reusable_across_loops() {
        let l = chain_loop(64);
        let mut rt = Doacross::for_loop(&l);
        let p = pool();
        let mut y_expect = vec![1.0; 65];
        let mut y = vec![1.0; 65];
        for _ in 0..5 {
            rt.run(&p, &l, &mut y).unwrap();
            run_sequential(&l, &mut y_expect);
            assert_eq!(y, y_expect);
            assert!(rt.scratch_is_clean());
        }
    }

    #[test]
    fn output_dependency_is_reported_and_scratch_restored() {
        let l =
            IndirectLoop::new(4, vec![2, 2], vec![vec![], vec![]], vec![vec![], vec![]]).unwrap();
        let mut rt = Doacross::for_loop(&l);
        let mut y = vec![0.0; 4];
        let err = rt.run(&pool(), &l, &mut y).unwrap_err();
        assert_eq!(err, DoacrossError::OutputDependency { element: 2 });
        assert!(rt.scratch_is_clean(), "error path must restore invariant");
        // Runtime remains usable.
        let ok = chain_loop(3);
        let mut y2 = vec![1.0; 4];
        rt.run(&pool(), &ok, &mut y2).unwrap();
    }

    #[test]
    fn data_len_mismatch_is_rejected() {
        let l = chain_loop(4);
        let mut rt = Doacross::for_loop(&l);
        let mut y = vec![0.0; 3];
        let err = rt.run(&pool(), &l, &mut y).unwrap_err();
        assert!(matches!(
            err,
            DoacrossError::DataLenMismatch {
                got: 3,
                expected: 5
            }
        ));
    }

    #[test]
    fn scratch_grows_on_demand() {
        let small = chain_loop(2);
        let big = chain_loop(50);
        let mut rt = Doacross::for_loop(&small);
        assert_eq!(rt.data_len(), 3);
        let p = pool();
        let mut y = vec![1.0; 51];
        rt.run(&p, &big, &mut y).unwrap();
        assert_eq!(rt.data_len(), 51);
        let mut oracle = vec![1.0; 51];
        run_sequential(&big, &mut oracle);
        assert_eq!(y, oracle);
    }

    #[test]
    fn empty_loop_succeeds() {
        let l = IndirectLoop::new(0, vec![], vec![], vec![]).unwrap();
        let mut rt = Doacross::for_loop(&l);
        let mut y: Vec<f64> = vec![];
        let stats = rt.run(&pool(), &l, &mut y).unwrap();
        assert_eq!(stats.iterations, 0);
        assert_eq!(stats.deps.total(), 0);
    }

    #[test]
    fn config_is_adjustable() {
        let l = chain_loop(32);
        let mut rt = Doacross::for_loop(&l);
        rt.config_mut().wait = WaitStrategy::Backoff { max_spin_batch: 8 };
        rt.config_mut().validate_terms = false;
        let mut y = vec![1.0; 33];
        let mut oracle = y.clone();
        rt.run(&pool(), &l, &mut y).unwrap();
        run_sequential(&l, &mut oracle);
        assert_eq!(y, oracle);
    }

    #[test]
    fn run_with_order_matches_unordered_semantics() {
        let l = chain_loop(100);
        let p = pool();
        let mut expect = vec![1.0; 101];
        run_sequential(&l, &mut expect);

        // Identity order and the natural order itself.
        let identity: Vec<usize> = (0..100).collect();
        let mut y = vec![1.0; 101];
        let mut rt = Doacross::for_loop(&l);
        rt.run_with_order(&p, &l, &mut y, Some(&identity)).unwrap();
        assert_eq!(y, expect);
    }

    #[test]
    fn reordering_independent_iterations_is_legal() {
        // Loop with no cross-iteration deps: any permutation is valid.
        let n = 64;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let l = IndirectLoop::new(n, a, rhs, vec![vec![1.0]; n]).unwrap();
        let reversed: Vec<usize> = (0..n).rev().collect();
        let mut y: Vec<f64> = (0..n).map(|e| e as f64).collect();
        let mut expect = y.clone();
        run_sequential(&l, &mut expect);
        let mut rt = Doacross::for_loop(&l);
        rt.run_with_order(&pool(), &l, &mut y, Some(&reversed))
            .unwrap();
        assert_eq!(y, expect);
    }

    #[test]
    fn non_topological_order_is_rejected() {
        // Chain: iteration i depends on i-1; reversing the order puts every
        // writer after its reader.
        let l = chain_loop(8);
        let reversed: Vec<usize> = (0..8).rev().collect();
        let mut y = vec![1.0; 9];
        let mut rt = Doacross::for_loop(&l);
        let err = rt
            .run_with_order(&pool(), &l, &mut y, Some(&reversed))
            .unwrap_err();
        assert!(matches!(err, DoacrossError::OrderNotTopological { .. }));
        assert!(rt.scratch_is_clean(), "error path restores invariant");
    }

    #[test]
    fn bad_orders_are_rejected() {
        let l = chain_loop(4);
        let mut rt = Doacross::for_loop(&l);
        let mut y = vec![1.0; 5];
        let short = vec![0usize, 1];
        assert!(matches!(
            rt.run_with_order(&pool(), &l, &mut y, Some(&short)),
            Err(DoacrossError::OrderLengthMismatch {
                got: 2,
                expected: 4
            })
        ));
        let dup = vec![0usize, 1, 1, 3];
        assert!(matches!(
            rt.run_with_order(&pool(), &l, &mut y, Some(&dup)),
            Err(DoacrossError::OrderNotPermutation { entry: 1 })
        ));
        let oor = vec![0usize, 1, 2, 9];
        assert!(matches!(
            rt.run_with_order(&pool(), &l, &mut y, Some(&oor)),
            Err(DoacrossError::OrderNotPermutation { entry: 9 })
        ));
        assert!(rt.scratch_is_clean());
        // Still usable afterwards.
        rt.run(&pool(), &l, &mut y).unwrap();
    }

    /// The chain's stream as a census would resolve it: iteration 0 reads
    /// the never-written `y[0]`, every other reference is a true
    /// dependency; claimed in `order`.
    fn chain_stream(n: usize, order: Option<&[usize]>) -> ClaimStream {
        let term_offsets: Vec<usize> = (0..=n).collect();
        let mut classes = vec![0u8; n];
        classes[0] = 1;
        ClaimStream::from_iteration_order(order, None, &term_offsets, classes)
            .expect("a consistent stream")
    }

    #[test]
    fn run_planned_matches_sequential_and_skips_inspector() {
        let l = chain_loop(150);
        let p = pool();
        let mut expect = vec![1.0; 151];
        run_sequential(&l, &mut expect);

        let stream = chain_stream(150, None);
        let mut rt = Doacross::for_loop(&l);
        // Many runs against one artifact, at every grain.
        for (round, grain) in [1usize, 4, 16].into_iter().enumerate() {
            let mut y = vec![1.0; 151];
            let stats = rt
                .run_planned(&p, &l, &mut y, &stream, Some(grain), None)
                .unwrap();
            assert_eq!(y, expect, "round {round}");
            assert_eq!(stats.inspector, std::time::Duration::ZERO);
            assert_eq!(stats.provenance, PlanProvenance::PlanCold);
            assert_eq!(stats.deps, stream.class_counts(), "stamped, not counted");
            assert_eq!(stats.deps.true_deps, 149);
            assert!(rt.scratch_is_clean(), "round {round}");
        }
        assert_eq!(rt.iter.len(), 0, "a planned run never grows a writer map");
    }

    #[test]
    fn run_planned_with_order_matches_unordered() {
        let l = chain_loop(64);
        let p = pool();
        let mut expect = vec![1.0; 65];
        run_sequential(&l, &mut expect);
        let identity: Vec<usize> = (0..64).collect();
        let stream = chain_stream(64, Some(&identity));
        let mut y = vec![1.0; 65];
        let mut rt = Doacross::for_loop(&l);
        rt.run_planned(&p, &l, &mut y, &stream, Some(1), None)
            .unwrap();
        assert_eq!(y, expect);
        // The order is the plan's and validated where the plan is built: a
        // non-permutation never becomes a stream, so no solve re-checks it.
        let mut twice = identity.clone();
        twice[5] = 4;
        let term_offsets: Vec<usize> = (0..=64).collect();
        assert!(
            ClaimStream::from_iteration_order(Some(&twice), None, &term_offsets, vec![0; 64])
                .is_none()
        );
        assert!(rt.scratch_is_clean());
    }

    #[test]
    fn run_planned_rejects_mismatched_plan() {
        let big = chain_loop(8);
        let p = pool();
        let stream = chain_stream(4, None);
        let mut rt = Doacross::for_loop(&big);
        let mut y = vec![1.0; 9];
        let err = rt
            .run_planned(&p, &big, &mut y, &stream, Some(1), None)
            .unwrap_err();
        assert!(matches!(
            err,
            DoacrossError::PlanMismatch {
                plan_iterations: 4,
                loop_iterations: 8,
                ..
            }
        ));

        // Same shape, one row longer: typed before dispatch, `y` untouched.
        let a: Vec<usize> = (1..=8).collect();
        let mut rhs: Vec<Vec<usize>> = (0..8).map(|i| vec![i]).collect();
        rhs[3].push(0);
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![1.0; r.len()]).collect();
        let longer = IndirectLoop::new(9, a, rhs, coeff).unwrap();
        let err = rt
            .run_planned(&p, &longer, &mut y, &chain_stream(8, None), Some(1), None)
            .unwrap_err();
        assert_eq!(
            err,
            DoacrossError::ScheduleTermsMismatch {
                iteration: 3,
                schedule_terms: 1,
                loop_terms: 2,
            }
        );
        assert_eq!(y, vec![1.0; 9]);
        assert!(rt.scratch_is_clean());
    }

    #[test]
    fn inline_runs_report_inline_provenance() {
        let l = chain_loop(16);
        let mut rt = Doacross::for_loop(&l);
        let mut y = vec![1.0; 17];
        let stats = rt.run(&pool(), &l, &mut y).unwrap();
        assert_eq!(stats.provenance, PlanProvenance::Inline);
    }

    #[test]
    fn stats_phases_are_populated() {
        let l = chain_loop(500);
        let mut rt = Doacross::for_loop(&l);
        let mut y = vec![1.0; 501];
        let stats = rt.run(&pool(), &l, &mut y).unwrap();
        assert!(stats.total >= stats.executor);
        // Iteration 0 reads the unwritten element 0; the rest are true deps.
        assert_eq!(stats.deps.true_deps, 499);
        assert_eq!(stats.workers, 4);
    }
}
