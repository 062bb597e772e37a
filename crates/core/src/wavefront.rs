//! The plan's one artifact — the [`ClaimStream`] — and the claim grain its
//! runs take.
//!
//! A planned run ([`Doacross::run_planned`](crate::Doacross::run_planned))
//! hands the stream to the one region driver ([`crate::executor`]). A
//! stream without level offsets runs under per-element ready flags
//! (Figure 5). A stream with them runs the doconsider wavefront:
//! iterations grouped by level (`level(i) = 1 + max(level of true-dep
//! writers)`), each level a `parallel do` over mutually independent
//! iterations, entered once the previous level's completion count is
//! full.
//!
//! ## One preprocessing product
//!
//! Every planned parallel variant — the flat doacross in natural order, the
//! doconsider-reordered one, the wavefront — runs off the same artifact,
//! captured once at plan time and laid out **in claim order**, so the
//! executor's `k`-th claim reads slot `k` of each array and its classes
//! stride-1:
//!
//! * the **claim order** (`u32`, absent = natural): slot `k` executes
//!   iteration `order[k]`. Topological over the true dependences, which is
//!   the flag gate's progress condition;
//! * per-slot reference **ends** (`u32` prefix sums) into
//! * one [`OperandClass`] byte per reference — Figure 5's three-way check
//!   `iter(off) − i`, resolved ahead of time. It replaces the `iter` map:
//!   the executor learns "new value / old value / accumulator" from a
//!   sequentially-scanned byte instead of a randomly-indexed 8-byte map
//!   entry, and because the stream knows how many of each it holds,
//!   nothing is counted per reference at run time;
//! * for the wavefront only, `u32` **level offsets** over the slots
//!   (CSR-style), which replace the `ready` flags — a true-dep operand's
//!   writer lives in a strictly earlier level, so by the time a reader
//!   runs, the value is already published and ordered by that level's
//!   completion count (the driver's memory-ordering argument).
//!
//! The order and the stream are plan-owned and immutable: validated once,
//! at [`ClaimStream::from_parts`], never per solve. What a solve does check
//! is the one thing the plan cannot know — that the loop it is handed has
//! the reference counts the stream was resolved for (one O(n) sweep before
//! dispatch, a typed [`DoacrossError::ScheduleTermsMismatch`] otherwise).
//!
//! ## When it wins
//!
//! The trade is the paper's dataflow-vs-level design space: the flat
//! doacross pays flag traffic per true dependency but synchronizes only
//! where dependencies actually bite; the wavefront pays one counter
//! hand-off per level but nothing per element. Level scheduling wins when
//! the poll/stall bill (many true dependencies, deep structures, polling
//! contention) exceeds `levels × hand-off latency`; it loses on
//! narrow-level structures where level boundaries outnumber useful work.
//! `doacross-plan`'s cost model prices exactly that crossover (its
//! `barrier` constant is the per-boundary price).

use crate::error::DoacrossError;
use crate::oracle::Claims;
use crate::pattern::DoacrossLoop;
use crate::runtime::check_y_len;
use crate::stats::DepCounts;
use std::ops::Range;

/// Where an executor resolves a right-hand-side operand from — Figure 5's
/// three-way check, decided at preprocessing time instead of per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OperandClass {
    /// True dependency on an earlier iteration (S3–S5): read the shadow
    /// array `ynew(off)`; the writer was claimed (or levelled) strictly
    /// earlier.
    NewValue = 0,
    /// Antidependency or never-written element (S6–S7): read the old value
    /// `y(off)`.
    OldValue = 1,
    /// Intra-iteration reference (S8): read the register accumulator.
    Accumulator = 2,
}

impl OperandClass {
    /// Decodes a stored class byte; `None` for values no encoder produces.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(OperandClass::NewValue),
            1 => Some(OperandClass::OldValue),
            2 => Some(OperandClass::Accumulator),
            _ => None,
        }
    }
}

/// The artifact of every planned parallel variant: claim order, per-claim
/// reference ends and the resolved operand class of every right-hand-side
/// reference — all laid out in claim order — plus the level offsets when
/// the variant is the wavefront (see the module docs).
///
/// Everything in here is a pure function of the pattern's *structure*, so
/// one stream serves every execution of every loop sharing that structure.
/// Built by `doacross_plan::CensusPass` from the writer map and level array
/// its one census scan leaves behind, and only for a plan that runs a
/// stream-backed variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimStream {
    /// Slot `k` executes iteration `order[k]` — a permutation of
    /// `0..iterations`; `None` is the natural order (slot `k` runs
    /// iteration `k`).
    order: Option<Vec<u32>>,
    /// Prefix sums of per-slot reference counts:
    /// `classes[ends[k]..ends[k + 1]]` classifies slot `k`'s references in
    /// term order (`ends[0] == 0` is the sentinel).
    ends: Vec<u32>,
    /// One [`OperandClass`] byte per reference, in (slot, term) order.
    classes: Vec<u8>,
    /// CSR level boundaries over the slots, for the wavefront: level `l`
    /// (0-based) runs slots `levels[l]..levels[l + 1]`. Strictly increasing
    /// (every level is non-empty) from 0 to `iterations`.
    levels: Option<Vec<u32>>,
    /// References per class, counted once at construction.
    counts: DepCounts,
}

impl ClaimStream {
    /// Narrows plan-time `usize` indices to the stream's `u32`s — checked,
    /// never a truncating cast: `None` as soon as one value does not fit.
    pub fn narrow(values: &[usize]) -> Option<Vec<u32>> {
        values.iter().map(|&v| u32::try_from(v).ok()).collect()
    }

    /// Counting sort of a per-iteration level assignment (`levels[i] ∈
    /// 1..=nlevels`, as the census computes it) into CSR form:
    /// `(offsets, order)` — O(n + levels), stable within a level. This is
    /// also the doconsider claim order, which is why the planner can price
    /// a reordering from it before any stream exists.
    pub fn sort_levels(levels: &[usize], nlevels: usize) -> (Vec<usize>, Vec<usize>) {
        let mut offsets = vec![0usize; nlevels + 1];
        for &l in levels {
            debug_assert!(l >= 1 && l <= nlevels, "level {l} outside 1..={nlevels}");
            offsets[l] += 1;
        }
        for l in 1..=nlevels {
            offsets[l] += offsets[l - 1];
        }
        let mut cursor = offsets.clone();
        let mut order = vec![0usize; levels.len()];
        for (i, &l) in levels.iter().enumerate() {
            order[cursor[l - 1]] = i;
            cursor[l - 1] += 1;
        }
        (offsets, order)
    }

    /// Whether a loop of this size has a stream at all: iterations,
    /// references and level count must each fit `u32`. The planner asks
    /// before pricing the stream-backed candidates.
    pub fn fits(iterations: usize, total_terms: u64, levels: usize) -> bool {
        let fits = |v: u64| u32::try_from(v).is_ok();
        fits(iterations as u64) && fits(total_terms) && fits(levels as u64)
    }

    /// A wavefront stream from a per-iteration level assignment plus the
    /// reference classification of the same pattern in *iteration* order —
    /// [`Self::sort_levels`] followed by [`Self::from_iteration_order`].
    pub fn from_levels(
        levels: &[usize],
        nlevels: usize,
        term_offsets: &[usize],
        classes: Vec<u8>,
    ) -> Option<Self> {
        let (offsets, order) = Self::sort_levels(levels, nlevels);
        Self::from_iteration_order(Some(&order), Some(&offsets), term_offsets, classes)
    }

    /// Lays a classification given in *iteration* order
    /// (`classes[term_offsets[i]..term_offsets[i + 1]]` = iteration `i`'s
    /// references) out in claim order and narrows every index to `u32`,
    /// then validates as [`Self::from_parts`] does. `order` is the claim
    /// order (`None` = natural), `level_offsets` the CSR level boundaries
    /// over it for a wavefront stream. `None` when anything does not fit
    /// `u32` or the parts are not mutually consistent.
    pub fn from_iteration_order(
        order: Option<&[usize]>,
        level_offsets: Option<&[usize]>,
        term_offsets: &[usize],
        classes: Vec<u8>,
    ) -> Option<Self> {
        let (order, ends, classes) = match order {
            None => (None, Self::narrow(term_offsets)?, classes),
            Some(order) => {
                if order.len() + 1 != term_offsets.len() {
                    return None;
                }
                let mut ends = Vec::with_capacity(order.len() + 1);
                let mut sorted = Vec::with_capacity(classes.len());
                ends.push(0u32);
                for &i in order {
                    let row = *term_offsets.get(i)?..*term_offsets.get(i.checked_add(1)?)?;
                    sorted.extend_from_slice(classes.get(row)?);
                    ends.push(u32::try_from(sorted.len()).ok()?);
                }
                (Some(Self::narrow(order)?), ends, sorted)
            }
        };
        let levels = match level_offsets {
            None => None,
            Some(offsets) => Some(Self::narrow(offsets)?),
        };
        Self::from_parts(order, ends, classes, levels)
    }

    /// Assembles a stream from its raw, claim-ordered parts — the one
    /// constructor, so also the deserialization path for persisted plans.
    /// Returns `None` unless the parts are mutually consistent: `ends`
    /// monotone from its 0 sentinel to exactly `classes.len()`, `order` (if
    /// any) a permutation of the `ends.len() − 1` iterations, `levels` (if
    /// any) strictly increasing from 0 to the iteration count, every class
    /// byte a valid [`OperandClass`], and every count within `u32` — a blob
    /// that no census pass could have produced is rejected rather than
    /// trusted. This is where the claim order is validated; no solve
    /// re-checks it.
    pub fn from_parts(
        order: Option<Vec<u32>>,
        ends: Vec<u32>,
        classes: Vec<u8>,
        levels: Option<Vec<u32>>,
    ) -> Option<Self> {
        let n = ends.len().checked_sub(1)?;
        let n32 = u32::try_from(n).ok()?;
        if ends[0] != 0
            || u32::try_from(classes.len()).ok() != ends.last().copied()
            || !ends.windows(2).all(|w| w[0] <= w[1])
        {
            return None;
        }
        if let Some(order) = &order {
            if order.len() != n {
                return None;
            }
            let mut seen = vec![false; n];
            for &i in order {
                if i >= n32 || std::mem::replace(&mut seen[i as usize], true) {
                    return None;
                }
            }
        }
        if let Some(levels) = &levels {
            if levels.first() != Some(&0)
                || levels.last() != Some(&n32)
                || !levels.windows(2).all(|w| w[0] < w[1])
            {
                return None;
            }
        }
        // Counted in byte lanes over short chunks (no lane can overflow),
        // which the compiler turns into SIMD compares — some twenty times
        // faster here than bumping a counter array through memory. A byte
        // that is none of the three classes shows up as a shortfall.
        let mut totals = [0u64; 3];
        for chunk in classes.chunks(128) {
            let mut lanes = [0u8; 3];
            for &c in chunk {
                for (class, lane) in lanes.iter_mut().enumerate() {
                    *lane += (c == class as u8) as u8;
                }
            }
            for (total, lane) in totals.iter_mut().zip(lanes) {
                *total += u64::from(lane);
            }
        }
        let counts = DepCounts {
            true_deps: totals[OperandClass::NewValue as usize],
            anti_or_unwritten: totals[OperandClass::OldValue as usize],
            intra: totals[OperandClass::Accumulator as usize],
        };
        if counts.total() != classes.len() as u64 {
            return None;
        }
        Some(Self {
            order,
            ends,
            classes,
            levels,
            counts,
        })
    }

    /// Iterations (claim slots) covered by the stream.
    pub fn iterations(&self) -> usize {
        self.ends.len() - 1
    }

    /// Total classified references.
    pub fn total_terms(&self) -> usize {
        self.classes.len()
    }

    /// The claim order (`None` = natural).
    pub fn order(&self) -> Option<&[u32]> {
        self.order.as_deref()
    }

    /// Per-slot reference ends into [`ClaimStream::classes`], with the
    /// leading 0 sentinel.
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// The per-reference operand classes, in (slot, term) order.
    pub fn classes(&self) -> &[u8] {
        &self.classes
    }

    /// The CSR level boundaries over the slots, when this is a wavefront
    /// stream.
    pub fn level_offsets(&self) -> Option<&[u32]> {
        self.levels.as_deref()
    }

    /// Number of wavefront levels — the dependence critical path; 0 for a
    /// stream without levels.
    pub fn level_count(&self) -> usize {
        self.levels.as_ref().map_or(0, |l| l.len() - 1)
    }

    /// The claim slots of level `l` (0-based), mutually independent.
    ///
    /// # Panics
    /// When the stream carries no levels or `l` is not one of them.
    pub fn level_slots(&self, l: usize) -> Range<usize> {
        let levels = self.levels.as_ref().expect("a wavefront stream");
        levels[l] as usize..levels[l + 1] as usize
    }

    /// The widest level — an upper bound on exploitable parallelism within
    /// any single level (0 without levels).
    pub fn max_width(&self) -> usize {
        (0..self.level_count())
            .map(|l| self.level_slots(l).len())
            .max()
            .unwrap_or(0)
    }

    /// Reference counts per class — what a planned run stamps into
    /// `RunStats.deps` and what persistence revalidates against the census.
    pub fn class_counts(&self) -> DepCounts {
        self.counts
    }

    /// Heap footprint in bytes, for cache sizing decisions:
    /// `4·(order + ends + levels) + classes`.
    pub fn memory_bytes(&self) -> usize {
        let words = self.order.as_ref().map_or(0, Vec::len)
            + self.ends.len()
            + self.levels.as_ref().map_or(0, Vec::len);
        words * std::mem::size_of::<u32>() + self.classes.len()
    }

    /// The first claim slot whose reference count disagrees with `loop_`'s,
    /// as the typed error a planned entry point returns before dispatch.
    /// Inside the region the same disagreement would trip [`Claims::row`]'s
    /// assert on one worker and tear the solve down as a worker panic; one
    /// O(n) sweep here (two loads and a compare per iteration, the same
    /// order as the copy-back pass) keeps it a typed failure with `y`
    /// untouched. Deliberately not gated on `validate_terms`: that flag
    /// controls subscript *bounds* validation, this guards region
    /// *liveness*.
    pub(crate) fn check_terms<L: DoacrossLoop + ?Sized>(
        &self,
        loop_: &L,
    ) -> Result<(), DoacrossError> {
        for (k, w) in self.ends.windows(2).enumerate() {
            let iteration = self.iteration(k);
            let (schedule_terms, loop_terms) = ((w[1] - w[0]) as usize, loop_.terms(iteration));
            if schedule_terms != loop_terms {
                return Err(DoacrossError::ScheduleTermsMismatch {
                    iteration,
                    schedule_terms,
                    loop_terms,
                });
            }
        }
        Ok(())
    }
}

/// The planned runs' claim source: every answer is a read of slot `k`.
impl Claims for ClaimStream {
    const COUNTED: bool = false;
    type Row<'a> = &'a [u8];

    #[inline]
    fn iteration(&self, k: usize) -> usize {
        match &self.order {
            Some(order) => order[k] as usize,
            None => k,
        }
    }

    #[inline]
    fn row(&self, k: usize, _i: usize, terms: usize) -> &[u8] {
        let row = &self.classes[self.ends[k] as usize..self.ends[k + 1] as usize];
        assert!(
            row.len() == terms,
            "claim stream references disagree with the loop"
        );
        row
    }

    #[inline]
    fn class(&self, row: &[u8], j: usize, _off: usize) -> OperandClass {
        // Every byte was validated at construction, so this never panics
        // on a row of this stream. Decoded through the checked `from_u8`:
        // with a catch-all arm here the compiler turned the decode into a
        // select chain that the driver's match on the class then tested
        // again, about six more instructions per reference (x86-64); with
        // every value explicit, the driver branches on the byte itself.
        OperandClass::from_u8(row[j]).expect("a validated class byte")
    }
}

/// Claim slots per counter grab, sized from what the plan knows: `hint` is
/// how many consecutive slots are expected to be mutually independent — a
/// wavefront level's width, the level-sorted order's average parallelism,
/// the natural order's minimum true-dependence distance. Half of that per
/// worker keeps every worker supplied without one chunk spanning a
/// dependence; at least 1 (a distance-1 loop keeps the paper's
/// one-iteration claims), at most 16 (past that the shared-counter traffic
/// is already amortized and larger chunks only cost balance).
pub fn claim_grain(hint: usize, nworkers: usize) -> usize {
    (hint / (2 * nworkers.max(1))).clamp(1, 16)
}

/// What every planned entry point checks before it dispatches: `y` covers
/// the loop's data space, the stream was built for this many iterations,
/// and every claim's reference count is the loop's
/// ([`ClaimStream::check_terms`]). Returns the data-space size.
pub(crate) fn check_stream<L: DoacrossLoop + ?Sized>(
    loop_: &L,
    y: &[f64],
    stream: &ClaimStream,
) -> Result<usize, DoacrossError> {
    let data_len = check_y_len(loop_, y)?;
    let n = loop_.iterations();
    if stream.iterations() != n {
        return Err(DoacrossError::PlanMismatch {
            plan_iterations: stream.iterations(),
            plan_data_len: data_len,
            loop_iterations: n,
            loop_data_len: data_len,
        });
    }
    stream.check_terms(loop_)?;
    Ok(data_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{AccessPattern, IndirectLoop};
    use crate::runtime::Doacross;
    use crate::seq::run_sequential;
    use crate::MAXINT;
    use doacross_par::ThreadPool;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    /// Reference schedule builder for tests: classifies references and
    /// assigns levels exactly as the census does (last-writer map, levels
    /// from true deps).
    fn schedule_of(loop_: &IndirectLoop) -> ClaimStream {
        let n = loop_.iterations();
        let mut writer = vec![MAXINT; loop_.data_len()];
        for i in 0..n {
            writer[loop_.lhs(i)] = i as i64;
        }
        let mut levels = vec![0usize; n];
        let mut nlevels = 0usize;
        let mut term_offsets = Vec::with_capacity(n + 1);
        term_offsets.push(0usize);
        let mut classes = Vec::new();
        for i in 0..n {
            let mut level = 1usize;
            for j in 0..loop_.terms(i) {
                let w = writer[loop_.term_element(i, j)];
                let class = if w == MAXINT {
                    OperandClass::OldValue
                } else {
                    match (w as usize).cmp(&i) {
                        std::cmp::Ordering::Less => {
                            level = level.max(levels[w as usize] + 1);
                            OperandClass::NewValue
                        }
                        std::cmp::Ordering::Equal => OperandClass::Accumulator,
                        std::cmp::Ordering::Greater => OperandClass::OldValue,
                    }
                };
                classes.push(class as u8);
            }
            term_offsets.push(classes.len());
            levels[i] = level;
            nlevels = nlevels.max(level);
        }
        ClaimStream::from_levels(&levels, nlevels, &term_offsets, classes)
            .expect("a census-shaped classification")
    }

    fn oracle(loop_: &IndirectLoop, y0: &[f64]) -> Vec<f64> {
        let mut y = y0.to_vec();
        run_sequential(loop_, &mut y);
        y
    }

    fn chain(n: usize) -> IndirectLoop {
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap()
    }

    #[test]
    fn chain_matches_sequential_with_zero_polls() {
        let l = chain(300);
        let schedule = schedule_of(&l);
        assert_eq!(schedule.level_count(), 300, "a chain is all levels");
        let y0 = vec![1.0; 301];
        let expect = oracle(&l, &y0);
        for workers in [1, 2, 4] {
            let p = ThreadPool::new(workers);
            let mut rt = Doacross::new(301);
            let mut y = y0.clone();
            let stats = rt
                .run_planned(&p, &l, &mut y, &schedule, None, None)
                .unwrap();
            assert_eq!(y, expect, "workers={workers}");
            assert_eq!(stats.wait_polls, 0);
            assert_eq!(stats.stalls, 0);
            assert_eq!(
                stats.barrier_crossings, 299,
                "levels - 1 boundaries separate a 300-level chain"
            );
            assert_eq!(stats.deps.true_deps, 299);
            assert_eq!(stats.deps.anti_or_unwritten, 1);
        }
    }

    #[test]
    fn mixed_classes_match_sequential() {
        // True deps, antideps, intra references, and unwritten reads mixed.
        let n = 257;
        let dl = 2 * n;
        let a: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % dl).collect();
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| vec![(i * 13 + 1) % dl, (i * 5 + 11) % dl, (i * 7 + 3) % dl])
            .collect();
        let coeff: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![0.25 + (i % 3) as f64, 0.5, 0.125])
            .collect();
        let l = IndirectLoop::new(dl, a, rhs, coeff).unwrap();
        let schedule = schedule_of(&l);
        let y0: Vec<f64> = (0..dl).map(|e| (e % 17) as f64 * 0.125).collect();
        let expect = oracle(&l, &y0);
        let mut rt = Doacross::new(dl);
        let mut y = y0.clone();
        let stats = rt
            .run_planned(&pool(), &l, &mut y, &schedule, None, None)
            .unwrap();
        assert_eq!(y, expect);
        assert_eq!(
            stats.deps.total(),
            3 * n as u64,
            "every reference classified"
        );
        assert_eq!(stats.wait_polls, 0);
        assert_eq!(stats.deps, schedule.class_counts());
        assert!(
            stats.deps.intra >= n as u64,
            "the third reference is lhs itself"
        );
    }

    #[test]
    fn all_chunkings_and_schedules_agree() {
        let chains = 8usize;
        let len = 24usize;
        let n = chains * len;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i < chains { vec![] } else { vec![i - chains] })
            .collect();
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
        let l = IndirectLoop::new(n, a, rhs, coeff).unwrap();
        let schedule = schedule_of(&l);
        assert_eq!(schedule.level_count(), len);
        assert_eq!(schedule.max_width(), chains);
        let y0 = vec![1.0; n];
        let expect = oracle(&l, &y0);
        let p = pool();
        for grain in [Some(1), Some(2), Some(8), Some(1000), None] {
            let mut rt = Doacross::new(n);
            let mut y = y0.clone();
            rt.run_planned(&p, &l, &mut y, &schedule, grain, None)
                .unwrap();
            assert_eq!(y, expect, "grain {grain:?}");
        }
    }

    #[test]
    fn scratch_reuse_across_alternating_structures() {
        let small = chain(10);
        let big = chain(80);
        let sched_small = schedule_of(&small);
        let sched_big = schedule_of(&big);
        let p = pool();
        let mut rt = Doacross::new(0);
        for _ in 0..3 {
            let mut y = vec![1.0; 11];
            rt.run_planned(&p, &small, &mut y, &sched_small, None, None)
                .unwrap();
            assert_eq!(y, oracle(&small, &[1.0; 11]));
            let mut y = vec![1.0; 81];
            rt.run_planned(&p, &big, &mut y, &sched_big, None, None)
                .unwrap();
            assert_eq!(y, oracle(&big, &[1.0; 81]));
        }
        assert_eq!(rt.data_len(), 81, "grown once, reused thereafter");
    }

    #[test]
    fn one_runtime_serves_every_entry_point_in_turn() {
        // flat -> linear -> reordered -> blocked -> wavefront -> flat on
        // chains of different sizes, all through one scratch: each run
        // bit-identical to the sequential loop, the scratch clean in
        // between.
        let p = pool();
        let mut rt = Doacross::new(0);
        let check = |n: usize, how: &str, rt: &mut Doacross| {
            let l = chain(n);
            let mut y = vec![1.0; n + 1];
            match how {
                "flat" => rt.run(&p, &l, &mut y),
                "linear" => rt.run_linear(&p, &l, &mut y, crate::LinearSubscript::new(1, 1)),
                "reordered" => {
                    // A caller's claim order runs as a flag-gated stream:
                    // iteration 0 reads the unwritten y[0], the rest their
                    // predecessor's element.
                    let identity: Vec<usize> = (0..n).collect();
                    let term_offsets: Vec<usize> = (0..=n).collect();
                    let mut classes = vec![OperandClass::NewValue as u8; n];
                    classes[0] = OperandClass::OldValue as u8;
                    let stream = ClaimStream::from_iteration_order(
                        Some(&identity),
                        None,
                        &term_offsets,
                        classes,
                    )
                    .expect("a consistent stream");
                    rt.run_planned(&p, &l, &mut y, &stream, Some(1), None)
                }
                "blocked" => rt.run_blocked(&p, &l, &mut y, 7),
                _ => rt.run_planned(&p, &l, &mut y, &schedule_of(&l), None, None),
            }
            .unwrap();
            assert_eq!(y, oracle(&l, &vec![1.0; n + 1]), "{how} n={n}");
            assert!(rt.scratch_is_clean(), "after {how} n={n}");
        };
        for (n, how) in [
            (40, "flat"),
            (90, "linear"),
            (70, "reordered"),
            (60, "blocked"),
            (120, "wavefront"),
            (10, "flat"),
        ] {
            check(n, how, &mut rt);
        }
        assert_eq!(rt.data_len(), 121, "grown to the largest, never shrunk");
    }

    #[test]
    fn mismatched_schedule_and_buffer_are_rejected() {
        let l = chain(8);
        let schedule = schedule_of(&chain(9));
        let mut rt = Doacross::new(10);
        let mut y = vec![1.0; 9];
        assert!(matches!(
            rt.run_planned(&pool(), &l, &mut y, &schedule, None, None),
            Err(DoacrossError::PlanMismatch { .. })
        ));
        let good = schedule_of(&l);
        let mut short = vec![1.0; 3];
        assert!(matches!(
            rt.run_planned(&pool(), &l, &mut short, &good, None, None),
            Err(DoacrossError::DataLenMismatch { .. })
        ));

        // Same iteration count, different per-iteration reference counts:
        // must fail typed up front — inside the region it would trip an
        // assert and surface as a worker panic.
        let a: Vec<usize> = (1..=8).collect();
        let termless = IndirectLoop::new(9, a, vec![vec![]; 8], vec![vec![]; 8]).unwrap();
        let mut y = vec![1.0; 9];
        assert!(matches!(
            rt.run_planned(&pool(), &termless, &mut y, &good, None, None),
            Err(DoacrossError::ScheduleTermsMismatch {
                iteration: 0,
                schedule_terms: 1,
                loop_terms: 0,
            })
        ));
    }

    #[test]
    fn empty_loop_is_a_noop() {
        let l = IndirectLoop::new(0, vec![], vec![], vec![]).unwrap();
        let schedule = ClaimStream::from_levels(&[], 0, &[0], vec![]).unwrap();
        assert_eq!(schedule.level_count(), 0);
        let mut rt = Doacross::new(0);
        let mut y: Vec<f64> = vec![];
        let stats = rt
            .run_planned(&pool(), &l, &mut y, &schedule, None, None)
            .unwrap();
        assert_eq!(stats.deps.total(), 0);
    }

    #[test]
    fn from_parts_validates_structure() {
        let good = schedule_of(&chain(6));
        type Parts = (Option<Vec<u32>>, Vec<u32>, Vec<u8>, Option<Vec<u32>>);
        let parts = |mutate: &dyn Fn(&mut Parts)| {
            let mut parts: Parts = (
                good.order().map(<[u32]>::to_vec),
                good.ends().to_vec(),
                good.classes().to_vec(),
                good.level_offsets().map(<[u32]>::to_vec),
            );
            mutate(&mut parts);
            let (order, ends, classes, levels) = parts;
            ClaimStream::from_parts(order, ends, classes, levels)
        };
        assert_eq!(parts(&|_| {}), Some(good.clone()), "own parts round-trip");
        let flags = parts(&|p| p.3 = None).expect("a stream without levels");
        assert_eq!(flags.level_count(), 0);
        assert_eq!(flags.class_counts(), good.class_counts());
        let natural = parts(&|p| p.0 = None).expect("natural order");
        assert_eq!(natural.iteration(3), 3);

        fn order(p: &mut Parts) -> &mut Vec<u32> {
            p.0.as_mut().unwrap()
        }
        fn levels(p: &mut Parts) -> &mut Vec<u32> {
            p.3.as_mut().unwrap()
        }
        assert!(
            parts(&|p| levels(p)[0] = 1).is_none(),
            "levels must start at 0"
        );
        assert!(
            parts(&|p| {
                levels(p).pop();
            })
            .is_none(),
            "levels must end at n"
        );
        assert!(
            parts(&|p| order(p)[0] = order(p)[1]).is_none(),
            "order must be a permutation"
        );
        assert!(
            parts(&|p| order(p)[0] = 99).is_none(),
            "order entries in range"
        );
        assert!(
            parts(&|p| {
                order(p).pop();
            })
            .is_none(),
            "order covers all iterations"
        );
        assert!(
            parts(&|p| p.1[1] = 3).is_none(),
            "ends monotone to classes len"
        );
        assert!(
            parts(&|p| p.1[0] = 1).is_none(),
            "ends start at the sentinel"
        );
        assert!(
            parts(&|p| {
                p.1.pop();
            })
            .is_none(),
            "a truncated `ends` no longer covers the classes"
        );
        assert!(parts(&|p| p.1.clear()).is_none(), "no sentinel at all");
        assert!(parts(&|p| p.2[0] = 7).is_none(), "classes must decode");
        // An empty level (repeated offset) is rejected: the census never
        // produces one.
        assert!(parts(&|p| {
            let dup = levels(p)[1];
            levels(p).insert(1, dup)
        })
        .is_none());
    }

    #[test]
    fn narrowing_to_u32_is_checked() {
        let narrow = ClaimStream::narrow;
        assert_eq!(narrow(&[]), Some(vec![]));
        assert_eq!(
            narrow(&[0, 7, u32::MAX as usize]),
            Some(vec![0, 7, u32::MAX])
        );
        if usize::BITS > 32 {
            let over = u32::MAX as usize + 1;
            assert_eq!(narrow(&[1, over]), None, "never a truncating cast");
            assert!(ClaimStream::fits(u32::MAX as usize, u32::MAX as u64, 1));
            assert!(!ClaimStream::fits(over, 0, 1), "iterations");
            assert!(!ClaimStream::fits(1, over as u64, 1), "references");
            assert!(!ClaimStream::fits(1, 0, over), "levels");
            // The same values through the constructor the planner uses.
            assert!(ClaimStream::from_iteration_order(None, None, &[0, over], vec![]).is_none());
            assert!(
                ClaimStream::from_iteration_order(None, Some(&[0, over]), &[0, 0], vec![])
                    .is_none()
            );
        }
    }

    #[test]
    fn claim_order_layout_is_stride_one() {
        // Iteration-order classes land in claim order: slot k holds
        // iteration order[k]'s row.
        let term_offsets = [0usize, 1, 3, 3];
        let classes = vec![1u8, 0, 2];
        let order = [2usize, 0, 1];
        let s =
            ClaimStream::from_iteration_order(Some(&order), None, &term_offsets, classes).unwrap();
        assert_eq!(s.order(), Some(&[2u32, 0, 1][..]));
        assert_eq!(s.ends(), &[0, 0, 1, 3]);
        assert_eq!(s.classes(), &[1, 0, 2]);
        assert_eq!(s.row(2, 1, 2), &[0, 2]);
        assert_eq!(s.memory_bytes(), 4 * (3 + 4) + 3);
        let counts = s.class_counts();
        assert_eq!(
            (counts.true_deps, counts.anti_or_unwritten, counts.intra),
            (1, 1, 1)
        );
    }

    /// A level's chunk is [`claim_grain`] of its width (and the flag
    /// variants' is the same rule on their own hints).
    #[test]
    fn level_chunk_adapts_to_width() {
        assert_eq!(claim_grain(0, 4), 1);
        assert_eq!(
            claim_grain(1, 2),
            1,
            "distance 1 keeps one-iteration claims"
        );
        assert_eq!(claim_grain(15, 4), 1);
        assert_eq!(claim_grain(16, 4), 2);
        assert_eq!(claim_grain(138, 2), 16, "capped");
        assert_eq!(claim_grain(10, 0), 5, "zero workers clamped to one");
    }
}
