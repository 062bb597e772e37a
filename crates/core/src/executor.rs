//! The one region driver: the doacross proper (paper Figure 5), under
//! either of two gates.
//!
//! Each worker of the region self-schedules claims — runs of consecutive
//! claim slots — level by level, and runs, per claim and per claimed slot
//! `k` in it (iteration `i = order(k)`, or `k` itself in natural order):
//!
//! ```text
//!         poll_faults                          // once per claim
//!         for k in claim:
//!             failpoint(i)                     // once per iteration
//! S2          acc = init(i, y[a(i)])
//!             acc = fold_terms_with(i, acc, operand)
//!             ynew(a(i)) = finish(i, acc); publish(a(i))
//!
//!         operand(j, off, acc):                // per term j, in order;
//!             class = classes(k, j)            // off = term_element(i, j)
//! S3/S4/S5    NewValue:    gate(off); return ynew(off)
//! S6/S7       OldValue:    return y(off)
//! S8          Accumulator: return acc          // intra-iteration
//! ```
//!
//! The loop drives its own row ([`DoacrossLoop::fold_terms_with`]): it
//! walks the row's elements and folds each operand in with `combine`
//! (S5/S7/S8), and the driver's callback resolves each operand. A
//! CSR-shaped loop overrides the fold with one walk over its row slices;
//! monomorphised, the callback inlines into that walk, so a term costs the
//! walk plus the class branch.
//!
//! ## Two gates
//!
//! The only thing that differs between the ways of running is how a true
//! dependence is met — what `gate(off)` waits for and what `publish`
//! raises. It is a `Gate` type parameter, so each way of running is its
//! own monomorphised body, with no dispatch on the per-reference path:
//!
//! * `Flags`, Figure 5 itself: `gate(off)` is an inline acquire load of
//!   `ready(off)`, and on a miss the out-of-line `await_flag` polls
//!   under the region's guard; `publish` is a release store of
//!   `ready(a(i))`. `ynew` and `ready` are indexed relative to a window,
//!   so the strip-mined variant runs a block on block-sized scratch.
//! * `Levels`, the doconsider wavefront (§3.2): iterations are grouped
//!   by dependence level at plan time, so a true dependence's writer sits
//!   in a strictly earlier level. `gate(off)` is nothing at all and
//!   `publish` is the plain store. Levels are separated by completion
//!   counts: a worker enters level `l` once level `l − 1`'s count is full,
//!   whoever filled it. There is no barrier, because nobody waits for a
//!   worker that holds no work, and no flag traffic inside a level.
//!
//! The flat executor is the one-level case: one claim counter, one
//! completion count, no level boundary. Either way the region ends in
//! the postprocessor (Figure 3, right). A worker that runs out of claims
//! adds how many iterations it executed to the last level's count, waits
//! for that count to fill, and then claims copy-back chunks until none is
//! left ([`crate::post`]).
//!
//! ## Resolution policy
//!
//! Figure 5 decides the class per reference, per run, as `check =
//! iter(off) − i`. The driver is generic over *who decides* ([`Claims`]).
//! The entry points that inspect ([`crate::Doacross::run`],
//! `run_linear`, `run_blocked`) pass a
//! [`ByWriter`](crate::oracle::ByWriter) adapter over their writer oracle:
//! the paper's comparison, taken where the paper takes it, and counted. A
//! planned run passes the plan's [`ClaimStream`](crate::ClaimStream),
//! where slot `k`'s classes were resolved once at plan time and sit
//! stride-1 in claim order. No writer map is consulted and nothing is
//! counted per reference, because the stream knows its totals.
//!
//! ## Memory ordering
//!
//! `y` is read-only while iterations run, and each `ynew` element has
//! exactly one writer (injective `a`, enforced by the inspector or proven
//! by the plan's verifier). There are two cross-thread hand-offs:
//!
//! * **A value, under flags.** `ynew(off)` is guarded by `ready(off)`.
//!   [`ReadyFlags::mark_done`] is a release store, and both the inline
//!   check and the wait loop poll with acquire loads, so the writer's
//!   plain `ynew` store happens-before the reader's plain load.
//! * **A level, under either gate.** A worker that executed `k > 0`
//!   iterations of level `l` adds `k` to that level's completion
//!   count. The add is a `Release` read-modify-write, so it continues the
//!   release sequence of the adds before it. A worker enters level `l + 1`
//!   only after an `Acquire` load returned the level's width, which
//!   synchronizes with *every* contributor's add. So all of level `l`'s
//!   `ynew` stores happen-before all of level `l + 1`'s loads, and by
//!   transitivity before every later level's. The copy-back into `y` waits
//!   on the *last* level's count, which by the same chain orders every `y`
//!   load and `ynew` store of the region before the first copy-back store.
//!
//! ## Progress
//!
//! * **Flags.** A wait only targets a writer claimed at a strictly earlier
//!   slot (`check < 0` in natural order; a topological claim order
//!   otherwise). [`claim_chunks`] hands a worker its slots in increasing
//!   slot order, one at a time or a chunk per grab, and a worker walks a
//!   chunk front to back. So the owner of the lowest pending slot is never
//!   parked on a later one. Everything before that slot is done, hence all
//!   its operands are published, and it runs to completion. There is no
//!   deadlock for any chunk size and any dependence pattern the inspector
//!   or the verifier admits. The `interleave_models` suite
//!   of `doacross-par` checks exactly this walk, and that walking a chunk
//!   back to front deadlocks.
//! * **Levels.** Nothing inside a level waits, so every claimed iteration
//!   of level `l` finishes and its count fills. A worker that claimed
//!   nothing delays nobody.
//!
//! Because a count fills by work, not attendance, every region is
//! *joinable* ([`ThreadPool::run_joinable`]). The dispatching thread is
//! worker 0 and walks every level itself; a helper that has not woken by
//! the time worker 0 returns is not waited for.
//!
//! ## Faults
//!
//! Each claim pays one poll of the region's poison word before its first
//! slot, plus a deadline clock read every `DEADLINE_ITER_PERIOD` claimed
//! slots. A planned claim is at most 16 slots ([`claim_grain`]), so a
//! poisoned or expired region is noticed within one claim. Each iteration
//! pays one failpoint hit (the gate names the site: `core::executor::iter`
//! or `core::wavefront::iter`) against the worker's own copy of the
//! region's snapshot, so an injected panic fires at its exact iteration
//! and a disarmed site costs a register test. Waits check the deadline
//! themselves; the tick catches a region that is slow while *making*
//! progress. A worker that leaves early deposits its partial counters and
//! never counts its unfinished iterations, so the copy-back gate never
//! opens (the `completion` module).

use crate::completion::{Completion, RegionGuard};
use crate::flags::ReadyFlags;
use crate::oracle::Claims;
use crate::pattern::DoacrossLoop;
use crate::post::{post_share, PhaseClock, Post};
use crate::stats::{LocalCounters, RunStats, StatsSink};
use crate::wavefront::{claim_grain, OperandClass};
use doacross_obs::profile::{ProfArena, SpanKind, NO_LEVEL};
use doacross_par::{
    claim_chunks, wait_until_guarded, wait_until_guarded_timed, CachePadded, SharedSlice,
    ThreadPool, WaitAbort,
};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Claimed slots between deadline clock reads in the driver, which checks
/// at claim boundaries (see the module docs, "Faults").
pub(crate) const DEADLINE_ITER_PERIOD: u64 = 64;

/// How a region meets a true dependence (see the module docs). The gate
/// also names the region's levels, its failpoint site and its spans'
/// level labels.
pub(crate) trait Gate: Sync {
    /// Fault-injection site, looked up once per region; armed actions
    /// apply per iteration.
    const SITE: &'static str;

    /// Whether `ynew` is indexed relative to the region's window. A gate
    /// that is not windowed reads element `off` at `ynew[off]`, so the
    /// driver checks once per region that the window starts at 0 and
    /// covers the data space.
    const WINDOWED: bool;

    /// How many levels the region's `slots` claim slots form (`slots > 0`).
    fn level_count(&self, slots: usize) -> usize;

    /// Level `l`'s slots, relative to the region's first slot.
    fn level(&self, l: usize, slots: usize) -> Range<usize>;

    /// The `level` label of level `l`'s spans.
    fn label(l: usize) -> u32;

    /// S3–S5: the new value of element `off`, once it may be read.
    ///
    /// # Safety
    /// `off < loop_.data_len()`, and the shadow is the region's own.
    unsafe fn new_value(shadow: &Shadow<'_>, off: usize, p: &mut Participant<'_>) -> f64;

    /// Stores iteration result `value` for element `lhs` and publishes it.
    ///
    /// # Safety
    /// `lhs < loop_.data_len()`, the calling iteration is `lhs`'s unique
    /// writer, and the shadow is the region's own.
    unsafe fn publish(shadow: &Shadow<'_>, lhs: usize, value: f64);
}

/// Figure 5's gate: a ready flag per element, windowed (see the module
/// docs). One level.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flags;

impl Gate for Flags {
    const SITE: &'static str = "core::executor::iter";
    const WINDOWED: bool = true;

    #[inline]
    fn level_count(&self, _slots: usize) -> usize {
        1
    }

    #[inline]
    fn level(&self, _l: usize, slots: usize) -> Range<usize> {
        0..slots
    }

    #[inline]
    fn label(_l: usize) -> u32 {
        NO_LEVEL
    }

    #[inline]
    unsafe fn new_value(shadow: &Shadow<'_>, off: usize, p: &mut Participant<'_>) -> f64 {
        let slot = off.wrapping_sub(shadow.window_start);
        assert!(
            slot < shadow.ynew.len(),
            "executor: term {off} escapes window"
        );
        if !shadow.ready.is_done(slot) {
            await_flag(shadow.ready, slot, p);
        }
        // SAFETY: `slot` is in the window (asserted); the acquire in
        // `is_done` pairs with the writer's release in `mark_done`, and
        // `ynew[slot]` was stored before that release.
        unsafe { shadow.ynew.read(slot) }
    }

    #[inline]
    unsafe fn publish(shadow: &Shadow<'_>, lhs: usize, value: f64) {
        let slot = lhs.wrapping_sub(shadow.window_start);
        assert!(
            slot < shadow.ynew.len(),
            "executor: lhs {lhs} escapes window"
        );
        // SAFETY: `slot` is in the window (asserted) and has the calling
        // iteration as its unique writer (the caller's contract).
        unsafe { shadow.ynew.write(slot, value) };
        shadow.ready.mark_done(slot);
    }
}

/// The wavefront's gate: the CSR level offsets of a plan's claim stream
/// (see the module docs). No flags.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Levels<'a>(pub(crate) &'a [u32]);

impl Gate for Levels<'_> {
    const SITE: &'static str = "core::wavefront::iter";
    const WINDOWED: bool = false;

    #[inline]
    fn level_count(&self, _slots: usize) -> usize {
        self.0.len() - 1
    }

    #[inline]
    fn level(&self, l: usize, _slots: usize) -> Range<usize> {
        self.0[l] as usize..self.0[l + 1] as usize
    }

    #[inline]
    fn label(l: usize) -> u32 {
        l as u32
    }

    #[inline]
    unsafe fn new_value(shadow: &Shadow<'_>, off: usize, _p: &mut Participant<'_>) -> f64 {
        // SAFETY: `off < data_len <= ynew.len()` (the caller's contract and
        // the driver's window check). The writer's level is strictly
        // earlier; its plain store happens-before this load via that
        // level's completion count.
        unsafe { shadow.ynew.read(off) }
    }

    #[inline]
    unsafe fn publish(shadow: &Shadow<'_>, lhs: usize, value: f64) {
        // SAFETY: in bounds and uniquely written (the caller's contract);
        // no other level touches `lhs` this run.
        unsafe { shadow.ynew.write(lhs, value) }
    }
}

/// Where a region's new values live: the shadow array and its ready
/// flags, standing for elements `window_start ..`. `Copy`, so the operand
/// callback holds it by value.
#[derive(Clone, Copy)]
pub(crate) struct Shadow<'a> {
    ynew: SharedSlice<'a, f64>,
    ready: &'a ReadyFlags,
    window_start: usize,
}

/// One worker's standing in a region: who it is, how it leaves early, and
/// what it has counted so far.
pub(crate) struct Participant<'r> {
    worker: usize,
    guard: &'r RegionGuard<'r>,
    sink: &'r StatsSink,
    prof: Option<&'r ProfArena>,
    local: LocalCounters,
}

impl Participant<'_> {
    /// Leaves the region early (see [`RegionGuard::bail`]).
    fn bail(&mut self, abort: WaitAbort) -> ! {
        self.guard
            .bail(self.sink, self.worker, &mut self.local, abort)
    }

    /// A span's start, when profiling.
    #[inline]
    fn started(&self) -> Option<u64> {
        self.prof.map(ProfArena::now_ns)
    }

    /// Records a span from `started` to now, when profiling.
    #[inline]
    fn span(&self, kind: SpanKind, level: u32, started: Option<u64>, aux: u64) {
        if let (Some(arena), Some(started)) = (self.prof, started) {
            let end = arena.now_ns();
            arena.record(
                self.worker,
                kind,
                level,
                started,
                end.saturating_sub(started),
                aux,
            );
        }
    }
}

/// The stall path of a `NewValue` operand under [`Flags`]: the inline
/// flag check missed, so poll `ready(slot)` under the region's guard.
/// Books the stall (the inline miss is its first failed poll) and, when
/// profiling, its [`SpanKind::FlagWait`] span; leaves the region on a
/// fault. Out of line: a planned run on a good claim order almost never
/// gets here.
#[cold]
#[inline(never)]
fn await_flag(ready: &ReadyFlags, slot: usize, p: &mut Participant<'_>) {
    let cond = || ready.is_done(slot);
    let guard = p.guard;
    let waited = match p.prof {
        None => wait_until_guarded(cond, guard.poison, guard.deadline).map(|polls| (polls, 0)),
        Some(_) => wait_until_guarded_timed(cond, guard.poison, guard.deadline),
    };
    let (polls, wait_ns) = waited.unwrap_or_else(|abort| p.bail(abort));
    let polls = polls + 1;
    p.local.stalls += 1;
    p.local.wait_polls += polls;
    if let Some(arena) = p.prof {
        let end = arena.now_ns();
        arena.record(
            p.worker,
            SpanKind::FlagWait,
            NO_LEVEL,
            end.saturating_sub(wait_ns),
            wait_ns,
            polls,
        );
    }
}

/// What a worker owes the region before each claim: one poll of the fault
/// latch, and a deadline clock read once `executed` (the slots claimed so
/// far, this claim's included) has grown by [`DEADLINE_ITER_PERIOD`] since
/// the last read.
#[inline]
fn poll_faults(
    guard: &RegionGuard<'_>,
    executed: u64,
    next_tick: &mut u64,
) -> Result<(), WaitAbort> {
    if let Some(fault) = guard.poison.fault() {
        return Err(WaitAbort::Poisoned(fault));
    }
    if let Some(deadline) = guard.deadline {
        if executed >= *next_tick {
            *next_tick = executed + DEADLINE_ITER_PERIOD;
            if Instant::now() >= deadline {
                return Err(WaitAbort::DeadlineExpired);
            }
        }
    }
    Ok(())
}

/// One level's shared cells — the self-scheduling claim counter and the
/// completion count — on one cache line (the same workers touch both at
/// the same time), padded away from the next level's.
#[derive(Debug, Default)]
struct LevelCell {
    claim: AtomicUsize,
    done: Completion,
}

/// What one region runs: the loop, who decides each reference's class,
/// and where results go.
pub(crate) struct Region<'a, L: ?Sized, C> {
    pub loop_: &'a L,
    pub claims: &'a C,
    /// The claim slots run, which are also the iterations copied back.
    /// Level offsets count from `slots.start`.
    pub slots: Range<usize>,
    /// The elements the shadow array and the flags stand for: the data
    /// space, or a strip-mined block's window.
    pub window: Range<usize>,
    /// Read-only until every iteration is counted, then the copy-back
    /// target.
    pub y: &'a mut [f64],
    /// What the copy-back also clears.
    pub post: Post<'a>,
    /// Slots per counter grab: `Some(c)` on every level, `None`
    /// [`claim_grain`] of each level's width.
    pub grain: Option<usize>,
}

/// A runtime's region scratch: the shadow array `ynew`, its `ready` flags,
/// one [`LevelCell`] per level and the per-worker counter cells. It grows
/// to the largest loop seen and is then reused, so a warm region allocates
/// nothing.
#[derive(Debug)]
pub(crate) struct Scratch {
    pub(crate) ready: ReadyFlags,
    pub(crate) ynew: Vec<f64>,
    cells: Vec<CachePadded<LevelCell>>,
    sink: StatsSink,
}

impl Scratch {
    /// Scratch covering a data space of `len` elements.
    pub(crate) fn new(len: usize) -> Self {
        Self {
            ready: ReadyFlags::new(len),
            ynew: vec![0.0; len],
            cells: Vec::new(),
            sink: StatsSink::new(0),
        }
    }

    /// Runs `region` under `gate` in one pool region: the executor level
    /// by level, then the copy-back (see the module docs). Fills `stats`'
    /// `executor` and `post` (the region's wall time split where the last
    /// iteration was counted), `barrier_crossings` (the region's level
    /// boundaries) and the executor-side counters; the per-class counts
    /// only when `C::COUNTED`. Retires the flags afterwards.
    ///
    /// The claim order must be topological over the true dependences (the
    /// by-writer sources claim in natural order; a plan's order is checked
    /// by [`ClaimStream::from_parts`](crate::ClaimStream::from_parts) and
    /// proven by `doacross-verify`), and a level stream's levels mutually
    /// independent, or the region may livelock.
    ///
    /// With `prof` set, each worker that joined the region records per
    /// level one [`SpanKind::Work`] span (`aux` = iterations it executed
    /// there, label [`Gate::label`]), between adjacent levels one
    /// [`SpanKind::BarrierWait`] span labelled with the earlier level,
    /// and one [`SpanKind::FlagWait`] span per stall (`aux` = polls). So
    /// span counts reconcile exactly with `RunStats`' `stalls`,
    /// `wait_polls` and `barrier_crossings`. `None` costs one branch per
    /// would-be span, and the never-stalling fast path reads no clock.
    ///
    /// Bounds are enforced with release-mode asserts on every index the
    /// loop supplies. The inspector or the plan already validated them, so
    /// these asserts are a final defence rather than the primary check.
    pub(crate) fn run<L, C, G>(
        &mut self,
        pool: &ThreadPool,
        region: Region<'_, L, C>,
        gate: G,
        stats: &mut RunStats,
        prof: Option<&ProfArena>,
    ) where
        L: DoacrossLoop + ?Sized,
        C: Claims,
        G: Gate,
    {
        let Region {
            loop_,
            claims,
            slots,
            window,
            y,
            post,
            grain,
        } = region;
        let nworkers = pool.threads();
        let count = slots.len();
        let nlevels = if count == 0 {
            0
        } else {
            gate.level_count(count)
        };
        self.sink.ensure_workers(nworkers);
        if nlevels > self.cells.len() {
            self.cells.resize_with(nlevels, CachePadded::default);
        }
        if nlevels > 0 {
            let data_len = loop_.data_len();
            assert!(
                G::WINDOWED || (window.start == 0 && window.len() >= data_len),
                "an unwindowed gate needs the whole data space"
            );
            // Claim and completion counters start at zero every run (they
            // are dirty after the previous one); O(levels), off the
            // parallel path.
            let cells = &self.cells[..nlevels];
            for cell in cells {
                cell.claim.store(0, Ordering::Relaxed);
                cell.done.reset();
            }
            let shadow = Shadow {
                ynew: SharedSlice::new(&mut self.ynew[..window.len()]),
                ready: &self.ready,
                window_start: window.start,
            };
            let y = SharedSlice::new(y);
            let sink = &self.sink;
            let width_of = |l: usize| gate.level(l, count).len();
            let last = nlevels - 1;
            // Fault containment: the region's poison word and deadline are
            // captured once, and any armed fault-injection action
            // snapshotted, all before dispatch. The last level's count
            // gates the copy-back, so it is what a deadline-struck waiter
            // abandons.
            let guard = RegionGuard {
                poison: pool.poison(),
                deadline: pool.deadline(),
                commit: (&cells[last].done, width_of(last)),
            };
            let snapshot = failpoint::lookup(G::SITE);
            let clock = PhaseClock::start();
            let post_claim = AtomicUsize::new(0);

            pool.run_joinable(|worker| {
                // The worker's own copy of the snapshot: a register test
                // per iteration, not a load through the capture.
                let failpoint = snapshot;
                let mut p = Participant {
                    worker,
                    guard: &guard,
                    sink,
                    prof,
                    local: LocalCounters::default(),
                };
                let mut executed: u64 = 0;
                let mut next_tick = DEADLINE_ITER_PERIOD;
                for (l, cell) in cells.iter().enumerate() {
                    if l > 0 {
                        let started = p.started();
                        if let Err(abort) = cells[l - 1].done.wait(width_of(l - 1), &guard) {
                            p.bail(abort);
                        }
                        p.span(SpanKind::BarrierWait, (l - 1) as u32, started, 0);
                    }
                    let level = gate.level(l, count);
                    let width = level.len();
                    let chunk = grain.unwrap_or_else(|| claim_grain(width, nworkers));
                    let started = p.started();
                    let executed_before = executed;
                    claim_chunks(&cell.claim, width, chunk, |claim| {
                        executed += claim.len() as u64;
                        if let Err(abort) = poll_faults(&guard, executed, &mut next_tick) {
                            p.bail(abort);
                        }
                        for k in claim {
                            let slot = slots.start + level.start + k;
                            let i = claims.iteration(slot);
                            failpoint::hit(failpoint, i as u64);
                            let lhs = loop_.lhs(i);
                            assert!(lhs < data_len, "executor: lhs {lhs} out of bounds");

                            // S2: seed from the old value of the output
                            // element.
                            // SAFETY: y is read-only until the copy-back
                            // gate; bounds asserted.
                            let acc = loop_.init(i, unsafe { y.read(lhs) });

                            let row = claims.row(slot, i, loop_.terms(i));
                            let p = &mut p;
                            // Everything the callback reads is captured by
                            // value, so an acquire load in the flag gate
                            // does not make the compiler reload it.
                            let acc = loop_.fold_terms_with(i, acc, &mut move |j, off, acc| {
                                assert!(off < data_len, "executor: term {off} out of bounds");
                                match claims.class(row, j, off) {
                                    OperandClass::NewValue => {
                                        // S3–S5: true dependency on an
                                        // earlier claim or level.
                                        if C::COUNTED {
                                            p.local.true_deps += 1;
                                        }
                                        // SAFETY: bounds asserted; the
                                        // shadow is this region's.
                                        unsafe { G::new_value(&shadow, off, p) }
                                    }
                                    OperandClass::OldValue => {
                                        // S6–S7: antidependency or
                                        // never-written element — old value.
                                        if C::COUNTED {
                                            p.local.anti_or_unwritten += 1;
                                        }
                                        // SAFETY: y is read-only until the
                                        // copy-back gate; bounds asserted.
                                        unsafe { y.read(off) }
                                    }
                                    OperandClass::Accumulator => {
                                        // S8: intra-iteration reference —
                                        // the element being accumulated is
                                        // `lhs` itself (injective `a`), so
                                        // serve it from the accumulator.
                                        if C::COUNTED {
                                            p.local.intra += 1;
                                        }
                                        debug_assert_eq!(
                                            off, lhs,
                                            "class says intra but off != lhs"
                                        );
                                        acc
                                    }
                                }
                            });

                            // SAFETY: bounds asserted; `lhs` has this
                            // iteration as its unique writer (injective `a`).
                            unsafe { G::publish(&shadow, lhs, loop_.finish(i, acc)) };
                        }
                    });
                    let in_level = executed - executed_before;
                    p.span(SpanKind::Work, G::label(l), started, in_level);
                    // One add per worker per level, and none from a worker
                    // that claimed nothing: a level is complete by work,
                    // not attendance.
                    if in_level > 0 && cell.done.add(in_level as usize, width) && l == last {
                        clock.gate_opened();
                    }
                }
                let (last_done, last_width) = guard.commit;
                if let Err(abort) = last_done.wait(last_width, &guard) {
                    p.bail(abort);
                }
                // SAFETY: the last level's count is full, which orders
                // every iteration's `y` loads and `ynew` stores before this
                // point (module docs).
                unsafe {
                    post_share(
                        loop_,
                        slots.clone(),
                        window.start,
                        post,
                        y,
                        shadow.ynew,
                        &post_claim,
                    )
                };
                sink.deposit(worker, p.local);
            });
            (stats.executor, stats.post) = clock.split();
        }
        self.ready.retire();
        self.sink.drain_into(stats);
        self.sink.reset();
        stats.barrier_crossings = nlevels.saturating_sub(1) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::IterMap;
    use crate::inspector::run_inspector;
    use crate::oracle::{ByWriter, InspectedWriter};
    use crate::pattern::{AccessPattern, IndirectLoop};
    use crate::seq::run_sequential;

    /// Manual pipeline (inspector, then the driver under the flag gate
    /// with fused copy-back, `grain` slots per claim) so the executor can
    /// be probed in isolation.
    fn execute(
        loop_: &IndirectLoop,
        y: &[f64],
        workers: usize,
        grain: Option<usize>,
    ) -> (Vec<f64>, RunStats) {
        let pool = ThreadPool::new(workers);
        let dl = loop_.data_len();
        let map = IterMap::new(dl);
        run_inspector(&pool, loop_, 0..loop_.iterations(), 0..dl, &map, true).unwrap();
        let mut y_buf = y.to_vec();
        let oracle = InspectedWriter::new(&map, 0..dl);
        let mut stats = RunStats {
            workers,
            iterations: loop_.iterations(),
            ..Default::default()
        };
        Scratch::new(dl).run(
            &pool,
            Region {
                loop_,
                claims: &ByWriter { oracle: &oracle },
                slots: 0..loop_.iterations(),
                window: 0..dl,
                y: &mut y_buf,
                post: Post { map: None },
                grain,
            },
            Flags,
            &mut stats,
            None,
        );
        (y_buf, stats)
    }

    fn oracle_result(loop_: &IndirectLoop, y: &[f64]) -> Vec<f64> {
        let mut out = y.to_vec();
        run_sequential(loop_, &mut out);
        out
    }

    #[test]
    fn true_dependency_chain_matches_sequential() {
        // y[i+1] += y[i]: a fully serial chain — the stress case for the
        // ready/wait protocol.
        let n = 400;
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let l = IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
        let y0 = vec![1.0; n + 1];
        let expect = oracle_result(&l, &y0);
        for workers in [1, 2, 4] {
            let (got, stats) = execute(&l, &y0, workers, Some(1));
            assert_eq!(got, expect, "workers={workers}");
            // Iteration 0 reads element 0, which nobody writes (lhs starts
            // at 1); the other n-1 reads are true dependencies.
            assert_eq!(stats.deps.true_deps, (n - 1) as u64);
            assert_eq!(stats.deps.anti_or_unwritten, 1);
        }
    }

    #[test]
    fn antidependencies_read_old_values() {
        // Reverse chain: iteration i reads the element iteration i+1 writes,
        // so every read must see the ORIGINAL value.
        let n = 300;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 1).min(n - 1)]).collect();
        let l = IndirectLoop::new(n, a, rhs, vec![vec![2.0]; n]).unwrap();
        let y0: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let expect = oracle_result(&l, &y0);
        for workers in [1, 3, 4] {
            let (got, stats) = execute(&l, &y0, workers, Some(1));
            assert_eq!(got, expect, "workers={workers}");
            assert!(stats.deps.anti_or_unwritten >= (n as u64) - 1);
        }
    }

    #[test]
    fn intra_iteration_reference_uses_accumulator() {
        // Each iteration reads its own output element twice.
        let n = 50;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i, i]).collect();
        let l = IndirectLoop::new(n, a, rhs, vec![vec![1.0, 1.0]; n]).unwrap();
        let y0 = vec![1.0; n];
        let expect = oracle_result(&l, &y0);
        let (got, stats) = execute(&l, &y0, 4, Some(1));
        assert_eq!(got, expect);
        assert_eq!(stats.deps.intra, 2 * n as u64);
        // 1 + 1 = 2, then 2 + 2 = 4.
        assert!(got.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn mixed_pattern_matches_sequential_under_all_schedules() {
        // Pseudo-random mix of true/anti/intra/none references.
        let n = 257;
        let dl = 2 * n;
        let a: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % dl).collect();
        // Make `a` injective by construction? (i*7+3) mod 2n with gcd(7,2n)
        // == 1 when n not divisible by 7 — 257 is prime and 2*257 = 514 =
        // 2 * 257; gcd(7, 514) = 1, so it is a permutation of a subset.
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| vec![(i * 13 + 1) % dl, (i * 5 + 11) % dl])
            .collect();
        let coeff: Vec<Vec<f64>> = (0..n).map(|i| vec![0.25 + (i % 3) as f64, 0.5]).collect();
        let l = IndirectLoop::new(dl, a, rhs, coeff).unwrap();
        let y0: Vec<f64> = (0..dl).map(|e| (e % 17) as f64 * 0.125).collect();
        let expect = oracle_result(&l, &y0);
        for grain in [Some(1), Some(2), Some(8), Some(1000), None] {
            let (got, _) = execute(&l, &y0, 4, grain);
            assert_eq!(got, expect, "grain {grain:?}");
        }
    }

    #[test]
    fn stats_classify_every_reference() {
        let n = 100;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i / 2, i]).collect();
        let l = IndirectLoop::new(n, a, rhs, vec![vec![1.0, 1.0]; n]).unwrap();
        let y0 = vec![1.0; n];
        let (_, stats) = execute(&l, &y0, 2, Some(1));
        assert_eq!(stats.deps.total(), 2 * n as u64, "every (i,j) classified");
    }

    #[test]
    fn empty_iteration_range_is_noop() {
        let l = IndirectLoop::new(4, vec![0], vec![vec![1]], vec![vec![1.0]]).unwrap();
        let pool = ThreadPool::new(2);
        let map = IterMap::new(4);
        let mut y = vec![0.0; 4];
        let oracle = InspectedWriter::new(&map, 0..4);
        let mut stats = RunStats::default();
        Scratch::new(4).run(
            &pool,
            Region {
                loop_: &l,
                claims: &ByWriter { oracle: &oracle },
                slots: 1..1,
                window: 0..4,
                y: &mut y,
                post: Post { map: None },
                grain: Some(1),
            },
            Flags,
            &mut stats,
            None,
        );
        assert_eq!(stats.deps.total(), 0);
        assert_eq!(stats.barrier_crossings, 0);
    }
}
