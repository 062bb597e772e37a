//! The executor: the doacross proper (paper Figure 5).
//!
//! Each worker of the region self-schedules claim slots and runs, per
//! claimed slot `k` (iteration `i = order(k)`, or `k` itself in natural
//! order):
//!
//! ```text
//! S2      acc = init(i, y[a(i)])
//!         do j = 0, terms(i)-1
//!             off   = term_element(i, j)
//!             class = classes(k, j)            // the Claims source
//! S3/S4/S5    NewValue:    wait until ready(off) == DONE; operand = ynew(off)
//! S6/S7       OldValue:    operand = y(off)
//! S8          Accumulator: operand = acc       // intra-iteration
//!             acc = combine(i, j, acc, operand)
//!         end do
//!         ynew(a(i)) = acc
//!         ready(a(i)) = DONE                   // release store
//! ```
//!
//! ## Resolution policy
//!
//! Figure 5 decides the class per reference, per run, as `check =
//! iter(off) − i`. The executor is generic over *who decides*
//! ([`Claims`]): the entry points that inspect ([`crate::Doacross::run`],
//! `run_with_order`, `run_linear`, `run_blocked`) pass a
//! [`ByWriter`](crate::oracle::ByWriter) adapter over their writer oracle —
//! the paper's comparison, taken where the paper takes it, and counted —
//! while a planned run passes the plan's [`ClaimStream`](crate::ClaimStream),
//! where slot `k`'s classes were resolved once at plan time and sit
//! stride-1 in claim order: no writer map is consulted, nothing is counted
//! per reference (the stream knows its totals), and a `NewValue` operand
//! whose flag is already up costs one acquire load before the `ynew` read.
//! One body, monomorphised per source.
//!
//! Memory-ordering argument: the only cross-thread data hand-off is
//! `ynew(off)` guarded by `ready(off)`; [`ReadyFlags::mark_done`] is a
//! release store and both the inline check and the wait loop poll with
//! acquire loads, so the writer's plain `ynew` store happens-before the
//! reader's plain load. `y` is read-only while iterations run, and each
//! `ynew` element has exactly one writer (injective `a`, enforced by the
//! inspector or proven by the plan's verifier).
//!
//! Progress argument: a wait only targets a writer claimed at a strictly
//! earlier slot (`check < 0` in natural order; a topological claim order
//! otherwise), every [`Schedule`] hands a worker its slots — one at a time
//! or a chunk per grab — in increasing slot order, and a worker walks a
//! chunk front to back. So the owner of the lowest pending slot is never
//! parked on a later one: everything before that slot is done, hence all
//! its operands are published, and it runs to completion — no deadlock,
//! for any schedule, any chunk size and any dependence pattern the
//! inspector or the verifier admits
//! (`crates/par/tests/interleave_models.rs` checks exactly this walk, and
//! that walking a chunk back to front deadlocks).
//!
//! The postprocessor (Figure 3, right) runs in the same region: a worker
//! that runs out of iterations adds how many it executed to an
//! iterations-finished [`Completion`] counter, waits for the count to
//! reach the range's length, and then claims copy-back chunks until none
//! is left ([`crate::post`]). The counter's release/acquire pair orders
//! every iteration's `y` loads and `ynew` stores before any copy-back
//! store, and a worker that claimed nothing delays nobody — which is why a
//! dynamic schedule's region is *joinable*
//! ([`ThreadPool::run_joinable`]): the dispatching thread is worker 0 and
//! returns only once every claim is taken and finished, so a helper that
//! has not woken by then is not waited for. A static schedule assigns
//! fixed shares by worker id and keeps full attendance
//! ([`ThreadPool::run`]).

use crate::completion::{Completion, RegionGuard};
use crate::flags::ReadyFlags;
use crate::oracle::Claims;
use crate::pattern::DoacrossLoop;
use crate::post::{post_share, PhaseClock, Post};
use crate::stats::{LocalCounters, StatsSink};
use crate::wavefront::OperandClass;
use doacross_obs::profile::{ProfArena, SpanKind, NO_LEVEL};
use doacross_par::{Schedule, SharedSlice, ThreadPool, WaitAbort, WaitStrategy};
use std::ops::Range;
use std::sync::atomic::AtomicUsize;
use std::time::Duration;

/// Fault-injection site consulted once per executor region; armed actions
/// apply per iteration (see the `failpoint` crate's hot-path discipline).
pub(crate) const FAILPOINT_ITER: &str = "core::executor::iter";

/// Iterations between deadline clock reads in the executor body (power of
/// two). Waits check the deadline themselves; this catches regions that
/// are slow while *making* progress, so a wedged solve still times out
/// even when no wait ever stalls.
pub(crate) const DEADLINE_ITER_PERIOD: u64 = 64;

/// The stall path of a `NewValue` operand: the inline flag check missed, so
/// poll `ready(slot)` under the region's guard. Books the stall (the inline
/// miss is its first failed poll) and, when profiling, its
/// [`SpanKind::FlagWait`] span. Out of line: a planned run on a good claim
/// order almost never gets here.
#[cold]
#[inline(never)]
fn await_flag(
    ready: &ReadyFlags,
    slot: usize,
    guard: &RegionGuard<'_>,
    prof: Option<&ProfArena>,
    worker: usize,
    local: &mut LocalCounters,
) -> Result<(), WaitAbort> {
    let cond = || ready.is_done(slot);
    let (polls, wait_ns) = match prof {
        None => (
            guard
                .wait
                .wait_until_guarded(cond, guard.poison, guard.deadline)?,
            0,
        ),
        Some(_) => guard
            .wait
            .wait_until_guarded_timed(cond, guard.poison, guard.deadline)?,
    };
    let polls = polls + 1;
    local.stalls += 1;
    local.wait_polls += polls;
    if let Some(arena) = prof {
        let end = arena.now_ns();
        arena.record(
            worker,
            SpanKind::FlagWait,
            NO_LEVEL,
            end.saturating_sub(wait_ns),
            wait_ns,
            polls,
        );
    }
    Ok(())
}

/// Runs the doacross executor over claim slots `iter_range`, then — in the
/// same region — the postprocessor (copy-back, plus clearing `post.map`). Returns the region's
/// wall time split into `(executor, post)` at the moment the last
/// iteration was counted.
///
/// * `claims` names the iteration each slot executes and the class of each
///   of its references (see the module docs). A claim order other than the
///   natural one is the doconsider "rearranged iterations" mechanism of
///   §3.2 — semantics are unchanged; only the claim order (and hence
///   waiting behaviour) differs. It must be a topological order of the
///   true dependencies or the executor may livelock (the `Doacross` facade
///   validates a caller's order in full-validation mode; a plan's is proven
///   by `doacross-verify`).
/// * `y` is the full data array: read-only until every iteration is
///   counted, then the copy-back target.
/// * `ynew`/`ready` are the shadow array and flag set, holding elements
///   `window_start .. window_start + ynew.len()`. The caller
///   [retires](ReadyFlags::retire) the flags afterwards.
/// * Executor-side counters land in `sink`, one cell per worker — the
///   per-class counts only when `C::COUNTED`.
/// * With `prof` set, each worker that joined the region records one
///   [`SpanKind::Work`] span covering its share of the iterations (`aux` =
///   iterations executed, actual stalls nested inside) plus one
///   [`SpanKind::FlagWait`] span per stall (`aux` = poll count), so span
///   counts reconcile exactly with `RunStats`' `stalls` and the span `aux`
///   totals with `wait_polls`. `None` costs one branch per would-be span —
///   the never-stalling fast path reads no clock.
///
/// The failpoint, the fault poll and the deadline tick are paid once per
/// iteration, whatever the chunk size. Bounds are enforced with
/// release-mode asserts on every index the loop supplies: the inspector or
/// the plan already validated them, so these asserts are a final defense
/// rather than the primary check.
#[allow(clippy::too_many_arguments)]
pub fn run_executor<L, C>(
    pool: &ThreadPool,
    schedule: Schedule,
    wait: WaitStrategy,
    loop_: &L,
    iter_range: Range<usize>,
    claims: &C,
    y: SharedSlice<'_, f64>,
    ynew: SharedSlice<'_, f64>,
    ready: &ReadyFlags,
    window_start: usize,
    post: Post<'_>,
    sink: &StatsSink,
    prof: Option<&ProfArena>,
) -> (Duration, Duration)
where
    L: DoacrossLoop + ?Sized,
    C: Claims,
{
    let nworkers = pool.threads();
    let base = iter_range.start;
    let count = iter_range.len();
    if count == 0 {
        return (Duration::ZERO, Duration::ZERO);
    }
    let counter = AtomicUsize::new(0);
    let post_claim = AtomicUsize::new(0);
    let finished = Completion::new();
    let data_len = loop_.data_len();
    let window_len = ynew.len();
    // Fault containment: capture the region's poison word and deadline
    // once, and snapshot any armed fault-injection action, all before
    // dispatch — per-iteration checks then touch only a stack local and
    // one shared read-mostly atomic.
    let poison = pool.poison();
    let deadline = pool.deadline();
    let guard = RegionGuard {
        wait,
        poison,
        deadline,
        commit: (&finished, count),
    };
    let failpoint = failpoint::lookup(FAILPOINT_ITER);
    let clock = PhaseClock::start();

    pool.run_for(schedule, |worker| {
        let mut local = LocalCounters::default();
        let mut executed: u64 = 0;
        let work_started = prof.map(|arena| arena.now_ns());
        schedule.drive(worker, nworkers, count, &counter, |k| {
            let i = claims.iteration(base + k);
            failpoint::hit(failpoint, i as u64);
            // A sibling's fault means flags may never be published past
            // this point: stop claiming work and drain.
            if let Some(fault) = poison.fault() {
                guard.bail(sink, worker, &mut local, WaitAbort::Poisoned(fault));
            }
            executed += 1;
            if deadline.is_some() && executed.is_multiple_of(DEADLINE_ITER_PERIOD) {
                if let Some(d) = deadline {
                    if std::time::Instant::now() >= d {
                        guard.bail(sink, worker, &mut local, WaitAbort::DeadlineExpired);
                    }
                }
            }
            let lhs = loop_.lhs(i);
            assert!(lhs < data_len, "executor: lhs {lhs} out of bounds");
            let lhs_slot = lhs.wrapping_sub(window_start);
            assert!(lhs_slot < window_len, "executor: lhs {lhs} escapes window");

            // S2: seed from the old value of the output element.
            // SAFETY: y is read-only until the completion gate; bounds
            // asserted.
            let mut acc = loop_.init(i, unsafe { y.read(lhs) });

            let terms = loop_.terms(i);
            let row = claims.row(base + k, i, terms);
            for j in 0..terms {
                let off = loop_.term_element(i, j);
                assert!(off < data_len, "executor: term {off} out of bounds");
                let operand = match claims.class(row, j, off) {
                    OperandClass::NewValue => {
                        // S3–S5: true dependency on an earlier claim.
                        if C::COUNTED {
                            local.true_deps += 1;
                        }
                        let slot = off.wrapping_sub(window_start);
                        assert!(slot < window_len, "executor: term {off} escapes window");
                        if !ready.is_done(slot) {
                            if let Err(abort) =
                                await_flag(ready, slot, &guard, prof, worker, &mut local)
                            {
                                guard.bail(sink, worker, &mut local, abort);
                            }
                        }
                        // SAFETY: bounds asserted; the acquire in `is_done`
                        // pairs with the writer's release in `mark_done`,
                        // and `ynew[slot]` was stored before that release.
                        unsafe { ynew.read(slot) }
                    }
                    OperandClass::Accumulator => {
                        // S8: intra-iteration reference — the element being
                        // accumulated is `lhs` itself (injective `a`), so
                        // serve it from the register accumulator.
                        if C::COUNTED {
                            local.intra += 1;
                        }
                        debug_assert_eq!(off, lhs, "class says intra but off != lhs");
                        acc
                    }
                    OperandClass::OldValue => {
                        // S6–S7: antidependency or never-written element —
                        // old value.
                        if C::COUNTED {
                            local.anti_or_unwritten += 1;
                        }
                        // SAFETY: y is read-only until the gate; bounds
                        // asserted.
                        unsafe { y.read(off) }
                    }
                };
                acc = loop_.combine(i, j, acc, operand);
            }

            // SAFETY: `lhs_slot` is in the window (asserted) and has this
            // iteration as its unique writer.
            unsafe { ynew.write(lhs_slot, loop_.finish(i, acc)) };
            ready.mark_done(lhs_slot);
        });
        if let (Some(arena), Some(started)) = (prof, work_started) {
            let end = arena.now_ns();
            arena.record(
                worker,
                SpanKind::Work,
                NO_LEVEL,
                started,
                end.saturating_sub(started),
                executed,
            );
        }
        // One add per worker, not per iteration: nobody can use a partial
        // count, and a worker that executed nothing skips it.
        if executed > 0 && finished.add(executed as usize, count) {
            clock.gate_opened();
        }
        if let Err(abort) = finished.wait(count, &guard) {
            guard.bail(sink, worker, &mut local, abort);
        }
        // SAFETY: the gate above saw all `count` iterations counted, each
        // add a release after that worker's last `y` load and `ynew` store
        // (module docs).
        unsafe {
            post_share(
                loop_,
                iter_range.clone(),
                window_start,
                post,
                y,
                ynew,
                &post_claim,
            )
        };
        sink.deposit(worker, local);
    });
    clock.split()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::IterMap;
    use crate::inspector::run_inspector;
    use crate::oracle::{ByWriter, InspectedWriter};
    use crate::pattern::{AccessPattern, IndirectLoop};
    use crate::seq::run_sequential;
    use crate::stats::RunStats;

    /// Manual pipeline (inspector, then executor with fused copy-back) so
    /// the executor can be probed in isolation.
    fn execute(
        loop_: &IndirectLoop,
        y: &[f64],
        workers: usize,
        schedule: Schedule,
    ) -> (Vec<f64>, RunStats) {
        let pool = ThreadPool::new(workers);
        let dl = loop_.data_len();
        let map = IterMap::new(dl);
        let ready = ReadyFlags::new(dl);
        run_inspector(
            &pool,
            schedule,
            loop_,
            0..loop_.iterations(),
            0..dl,
            &map,
            true,
        )
        .unwrap();
        let mut y_buf = y.to_vec();
        let mut ynew_buf = vec![0.0; dl];
        let y_view = SharedSlice::new(&mut y_buf);
        let ynew_view = SharedSlice::new(&mut ynew_buf);
        let sink = StatsSink::new(workers);
        let oracle = InspectedWriter::new(&map, 0..dl);
        run_executor(
            &pool,
            schedule,
            WaitStrategy::default(),
            loop_,
            0..loop_.iterations(),
            &ByWriter {
                oracle: &oracle,
                order: None,
            },
            y_view,
            ynew_view,
            &ready,
            0,
            Post { map: None },
            &sink,
            None,
        );
        let mut stats = RunStats {
            workers,
            iterations: loop_.iterations(),
            ..Default::default()
        };
        sink.drain_into(&mut stats);
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
            let (got, stats) = execute(&l, &y0, workers, Schedule::multimax());
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
            let (got, stats) = execute(&l, &y0, workers, Schedule::multimax());
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
        let (got, stats) = execute(&l, &y0, 4, Schedule::multimax());
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
        for schedule in [
            Schedule::StaticBlock,
            Schedule::StaticCyclic,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 8 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            let (got, _) = execute(&l, &y0, 4, schedule);
            assert_eq!(got, expect, "{schedule:?}");
        }
    }

    #[test]
    fn stats_classify_every_reference() {
        let n = 100;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i / 2, i]).collect();
        let l = IndirectLoop::new(n, a, rhs, vec![vec![1.0, 1.0]; n]).unwrap();
        let y0 = vec![1.0; n];
        let (_, stats) = execute(&l, &y0, 2, Schedule::multimax());
        assert_eq!(stats.deps.total(), 2 * n as u64, "every (i,j) classified");
    }

    #[test]
    fn empty_iteration_range_is_noop() {
        let l = IndirectLoop::new(4, vec![0], vec![vec![1]], vec![vec![1.0]]).unwrap();
        let pool = ThreadPool::new(2);
        let ready = ReadyFlags::new(4);
        let map = IterMap::new(4);
        let mut y = vec![0.0; 4];
        let mut ynew = vec![0.0; 4];
        let sink = StatsSink::new(2);
        let oracle = InspectedWriter::new(&map, 0..4);
        run_executor(
            &pool,
            Schedule::multimax(),
            WaitStrategy::default(),
            &l,
            1..1,
            &ByWriter {
                oracle: &oracle,
                order: None,
            },
            SharedSlice::new(&mut y),
            SharedSlice::new(&mut ynew),
            &ready,
            0,
            Post { map: None },
            &sink,
            None,
        );
        let mut stats = RunStats::default();
        sink.drain_into(&mut stats);
        assert_eq!(stats.deps.total(), 0);
    }
}
