//! Completion counters: a set of iterations is finished when its
//! iterations are, not when every worker has said so.
//!
//! The paper's executor only ever busy-waits on *data* (`ready(off)`,
//! Figure 5 S4), never on a processor. A barrier breaks that rule — every
//! worker must check in, so one descheduled worker stalls the rest — and so
//! does ending a region just to start the postprocessor in a second one.
//! A [`Completion`] is the coarse-grained `ready` flag that replaces both:
//! workers that executed iterations of the set add how many (`Release`),
//! and whoever needs the set's results polls for the full count
//! (`Acquire`) through the same guarded wait a ready-flag stall uses. A
//! worker that executed nothing adds nothing and is waited for by nobody.
//!
//! ## Memory ordering
//!
//! Every [`Completion::add`] is a `Release` read-modify-write, so each one
//! continues the release sequence of all earlier adds; the `Acquire` load
//! that reads the full count therefore synchronizes with *every*
//! contributor, and all their plain stores happen-before the waiter's
//! loads.
//!
//! ## Commit or abort, never both
//!
//! One counter per region — the last level's, which for a flag-gated
//! region is its only one — gates the copy-back into `y`. `y` must stay
//! byte-identical to its input unless the solve succeeds, so once any
//! worker may have begun copying, no worker may abort, and vice versa. A
//! worker that dies holding unfinished iterations (a panic, a deadline
//! noticed mid-chunk) decides that by itself: its iterations are never
//! counted, so the gate never opens. A waiter that notices the deadline
//! while holding *nothing* does not: its siblings could still finish and
//! commit. It must first [abandon](Completion::wait) the commit counter —
//! one compare-and-swap that fails exactly when the count is already full,
//! in which case the waiter commits with everyone else instead.

use crate::stats::{LocalCounters, StatsSink};
use doacross_par::{abort_region, wait_until_guarded, RegionPoison, WaitAbort};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Set on a counter that a deadline-struck waiter has given up on: the
/// count can then never read as full.
const ABANDONED: usize = 1 << (usize::BITS - 1);

/// How a worker leaves a region early: the region's fault latch and
/// deadline (captured once before dispatch), which every wait polls, and
/// the counter — with its target — that gates the region's copy-back,
/// which a deadline-struck waiter must abandon first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegionGuard<'a> {
    pub poison: &'a RegionPoison,
    pub deadline: Option<Instant>,
    pub commit: (&'a Completion, usize),
}

impl RegionGuard<'_> {
    /// Leaves the region early: deposits the worker's partial counters (so
    /// the fault observer sees its progress — ordered by the poison word's
    /// release/acquire) and unwinds cooperatively.
    pub(crate) fn bail(
        &self,
        sink: &StatsSink,
        worker: usize,
        local: &mut LocalCounters,
        abort: WaitAbort,
    ) -> ! {
        sink.deposit(worker, std::mem::take(local));
        abort_region(self.poison, abort)
    }
}

/// Counts finished iterations of one set (a wavefront level, or a flag
/// executor's whole range) towards a target the waiters know.
#[derive(Debug, Default)]
pub(crate) struct Completion {
    done: AtomicUsize,
}

impl Completion {
    /// Back to zero for the next run. `Relaxed`: no region is in flight,
    /// and the pool's dispatch orders this before every worker's access.
    pub(crate) fn reset(&self) {
        self.done.store(0, Ordering::Relaxed);
    }

    /// Counts `k` more iterations as finished; everything the caller wrote
    /// before is published to whoever sees the full count. Returns whether
    /// this add is the one that filled it.
    #[inline]
    pub(crate) fn add(&self, k: usize, target: usize) -> bool {
        self.done.fetch_add(k, Ordering::Release) + k == target
    }

    #[inline]
    fn is_full(&self, target: usize) -> bool {
        self.done.load(Ordering::Acquire) == target
    }

    /// Marks the set as never completing unless it already has; `false`
    /// means the count was full first.
    fn abandon(&self, target: usize) -> bool {
        self.done
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |done| {
                (done != target).then_some(done | ABANDONED)
            })
            .is_ok()
    }

    /// Polls until the count reaches `target`. `Err` when the region is
    /// poisoned, or when this waiter noticed the deadline first *and*
    /// `guard.commit` could still be abandoned; the caller then
    /// [bails](RegionGuard::bail). A deadline noticed after the commit
    /// counter filled is ignored: every counter of the region is full by
    /// then.
    #[inline]
    pub(crate) fn wait(&self, target: usize, guard: &RegionGuard<'_>) -> Result<(), WaitAbort> {
        let (commit, commit_target) = guard.commit;
        match wait_until_guarded(|| self.is_full(target), guard.poison, guard.deadline) {
            Ok(_) => Ok(()),
            Err(WaitAbort::DeadlineExpired) if !commit.abandon(commit_target) => Ok(()),
            Err(abort) => Err(abort),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn guard<'a>(
        poison: &'a RegionPoison,
        deadline: Option<Instant>,
        commit: (&'a Completion, usize),
    ) -> RegionGuard<'a> {
        RegionGuard {
            poison,
            deadline,
            commit,
        }
    }

    #[test]
    fn the_add_that_fills_the_count_says_so() {
        let c = Completion::default();
        assert!(!c.add(3, 5));
        assert!(!c.is_full(5));
        assert!(c.add(2, 5));
        assert!(c.is_full(5));
        c.reset();
        assert!(!c.is_full(5));
    }

    #[test]
    fn waiting_on_a_full_count_returns_at_once() {
        let poison = RegionPoison::new();
        let c = Completion::default();
        c.add(4, 4);
        assert_eq!(c.wait(4, &guard(&poison, None, (&c, 4))), Ok(()));
    }

    #[test]
    fn wakes_when_a_sibling_fills_the_count() {
        let poison = RegionPoison::new();
        let c = Completion::default();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(5));
                c.add(1, 2);
                c.add(1, 2);
            });
            assert_eq!(c.wait(2, &guard(&poison, None, (&c, 2))), Ok(()));
        });
    }

    #[test]
    fn a_poisoned_region_aborts_the_wait() {
        let poison = RegionPoison::new();
        poison.poison_worker(1);
        let c = Completion::default();
        assert!(matches!(
            c.wait(1, &guard(&poison, None, (&c, 1))),
            Err(WaitAbort::Poisoned(_))
        ));
    }

    #[test]
    fn an_expired_deadline_abandons_the_commit_counter() {
        let poison = RegionPoison::new();
        let past = Instant::now() - Duration::from_millis(1);
        let (level, last) = (Completion::default(), Completion::default());
        assert_eq!(
            level.wait(3, &guard(&poison, Some(past), (&last, 2))),
            Err(WaitAbort::DeadlineExpired)
        );
        // Late finishers can no longer open the copy-back gate.
        assert!(!last.add(2, 2));
        assert!(!last.is_full(2));
    }

    #[test]
    fn a_deadline_after_the_commit_point_is_ignored() {
        let poison = RegionPoison::new();
        let past = Instant::now() - Duration::from_millis(1);
        let (level, last) = (Completion::default(), Completion::default());
        last.add(2, 2);
        // `level` never fills here, which the real executor excludes (the
        // last level fills last); the point is that the waiter may not
        // abort once a sibling may be copying back.
        assert_eq!(
            level.wait(3, &guard(&poison, Some(past), (&last, 2))),
            Ok(())
        );
        assert!(last.is_full(2), "the full count is left untouched");
    }
}
