//! Region poisoning: cooperative fault propagation for parallel regions.
//!
//! The doacross executors synchronize with unbounded busy-waits (ready
//! flags, the wavefront's level completion counts). A worker that panics
//! mid-region never publishes the flags (or never counts the iterations)
//! its siblings are waiting on — without poisoning, one bad iteration
//! wedges every other worker forever and the region never drains.
//! [`RegionPoison`] is the one-word protocol that turns that hang into a
//! clean, typed teardown:
//!
//! 1. The pool's `catch_unwind` around each participant's share — the
//!    dispatching thread's own (worker 0) included — or a
//!    deadline-expired waiter stores the fault cause into the region's
//!    poison word with a first-cause-wins CAS (`Release`).
//! 2. Every guarded wait site polls the word (`Acquire`) alongside its
//!    real condition and, on observing a fault, unwinds cooperatively via
//!    [`abort_region`] — a marker panic the pool recognizes and does
//!    **not** re-poison — so every participant drains.
//! 3. After the dispatcher's own share returned (or unwound) and every
//!    helper that joined has left,
//!    [`ThreadPool::run`](crate::ThreadPool::run) takes the fault and
//!    re-panics with the typed [`RegionFault`] payload for the engine
//!    boundary to catch and convert.
//!
//! The `Release` store / `Acquire` poll pair also publishes everything the
//! faulting thread wrote *before* poisoning (e.g. partial per-worker
//! counters it deposited on its way out) to whichever thread observes the
//! fault — the protocol is modeled and mutation-tested in
//! `crates/par/tests/interleave_models.rs`.
//!
//! Scratch left behind by a poisoned region (ready flags, writer maps,
//! completion counts) is torn; callers must discard it, not reuse it.

use std::panic::panic_any;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a parallel region was torn down early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionFault {
    /// A worker's job invocation panicked; `worker` is the pool-local id
    /// of the first worker whose panic poisoned the region.
    WorkerPanicked {
        /// Pool-local worker index (0-based). Worker 0 is the thread that
        /// dispatched the region — the caller itself runs worker 0's
        /// share — and `1..p` are the pool's helper threads.
        worker: usize,
    },
    /// A guarded wait observed the region deadline in the past.
    DeadlineExpired,
}

impl std::fmt::Display for RegionFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionFault::WorkerPanicked { worker } => {
                write!(f, "pool worker {worker} panicked during a parallel region")
            }
            RegionFault::DeadlineExpired => {
                write!(f, "the parallel region's deadline expired")
            }
        }
    }
}

/// Why a guarded wait aborted instead of satisfying its condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitAbort {
    /// The region's poison word carries a fault: some sibling already
    /// failed; stop waiting for flags that will never be published.
    Poisoned(RegionFault),
    /// This waiter itself observed the deadline in the past. The caller
    /// must poison the region (so siblings unwind too) before unwinding.
    DeadlineExpired,
}

/// Poison word states. 0 = clean, 1 = deadline, `worker + WORKER_BASE` =
/// worker panic.
const CLEAN: u64 = 0;
const DEADLINE: u64 = 1;
const WORKER_BASE: u64 = 2;

/// One-word fault latch shared by every participant of a parallel region.
///
/// First cause wins: once poisoned, later faults (including the cascade of
/// cooperative unwinds) do not overwrite the original cause. Cleared by
/// the pool at the start of every dispatch, so a fault never leaks into
/// the next region (panic-flag hygiene).
#[derive(Debug, Default)]
pub struct RegionPoison {
    state: AtomicU64,
}

impl RegionPoison {
    /// A clean poison word.
    pub const fn new() -> Self {
        Self {
            state: AtomicU64::new(CLEAN),
        }
    }

    /// The fault, if any. `Acquire`: observing a fault also makes the
    /// faulting thread's prior writes visible.
    #[inline]
    pub fn fault(&self) -> Option<RegionFault> {
        decode(self.state.load(Ordering::Acquire))
    }

    /// Records a worker panic. First cause wins; returns `true` when this
    /// call was the poisoning one.
    pub fn poison_worker(&self, worker: usize) -> bool {
        let encoded = (worker as u64).saturating_add(WORKER_BASE);
        self.state
            .compare_exchange(CLEAN, encoded, Ordering::Release, Ordering::Relaxed)
            .is_ok()
    }

    /// Records a deadline expiry. First cause wins; returns `true` when
    /// this call was the poisoning one.
    fn poison_deadline(&self) -> bool {
        self.state
            .compare_exchange(CLEAN, DEADLINE, Ordering::Release, Ordering::Relaxed)
            .is_ok()
    }

    /// Takes the fault, leaving the word clean — the pool's post-drain
    /// consumption point.
    pub fn take(&self) -> Option<RegionFault> {
        decode(self.state.swap(CLEAN, Ordering::AcqRel))
    }

    /// Clears any fault without reporting it — the pool's per-dispatch
    /// hygiene reset.
    pub fn clear(&self) {
        self.state.store(CLEAN, Ordering::Release);
    }
}

fn decode(word: u64) -> Option<RegionFault> {
    match word {
        CLEAN => None,
        DEADLINE => Some(RegionFault::DeadlineExpired),
        encoded => Some(RegionFault::WorkerPanicked {
            worker: (encoded - WORKER_BASE) as usize,
        }),
    }
}

/// Marker payload of a cooperative unwind: the panic a guarded wait site
/// throws after observing poison. The pool's `catch_unwind` around each
/// participant's share recognizes it and does not re-poison (the original
/// cause stands).
#[derive(Debug)]
pub(crate) struct CoopUnwind;

/// Aborts the current region participant: records a deadline fault when
/// this waiter is the one that noticed the expiry, then unwinds with the
/// cooperative marker so the pool drains the region without treating this
/// thread as a new, independent panic.
///
/// Never returns. Only meaningful inside a pool region (or on a thread
/// whose unwind a caller catches).
pub fn abort_region(poison: &RegionPoison, abort: WaitAbort) -> ! {
    if matches!(abort, WaitAbort::DeadlineExpired) {
        poison.poison_deadline();
    }
    panic_any(CoopUnwind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_word_reports_nothing() {
        let p = RegionPoison::new();
        assert_eq!(p.fault(), None);
        assert_eq!(p.take(), None);
    }

    #[test]
    fn first_cause_wins() {
        let p = RegionPoison::new();
        assert!(p.poison_worker(3));
        assert!(!p.poison_worker(7), "second panic must not overwrite");
        assert!(!p.poison_deadline(), "deadline must not overwrite a panic");
        assert_eq!(p.fault(), Some(RegionFault::WorkerPanicked { worker: 3 }));
    }

    #[test]
    fn deadline_then_panic_keeps_deadline() {
        let p = RegionPoison::new();
        assert!(p.poison_deadline());
        assert!(!p.poison_worker(0));
        assert_eq!(p.fault(), Some(RegionFault::DeadlineExpired));
    }

    #[test]
    fn take_consumes_and_clears() {
        let p = RegionPoison::new();
        p.poison_worker(5);
        assert_eq!(p.take(), Some(RegionFault::WorkerPanicked { worker: 5 }));
        assert_eq!(p.take(), None, "take must leave the word clean");
        assert!(p.fault().is_none());
    }

    #[test]
    fn clear_discards_a_fault() {
        let p = RegionPoison::new();
        p.poison_deadline();
        p.clear();
        assert_eq!(p.fault(), None);
    }

    #[test]
    fn worker_zero_round_trips() {
        let p = RegionPoison::new();
        p.poison_worker(0);
        assert_eq!(p.fault(), Some(RegionFault::WorkerPanicked { worker: 0 }));
    }

    #[test]
    fn abort_region_poisons_on_deadline_and_unwinds_with_the_marker() {
        let p = RegionPoison::new();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            abort_region(&p, WaitAbort::DeadlineExpired)
        }))
        .expect_err("abort_region must unwind");
        assert!(payload.downcast_ref::<CoopUnwind>().is_some());
        assert_eq!(p.fault(), Some(RegionFault::DeadlineExpired));
    }

    #[test]
    fn abort_region_on_observed_poison_does_not_repoison() {
        let p = RegionPoison::new();
        p.poison_worker(2);
        let fault = p.fault().unwrap();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            abort_region(&p, WaitAbort::Poisoned(fault))
        }))
        .expect_err("abort_region must unwind");
        assert!(payload.downcast_ref::<CoopUnwind>().is_some());
        assert_eq!(p.fault(), Some(RegionFault::WorkerPanicked { worker: 2 }));
    }

    #[test]
    fn fault_display_names_the_cause() {
        let text = RegionFault::WorkerPanicked { worker: 4 }.to_string();
        assert!(text.contains("worker 4"), "{text}");
        let text = RegionFault::DeadlineExpired.to_string();
        assert!(text.contains("deadline"), "{text}");
    }
}
