//! The executor's busy-wait: `while (ready(..) != DONE)`.
//!
//! The paper's executor (Figure 5, statement S4) busy-waits on a shared
//! `ready` flag until the iteration that writes the awaited element
//! completes. On the Encore Multimax every processor ran exactly one worker,
//! so a pure spin was adequate; on a modern host the pool may be
//! oversubscribed (e.g. simulating 16 "processors" on 2 cores), in which
//! case the spinner must yield the CPU so the writer can make progress. So
//! the one wait spins, and yields once every 128 polls; every wait site
//! reports how many polls it performed so the benchmark harness can
//! attribute overhead (paper §3.1 lists "execution time dependency checks"
//! and waiting as the two executor-side overheads).

/// Polls between two `thread::yield_now` calls of a wait: uncontended the
/// wait is a pure spin, and under oversubscription it stays live.
const SPINS: u64 = 128;

/// Guarded waits re-check the deadline every `DEADLINE_POLL_PERIOD`
/// misses: `Instant::now()` is ~20ns, so amortized over 1024 idle polls
/// the clock read is free, while a busy wait still notices an expired
/// deadline within microseconds.
const DEADLINE_POLL_PERIOD: u64 = 1024;

/// Polls `cond` until it returns `true`; returns the number of polls
/// that found the condition false (0 when it was already satisfied).
///
/// The returned count is the paper's "busy wait" overhead in units of
/// flag loads, which the instrumentation layer aggregates per run.
#[inline]
fn wait_until<F: FnMut() -> bool>(mut cond: F) -> u64 {
    if cond() {
        return 0;
    }
    let mut misses: u64 = 1;
    while !cond() {
        misses += 1;
        if misses.is_multiple_of(SPINS) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    misses
}

/// Polls `cond` until it returns `true`, fault-aware: alongside `cond`,
/// every poll also checks the region's poison word, and (when a
/// `deadline` is set) the clock every 1024 misses.
///
/// Returns `Ok(misses)` when `cond` came true, `Err` when the wait
/// aborted: [`WaitAbort::Poisoned`](crate::WaitAbort::Poisoned) if a
/// sibling already faulted (stop waiting for flags that will never be
/// published), [`WaitAbort::DeadlineExpired`](crate::WaitAbort::DeadlineExpired)
/// if this waiter noticed the expiry
/// first — the caller must poison the region before unwinding, which
/// is what [`abort_region`](crate::abort_region) does.
#[inline]
pub fn wait_until_guarded<F: FnMut() -> bool>(
    mut cond: F,
    poison: &crate::RegionPoison,
    deadline: Option<std::time::Instant>,
) -> Result<u64, crate::WaitAbort> {
    let mut aborted: Option<crate::WaitAbort> = None;
    let mut misses: u64 = 0;
    let polls = wait_until(|| {
        if cond() {
            return true;
        }
        if let Some(fault) = poison.fault() {
            aborted = Some(crate::WaitAbort::Poisoned(fault));
            return true;
        }
        misses += 1;
        if let Some(deadline) = deadline {
            if misses.is_multiple_of(DEADLINE_POLL_PERIOD) && std::time::Instant::now() >= deadline
            {
                aborted = Some(crate::WaitAbort::DeadlineExpired);
                return true;
            }
        }
        false
    });
    match aborted {
        None => Ok(polls),
        Some(abort) => Err(abort),
    }
}

/// [`wait_until_guarded`], timed: additionally reports how many
/// nanoseconds the wait spent blocked, for profilers that attribute
/// stall time per worker. The satisfied-on-first-poll fast path reads
/// no clock at all — an iteration whose dependency is already
/// published pays one branch here, nothing more. Only an actual stall
/// (first poll misses) takes two `Instant` reads.
///
/// Returns `Ok((misses, wait_ns))`; `misses` is at least 1 whenever
/// `wait_ns` is measured, so `wait_ns > 0 ⇒ misses > 0` and a caller
/// can treat the pair as one stall event.
#[inline]
pub fn wait_until_guarded_timed<F: FnMut() -> bool>(
    mut cond: F,
    poison: &crate::RegionPoison,
    deadline: Option<std::time::Instant>,
) -> Result<(u64, u64), crate::WaitAbort> {
    if cond() {
        return Ok((0, 0));
    }
    let started = std::time::Instant::now();
    let polls = wait_until_guarded(cond, poison, deadline)?;
    Ok((polls + 1, started.elapsed().as_nanos() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RegionFault, RegionPoison, WaitAbort};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn already_true_costs_zero_polls() {
        assert_eq!(wait_until(|| true), 0);
    }

    #[test]
    fn counts_false_polls() {
        // Past one yield period, so the yield branch runs too.
        let calls = AtomicU32::new(0);
        let misses = wait_until(|| calls.fetch_add(1, Ordering::Relaxed) >= 3 * SPINS as u32);
        assert!(misses >= 3 * SPINS, "{misses}");
    }

    #[test]
    fn wakes_when_flag_flips_cross_thread() {
        let flag = Arc::new(AtomicBool::new(false));
        let setter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                flag.store(true, Ordering::Release);
            })
        };
        let misses = wait_until(|| flag.load(Ordering::Acquire));
        setter.join().unwrap();
        assert!(misses > 0, "should have observed at least one miss");
    }

    #[test]
    fn guarded_wait_matches_plain_wait_when_clean() {
        let poison = RegionPoison::new();
        assert_eq!(wait_until_guarded(|| true, &poison, None), Ok(0));
        let calls = AtomicU32::new(0);
        let misses =
            wait_until_guarded(|| calls.fetch_add(1, Ordering::Relaxed) >= 3, &poison, None)
                .expect("clean region must not abort");
        assert!(misses >= 3, "{misses}");
    }

    #[test]
    fn guarded_wait_aborts_on_pre_poisoned_region() {
        let poison = RegionPoison::new();
        poison.poison_worker(1);
        let abort = wait_until_guarded(|| false, &poison, None)
            .expect_err("a poisoned region must abort the wait");
        assert_eq!(
            abort,
            WaitAbort::Poisoned(RegionFault::WorkerPanicked { worker: 1 })
        );
    }

    #[test]
    fn guarded_wait_aborts_when_poisoned_cross_thread() {
        let poison = Arc::new(RegionPoison::new());
        let poisoner = {
            let poison = Arc::clone(&poison);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                poison.poison_worker(2);
            })
        };
        let abort = wait_until_guarded(|| false, &poison, None)
            .expect_err("the cross-thread poison must be observed");
        poisoner.join().unwrap();
        assert!(matches!(abort, WaitAbort::Poisoned(_)), "{abort:?}");
    }

    #[test]
    fn guarded_wait_aborts_on_an_expired_deadline() {
        let poison = RegionPoison::new();
        let deadline = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let abort = wait_until_guarded(|| false, &poison, Some(deadline))
            .expect_err("an already-expired deadline must abort");
        assert_eq!(abort, WaitAbort::DeadlineExpired);
        assert!(
            poison.fault().is_none(),
            "the wait itself must not poison; that is the caller's job"
        );
    }

    #[test]
    fn timed_wait_fast_path_reports_zero_without_clock_cost() {
        let poison = RegionPoison::new();
        assert_eq!(wait_until_guarded_timed(|| true, &poison, None), Ok((0, 0)));
    }

    #[test]
    fn timed_wait_measures_a_real_stall() {
        let poison = RegionPoison::new();
        let flag = Arc::new(AtomicBool::new(false));
        let setter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                flag.store(true, Ordering::Release);
            })
        };
        let (misses, ns) = wait_until_guarded_timed(|| flag.load(Ordering::Acquire), &poison, None)
            .expect("clean region");
        setter.join().unwrap();
        assert!(misses >= 1);
        assert!(
            ns >= 1_000_000,
            "a 5ms stall must measure at least 1ms, got {ns}"
        );
    }

    #[test]
    fn timed_wait_propagates_aborts() {
        let poison = RegionPoison::new();
        poison.poison_worker(3);
        let abort = wait_until_guarded_timed(|| false, &poison, None)
            .expect_err("poisoned region must abort the timed wait too");
        assert!(matches!(abort, WaitAbort::Poisoned(_)));
    }

    #[test]
    fn guarded_wait_with_future_deadline_completes_normally() {
        let poison = RegionPoison::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let calls = AtomicU32::new(0);
        let misses = wait_until_guarded(
            || calls.fetch_add(1, Ordering::Relaxed) >= 5,
            &poison,
            Some(deadline),
        )
        .expect("a future deadline must not fire");
        assert!(misses >= 5);
    }
}
