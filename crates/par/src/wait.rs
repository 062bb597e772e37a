//! Busy-wait policies for the executor's `while (ready(..) != DONE)` loops.
//!
//! The paper's executor (Figure 5, statement S4) busy-waits on a shared
//! `ready` flag until the iteration that writes the awaited element
//! completes. On the Encore Multimax every processor ran exactly one worker,
//! so a pure spin was adequate; on a modern host the pool may be
//! oversubscribed (e.g. simulating 16 "processors" on 2 cores), in which
//! case the spinner must yield the CPU so the writer can make progress.
//! [`WaitStrategy`] captures that spectrum, and every wait site reports how
//! many polls it performed so the benchmark harness can attribute overhead
//! (paper §3.1 lists "execution time dependency checks" and waiting as the
//! two executor-side overheads).

/// How a doacross executor waits for a not-yet-satisfied true dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitStrategy {
    /// Pure user-space spinning (`std::hint::spin_loop`). Matches the
    /// paper's dedicated-processor setup; only safe when workers ≤ cores.
    Spin,
    /// Spin `spins` times, then interleave `thread::yield_now` calls.
    /// The default: performs like `Spin` uncontended, and remains live
    /// under oversubscription.
    SpinYield {
        /// Polls before the first yield.
        spins: u32,
    },
    /// Exponential backoff: spin in doubling batches up to `max_spin_batch`,
    /// then yield between batches. Lowest coherence traffic on long waits.
    Backoff {
        /// Upper bound on the spin-batch size (polls per batch).
        max_spin_batch: u32,
    },
}

impl Default for WaitStrategy {
    fn default() -> Self {
        WaitStrategy::SpinYield { spins: 128 }
    }
}

/// Guarded waits re-check the deadline every `DEADLINE_POLL_PERIOD`
/// misses: `Instant::now()` is ~20ns, so amortized over 1024 idle polls
/// the clock read is free, while a busy wait still notices an expired
/// deadline within microseconds.
const DEADLINE_POLL_PERIOD: u64 = 1024;

impl WaitStrategy {
    /// Polls `cond` until it returns `true`; returns the number of polls
    /// that found the condition false (0 when it was already satisfied).
    ///
    /// The returned count is the paper's "busy wait" overhead in units of
    /// flag loads, which the instrumentation layer aggregates per run.
    #[inline]
    fn wait_until<F: FnMut() -> bool>(&self, mut cond: F) -> u64 {
        if cond() {
            return 0;
        }
        let mut misses: u64 = 1;
        match *self {
            WaitStrategy::Spin => {
                while !cond() {
                    misses += 1;
                    std::hint::spin_loop();
                }
            }
            WaitStrategy::SpinYield { spins } => {
                let spins = spins.max(1) as u64;
                while !cond() {
                    misses += 1;
                    if misses.is_multiple_of(spins) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
            WaitStrategy::Backoff { max_spin_batch } => {
                let cap = max_spin_batch.max(1);
                let mut batch: u32 = 1;
                'outer: loop {
                    for _ in 0..batch {
                        if cond() {
                            break 'outer;
                        }
                        misses += 1;
                        std::hint::spin_loop();
                    }
                    if cond() {
                        break;
                    }
                    misses += 1;
                    std::thread::yield_now();
                    batch = (batch.saturating_mul(2)).min(cap);
                }
            }
        }
        misses
    }

    /// Polls `cond` until it returns `true`, fault-aware: alongside `cond`,
    /// every poll also checks the region's poison word, and (when a
    /// `deadline` is set) the clock every 1024 misses. The spin policy
    /// (spin/yield/backoff cadence) is the strategy's.
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
        &self,
        mut cond: F,
        poison: &crate::RegionPoison,
        deadline: Option<std::time::Instant>,
    ) -> Result<u64, crate::WaitAbort> {
        let mut aborted: Option<crate::WaitAbort> = None;
        let mut misses: u64 = 0;
        let polls = self.wait_until(|| {
            if cond() {
                return true;
            }
            if let Some(fault) = poison.fault() {
                aborted = Some(crate::WaitAbort::Poisoned(fault));
                return true;
            }
            misses += 1;
            if let Some(deadline) = deadline {
                if misses.is_multiple_of(DEADLINE_POLL_PERIOD)
                    && std::time::Instant::now() >= deadline
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

    /// [`Self::wait_until_guarded`], timed: additionally reports how many
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
        &self,
        mut cond: F,
        poison: &crate::RegionPoison,
        deadline: Option<std::time::Instant>,
    ) -> Result<(u64, u64), crate::WaitAbort> {
        if cond() {
            return Ok((0, 0));
        }
        let started = std::time::Instant::now();
        let polls = self.wait_until_guarded(cond, poison, deadline)?;
        Ok((polls + 1, started.elapsed().as_nanos() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RegionFault, RegionPoison, WaitAbort};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;

    fn strategies() -> Vec<WaitStrategy> {
        vec![
            WaitStrategy::Spin,
            WaitStrategy::SpinYield { spins: 4 },
            WaitStrategy::SpinYield { spins: 1 },
            WaitStrategy::Backoff { max_spin_batch: 16 },
            WaitStrategy::default(),
        ]
    }

    #[test]
    fn already_true_costs_zero_polls() {
        for s in strategies() {
            assert_eq!(s.wait_until(|| true), 0, "{s:?}");
        }
    }

    #[test]
    fn counts_false_polls() {
        for s in strategies() {
            let calls = AtomicU32::new(0);
            let misses = s.wait_until(|| calls.fetch_add(1, Ordering::Relaxed) >= 3);
            assert!(misses >= 3, "{s:?}: {misses}");
        }
    }

    #[test]
    fn wakes_when_flag_flips_cross_thread() {
        for s in strategies() {
            let flag = Arc::new(AtomicBool::new(false));
            let setter = {
                let flag = Arc::clone(&flag);
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    flag.store(true, Ordering::Release);
                })
            };
            let misses = s.wait_until(|| flag.load(Ordering::Acquire));
            setter.join().unwrap();
            assert!(misses > 0, "{s:?} should have observed at least one miss");
        }
    }

    #[test]
    fn backoff_batch_growth_is_capped() {
        // Regression guard: the doubling batch must not overflow and must
        // terminate promptly once the condition holds.
        let s = WaitStrategy::Backoff { max_spin_batch: 2 };
        let calls = AtomicU32::new(0);
        let misses = s.wait_until(|| calls.fetch_add(1, Ordering::Relaxed) >= 1000);
        assert!(misses >= 1000);
    }

    #[test]
    fn default_is_spin_yield() {
        match WaitStrategy::default() {
            WaitStrategy::SpinYield { spins } => assert!(spins > 0),
            other => panic!("unexpected default {other:?}"),
        }
    }

    #[test]
    fn guarded_wait_matches_plain_wait_when_clean() {
        let poison = RegionPoison::new();
        for s in strategies() {
            assert_eq!(s.wait_until_guarded(|| true, &poison, None), Ok(0), "{s:?}");
            let calls = AtomicU32::new(0);
            let misses = s
                .wait_until_guarded(|| calls.fetch_add(1, Ordering::Relaxed) >= 3, &poison, None)
                .expect("clean region must not abort");
            assert!(misses >= 3, "{s:?}: {misses}");
        }
    }

    #[test]
    fn guarded_wait_aborts_on_pre_poisoned_region() {
        let poison = RegionPoison::new();
        poison.poison_worker(1);
        for s in strategies() {
            let abort = s
                .wait_until_guarded(|| false, &poison, None)
                .expect_err("a poisoned region must abort the wait");
            assert_eq!(
                abort,
                WaitAbort::Poisoned(RegionFault::WorkerPanicked { worker: 1 }),
                "{s:?}"
            );
        }
    }

    #[test]
    fn guarded_wait_aborts_when_poisoned_cross_thread() {
        for s in strategies() {
            let poison = Arc::new(RegionPoison::new());
            let poisoner = {
                let poison = Arc::clone(&poison);
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    poison.poison_worker(2);
                })
            };
            let abort = s
                .wait_until_guarded(|| false, &poison, None)
                .expect_err("the cross-thread poison must be observed");
            poisoner.join().unwrap();
            assert!(matches!(abort, WaitAbort::Poisoned(_)), "{s:?}: {abort:?}");
        }
    }

    #[test]
    fn guarded_wait_aborts_on_an_expired_deadline() {
        let poison = RegionPoison::new();
        let deadline = std::time::Instant::now() - std::time::Duration::from_millis(1);
        for s in strategies() {
            let abort = s
                .wait_until_guarded(|| false, &poison, Some(deadline))
                .expect_err("an already-expired deadline must abort");
            assert_eq!(abort, WaitAbort::DeadlineExpired, "{s:?}");
            assert!(
                poison.fault().is_none(),
                "the wait itself must not poison; that is the caller's job"
            );
        }
    }

    #[test]
    fn timed_wait_fast_path_reports_zero_without_clock_cost() {
        let poison = RegionPoison::new();
        for s in strategies() {
            assert_eq!(
                s.wait_until_guarded_timed(|| true, &poison, None),
                Ok((0, 0)),
                "{s:?}"
            );
        }
    }

    #[test]
    fn timed_wait_measures_a_real_stall() {
        let poison = RegionPoison::new();
        for s in strategies() {
            let flag = Arc::new(AtomicBool::new(false));
            let setter = {
                let flag = Arc::clone(&flag);
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    flag.store(true, Ordering::Release);
                })
            };
            let (misses, ns) = s
                .wait_until_guarded_timed(|| flag.load(Ordering::Acquire), &poison, None)
                .expect("clean region");
            setter.join().unwrap();
            assert!(misses >= 1, "{s:?}");
            assert!(
                ns >= 1_000_000,
                "{s:?}: a 5ms stall must measure at least 1ms, got {ns}"
            );
        }
    }

    #[test]
    fn timed_wait_propagates_aborts() {
        let poison = RegionPoison::new();
        poison.poison_worker(3);
        for s in strategies() {
            let abort = s
                .wait_until_guarded_timed(|| false, &poison, None)
                .expect_err("poisoned region must abort the timed wait too");
            assert!(matches!(abort, WaitAbort::Poisoned(_)), "{s:?}");
        }
    }

    #[test]
    fn guarded_wait_with_future_deadline_completes_normally() {
        let poison = RegionPoison::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        for s in strategies() {
            let calls = AtomicU32::new(0);
            let misses = s
                .wait_until_guarded(
                    || calls.fetch_add(1, Ordering::Relaxed) >= 5,
                    &poison,
                    Some(deadline),
                )
                .expect("a future deadline must not fire");
            assert!(misses >= 5, "{s:?}");
        }
    }
}
