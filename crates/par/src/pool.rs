//! A fixed-size thread pool whose workers model the paper's processors.
//!
//! The pool hands one job closure to every worker per dispatch — the moral
//! equivalent of entering a `parallel do` region on the Encore Multimax: all
//! `p` processors enter the loop, self-schedule iterations among themselves
//! (see [`crate::schedule`]), and the region ends when every processor is
//! done. [`ThreadPool::run`] blocks the dispatching thread until the region
//! completes, which is also the synchronization point that makes
//! postprocessing reads of executor-written data race-free.
//!
//! Workers are created once and reused across dispatches (the paper reuses
//! its `iter`/`ready` scratch arrays across loops for the same reason:
//! per-instance setup cost must be amortizable).

use crate::poison::{CoopUnwind, RegionPoison};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Type-erased pointer to the job closure currently being executed.
///
/// The pointer is only dereferenced while the dispatching thread is blocked
/// inside [`ThreadPool::run`], so the pointee outlives every use.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointer is dereferenced only between job publication and the
// final `active == 0` hand-shake, during which the dispatcher keeps the
// closure alive; `Sync` on the closure makes concurrent calls sound.
unsafe impl Send for Job {}

struct PoolState {
    /// Monotonically increasing dispatch counter; workers use it to detect
    /// fresh jobs.
    epoch: u64,
    /// The published job, if a dispatch is in flight.
    job: Option<Job>,
    /// Workers still executing the current job.
    active: usize,
    /// Set by `Drop` to terminate the workers.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers sleep here between dispatches.
    work_cv: Condvar,
    /// The dispatcher sleeps here until `active` drops to zero.
    done_cv: Condvar,
    /// The current region's fault latch: set (first cause wins, with the
    /// panicking worker's id) by the worker-side `catch_unwind`, polled by
    /// every guarded wait site, consumed by the dispatcher after the
    /// drain, and reset at the start of every dispatch.
    poison: RegionPoison,
    /// Deadline applied to guarded wait sites of subsequent regions; set
    /// by the pool's current owner before dispatching.
    deadline: Mutex<Option<Instant>>,
}

/// A pool of `p` persistent worker threads; `p` plays the role of the
/// paper's processor count.
///
/// ```
/// use doacross_par::ThreadPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.run(|worker| {
///     assert!(worker < 4);
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 4);
/// ```
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    /// Serializes concurrent `run` callers; a pool executes one parallel
    /// region at a time, exactly like a single shared-memory machine.
    dispatch_lock: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    nworkers: usize,
}

impl ThreadPool {
    /// Spawns a pool with `nworkers` worker threads.
    ///
    /// # Panics
    /// Panics if `nworkers == 0`.
    pub fn new(nworkers: usize) -> Self {
        assert!(nworkers > 0, "a pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            poison: RegionPoison::new(),
            deadline: Mutex::new(None),
        });
        let handles = (0..nworkers)
            .map(|worker_id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("doacross-worker-{worker_id}"))
                    .spawn(move || worker_loop(&shared, worker_id))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            dispatch_lock: Mutex::new(()),
            handles,
            nworkers,
        }
    }

    /// Number of workers ("processors") in the pool.
    #[inline]
    pub fn threads(&self) -> usize {
        self.nworkers
    }

    /// Regions dispatched so far ([`Self::run`] calls, faulted ones
    /// included) — lets a caller assert how many regions a solve cost.
    pub fn dispatches(&self) -> u64 {
        self.shared.state.lock().epoch
    }

    /// The pool's region fault latch. Wait sites inside a region capture
    /// this before dispatch and poll it alongside their real conditions
    /// (see [`WaitStrategy::wait_until_guarded`](crate::WaitStrategy::wait_until_guarded)).
    #[inline]
    pub fn poison(&self) -> &RegionPoison {
        &self.shared.poison
    }

    /// Sets (or clears) the deadline guarded wait sites of subsequent
    /// regions check. The pool stores it; executors read it via
    /// [`Self::deadline`] when entering a region. Callers that share a
    /// pool must own it exclusively (e.g. hold its scheduler guard) while
    /// a deadline is set, and clear it when done.
    pub fn set_deadline(&self, deadline: Option<Instant>) {
        *self.shared.deadline.lock() = deadline;
    }

    /// The deadline for regions dispatched now, if any.
    pub fn deadline(&self) -> Option<Instant> {
        *self.shared.deadline.lock()
    }

    /// Executes `job(worker_id)` once on every worker, blocking until all
    /// workers have returned. Equivalent to one `parallel do` region.
    ///
    /// The spawn→join pair establishes happens-before between everything the
    /// workers wrote and the dispatcher's subsequent reads.
    ///
    /// # Panics
    /// Panics if any worker's `job` invocation panicked or a guarded wait
    /// expired the region deadline — after all workers drained the region
    /// (poisoning keeps the drain finite; see [`crate::poison`]). The
    /// panic payload is the typed [`crate::RegionFault`], carrying the
    /// panicking worker's id, for an engine boundary to downcast.
    pub fn run<F>(&self, job: F)
    where
        F: Fn(usize) + Sync,
    {
        let _dispatch = self.dispatch_lock.lock();
        // Panic-flag hygiene: a stale fault (e.g. latched by a region
        // whose dispatcher unwound early) must not leak into this region.
        self.shared.poison.clear();
        let erased: *const (dyn Fn(usize) + Sync) = &job;
        // SAFETY: we erase the closure's lifetime to store it in the shared
        // slot; the blocking loop below guarantees the pointer is dead
        // before `job` is dropped.
        let erased: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(erased) };
        {
            let mut state = self.shared.state.lock();
            debug_assert!(state.job.is_none() && state.active == 0);
            state.job = Some(Job(erased));
            state.active = self.nworkers;
            state.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        let mut state = self.shared.state.lock();
        while state.active != 0 || state.job.is_some() {
            self.shared.done_cv.wait(&mut state);
        }
        drop(state);
        if let Some(fault) = self.shared.poison.take() {
            std::panic::panic_any(fault);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("nworkers", &self.nworkers)
            .finish()
    }
}

fn worker_loop(shared: &PoolShared, worker_id: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock();
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != last_epoch {
                    if let Some(job) = state.job {
                        last_epoch = state.epoch;
                        break job;
                    }
                }
                shared.work_cv.wait(&mut state);
            }
        };
        // SAFETY: the dispatcher keeps the closure alive until `active`
        // reaches zero, which happens only after this call returns.
        let call = std::panic::AssertUnwindSafe(|| unsafe { (*job.0)(worker_id) });
        if let Err(payload) = std::panic::catch_unwind(call) {
            // A cooperative unwind is a *reaction* to an existing fault
            // (or carries its own deadline poison already); only a real
            // panic poisons, and first cause wins so the cascade of
            // sibling unwinds never masks the original worker id.
            if payload.downcast_ref::<CoopUnwind>().is_none() {
                shared.poison.poison_worker(worker_id);
            }
        }
        let mut state = shared.state.lock();
        state.active -= 1;
        if state.active == 0 {
            state.job = None;
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn every_worker_runs_exactly_once_per_dispatch() {
        let pool = ThreadPool::new(4);
        let per_worker: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(|w| {
            per_worker[w].fetch_add(1, Ordering::Relaxed);
        });
        for (w, c) in per_worker.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "worker {w}");
        }
    }

    #[test]
    fn pool_is_reusable_across_many_dispatches() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 600);
    }

    #[test]
    fn run_establishes_happens_before() {
        // Plain (non-atomic) writes by workers must be visible to the
        // dispatcher after run() returns.
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 1024];
        let view = crate::SharedSlice::new(&mut data);
        let next = AtomicUsize::new(0);
        pool.run(|_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= 1024 {
                break;
            }
            // SAFETY: `fetch_add` hands each index to exactly one
            // worker; `run`'s join orders the writes before the reads.
            unsafe { view.write(i, i + 1) };
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i + 1);
        }
    }

    #[test]
    fn dispatches_count_regions() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.dispatches(), 0);
        pool.run(|_| {});
        pool.run(|_| {});
        assert_eq!(pool.dispatches(), 2);
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = ThreadPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.run(|w| {
            assert_eq!(w, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn oversubscribed_pool_completes() {
        // More workers than host cores: dispatch must still converge.
        let pool = ThreadPool::new(16);
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.run(|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 160);
    }

    #[test]
    fn worker_panic_propagates_to_dispatcher_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|w| {
                if w == 0 {
                    panic!("injected failure");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        // The dispatcher re-panics with the typed fault naming the worker.
        let fault = payload
            .downcast_ref::<crate::RegionFault>()
            .expect("payload must be the typed RegionFault");
        assert_eq!(*fault, crate::RegionFault::WorkerPanicked { worker: 0 });
        // The pool must remain usable after a worker panic.
        let hits = AtomicUsize::new(0);
        pool.run(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn consecutive_panicking_regions_each_report_and_pool_stays_usable() {
        // Panic-flag hygiene: the fault latch must reset per dispatch, so
        // back-to-back failing regions each surface their own worker id
        // and a following clean region runs silently.
        let pool = ThreadPool::new(4);
        for victim in [1usize, 3, 2] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|w| {
                    if w == victim {
                        panic!("injected failure on {victim}");
                    }
                });
            }));
            let payload = result.expect_err("each region's panic must propagate");
            let fault = payload.downcast_ref::<crate::RegionFault>().unwrap();
            assert_eq!(
                *fault,
                crate::RegionFault::WorkerPanicked { worker: victim }
            );
        }
        let hits = AtomicUsize::new(0);
        pool.run(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4, "clean region after faults");
    }

    #[test]
    fn first_cause_wins_when_several_workers_panic() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|_| panic!("everyone fails"));
        }));
        let payload = result.expect_err("panic must propagate");
        let fault = payload.downcast_ref::<crate::RegionFault>().unwrap();
        assert!(
            matches!(fault, crate::RegionFault::WorkerPanicked { worker } if *worker < 4),
            "{fault:?}"
        );
    }

    #[test]
    fn guarded_waiters_drain_when_a_sibling_panics() {
        // The end-to-end poison protocol at pool level: worker 0 panics
        // before publishing the flag workers 1..3 busy-wait on. Unguarded,
        // this region would never drain; the guarded wait observes the
        // poison and unwinds cooperatively, and the dispatcher reports the
        // *panicking* worker, not one of the cooperative unwinds.
        use std::sync::atomic::AtomicBool;
        let pool = ThreadPool::new(4);
        let flag = AtomicBool::new(false);
        let wait = crate::WaitStrategy::default();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let poison = pool.poison();
            pool.run(|w| {
                if w == 0 {
                    panic!("dies before raising the flag");
                }
                match wait.wait_until_guarded(|| flag.load(Ordering::Acquire), poison, None) {
                    Ok(_) => {}
                    Err(abort) => crate::abort_region(poison, abort),
                }
            });
        }));
        let payload = result.expect_err("the region must fail, not hang");
        let fault = payload.downcast_ref::<crate::RegionFault>().unwrap();
        assert_eq!(*fault, crate::RegionFault::WorkerPanicked { worker: 0 });
        // And the pool is immediately reusable.
        let hits = AtomicUsize::new(0);
        pool.run(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn deadline_expiry_drains_the_region_and_reports_timeout() {
        use std::sync::atomic::AtomicBool;
        let pool = ThreadPool::new(2);
        let flag = AtomicBool::new(false); // never raised
        let wait = crate::WaitStrategy::default();
        pool.set_deadline(Some(Instant::now() + std::time::Duration::from_millis(10)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let poison = pool.poison();
            let deadline = pool.deadline();
            pool.run(|_| {
                match wait.wait_until_guarded(|| flag.load(Ordering::Acquire), poison, deadline) {
                    Ok(_) => {}
                    Err(abort) => crate::abort_region(poison, abort),
                }
            });
        }));
        pool.set_deadline(None);
        let payload = result.expect_err("the wedged region must time out, not hang");
        let fault = payload.downcast_ref::<crate::RegionFault>().unwrap();
        assert_eq!(*fault, crate::RegionFault::DeadlineExpired);
        let hits = AtomicUsize::new(0);
        pool.run(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(
            hits.load(Ordering::Relaxed),
            2,
            "pool reusable after timeout"
        );
    }

    #[test]
    fn concurrent_dispatchers_are_serialized() {
        let pool = std::sync::Arc::new(ThreadPool::new(2));
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let pool = std::sync::Arc::clone(&pool);
            let total = std::sync::Arc::clone(&total);
            joins.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    pool.run(|_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 25 * 2);
    }

    #[test]
    fn drop_joins_workers() {
        // Mainly a leak/deadlock check: building and dropping many pools
        // must terminate.
        for _ in 0..20 {
            let pool = ThreadPool::new(3);
            pool.run(|_| {});
        }
    }
}
