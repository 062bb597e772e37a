//! A fixed-size thread pool whose workers model the paper's processors.
//!
//! A dispatch is the moral equivalent of entering a `parallel do` region on
//! the Encore Multimax: the processors enter the loop, self-schedule
//! iterations among themselves (see [`crate::schedule`]), and the region
//! ends when they are done. The thread that dispatches a region is
//! processor 0 of it — the encountering thread of OpenMP's `taskloop` — so
//! a pool of `p` workers spawns `p − 1` helper threads (workers `1..p`)
//! and a one-worker region runs entirely on the caller's thread. Two
//! entries share one dispatch body:
//!
//! * [`ThreadPool::run_joinable`] — helpers *join* while registration is
//!   open. The dispatcher runs `job(0)`, closes registration when it
//!   returns, and waits only for the helpers that joined; nobody waits for
//!   an absent worker. Every region of the runtime claims its work off a
//!   shared counter (a participant that finds nothing left claims
//!   nothing), so this is how every one is dispatched, and none pays for
//!   waking a helper that arrives after the work is gone. A region a
//!   participant rejected comes back as [`Rejected`], not as a panic.
//! * [`ThreadPool::run`] — *full attendance*: every worker id runs the job
//!   exactly once. For callers that need every worker present: the
//!   engine's health probe of a pool after a faulted solve, and a
//!   [`SpinBarrier`](crate::SpinBarrier) that waits for all `p`.
//!
//! Registration is one word: the region's epoch, an open bit and the count
//! of helpers that joined. A helper joins with one compare-and-swap that
//! succeeds only while the word still carries the open bit and the epoch it
//! woke for; the dispatcher closes with one `fetch_and`, whose result is
//! exactly the set it must wait for. `crates/par/tests/join_models.rs`
//! model-checks the protocol.
//!
//! Either entry blocks the dispatching thread until every participant has
//! returned, which is also the synchronization point that makes reads of
//! region-written data race-free afterwards. Helpers are created once and
//! reused across dispatches (the paper reuses its `iter`/`ready` scratch
//! arrays across loops for the same reason: per-instance setup cost must
//! be amortizable).

use crate::poison::{CoopUnwind, RegionFault, RegionPoison, Rejected};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Type-erased pointer to the job closure of a region.
///
/// Dereferenced only by a helper whose registration for the region the
/// pointer was published with succeeded; the dispatcher keeps the closure
/// alive until every registered helper has left.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointer is dereferenced only between a successful
// registration and the same helper's departure, during which the
// dispatcher keeps the closure alive; `Sync` on the closure makes
// concurrent calls sound.
unsafe impl Send for Job {}

/// Region word layout: `epoch << EPOCH_SHIFT | OPEN | joined`.
const JOINED: u64 = (1 << 16) - 1;
const OPEN: u64 = 1 << 16;
const EPOCH_SHIFT: u32 = 17;

/// Largest pool: the joined-helper count must fit its field of the word.
const MAX_WORKERS: usize = JOINED as usize + 1;

fn epoch_of(word: u64) -> u64 {
    word >> EPOCH_SHIFT
}

/// The guard of a lock or condvar wait, recovered if a panic poisoned it:
/// [`ThreadPool::dispatch`] re-raises a region fault while it holds
/// `dispatch_lock`, and the pool must stay usable after that fault.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

struct PoolState {
    /// The job published with the region word's current epoch.
    job: Option<Job>,
    /// The dispatcher is asleep on `done_cv`: a departing helper wakes it.
    waiting: bool,
    /// Set by `Drop` to terminate the helpers.
    shutdown: bool,
}

struct PoolShared {
    /// The region word. Its epoch changes only under `state`'s lock, which
    /// is what helpers sleep on; registration and close are lock-free.
    region: AtomicU64,
    /// Helpers of the current region that have returned from its job.
    left: AtomicU64,
    state: Mutex<PoolState>,
    /// Helpers sleep here between regions.
    work_cv: Condvar,
    /// The dispatcher sleeps here until every helper that joined has left.
    done_cv: Condvar,
    /// The current region's fault latch: set (first cause wins, with the
    /// panicking worker's id) by the participant's `catch_unwind`, polled
    /// by every guarded wait site, consumed by the dispatcher after the
    /// drain, and reset at the start of every dispatch.
    poison: RegionPoison,
    /// Deadline applied to guarded wait sites of subsequent regions; set
    /// by the pool's current owner before dispatching.
    deadline: Mutex<Option<Instant>>,
}

/// A pool of `p` workers — the dispatching thread and `p − 1` persistent
/// helpers; `p` plays the role of the paper's processor count.
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
    /// A pool of `nworkers` workers: the dispatching thread is worker 0,
    /// and `nworkers − 1` helper threads are spawned here.
    ///
    /// # Panics
    /// Panics if `nworkers` is 0 or above 65 536.
    pub fn new(nworkers: usize) -> Self {
        assert!(nworkers > 0, "a pool needs at least one worker");
        assert!(
            nworkers <= MAX_WORKERS,
            "a pool has at most {MAX_WORKERS} workers"
        );
        let shared = Arc::new(PoolShared {
            region: AtomicU64::new(0),
            left: AtomicU64::new(0),
            state: Mutex::new(PoolState {
                job: None,
                waiting: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            poison: RegionPoison::new(),
            deadline: Mutex::new(None),
        });
        let handles = (1..nworkers)
            .map(|worker_id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("doacross-worker-{worker_id}"))
                    .spawn(move || helper_loop(&shared, worker_id))
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

    /// Number of workers ("processors") in the pool, the dispatching
    /// thread included.
    #[inline]
    pub fn threads(&self) -> usize {
        self.nworkers
    }

    /// Regions dispatched so far ([`Self::run`] and [`Self::run_joinable`]
    /// calls, faulted ones included) — lets a caller assert how many
    /// regions a solve cost.
    pub fn dispatches(&self) -> u64 {
        epoch_of(self.shared.region.load(Ordering::Relaxed))
    }

    /// The pool's region fault latch. Wait sites inside a region capture
    /// this before dispatch and poll it alongside their real conditions
    /// (see [`wait_until_guarded`](crate::wait_until_guarded)).
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
        *unpoisoned(self.shared.deadline.lock()) = deadline;
    }

    /// The deadline for regions dispatched now, if any.
    pub fn deadline(&self) -> Option<Instant> {
        *unpoisoned(self.shared.deadline.lock())
    }

    /// Executes `job(worker_id)` exactly once for every worker id, blocking
    /// until all have returned: worker 0 on the calling thread, the rest on
    /// the helpers. Equivalent to one `parallel do` region in which every
    /// processor checks in — what a health probe and a barrier need.
    ///
    /// The join establishes happens-before between everything the
    /// participants wrote and the dispatcher's subsequent reads.
    ///
    /// # Panics
    /// Panics if any worker's `job` invocation panicked or a guarded wait
    /// expired the region deadline — after all participants drained the
    /// region (poisoning keeps the drain finite; see [`crate::poison`]).
    /// The panic payload is the typed [`crate::RegionFault`], carrying the
    /// panicking worker's id (0 is the calling thread), for an engine
    /// boundary to downcast. A full-attendance job has nothing to reject,
    /// so a rejection here unwinds too, as [`RegionFault::Rejected`].
    pub fn run<F>(&self, job: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.dispatch(&job, false).is_err() {
            std::panic::panic_any(RegionFault::Rejected);
        }
    }

    /// Executes `job(0)` on the calling thread and `job(w)` on every helper
    /// `w` that joins before `job(0)` returns, then blocks until those
    /// helpers have returned. Helpers that arrive later do not run the
    /// job, so each id runs at most once and worker 0 exactly once.
    ///
    /// For jobs that claim their work dynamically: a participant that finds
    /// no claim left must be free to do nothing, and `job(0)` must not
    /// return before every claim has been taken and finished — whoever is
    /// present then does everything once. Same join guarantee and the same
    /// typed panic as [`Self::run`] for a worker panic or an expired
    /// deadline.
    ///
    /// # Errors
    /// [`Rejected`] when a participant left through
    /// [`abort_region`](crate::abort_region) with
    /// [`WaitAbort::Rejected`](crate::WaitAbort::Rejected) and no fault
    /// came first: every participant has drained, nothing panicked, and
    /// the pool is ready for the next region.
    pub fn run_joinable<F>(&self, job: F) -> Result<(), Rejected>
    where
        F: Fn(usize) + Sync,
    {
        self.dispatch(&job, true)
    }

    /// The one dispatch body: publish the region, run worker 0's share,
    /// close registration (at once when `joinable`, after everyone checked
    /// in otherwise), wait for the helpers that joined, report the cause:
    /// a rejection as the return value, a fault as a panic.
    fn dispatch(&self, job: &(dyn Fn(usize) + Sync), joinable: bool) -> Result<(), Rejected> {
        let _dispatch = unpoisoned(self.dispatch_lock.lock());
        let shared = &*self.shared;
        // Panic-flag hygiene: a stale fault (e.g. latched by a region
        // whose dispatcher unwound early) must not leak into this region.
        shared.poison.clear();
        let epoch = epoch_of(shared.region.load(Ordering::Relaxed)) + 1;
        let helpers = (self.nworkers - 1) as u64;
        if helpers == 0 {
            shared.region.store(epoch << EPOCH_SHIFT, Ordering::Relaxed);
            run_worker(&shared.poison, job, 0);
        } else {
            let erased: *const (dyn Fn(usize) + Sync) = job;
            // SAFETY: we erase the closure's lifetime to store it in the
            // shared slot; it is dereferenced only by helpers that
            // registered for this epoch, and `await_helpers` below returns
            // only once every one of them has left, before `job` can die.
            let erased: *const (dyn Fn(usize) + Sync + 'static) =
                unsafe { std::mem::transmute(erased) };
            {
                let mut state = unpoisoned(shared.state.lock());
                state.job = Some(Job(erased));
                shared.left.store(0, Ordering::Relaxed);
                shared
                    .region
                    .store(epoch << EPOCH_SHIFT | OPEN, Ordering::Release);
            }
            shared.work_cv.notify_all();
            run_worker(&shared.poison, job, 0);
            if !joinable {
                self.await_helpers(helpers);
            }
            // Close registration: one read-modify-write in the word's
            // modification order, so every registration either precedes it
            // (and is counted here) or fails.
            let joined = shared.region.fetch_and(!OPEN, Ordering::AcqRel) & JOINED;
            self.await_helpers(joined);
        }
        match shared.poison.take() {
            None => Ok(()),
            Some(RegionFault::Rejected) => Err(Rejected),
            Some(fault) => std::panic::panic_any(fault),
        }
    }

    /// Blocks until `joined` helpers have left the current region.
    /// `Acquire` pairs with each helper's `Release` departure, so their
    /// writes happen-before the dispatcher's return. A helper that joined
    /// has usually finished by the time the dispatcher's own share returns,
    /// so the dispatcher first yields a few times — on a CPU it shares with
    /// the helper, that lets the helper finish — and only then sleeps.
    fn await_helpers(&self, joined: u64) {
        const YIELDS: usize = 8;
        let left = || self.shared.left.load(Ordering::Acquire) == joined;
        for _ in 0..YIELDS {
            if left() {
                return;
            }
            std::thread::yield_now();
        }
        let mut state = unpoisoned(self.shared.state.lock());
        state.waiting = true;
        while !left() {
            state = unpoisoned(self.shared.done_cv.wait(state));
        }
        state.waiting = false;
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = unpoisoned(self.shared.state.lock());
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
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

/// Runs one participant's share. A real panic poisons the region with the
/// worker's id; a cooperative unwind is a *reaction* to an existing fault
/// (or carries its own deadline poison already) and does not re-poison,
/// and first cause wins, so the cascade of sibling unwinds never masks the
/// original worker id. The dispatcher's share goes through here too.
fn run_worker(poison: &RegionPoison, job: &(dyn Fn(usize) + Sync), worker: usize) {
    let call = std::panic::AssertUnwindSafe(|| job(worker));
    if let Err(payload) = std::panic::catch_unwind(call) {
        if payload.downcast_ref::<CoopUnwind>().is_none() {
            poison.poison_worker(worker);
        }
    }
}

/// Joins `word`'s region if it is still open: one compare-and-swap per
/// attempt, failing for good once the word is closed or carries another
/// epoch. `Acquire` pairs with the dispatcher's `Release` publication.
fn register(region: &AtomicU64, mut word: u64) -> bool {
    let epoch = epoch_of(word);
    while word & OPEN != 0 && epoch_of(word) == epoch {
        match region.compare_exchange_weak(word, word + 1, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => word = now,
        }
    }
    false
}

fn helper_loop(shared: &PoolShared, worker_id: usize) {
    let mut seen = 0u64;
    loop {
        // The epoch and its job are read together under the lock they were
        // published under; a region missed while asleep is simply skipped.
        let (job, word) = {
            let mut state = unpoisoned(shared.state.lock());
            loop {
                if state.shutdown {
                    return;
                }
                let word = shared.region.load(Ordering::Relaxed);
                if epoch_of(word) != seen {
                    break (state.job, word);
                }
                state = unpoisoned(shared.work_cv.wait(state));
            }
        };
        seen = epoch_of(word);
        let Some(job) = job.filter(|_| register(&shared.region, word)) else {
            continue;
        };
        // SAFETY: registration succeeded for the epoch `job` was published
        // with, so the dispatcher waits for this helper's departure below
        // before the closure can die.
        run_worker(&shared.poison, unsafe { &*job.0 }, worker_id);
        shared.left.fetch_add(1, Ordering::Release);
        // Under the lock, a dispatcher that checked `left` before this add
        // has set `waiting` and is asleep; one that checks after sees it.
        if unpoisoned(shared.state.lock()).waiting {
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
        // dispatcher after run() returns — joinable or not.
        let pool = ThreadPool::new(4);
        for joinable in [false, true] {
            let mut data = vec![0usize; 1024];
            let view = crate::SharedSlice::new(&mut data);
            let next = AtomicUsize::new(0);
            let job = |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= 1024 {
                    break;
                }
                // SAFETY: `fetch_add` hands each index to exactly one
                // worker; the region's join orders the writes before the
                // reads.
                unsafe { view.write(i, i + 1) };
            };
            if joinable {
                pool.run_joinable(job).unwrap();
            } else {
                pool.run(job);
            }
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i + 1, "joinable {joinable}");
            }
        }
    }

    #[test]
    fn dispatches_count_regions() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.dispatches(), 0);
        pool.run(|_| {});
        pool.run_joinable(|_| {}).unwrap();
        assert_eq!(pool.dispatches(), 2);
        let single = ThreadPool::new(1);
        single.run(|_| {});
        assert_eq!(single.dispatches(), 1);
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
    fn a_one_worker_region_runs_on_the_callers_thread_and_spawns_nothing() {
        let pool = ThreadPool::new(1);
        assert!(pool.handles.is_empty(), "no helper thread");
        let caller = std::thread::current().id();
        for joinable in [false, true] {
            let ran_on = std::sync::Mutex::new(None);
            let job = |w: usize| {
                assert_eq!(w, 0);
                *ran_on.lock().unwrap() = Some(std::thread::current().id());
            };
            if joinable {
                pool.run_joinable(job).unwrap();
            } else {
                pool.run(job);
            }
            assert_eq!(ran_on.into_inner().unwrap(), Some(caller));
        }
    }

    #[test]
    fn worker_zero_is_the_dispatching_thread() {
        let pool = ThreadPool::new(3);
        let caller = std::thread::current().id();
        pool.run(|w| {
            assert_eq!(w == 0, std::thread::current().id() == caller, "worker {w}");
        });
    }

    #[test]
    fn joinable_regions_run_worker_zero_once_and_never_more_than_p_calls() {
        const REGIONS: usize = 10_000;
        let pool = ThreadPool::new(3);
        let zero = AtomicUsize::new(0);
        let calls = AtomicUsize::new(0);
        for region in 0..REGIONS {
            zero.store(0, Ordering::Relaxed);
            calls.store(0, Ordering::Relaxed);
            pool.run_joinable(|w| {
                assert!(w < 3);
                if w == 0 {
                    zero.fetch_add(1, Ordering::Relaxed);
                }
                calls.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert_eq!(zero.load(Ordering::Relaxed), 1, "region {region}");
            let calls = calls.load(Ordering::Relaxed);
            assert!((1..=3).contains(&calls), "region {region}: {calls} calls");
        }
        assert_eq!(pool.dispatches(), REGIONS as u64);
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
        // The dispatcher re-panics with the typed fault naming the worker —
        // here the calling thread's own share.
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
    fn a_panicking_dispatcher_share_waits_for_a_helper_still_inside_the_job() {
        // Worker 0 (the caller) panics while helper 1 sleeps inside the
        // job; the entry may return — and re-raise — only once that helper
        // has finished, because the job it runs borrows the caller's frame.
        use std::sync::atomic::AtomicBool;
        let pool = ThreadPool::new(2);
        for joinable in [false, true] {
            let (entered, finished) = (AtomicBool::new(false), AtomicBool::new(false));
            let job = |w: usize| {
                if w == 0 {
                    while !entered.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    panic!("the caller's share fails");
                }
                entered.store(true, Ordering::Release);
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished.store(true, Ordering::Release);
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if joinable {
                    pool.run_joinable(job).unwrap();
                } else {
                    pool.run(job);
                }
            }));
            assert!(
                finished.load(Ordering::Acquire),
                "joinable {joinable}: returned while a helper was still inside the job"
            );
            let payload = result.expect_err("the caller's panic must propagate");
            let fault = payload.downcast_ref::<crate::RegionFault>().unwrap();
            assert_eq!(*fault, crate::RegionFault::WorkerPanicked { worker: 0 });
        }
        let hits = AtomicUsize::new(0);
        pool.run(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2, "pool reusable");
    }

    #[test]
    fn consecutive_panicking_regions_each_report_and_pool_stays_usable() {
        // Panic-flag hygiene: the fault latch must reset per dispatch, so
        // back-to-back failing regions each surface their own worker id
        // and a following clean region runs silently.
        let pool = ThreadPool::new(4);
        for victim in [1usize, 3, 2, 0] {
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
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let poison = pool.poison();
            pool.run(|w| {
                if w == 0 {
                    panic!("dies before raising the flag");
                }
                match crate::wait_until_guarded(|| flag.load(Ordering::Acquire), poison, None) {
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
        pool.set_deadline(Some(Instant::now() + std::time::Duration::from_millis(10)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let poison = pool.poison();
            let deadline = pool.deadline();
            pool.run(|_| {
                match crate::wait_until_guarded(|| flag.load(Ordering::Acquire), poison, deadline) {
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
    fn a_rejected_joinable_region_returns_after_every_participant_drained() {
        // Worker 0 waits until a helper is inside the job, then rejects;
        // the helper drains on the poison word. The dispatcher returns the
        // rejection instead of unwinding, only after the helper left, and
        // the next region starts clean.
        use std::sync::atomic::AtomicBool;
        let pool = ThreadPool::new(2);
        let (entered, drained) = (AtomicBool::new(false), AtomicBool::new(false));
        let poison = pool.poison();
        let outcome = pool.run_joinable(|w| {
            if w == 0 {
                while !entered.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                crate::abort_region(poison, crate::WaitAbort::Rejected);
            }
            entered.store(true, Ordering::Release);
            let waited = crate::wait_until_guarded(|| false, poison, None);
            drained.store(true, Ordering::Release);
            if let Err(abort) = waited {
                assert_eq!(abort, crate::WaitAbort::Poisoned(RegionFault::Rejected));
                crate::abort_region(poison, abort);
            }
        });
        assert_eq!(outcome, Err(Rejected));
        assert!(drained.load(Ordering::Acquire), "the helper drained first");
        assert_eq!(pool.poison().fault(), None, "the cause was taken");
        assert_eq!(pool.run_joinable(|_| {}), Ok(()));

        // A full-attendance region has nothing to reject: it unwinds.
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|_| crate::abort_region(poison, crate::WaitAbort::Rejected));
        }))
        .expect_err("a rejection in `run` unwinds");
        let fault = payload.downcast_ref::<RegionFault>().unwrap();
        assert_eq!(*fault, RegionFault::Rejected);
    }

    #[test]
    fn drop_joins_workers() {
        // Mainly a leak/deadlock check: building and dropping many pools
        // must terminate.
        for _ in 0..20 {
            let pool = ThreadPool::new(3);
            pool.run(|_| {});
            pool.run_joinable(|_| {}).unwrap();
        }
    }
}
