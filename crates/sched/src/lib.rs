//! # doacross-sched
//!
//! Worker partitioning and solve admission for the preprocessed doacross
//! engine.
//!
//! A single [`ThreadPool`] serializes parallel regions behind one dispatch
//! lock, so concurrent tenants of one engine pipeline at dispatch even
//! when the machine has workers to spare. [`PoolSet`] removes that
//! ceiling: it partitions the engine's workers into N independent
//! sub-pools (NUMA-style — each sub-pool's workers are a fixed, disjoint
//! set of threads) and routes each solve to a free sub-pool through a
//! lock-free bitmask claim.
//!
//! The dispatch discipline, hot path first:
//!
//! 1. **Fast path** — a round-robin rotor picks a preferred sub-pool and a
//!    CAS on the free-bitmask claims it. No lock, no syscall.
//! 2. **Work-stealing fallback** — if the preferred sub-pool is busy, the
//!    scan continues around the ring and claims any other free sub-pool
//!    (counted as a *steal* in [`PoolStats`]).
//! 3. **Bounded admission** — if every sub-pool is busy, the caller waits
//!    on a condvar *only if* fewer than `max_pending` callers are already
//!    waiting; otherwise acquisition fails with a typed [`Saturated`]
//!    error instead of piling up unboundedly.
//!
//! Releases are lock-free when nobody is waiting: set the bit, check the
//! waiter count, done. The condvar's mutex is touched only on the
//! contended path.

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, LockResult, Mutex, PoisonError};

use doacross_par::ThreadPool;

/// Hard cap on sub-pools: the free set is a single `u64` bitmask.
pub const MAX_POOLS: usize = 64;

/// Default bound on callers allowed to wait for a sub-pool before
/// admission fails with [`Saturated`]. Generous — saturation is a
/// back-pressure signal for pathological pileup, not a throttle on
/// ordinary multi-tenant bursts.
pub const DEFAULT_MAX_PENDING: usize = 1024;

/// The guard of the wait lock or of a wait on `available`, recovered if a
/// panic poisoned it: the lock guards no data, so a panicking waiter must
/// not wedge admission for everyone after it.
fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Typed admission failure: every sub-pool was busy and the pending-waiter
/// queue was already at its bound. The solve was **not** executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Saturated {
    /// Number of sub-pools in the set.
    pub pools: usize,
    /// The admission bound that was hit.
    pub max_pending: usize,
}

impl fmt::Display for Saturated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheduler saturated: all {} sub-pool(s) busy and {} caller(s) already pending",
            self.pools, self.max_pending
        )
    }
}

impl std::error::Error for Saturated {}

/// Per-sub-pool dispatch counters, exact (engine-side, independent of the
/// observability layer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Sub-pool index.
    pub pool: usize,
    /// Workers owned by this sub-pool.
    pub workers: usize,
    /// Total acquisitions routed to this sub-pool.
    pub dispatches: u64,
    /// Acquisitions that landed here because the caller's preferred
    /// sub-pool was busy (the work-stealing fallback).
    pub steals: u64,
}

struct PoolSlot {
    pool: ThreadPool,
    dispatches: AtomicU64,
    steals: AtomicU64,
}

/// Fault-injection site: arm with `FailAction::Saturate { times }` to make
/// the next `times` calls to [`PoolSet::acquire`] fail as if every sub-pool
/// were busy, exercising admission-control error paths deterministically.
const FAILPOINT_ACQUIRE: &str = "sched::acquire";

/// A partition of the engine's workers into independent sub-pools with a
/// lock-light free-pool dispatcher and bounded solve admission.
pub struct PoolSet {
    slots: Vec<PoolSlot>,
    /// Bit `i` set ⇒ sub-pool `i` is free. Claimed by CAS.
    free: AtomicU64,
    /// Round-robin rotor: spreads preferred sub-pools across callers.
    rotor: AtomicUsize,
    /// Callers currently blocked waiting for a free sub-pool.
    waiters: AtomicUsize,
    /// Pairs with `available`; taken only on the contended path.
    wait_lock: Mutex<()>,
    available: Condvar,
    max_pending: usize,
    saturations: AtomicU64,
    workers_per_pool: usize,
}

impl PoolSet {
    /// Builds `pools` sub-pools of `workers_per_pool` workers each.
    ///
    /// # Panics
    ///
    /// If `pools` is 0 or exceeds [`MAX_POOLS`].
    pub fn new(pools: usize, workers_per_pool: usize, max_pending: usize) -> Self {
        assert!(pools >= 1, "PoolSet requires at least one sub-pool");
        assert!(
            pools <= MAX_POOLS,
            "PoolSet supports at most {MAX_POOLS} sub-pools"
        );
        let slots = (0..pools)
            .map(|_| PoolSlot {
                pool: ThreadPool::new(workers_per_pool),
                dispatches: AtomicU64::new(0),
                steals: AtomicU64::new(0),
            })
            .collect::<Vec<_>>();
        let free = if pools == MAX_POOLS {
            u64::MAX
        } else {
            (1u64 << pools) - 1
        };
        Self {
            slots,
            free: AtomicU64::new(free),
            rotor: AtomicUsize::new(0),
            waiters: AtomicUsize::new(0),
            wait_lock: Mutex::new(()),
            available: Condvar::new(),
            max_pending,
            saturations: AtomicU64::new(0),
            workers_per_pool: workers_per_pool.max(1),
        }
    }

    /// Number of sub-pools.
    pub fn pools(&self) -> usize {
        self.slots.len()
    }

    /// Workers owned by each sub-pool.
    pub fn workers_per_pool(&self) -> usize {
        self.workers_per_pool
    }

    /// Total workers across all sub-pools.
    pub fn total_workers(&self) -> usize {
        self.workers_per_pool * self.slots.len()
    }

    /// The admission bound: callers allowed to wait before [`Saturated`].
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }

    /// The primary sub-pool (index 0) — used for planning-time pricing and
    /// probes, where any pool-shaped handle of the per-pool worker count
    /// will do. Regions on it are safe to run concurrently with a tenant
    /// that holds it (the pool serializes its own regions); they merely
    /// contend.
    pub fn primary(&self) -> &ThreadPool {
        &self.slots[0].pool
    }

    /// Total admission failures so far.
    pub fn saturations(&self) -> u64 {
        self.saturations.load(Ordering::Relaxed)
    }

    /// Exact per-sub-pool dispatch counters.
    pub fn stats(&self) -> Vec<PoolStats> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| PoolStats {
                pool: i,
                workers: s.pool.threads(),
                dispatches: s.dispatches.load(Ordering::Relaxed),
                steals: s.steals.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Scans the free bitmask starting at `preferred`, CAS-claiming the
    /// first free sub-pool. Returns the claimed index, or `None` if every
    /// sub-pool is busy.
    fn try_claim(&self, preferred: usize) -> Option<usize> {
        let n = self.slots.len();
        'retry: loop {
            let free = self.free.load(Ordering::SeqCst);
            if free == 0 {
                return None;
            }
            for off in 0..n {
                let idx = (preferred + off) % n;
                let bit = 1u64 << idx;
                if free & bit == 0 {
                    continue;
                }
                if self
                    .free
                    .compare_exchange(free, free & !bit, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    return Some(idx);
                }
                // Lost the race: the mask moved under us; rescan.
                continue 'retry;
            }
            return None;
        }
    }

    /// Acquires a free sub-pool, waiting (bounded) if all are busy.
    ///
    /// Returns a [`PoolGuard`] that releases the sub-pool on drop, or
    /// [`Saturated`] if every sub-pool is busy and `max_pending` callers
    /// are already waiting.
    pub fn acquire(&self) -> Result<PoolGuard<'_>, Saturated> {
        if failpoint::fire_saturate(FAILPOINT_ACQUIRE) {
            self.saturations.fetch_add(1, Ordering::Relaxed);
            return Err(Saturated {
                pools: self.slots.len(),
                max_pending: self.max_pending,
            });
        }
        let preferred = self.rotor.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        // Fast path: lock-free claim.
        if let Some(idx) = self.try_claim(preferred) {
            return Ok(self.admit(idx, preferred));
        }
        // Contended path: register as a waiter (bounded), then sleep.
        let mut guard = unpoisoned(self.wait_lock.lock());
        loop {
            // Re-scan *after* publishing intent to wait: a release that
            // happened between the fast-path miss and here either left the
            // bit set (this scan claims it) or will see `waiters > 0` and
            // notify.
            self.waiters.fetch_add(1, Ordering::SeqCst);
            if let Some(idx) = self.try_claim(preferred) {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                return Ok(self.admit(idx, preferred));
            }
            if self.waiters.load(Ordering::SeqCst) > self.max_pending {
                self.waiters.fetch_sub(1, Ordering::SeqCst);
                self.saturations.fetch_add(1, Ordering::Relaxed);
                return Err(Saturated {
                    pools: self.slots.len(),
                    max_pending: self.max_pending,
                });
            }
            guard = unpoisoned(self.available.wait(guard));
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn admit(&self, idx: usize, preferred: usize) -> PoolGuard<'_> {
        let slot = &self.slots[idx];
        slot.dispatches.fetch_add(1, Ordering::Relaxed);
        let stolen = idx != preferred;
        if stolen {
            slot.steals.fetch_add(1, Ordering::Relaxed);
        }
        PoolGuard {
            set: self,
            index: idx,
            stolen,
        }
    }

    fn release(&self, idx: usize) {
        self.free.fetch_or(1u64 << idx, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Pair with the waiter's re-scan: take the condvar's mutex so
            // the notify cannot slip between its scan and its sleep.
            let _g = unpoisoned(self.wait_lock.lock());
            self.available.notify_one();
        }
    }
}

/// Exclusive lease on one sub-pool; released (and a waiter woken) on drop.
pub struct PoolGuard<'a> {
    set: &'a PoolSet,
    index: usize,
    stolen: bool,
}

impl PoolGuard<'_> {
    /// The leased sub-pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.set.slots[self.index].pool
    }

    /// Index of the leased sub-pool within the set.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether this lease came from the work-stealing fallback (the
    /// caller's preferred sub-pool was busy).
    pub fn stolen(&self) -> bool {
        self.stolen
    }
}

impl std::fmt::Debug for PoolGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolGuard")
            .field("index", &self.index)
            .field("stolen", &self.stolen)
            .finish_non_exhaustive()
    }
}

impl Drop for PoolGuard<'_> {
    fn drop(&mut self) {
        self.set.release(self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn partitions_workers_into_disjoint_sub_pools() {
        let set = PoolSet::new(3, 2, DEFAULT_MAX_PENDING);
        assert_eq!(set.pools(), 3);
        assert_eq!(set.workers_per_pool(), 2);
        assert_eq!(set.total_workers(), 6);
        for s in set.stats() {
            assert_eq!(s.workers, 2);
            assert_eq!(s.dispatches, 0);
        }
    }

    #[test]
    fn acquires_hand_out_distinct_sub_pools() {
        let set = PoolSet::new(2, 1, 0);
        let a = set.acquire().unwrap();
        let b = set.acquire().unwrap();
        assert_ne!(a.index(), b.index());
    }

    #[test]
    fn saturates_with_a_typed_error_when_the_bound_is_hit() {
        let set = PoolSet::new(1, 1, 0);
        let _held = set.acquire().unwrap();
        let err = set.acquire().unwrap_err();
        assert_eq!(
            err,
            Saturated {
                pools: 1,
                max_pending: 0
            }
        );
        assert_eq!(set.saturations(), 1);
        assert!(err.to_string().contains("saturated"));
    }

    #[test]
    fn release_wakes_a_bounded_waiter() {
        let set = Arc::new(PoolSet::new(1, 1, 4));
        let held = set.acquire().unwrap();
        let got = Arc::new(AtomicBool::new(false));
        let t = {
            let set = Arc::clone(&set);
            let got = Arc::clone(&got);
            std::thread::spawn(move || {
                let g = set.acquire().unwrap();
                got.store(true, Ordering::SeqCst);
                drop(g);
            })
        };
        // The waiter cannot proceed while we hold the only sub-pool.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!got.load(Ordering::SeqCst));
        drop(held);
        t.join().unwrap();
        assert!(got.load(Ordering::SeqCst));
    }

    #[test]
    fn busy_preferred_pool_falls_back_to_stealing_a_free_one() {
        let set = PoolSet::new(2, 1, 0);
        // Rotor: 0 → pool 0, 1 → pool 1, 2 → prefers pool 0 again.
        let g0 = set.acquire().unwrap();
        assert_eq!(g0.index(), 0);
        let g1 = set.acquire().unwrap();
        assert_eq!(g1.index(), 1);
        drop(g1);
        let g2 = set.acquire().unwrap();
        assert_eq!(g2.index(), 1, "preferred pool 0 is held; 1 is stolen");
        assert!(g2.stolen());
        drop(g2);
        drop(g0);
        let stats = set.stats();
        assert_eq!(stats[0].dispatches, 1);
        assert_eq!(stats[1].dispatches, 2);
        assert_eq!(stats[1].steals, 1);
        assert_eq!(stats[0].steals, 0);
    }

    #[test]
    fn dispatch_counts_account_for_every_acquire() {
        let set = Arc::new(PoolSet::new(2, 1, DEFAULT_MAX_PENDING));
        let total = 64usize;
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    for _ in 0..total / 4 {
                        let g = set.acquire().unwrap();
                        // Run a real region on the leased sub-pool.
                        g.pool().run(|_worker| {});
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let dispatched: u64 = set.stats().iter().map(|s| s.dispatches).sum();
        assert_eq!(dispatched, total as u64);
        assert_eq!(set.saturations(), 0);
    }

    #[test]
    fn sub_pools_run_regions_independently() {
        let set = PoolSet::new(2, 2, 0);
        let a = set.acquire().unwrap();
        let b = set.acquire().unwrap();
        let hits = AtomicUsize::new(0);
        // Nested regions on two distinct sub-pools: pool B's region runs
        // while pool A's lease is outstanding — no cross-pool serialization.
        a.pool().run(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        b.pool().run(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn injected_saturation_fails_typed_then_recovers() {
        let set = PoolSet::new(2, 1, DEFAULT_MAX_PENDING);
        failpoint::arm(
            FAILPOINT_ACQUIRE,
            failpoint::FailAction::Saturate { times: 2 },
        );
        let before = set.saturations();
        assert!(set.acquire().is_err());
        assert!(set.acquire().is_err());
        assert_eq!(set.saturations(), before + 2);
        // The countdown is spent: admission recovers with no disarm needed.
        let g = set.acquire().expect("saturation injection must be bounded");
        drop(g);
        failpoint::disarm(FAILPOINT_ACQUIRE);
    }

    #[test]
    fn guard_releases_the_sub_pool_when_a_region_panics() {
        let set = PoolSet::new(1, 2, 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let g = set.acquire().unwrap();
            g.pool().run(|worker| {
                if worker == 0 {
                    panic!("chaos");
                }
            });
        }));
        assert!(result.is_err(), "the region's fault must propagate");
        // The guard dropped during unwinding, so the sole sub-pool is free
        // again and the pool itself still runs clean regions.
        let g = set
            .acquire()
            .expect("panicked region must not leak its lease");
        let hits = AtomicUsize::new(0);
        g.pool().run(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }
}
