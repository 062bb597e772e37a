//! Shim synchronization types: model atomics with vector-clock
//! happens-before, a race-detected non-atomic cell, and the blocking
//! spin-poll primitive.
//!
//! Under a checked execution every operation is a decision point; outside
//! one (the types are also usable from plain unit tests) they degrade to
//! straightforward mutex-protected operations with no scheduling.
//!
//! ## Memory-model fidelity
//!
//! The model is the pragmatic release/acquire fragment the workspace
//! actually relies on, not full C11:
//!
//! - a `Release` (or stronger) store publishes the writer's vector clock
//!   on the atomic; an `Acquire` (or stronger) load joins it — this is the
//!   edge the executor's ready-flag protocol and the barrier's generation
//!   counter depend on;
//! - a `Relaxed` store *clears* the published clock: readers that acquire
//!   after it see no happens-before edge, so a data access "protected" by
//!   a relaxed flag is reported as a race (the bug the checker exists to
//!   catch);
//! - read-modify-writes join both ways when they acquire/release, and
//!   leave the published clock in place when relaxed (a release sequence
//!   headed by the last release store survives relaxed RMWs, matching how
//!   the barrier's `fetch_add` arrivals compose).

use crate::exec::VClock;
use crate::with_ctx;
use crate::FailureKind;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn acquires(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn releases(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct AtomicInner {
    value: u64,
    /// Clock published by the last release store (extended by subsequent
    /// releasing RMWs); empty after a relaxed store.
    msg: VClock,
}

/// A model atomic over a `u64` payload. [`AtomicUsize`] and [`AtomicBool`]
/// are thin wrappers over the same machinery.
pub struct AtomicU64 {
    inner: Mutex<AtomicInner>,
}

impl AtomicU64 {
    /// Creates the atomic with an initial value. Construction is not a
    /// decision point (it happens in the model's setup, before threads).
    pub fn new(value: u64) -> Self {
        AtomicU64 {
            inner: Mutex::new(AtomicInner {
                value,
                msg: VClock::default(),
            }),
        }
    }

    /// Atomic load; `Acquire`-or-stronger joins the publisher's clock.
    pub fn load(&self, ord: Ordering) -> u64 {
        match with_ctx() {
            Some((exec, tid)) => exec.step(tid, |st| {
                let inner = relock(&self.inner);
                if acquires(ord) {
                    st.clocks[tid].join(&inner.msg);
                }
                st.clocks[tid].bump(tid);
                Ok(inner.value)
            }),
            None => relock(&self.inner).value,
        }
    }

    /// Atomic store; `Release`-or-stronger publishes the writer's clock,
    /// `Relaxed` clears it.
    pub fn store(&self, value: u64, ord: Ordering) {
        match with_ctx() {
            Some((exec, tid)) => exec.step(tid, |st| {
                st.clocks[tid].bump(tid);
                let mut inner = relock(&self.inner);
                inner.value = value;
                inner.msg = if releases(ord) {
                    st.clocks[tid].clone()
                } else {
                    VClock::default()
                };
                st.mod_count += 1;
                Ok(())
            }),
            None => relock(&self.inner).value = value,
        }
    }

    /// Atomic read-modify-write with `f`; returns the previous value.
    fn rmw(&self, ord: Ordering, f: impl FnOnce(u64) -> u64) -> u64 {
        match with_ctx() {
            Some((exec, tid)) => exec.step(tid, |st| {
                let mut inner = relock(&self.inner);
                if acquires(ord) {
                    st.clocks[tid].join(&inner.msg);
                }
                st.clocks[tid].bump(tid);
                let prev = inner.value;
                inner.value = f(prev);
                if releases(ord) {
                    // RMWs extend the release sequence rather than
                    // replacing it: join instead of overwrite.
                    let clock = st.clocks[tid].clone();
                    inner.msg.join(&clock);
                }
                st.mod_count += 1;
                Ok(prev)
            }),
            None => {
                let mut inner = relock(&self.inner);
                let prev = inner.value;
                inner.value = f(prev);
                prev
            }
        }
    }

    /// Atomic add; returns the previous value.
    pub fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
        self.rmw(ord, |prev| prev.wrapping_add(v))
    }

    /// Atomic bitwise OR; returns the previous value.
    pub fn fetch_or(&self, v: u64, ord: Ordering) -> u64 {
        self.rmw(ord, |prev| prev | v)
    }

    /// Atomic bitwise AND; returns the previous value.
    pub fn fetch_and(&self, v: u64, ord: Ordering) -> u64 {
        self.rmw(ord, |prev| prev & v)
    }

    /// Atomic compare-exchange. On success behaves as a `success`-ordered
    /// RMW; on failure as a `failure`-ordered load.
    pub fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        match with_ctx() {
            Some((exec, tid)) => exec.step(tid, |st| {
                let mut inner = relock(&self.inner);
                if inner.value == current {
                    if acquires(success) {
                        st.clocks[tid].join(&inner.msg);
                    }
                    st.clocks[tid].bump(tid);
                    inner.value = new;
                    if releases(success) {
                        let clock = st.clocks[tid].clone();
                        inner.msg.join(&clock);
                    }
                    st.mod_count += 1;
                    Ok(Ok(current))
                } else {
                    if acquires(failure) {
                        st.clocks[tid].join(&inner.msg);
                    }
                    st.clocks[tid].bump(tid);
                    Ok(Err(inner.value))
                }
            }),
            None => {
                let mut inner = relock(&self.inner);
                if inner.value == current {
                    inner.value = new;
                    Ok(current)
                } else {
                    Err(inner.value)
                }
            }
        }
    }
}

/// A model atomic `usize` (delegates to [`AtomicU64`]).
pub struct AtomicUsize(AtomicU64);

impl AtomicUsize {
    /// Creates the atomic with an initial value.
    pub fn new(value: usize) -> Self {
        AtomicUsize(AtomicU64::new(value as u64))
    }

    /// Atomic load.
    pub fn load(&self, ord: Ordering) -> usize {
        self.0.load(ord) as usize
    }

    /// Atomic store.
    pub fn store(&self, value: usize, ord: Ordering) {
        self.0.store(value as u64, ord);
    }

    /// Atomic add; returns the previous value.
    pub fn fetch_add(&self, v: usize, ord: Ordering) -> usize {
        self.0.fetch_add(v as u64, ord) as usize
    }

    /// Atomic compare-exchange.
    pub fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        self.0
            .compare_exchange(current as u64, new as u64, success, failure)
            .map(|v| v as usize)
            .map_err(|v| v as usize)
    }
}

/// A model atomic `bool` (delegates to [`AtomicU64`]).
pub struct AtomicBool(AtomicU64);

impl AtomicBool {
    /// Creates the atomic with an initial value.
    pub fn new(value: bool) -> Self {
        AtomicBool(AtomicU64::new(value as u64))
    }

    /// Atomic load.
    pub fn load(&self, ord: Ordering) -> bool {
        self.0.load(ord) != 0
    }

    /// Atomic store.
    pub fn store(&self, value: bool, ord: Ordering) {
        self.0.store(value as u64, ord);
    }
}

struct SharedInner<T> {
    value: T,
    /// Last write: `(tid, epoch)` — the writer's own component at the
    /// moment of the write.
    last_write: Option<(usize, u64)>,
    /// Per-thread epoch of the most recent read.
    read_epochs: Vec<u64>,
}

/// A non-atomic shared cell with FastTrack-style race detection.
///
/// Every access is a decision point. An access races when the previous
/// write (for any access) or any previous read (for a write) is not
/// ordered before it by the vector clocks the atomics propagate.
pub struct Shared<T> {
    label: &'static str,
    inner: Mutex<SharedInner<T>>,
}

impl<T> Shared<T> {
    /// Creates the cell with a label used in race reports.
    pub fn named(label: &'static str, value: T) -> Self {
        Shared {
            label,
            inner: Mutex::new(SharedInner {
                value,
                last_write: None,
                read_epochs: Vec::new(),
            }),
        }
    }

    fn check_read(
        &self,
        st: &mut crate::exec::ExecState,
        tid: usize,
        inner: &mut SharedInner<T>,
    ) -> Result<(), FailureKind> {
        if let Some((w, epoch)) = inner.last_write {
            if w != tid && st.clocks[tid].get(w) < epoch {
                return Err(FailureKind::Race {
                    what: format!(
                        "read of `{}` by thread {tid} races with write by thread {w}",
                        self.label
                    ),
                });
            }
        }
        st.clocks[tid].bump(tid);
        let epoch = st.clocks[tid].get(tid);
        if inner.read_epochs.len() <= tid {
            inner.read_epochs.resize(tid + 1, 0);
        }
        inner.read_epochs[tid] = inner.read_epochs[tid].max(epoch);
        Ok(())
    }

    fn check_write(
        &self,
        st: &mut crate::exec::ExecState,
        tid: usize,
        inner: &mut SharedInner<T>,
    ) -> Result<(), FailureKind> {
        if let Some((w, epoch)) = inner.last_write {
            if w != tid && st.clocks[tid].get(w) < epoch {
                return Err(FailureKind::Race {
                    what: format!(
                        "write of `{}` by thread {tid} races with write by thread {w}",
                        self.label
                    ),
                });
            }
        }
        for (r, &epoch) in inner.read_epochs.iter().enumerate() {
            if r != tid && st.clocks[tid].get(r) < epoch {
                return Err(FailureKind::Race {
                    what: format!(
                        "write of `{}` by thread {tid} races with read by thread {r}",
                        self.label
                    ),
                });
            }
        }
        st.clocks[tid].bump(tid);
        inner.last_write = Some((tid, st.clocks[tid].get(tid)));
        Ok(())
    }

    /// Reads through `f` (a decision point under a checked execution).
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        match with_ctx() {
            Some((exec, tid)) => exec.step(tid, |st| {
                let mut inner = relock(&self.inner);
                self.check_read(st, tid, &mut inner)?;
                Ok(f(&inner.value))
            }),
            None => f(&relock(&self.inner).value),
        }
    }

    /// Writes through `f` (a decision point under a checked execution).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        match with_ctx() {
            Some((exec, tid)) => exec.step(tid, |st| {
                let mut inner = relock(&self.inner);
                self.check_write(st, tid, &mut inner)?;
                Ok(f(&mut inner.value))
            }),
            None => f(&mut relock(&self.inner).value),
        }
    }
}

impl<T: Copy> Shared<T> {
    /// Reads the value (a decision point under a checked execution).
    pub fn read(&self) -> T {
        self.with(|v| *v)
    }

    /// Writes the value (a decision point under a checked execution).
    pub fn write(&self, value: T) {
        self.with_mut(|slot| *slot = value);
    }
}

/// Polls `cond` until it returns `true`.
///
/// Under a checked execution the thread blocks between false polls and is
/// only rescheduled after some atomic write has happened — which is what
/// lets the scheduler prove deadlock: if every live thread is blocked and
/// nothing can change the state they poll, the model has hung and the
/// checker reports [`FailureKind::Deadlock`] instead of spinning forever.
///
/// Outside a checked execution this is a plain spin loop.
pub fn spin_until(mut cond: impl FnMut() -> bool) {
    match with_ctx() {
        Some((exec, tid)) => loop {
            let snapshot = exec.mod_count();
            if cond() {
                return;
            }
            exec.block_on_change(tid, snapshot);
        },
        None => {
            while !cond() {
                std::hint::spin_loop();
            }
        }
    }
}
