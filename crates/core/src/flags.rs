//! The shared scratch arrays of the construct: `ready` flags and the
//! `iter` writer map.
//!
//! Both arrays are sized to the *data space* (the arrays being indexed, not
//! the iteration space) and are deliberately reusable: the paper's
//! postprocessing phase exists precisely so that one allocation + one
//! initialization serves every preprocessed doacross instance in a program
//! ("we reuse the same arrays iter and ready for multiple preprocessed
//! doacross loops", §2.1).

use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};

/// The paper's `MAXINT`: the `iter` value for elements no iteration writes.
///
/// Any comparison `iter(off) - i` with an unwritten element must land in the
/// "use old `y`" branch, which `i64::MAX` guarantees for every valid
/// iteration number.
pub const MAXINT: i64 = i64::MAX;

/// The flag value no epoch ever takes: a flag nobody has raised yet.
const NOTDONE: u32 = 0;

/// The paper's `ready` array: one DONE/NOTDONE flag per data element, with
/// a release/acquire hand-off protocol.
///
/// The writer iteration stores its result to `ynew(a(i))` with plain writes
/// and then calls [`ReadyFlags::mark_done`] (release). A waiting reader
/// polls [`ReadyFlags::is_done`] (acquire); once it observes `DONE`, the
/// writer's `ynew` stores are ordered before the reader's loads — this pair
/// is the entire cross-iteration memory-ordering story of the executor.
///
/// `DONE` is not a constant but the current *epoch*: a flag reads done only
/// while it holds the epoch it was raised in, so [`ReadyFlags::retire`]
/// returns every flag to `NOTDONE` by advancing one integer — the paper's
/// postprocessing pass `ready(a(i)) = NOTDONE` without touching the array.
#[derive(Debug)]
pub struct ReadyFlags {
    flags: Vec<AtomicU32>,
    /// What `DONE` means for the run in flight; never [`NOTDONE`].
    epoch: u32,
}

impl ReadyFlags {
    /// Creates `len` flags, all `NOTDONE` (paper: `ready` initialized before
    /// first use).
    pub fn new(len: usize) -> Self {
        let mut flags = Vec::with_capacity(len);
        flags.resize_with(len, || AtomicU32::new(NOTDONE));
        Self { flags, epoch: 1 }
    }

    /// Number of flags (size of the data space).
    #[inline]
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the flag set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Marks `element`'s value as published (Figure 2 statement S3 /
    /// Figure 5 `ready(a(i)) = DONE`). Release ordering: everything the
    /// calling thread wrote before this call is visible to any thread that
    /// subsequently observes `DONE`.
    #[inline]
    pub fn mark_done(&self, element: usize) {
        self.flags[element].store(self.epoch, Ordering::Release);
    }

    /// Polls `element`'s flag (Figure 2 statement S1 / Figure 5 S4).
    /// Acquire ordering pairs with [`ReadyFlags::mark_done`].
    #[inline]
    pub fn is_done(&self, element: usize) -> bool {
        self.flags[element].load(Ordering::Acquire) == self.epoch
    }

    /// Returns every flag to `NOTDONE` in O(1) by starting a new epoch.
    /// `&mut self`: no region is in flight. When the epoch counter would
    /// wrap onto a value some stale flag may still hold, the array is
    /// cleared once — every 2³² − 1 runs.
    pub fn retire(&mut self) {
        if self.epoch == u32::MAX {
            for flag in &mut self.flags {
                *flag.get_mut() = NOTDONE;
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// True when every flag reads `NOTDONE` — the reuse invariant that must
    /// hold between doacross instances. O(n); intended for tests and debug
    /// assertions.
    pub fn all_clear(&self) -> bool {
        self.flags
            .iter()
            .all(|f| f.load(Ordering::Relaxed) != self.epoch)
    }
}

/// The paper's `iter` array: for each data element, the iteration number
/// that writes it, or [`MAXINT`] if no iteration does.
///
/// Filled by the inspector inside one parallel region and read by the
/// executor in a later region; the pool's dispatch join orders the two, so
/// relaxed atomics suffice (the atomicity is only needed for the
/// output-dependency *detection* swap in [`IterMap::record`]).
#[derive(Debug)]
pub struct IterMap {
    writers: Vec<AtomicI64>,
}

impl IterMap {
    /// Creates a map of `len` elements, all [`MAXINT`].
    pub fn new(len: usize) -> Self {
        let mut writers = Vec::with_capacity(len);
        writers.resize_with(len, || AtomicI64::new(MAXINT));
        Self { writers }
    }

    /// Number of elements (size of the data space).
    #[inline]
    pub fn len(&self) -> usize {
        self.writers.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.writers.is_empty()
    }

    /// Records that iteration `iteration` writes `element` (inspector,
    /// Figure 3 left: `iter(a(i)) = i`).
    ///
    /// Returns the previous writer so the inspector can detect output
    /// dependencies: anything other than [`MAXINT`] means two iterations
    /// write the same element.
    #[inline]
    pub fn record(&self, element: usize, iteration: usize) -> i64 {
        self.writers[element].swap(iteration as i64, Ordering::Relaxed)
    }

    /// The iteration that writes `element`, or [`MAXINT`] (executor's
    /// `iter(offset)` load).
    #[inline]
    pub fn writer(&self, element: usize) -> i64 {
        self.writers[element].load(Ordering::Relaxed)
    }

    /// Resets `element` to [`MAXINT`] (postprocessing, Figure 3 right:
    /// `iter(a(i)) = MAXINT`).
    #[inline]
    pub fn clear(&self, element: usize) {
        self.writers[element].store(MAXINT, Ordering::Relaxed);
    }

    /// True when every entry is [`MAXINT`] — the reuse invariant between
    /// doacross instances. O(n); for tests and debug assertions.
    pub fn all_clear(&self) -> bool {
        self.writers
            .iter()
            .all(|w| w.load(Ordering::Relaxed) == MAXINT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_flags_start_clear() {
        let r = ReadyFlags::new(16);
        assert_eq!(r.len(), 16);
        assert!(!r.is_empty());
        assert!(r.all_clear());
        assert!((0..16).all(|e| !r.is_done(e)));
    }

    #[test]
    fn ready_mark_and_retire_cycle() {
        let mut r = ReadyFlags::new(4);
        r.mark_done(2);
        assert!(r.is_done(2));
        assert!(!r.all_clear());
        r.retire();
        assert!(!r.is_done(2));
        assert!(r.all_clear());
    }

    #[test]
    fn retiring_clears_every_flag_without_touching_them() {
        let mut r = ReadyFlags::new(3);
        r.mark_done(0);
        r.mark_done(2);
        r.retire();
        assert!(r.all_clear());
        assert!((0..3).all(|e| !r.is_done(e)));
        // A flag raised in the new epoch reads done; the stale ones do not.
        r.mark_done(1);
        assert!(r.is_done(1) && !r.is_done(0) && !r.is_done(2));
    }

    #[test]
    fn epoch_wrap_clears_stale_flags() {
        let mut r = ReadyFlags::new(2);
        r.mark_done(0); // holds epoch 1
        r.epoch = u32::MAX;
        r.mark_done(1);
        r.retire();
        assert_eq!(r.epoch, 1, "wrapped past NOTDONE");
        assert!(
            r.all_clear(),
            "the flag raised in the first epoch 1 is gone"
        );
    }

    #[test]
    fn iter_map_starts_at_maxint() {
        let m = IterMap::new(8);
        assert_eq!(m.len(), 8);
        assert!(m.all_clear());
        assert!((0..8).all(|e| m.writer(e) == MAXINT));
    }

    #[test]
    fn iter_record_returns_previous_writer() {
        let m = IterMap::new(4);
        assert_eq!(m.record(1, 10), MAXINT);
        assert_eq!(m.record(1, 11), 10, "second write reveals the collision");
        assert_eq!(m.writer(1), 11);
        m.clear(1);
        assert_eq!(m.writer(1), MAXINT);
        assert!(m.all_clear());
    }

    #[test]
    fn maxint_always_lands_in_old_value_branch() {
        // check = iter(off) - i must be > 0 for every feasible i when the
        // element is unwritten.
        for i in [0usize, 1, 1_000_000, usize::MAX >> 2] {
            assert!(MAXINT > i as i64);
        }
    }

    #[test]
    fn ready_release_acquire_publishes_data() {
        // Writer publishes a plain value guarded by mark_done; reader spins
        // on is_done. This is the executor's S4/S5 pattern in isolation.
        use std::sync::atomic::{AtomicU64, Ordering as O};
        let r = ReadyFlags::new(1);
        let payload = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                payload.store(7, O::Relaxed);
                r.mark_done(0);
            });
            s.spawn(|| {
                while !r.is_done(0) {
                    std::hint::spin_loop();
                }
                assert_eq!(payload.load(O::Relaxed), 7);
            });
        });
    }

    #[test]
    fn empty_structures() {
        let r = ReadyFlags::new(0);
        let m = IterMap::new(0);
        assert!(r.is_empty() && m.is_empty());
        assert!(r.all_clear() && m.all_clear());
    }
}
