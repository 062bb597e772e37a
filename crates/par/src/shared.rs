//! [`SharedSlice`]: the audited shared-array abstraction for doacross loops.
//!
//! The preprocessed doacross writes `ynew(a(i))` from many iterations
//! concurrently while other iterations read `y`/`ynew` elements. Rust's
//! borrow checker (rightly) refuses `&mut` aliasing across threads, so every
//! such access in this workspace is funneled through this one small module,
//! whose safety argument mirrors the paper's correctness argument:
//!
//! 1. **Writes are disjoint.** The paper assumes "no output dependencies
//!    between left hand side array references" (§2.1): `a` is injective, so
//!    no two iterations write the same element. Each `ynew[a[i]]` therefore
//!    has exactly one writer.
//! 2. **Read–write pairs are ordered by the `ready` protocol.** A reader of
//!    `ynew[off]` either is the writer iteration itself (`iter[off] == i`,
//!    program order) or has observed `ready[off] == DONE` via an acquire
//!    load that synchronizes with the writer's release store, establishing
//!    happens-before.
//! 3. **Reads of the old array `y` never race**: during executor execution
//!    `y` is read-only (all writes go to the shadow `ynew`), and the
//!    postprocessing copy-back runs after the pool's dispatch join, which is
//!    itself a synchronization point.
//!
//! Consequently, all plain (non-atomic) accesses made through this type obey
//! the C++11/Rust memory model when the caller upholds the documented
//! contracts. Debug builds additionally bounds-check every access.

use std::marker::PhantomData;

/// An unsynchronized view of a `&mut [T]` that can be copied into many
/// worker closures.
///
/// The lifetime parameter ties the view to the original borrow, so the
/// underlying storage cannot move or be freed while views exist. All methods
/// that touch elements are `unsafe`; the caller promises the data-race
/// freedom conditions in the module documentation.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: a SharedSlice is a pointer+len pair. Sending or sharing it across
// threads is safe in itself because every dereference is an `unsafe` method
// whose contract forces the caller to rule out data races; `T: Send` ensures
// element values may be produced/consumed on other threads, and `T: Sync` is
// required for shared `&T` projections.
unsafe impl<'a, T: Send> Send for SharedSlice<'a, T> {}
unsafe impl<'a, T: Send + Sync> Sync for SharedSlice<'a, T> {}

impl<'a, T> Clone for SharedSlice<'a, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T> Copy for SharedSlice<'a, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Creates a shared view of `slice`.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Number of elements in the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw base pointer (for FFI-style index arithmetic in hot loops).
    #[inline]
    pub fn as_ptr(&self) -> *mut T {
        self.ptr
    }

    #[inline]
    fn check(&self, index: usize) {
        debug_assert!(
            index < self.len,
            "SharedSlice index {index} out of bounds (len {len})",
            len = self.len
        );
    }

    /// Writes `value` to `index` without synchronization.
    ///
    /// The previous element is overwritten without being dropped, which is
    /// why `T: Copy` is required.
    ///
    /// # Safety
    /// - `index < self.len()`.
    /// - No other thread writes `index` concurrently (write disjointness).
    /// - Any thread that reads `index` concurrently must be ordered with
    ///   respect to this write by an external acquire/release protocol.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T)
    where
        T: Copy,
    {
        self.check(index);
        // SAFETY: bounds ensured by contract; aliasing ruled out by contract.
        unsafe { self.ptr.add(index).write(value) };
    }

    /// Reads the element at `index` without synchronization.
    ///
    /// # Safety
    /// - `index < self.len()`.
    /// - Any concurrent writer of `index` must be ordered before this read
    ///   by an external acquire/release protocol (or be the current thread).
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        self.check(index);
        // SAFETY: bounds ensured by contract; racing writes ruled out by contract.
        unsafe { self.ptr.add(index).read() }
    }
}

impl<'a, T> std::fmt::Debug for SharedSlice<'a, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSlice")
            .field("len", &self.len)
            .field("ptr", &self.ptr)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn single_thread_write_read_round_trip() {
        let mut data = vec![0.0f64; 8];
        let view = SharedSlice::new(&mut data);
        for i in 0..view.len() {
            // SAFETY: single-threaded, in-bounds, disjoint indices.
            unsafe { view.write(i, i as f64 * 1.5) };
        }
        for i in 0..view.len() {
            // SAFETY: single-threaded; the writes above have completed.
            assert_eq!(unsafe { view.read(i) }, i as f64 * 1.5);
        }
        let _ = view;
        assert_eq!(data[4], 6.0);
    }

    #[test]
    fn view_is_copy() {
        let mut data = vec![1u32, 2, 3];
        let a = SharedSlice::new(&mut data);
        let b = a; // Copy
                   // SAFETY: single-threaded; both views alias, but the write and the
                   // read are sequenced on this thread.
        unsafe { b.write(0, 7) };
        assert_eq!(unsafe { a.read(0) }, 7);
    }

    #[test]
    fn disjoint_parallel_writes_are_all_visible() {
        // Emulates the inspector: every thread writes a disjoint index set,
        // and the spawn/join pair provides the ordering for later reads.
        const N: usize = 4096;
        const THREADS: usize = 4;
        let mut data = vec![0usize; N];
        let view = SharedSlice::new(&mut data);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    let mut i = t;
                    while i < N {
                        // SAFETY: each thread strides a disjoint
                        // residue class; join orders the final reads.
                        unsafe { view.write(i, i * 10) };
                        i += THREADS;
                    }
                });
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i * 10);
        }
    }

    #[test]
    fn release_acquire_hand_off_between_threads() {
        // The doacross pattern in miniature: thread A writes an element then
        // release-stores a flag; thread B acquire-loads the flag then reads.
        let mut data = vec![0.0f64; 1];
        let view = SharedSlice::new(&mut data);
        let flag = AtomicU32::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                // SAFETY: the release store below orders this write for
                // the acquiring reader.
                unsafe { view.write(0, 42.0) };
                flag.store(1, Ordering::Release);
            });
            s.spawn(|| {
                while flag.load(Ordering::Acquire) == 0 {
                    std::hint::spin_loop();
                }
                // SAFETY: the acquire loop above observed the
                // writer's release, ordering its write before this read.
                assert_eq!(unsafe { view.read(0) }, 42.0);
            });
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)]
    fn debug_bounds_check_fires() {
        let mut data = vec![0u8; 4];
        let view = SharedSlice::new(&mut data);
        // SAFETY: deliberately violates the bounds contract to prove the
        // debug assertion catches it (the read never executes).
        unsafe { view.read(4) };
    }

    #[test]
    fn empty_slice_properties() {
        let mut data: Vec<f32> = vec![];
        let view = SharedSlice::new(&mut data);
        assert_eq!(view.len(), 0);
        assert!(view.is_empty());
    }
}
