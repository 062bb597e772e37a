//! Low-level synchronization helpers: cache-line padding and a spin barrier.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads and aligns a value to 128 bytes so that two [`CachePadded`] values
/// never share a cache line (128 covers the 2×64-byte prefetch pairs on
/// modern x86 and the 128-byte lines on some ARM parts).
///
/// The doacross executor keeps per-worker counters (claimed iterations, wait
/// polls) in a `Vec<CachePadded<...>>` so that workers do not false-share.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in a cache-line-sized box.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: Clone> Clone for CachePadded<T> {
    fn clone(&self) -> Self {
        Self::new(self.value.clone())
    }
}

/// A sense-reversing spin barrier for a fixed set of participants: all of
/// them synchronize inside a region without returning to the pool's
/// dispatch path. Spinners yield to the OS after a bounded number of polls
/// so the barrier also works when the pool is oversubscribed.
///
/// No executor in the workspace crosses one any more — the wavefront's
/// levels complete by work, not by attendance (`doacross-core`'s
/// completion counts), precisely because a barrier makes every worker wait
/// for the slowest to check in. It stays as the yardstick that price is
/// measured against (the benchmark's `par.barrier_cross_ns` probe), and is
/// not fault-aware: do not put one inside a region that can be poisoned.
#[derive(Debug)]
pub struct SpinBarrier {
    /// Number of participants that must arrive before the barrier opens.
    total: usize,
    /// Arrivals in the current generation.
    count: AtomicUsize,
    /// Generation counter; bumped by the last arriver.
    generation: AtomicUsize,
}

/// Number of spin polls between `thread::yield_now` calls while blocked on
/// the barrier. Small enough that an oversubscribed writer thread is not
/// starved, large enough that the fast path stays in user space.
const BARRIER_SPINS_BEFORE_YIELD: u32 = 64;

impl SpinBarrier {
    /// Creates a barrier for `total` participants.
    ///
    /// # Panics
    /// Panics if `total == 0`.
    pub fn new(total: usize) -> Self {
        assert!(total > 0, "a barrier needs at least one participant");
        Self {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Blocks until all `total` participants have called `wait` in this
    /// generation. Returns `true` on exactly one participant per generation
    /// (the last arriver), mirroring `std::sync::Barrier`'s leader flag.
    pub fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.total {
            // Reset before opening the gate: the release store on
            // `generation` orders the reset for every acquirer below.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
            return true;
        }
        let mut polls: u32 = 0;
        while self.generation.load(Ordering::Acquire) == gen {
            polls = polls.wrapping_add(1);
            if polls.is_multiple_of(BARRIER_SPINS_BEFORE_YIELD) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn cache_padded_is_large_and_aligned() {
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
    }

    #[test]
    fn cache_padded_deref_round_trip() {
        let mut c = CachePadded::new(41u64);
        *c += 1;
        assert_eq!(*c, 42);
    }

    #[test]
    fn barrier_single_participant_is_always_leader() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn barrier_zero_participants_panics() {
        let _ = SpinBarrier::new(0);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        // Each thread increments a phase counter, waits, and checks that
        // every other increment from the phase is visible.
        const THREADS: usize = 4;
        const PHASES: usize = 25;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for phase in 0..PHASES {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        let seen = counter.load(Ordering::SeqCst);
                        assert!(
                            seen >= ((phase + 1) * THREADS) as u64,
                            "phase {phase}: saw {seen}"
                        );
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), (THREADS * PHASES) as u64);
    }

    #[test]
    fn barrier_exactly_one_leader_per_generation() {
        const THREADS: usize = 4;
        const PHASES: usize = 50;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let leaders = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    for _ in 0..PHASES {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), PHASES as u64);
    }
}
