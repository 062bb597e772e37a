//! `parallel do` loops: [`parallel_for`].
//!
//! The direct Rust counterpart of the paper's `parallel do i=1,N` regions
//! (Figures 2, 3 and 5): the calling thread enters the region as worker 0,
//! the pool's helpers join while it runs ([`ThreadPool::run_joinable`]),
//! everyone present claims iterations off one shared counter
//! ([`claim_chunks`]), and the call returns once every iteration has
//! executed. The doacross executor itself lives in `doacross-core`; it
//! claims the same way but manages its own per-iteration synchronization.

use crate::poison::RegionFault;
use crate::pool::ThreadPool;
use crate::schedule::claim_chunks;
use std::sync::atomic::AtomicUsize;

/// Runs `body(i)` for every `i` in `0..n`, `chunk` iterations per claim
/// (0 claims like 1; 1 is the paper's Multimax policy), on whichever of
/// the pool's workers are present. Blocks until the loop completes.
///
/// Iterations must be independent (a *doall* in the paper's terminology);
/// for loops with cross-iteration dependencies use the doacross executor.
///
/// ```
/// use doacross_par::{parallel_for, ThreadPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicUsize::new(0);
/// parallel_for(&pool, 100, 1, |i| {
///     sum.fetch_add(i, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
/// ```
pub fn parallel_for<F>(pool: &ThreadPool, n: usize, chunk: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if n == 0 {
        return;
    }
    let counter = AtomicUsize::new(0);
    // A doall has no row to reject; a body that rejects anyway unwinds
    // from here as the typed fault, as under `ThreadPool::run`.
    let job = |_| claim_chunks(&counter, n, chunk, |claim| claim.for_each(&body));
    if pool.run_joinable(job).is_err() {
        std::panic::panic_any(RegionFault::Rejected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedSlice;
    use std::sync::atomic::Ordering;
    use std::sync::Mutex;

    #[test]
    fn fills_disjoint_array_under_every_schedule() {
        let pool = ThreadPool::new(4);
        for chunk in [0, 1, 16, 1000] {
            let mut data = vec![0usize; 1000];
            let view = SharedSlice::new(&mut data);
            // SAFETY: `parallel_for` hands each `i` to exactly one
            // worker, and its join orders the writes before the reads.
            parallel_for(&pool, 1000, chunk, |i| unsafe { view.write(i, 3 * i) });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == 3 * i),
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn zero_iterations_is_a_no_op() {
        let pool = ThreadPool::new(2);
        let touched = AtomicUsize::new(0);
        parallel_for(&pool, 0, 1, |_| {
            touched.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(touched.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn single_worker_matches_sequential_order_effects() {
        // With one worker, iterations run in order; verify via a
        // strictly-increasing check.
        let pool = ThreadPool::new(1);
        let last = Mutex::new(-1i64);
        parallel_for(&pool, 100, 1, |i| {
            let mut last = last.lock().unwrap();
            assert!(*last < i as i64);
            *last = i as i64;
        });
    }
}
