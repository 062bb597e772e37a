//! Self-scheduling off a shared counter: the one way a region's workers
//! claim iterations.
//!
//! The Encore Multimax FORTRAN runtime self-scheduled `parallel do` loops:
//! every processor repeatedly grabbed the next unclaimed iteration from a
//! shared counter. [`claim_chunks`] is that policy with `chunk` iterations
//! per grab; `chunk == 1` is the paper's.
//!
//! A worker walks each grab front to back, and its grabs come off the
//! counter in increasing order, so it enumerates its iterations in
//! **increasing global order**; see the crate docs for why that guarantees
//! deadlock-freedom for backward (true-dependency) waiting.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `body(i)` for every iteration `i` of `0..n` this worker claims off
/// `counter`, `chunk` iterations per grab (0 claims like 1), in increasing
/// order, and returns once the counter has passed `n`.
///
/// `counter` must start at 0 and be shared by every worker of the same
/// loop instance; it is the only arbiter, so each iteration runs on exactly
/// one worker whoever turns up.
#[inline]
pub fn claim_chunks<F: FnMut(usize)>(counter: &AtomicUsize, n: usize, chunk: usize, mut body: F) {
    let chunk = chunk.max(1);
    loop {
        let start = counter.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + chunk).min(n);
        for i in start..end {
            body(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_schedule_covers_exactly_once_in_order() {
        // One thread drives every worker in turn: the first takes
        // everything, a legal (if extreme) interleaving.
        for chunk in [1usize, 7] {
            for &(nworkers, n) in &[(1usize, 0usize), (1, 17), (3, 17), (5, 3), (16, 100)] {
                let counter = AtomicUsize::new(0);
                let mut seen = Vec::new();
                for _ in 0..nworkers {
                    claim_chunks(&counter, n, chunk, |i| seen.push(i));
                }
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "chunk {chunk}");
            }
        }
    }

    #[test]
    fn dynamic_chunk_zero_is_promoted_to_one() {
        // chunk=0 must not spin forever.
        let counter = AtomicUsize::new(0);
        let mut seen = Vec::new();
        claim_chunks(&counter, 5, 0, |i| seen.push(i));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dynamic_policies_share_work_across_concurrent_workers() {
        // Real threads: the counter is the arbiter, so every index runs
        // exactly once, and each worker sees its own in increasing order
        // (the deadlock-freedom contract).
        const N: usize = 10_000;
        for chunk in [0usize, 1, 7, 16] {
            let counter = AtomicUsize::new(0);
            let claimed: Vec<Vec<usize>> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..4)
                    .map(|_| {
                        s.spawn(|| {
                            let mut mine = Vec::new();
                            claim_chunks(&counter, N, chunk, |i| mine.push(i));
                            mine
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            let mut hits = vec![0u8; N];
            for mine in &claimed {
                assert!(
                    mine.windows(2).all(|w| w[0] < w[1]),
                    "chunk {chunk}: per-worker order must increase"
                );
                for &i in mine {
                    hits[i] += 1;
                }
            }
            assert!(hits.iter().all(|&c| c == 1), "chunk {chunk}");
        }
    }
}
