//! Self-scheduling off a shared counter: the one way a region's workers
//! claim iterations.
//!
//! The Encore Multimax FORTRAN runtime self-scheduled `parallel do` loops:
//! every processor repeatedly grabbed the next unclaimed iteration from a
//! shared counter. [`claim_chunks`] is that policy with `chunk` iterations
//! per grab; `chunk == 1` is the paper's.
//!
//! The body receives each grab whole, as a range, so per-claim work (a
//! fault poll, say) is paid once per grab. A worker walks each grab front
//! to back, and its grabs come off the counter in increasing order, so it
//! enumerates its iterations in **increasing global order**; see the crate
//! docs for why that guarantees deadlock-freedom for backward
//! (true-dependency) waiting.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `body(claim)` for every grab this worker claims off `counter`:
/// `claim` is a non-empty range of `0..n`, at most `chunk` iterations long
/// (0 claims like 1), and successive claims increase. The body must walk
/// its claim front to back. Returns once a grab found the counter at or
/// past `n`, or once this worker's own grab reached `n` — the worker that
/// takes the last iteration knows nothing is left and skips the grab that
/// would only fail. Either way the counter ends at or past `n`.
///
/// `counter` must start at 0 and be shared by every worker of the same
/// loop instance; it is the only arbiter, so each iteration is claimed by
/// exactly one worker whoever turns up.
#[inline]
pub fn claim_chunks<F: FnMut(Range<usize>)>(
    counter: &AtomicUsize,
    n: usize,
    chunk: usize,
    mut body: F,
) {
    let chunk = chunk.max(1);
    loop {
        let start = counter.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + chunk).min(n);
        body(start..end);
        if end == n {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_cover_exactly_once_in_order() {
        // One thread drives every worker in turn: the first takes
        // everything, a legal (if extreme) interleaving.
        for chunk in [1usize, 7] {
            for &(nworkers, n) in &[(1usize, 0usize), (1, 17), (3, 17), (5, 3), (16, 100)] {
                let counter = AtomicUsize::new(0);
                let mut seen = Vec::new();
                for _ in 0..nworkers {
                    claim_chunks(&counter, n, chunk, |claim| {
                        assert!(!claim.is_empty() && claim.len() <= chunk, "{claim:?}");
                        seen.extend(claim);
                    });
                }
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "chunk {chunk}");
            }
        }
    }

    #[test]
    fn the_worker_that_takes_the_last_iteration_grabs_no_more() {
        // One worker alone: `n / chunk` grabs when `chunk` divides `n`,
        // one more for the short tail otherwise — and no failing grab
        // after the last. The counter still ends at or past `n`.
        for (n, chunk, grabs) in [(12usize, 4usize, 3usize), (13, 4, 4), (1, 1, 1), (5, 16, 1)] {
            let counter = AtomicUsize::new(0);
            let mut claims = 0;
            claim_chunks(&counter, n, chunk, |_| claims += 1);
            assert_eq!(claims, grabs, "n {n}, chunk {chunk}");
            assert_eq!(counter.load(Ordering::Relaxed), grabs * chunk);
            assert!(counter.load(Ordering::Relaxed) >= n);
        }
        // Nothing to claim: one grab that finds the counter past `n`.
        let counter = AtomicUsize::new(0);
        claim_chunks(&counter, 0, 3, |_| unreachable!("no iteration"));
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn dynamic_chunk_zero_is_promoted_to_one() {
        // chunk=0 must not spin forever.
        let counter = AtomicUsize::new(0);
        let mut seen = Vec::new();
        claim_chunks(&counter, 5, 0, |claim| seen.extend(claim));
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
                            claim_chunks(&counter, N, chunk, |claim| mine.extend(claim));
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
