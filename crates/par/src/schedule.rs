//! Iteration-to-processor assignment policies (`parallel do` scheduling).
//!
//! The Encore Multimax FORTRAN runtime self-scheduled `parallel do` loops:
//! every processor repeatedly grabbed the next unclaimed iteration from a
//! shared counter. [`Schedule::Dynamic`] with `chunk == 1` reproduces that
//! policy and is the default throughout the workspace
//! ([`Schedule::multimax`]). Static block/cyclic policies are included for
//! the ablation benches ("how much of the doacross overhead is scheduling,
//! how much is waiting?").
//!
//! Every policy enumerates each worker's iterations in **increasing global
//! order**; see the crate docs for why that guarantees deadlock-freedom for
//! backward (true-dependency) waiting.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Assignment of a loop's iterations `0..n` to `nworkers` workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Worker `w` executes one contiguous block of `≈ n / nworkers`
    /// iterations. Lowest scheduling overhead; worst for doacross loops with
    /// short-distance dependencies (all waits cross block boundaries late).
    StaticBlock,
    /// Worker `w` executes iterations `w, w + nworkers, w + 2·nworkers, …`.
    /// Good dependency overlap for short-distance dependencies.
    StaticCyclic,
    /// Self-scheduling off a shared counter, `chunk` iterations per grab.
    /// `chunk == 1` is the paper's Multimax policy.
    Dynamic {
        /// Iterations claimed per counter increment (≥ 1).
        chunk: usize,
    },
    /// Guided self-scheduling: grab `max(remaining / (2·nworkers),
    /// min_chunk)` iterations per visit to the counter.
    Guided {
        /// Smallest grab size (≥ 1).
        min_chunk: usize,
    },
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule::multimax()
    }
}

impl Schedule {
    /// The paper's policy: one-iteration self-scheduling, as on the Encore
    /// Multimax/320.
    pub const fn multimax() -> Self {
        Schedule::Dynamic { chunk: 1 }
    }

    /// Whether this policy needs the shared counter (dynamic policies).
    pub fn is_dynamic(&self) -> bool {
        matches!(self, Schedule::Dynamic { .. } | Schedule::Guided { .. })
    }

    /// Enumerates, in increasing order, the iterations of `0..n` that worker
    /// `worker` (of `nworkers`) executes, invoking `body` on each.
    ///
    /// `counter` is the shared self-scheduling counter; it must start at 0
    /// and be shared by all workers of the same loop instance. Static
    /// policies ignore it.
    #[inline]
    pub fn drive<F: FnMut(usize)>(
        &self,
        worker: usize,
        nworkers: usize,
        n: usize,
        counter: &AtomicUsize,
        mut body: F,
    ) {
        debug_assert!(worker < nworkers, "worker {worker} of {nworkers}");
        match *self {
            Schedule::StaticBlock => {
                for i in block_range(n, nworkers, worker) {
                    body(i);
                }
            }
            Schedule::StaticCyclic => {
                let mut i = worker;
                while i < n {
                    body(i);
                    i += nworkers;
                }
            }
            Schedule::Dynamic { chunk } => {
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
            Schedule::Guided { min_chunk } => {
                let min_chunk = min_chunk.max(1);
                loop {
                    // Stale `claimed` only affects the grab size, never
                    // correctness: the fetch_add below is the claim.
                    let claimed = counter.load(Ordering::Relaxed);
                    if claimed >= n {
                        break;
                    }
                    let remaining = n - claimed;
                    let grab = (remaining / (2 * nworkers)).max(min_chunk);
                    let start = counter.fetch_add(grab, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + grab).min(n);
                    for i in start..end {
                        body(i);
                    }
                }
            }
        }
    }
}

/// The contiguous range of iterations worker `worker` receives under
/// [`Schedule::StaticBlock`]. The first `n % nworkers` workers receive one
/// extra iteration, so block sizes differ by at most one.
pub fn block_range(n: usize, nworkers: usize, worker: usize) -> Range<usize> {
    debug_assert!(worker < nworkers);
    let base = n / nworkers;
    let extra = n % nworkers;
    let start = worker * base + worker.min(extra);
    let len = base + usize::from(worker < extra);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_assignment(sched: Schedule, nworkers: usize, n: usize) -> Vec<Vec<usize>> {
        // Drive workers round-robin on one thread; dynamic policies still
        // interleave correctly because the counter is the only shared state.
        let counter = AtomicUsize::new(0);
        let mut out = vec![Vec::new(); nworkers];
        // For dynamic policies a sequential drive gives worker 0 everything,
        // which is a legal (if extreme) interleaving; coverage and order
        // invariants must hold regardless.
        for (w, bucket) in out.iter_mut().enumerate() {
            sched.drive(w, nworkers, n, &counter, |i| bucket.push(i));
        }
        out
    }

    fn assert_exact_coverage(assignment: &[Vec<usize>], n: usize) {
        let mut seen = vec![0u32; n];
        for bucket in assignment {
            for &i in bucket {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "every iteration must run exactly once: {seen:?}"
        );
    }

    fn assert_increasing(assignment: &[Vec<usize>]) {
        for bucket in assignment {
            assert!(
                bucket.windows(2).all(|w| w[0] < w[1]),
                "per-worker order must be increasing: {bucket:?}"
            );
        }
    }

    fn all_schedules() -> Vec<Schedule> {
        vec![
            Schedule::StaticBlock,
            Schedule::StaticCyclic,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 7 },
            Schedule::Guided { min_chunk: 1 },
            Schedule::Guided { min_chunk: 4 },
        ]
    }

    #[test]
    fn every_schedule_covers_exactly_once_in_order() {
        for sched in all_schedules() {
            for &(nworkers, n) in &[
                (1usize, 0usize),
                (1, 17),
                (3, 17),
                (4, 4),
                (5, 3),
                (16, 100),
            ] {
                let a = collect_assignment(sched, nworkers, n);
                assert_exact_coverage(&a, n);
                assert_increasing(&a);
            }
        }
    }

    #[test]
    fn static_block_is_contiguous_and_balanced() {
        let a = collect_assignment(Schedule::StaticBlock, 4, 10);
        assert_eq!(a[0], vec![0, 1, 2]);
        assert_eq!(a[1], vec![3, 4, 5]);
        assert_eq!(a[2], vec![6, 7]);
        assert_eq!(a[3], vec![8, 9]);
    }

    #[test]
    fn static_cyclic_strides_by_worker_count() {
        let a = collect_assignment(Schedule::StaticCyclic, 3, 8);
        assert_eq!(a[0], vec![0, 3, 6]);
        assert_eq!(a[1], vec![1, 4, 7]);
        assert_eq!(a[2], vec![2, 5]);
    }

    #[test]
    fn block_range_partitions_exactly() {
        for &(n, p) in &[
            (0usize, 1usize),
            (1, 1),
            (10, 3),
            (10, 4),
            (3, 5),
            (100, 16),
        ] {
            let mut total = 0;
            let mut next = 0;
            for w in 0..p {
                let r = block_range(n, p, w);
                assert_eq!(r.start, next, "blocks must tile: n={n} p={p} w={w}");
                next = r.end;
                total += r.len();
            }
            assert_eq!(total, n);
            assert_eq!(next, n);
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        for &(n, p) in &[(10usize, 3usize), (17, 4), (1000, 16), (5, 7)] {
            let sizes: Vec<usize> = (0..p).map(|w| block_range(n, p, w).len()).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "n={n} p={p} sizes={sizes:?}");
        }
    }

    #[test]
    fn dynamic_chunk_zero_is_promoted_to_one() {
        // chunk=0 must not spin forever.
        let counter = AtomicUsize::new(0);
        let mut seen = Vec::new();
        Schedule::Dynamic { chunk: 0 }.drive(0, 1, 5, &counter, |i| seen.push(i));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn multimax_is_single_iteration_dynamic() {
        assert_eq!(Schedule::multimax(), Schedule::Dynamic { chunk: 1 });
        assert!(Schedule::multimax().is_dynamic());
        assert!(!Schedule::StaticBlock.is_dynamic());
    }

    #[test]
    fn dynamic_policies_share_work_across_concurrent_workers() {
        // Real-thread check: with 4 threads, a dynamic schedule must cover
        // all indices exactly once (the atomic counter is the arbiter).
        use std::sync::Mutex;
        const N: usize = 10_000;
        for sched in [
            Schedule::Dynamic { chunk: 3 },
            Schedule::Guided { min_chunk: 2 },
        ] {
            let counter = AtomicUsize::new(0);
            let hits = Mutex::new(vec![0u8; N]);
            std::thread::scope(|s| {
                for w in 0..4 {
                    let counter = &counter;
                    let hits = &hits;
                    s.spawn(move || {
                        let mut local = Vec::new();
                        sched.drive(w, 4, N, counter, |i| local.push(i));
                        let mut h = hits.lock().unwrap();
                        for i in local {
                            h[i] += 1;
                        }
                    });
                }
            });
            let h = hits.into_inner().unwrap();
            assert!(h.iter().all(|&c| c == 1), "{sched:?}");
        }
    }
}
