//! `parallel do` loops: [`parallel_for`] and friends.
//!
//! These are the direct Rust counterparts of the paper's `parallel do i=1,N`
//! regions (Figures 2, 3 and 5): the calling thread and the pool's helpers
//! enter the region, iterations are distributed by a [`Schedule`], and the
//! call returns when all iterations have executed. A dynamic schedule's
//! region is joinable — the caller claims until nothing is left and waits
//! only for the helpers that joined in time — and a static one has every
//! worker id check in. The doacross executor itself lives in
//! `doacross-core`; it uses the same pool/schedule machinery but manages its
//! own per-iteration synchronization.

use crate::pool::ThreadPool;
use crate::schedule::Schedule;
use std::sync::atomic::AtomicUsize;
use std::sync::Mutex;

/// Runs `body(i)` for every `i` in `0..n`, distributing iterations over the
/// pool's workers according to `schedule`. Blocks until the loop completes.
///
/// Iterations must be independent (a *doall* in the paper's terminology);
/// for loops with cross-iteration dependencies use the doacross executor.
///
/// ```
/// use doacross_par::{parallel_for, Schedule, ThreadPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicUsize::new(0);
/// parallel_for(&pool, 100, Schedule::multimax(), |i| {
///     sum.fetch_add(i, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
/// ```
pub fn parallel_for<F>(pool: &ThreadPool, n: usize, schedule: Schedule, body: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_with_id(pool, n, schedule, |_, i| body(i));
}

/// Like [`parallel_for`], but the body also receives the executing worker's
/// id — used by instrumented kernels that keep per-worker counters.
pub fn parallel_for_with_id<F>(pool: &ThreadPool, n: usize, schedule: Schedule, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let nworkers = pool.threads();
    let counter = AtomicUsize::new(0);
    pool.run_for(schedule, |worker| {
        schedule.drive(worker, nworkers, n, &counter, |i| body(worker, i));
    });
}

/// Parallel map-reduce over `0..n`: computes `map(i)` for every iteration
/// and folds the results with `reduce`, starting from `identity` on each
/// worker. `reduce` must be associative and commutative, and `identity`
/// must be its neutral element.
///
/// Used by the solvers for residual norms and by the benches for checksums.
pub fn parallel_reduce<T, M, R>(
    pool: &ThreadPool,
    n: usize,
    schedule: Schedule,
    identity: T,
    map: M,
    reduce: R,
) -> T
where
    T: Clone + Send + Sync,
    M: Fn(usize) -> T + Sync,
    R: Fn(T, T) -> T + Sync + Send,
{
    if n == 0 {
        return identity;
    }
    let nworkers = pool.threads();
    let counter = AtomicUsize::new(0);
    let partials: Mutex<Vec<T>> = Mutex::new(Vec::with_capacity(nworkers));
    pool.run_for(schedule, |worker| {
        let mut acc = identity.clone();
        schedule.drive(worker, nworkers, n, &counter, |i| {
            acc = reduce(acc.clone(), map(i));
        });
        partials.lock().expect("partials mutex poisoned").push(acc);
    });
    partials
        .into_inner()
        .expect("partials mutex poisoned")
        .into_iter()
        .fold(identity, reduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedSlice;
    use std::sync::atomic::Ordering;

    fn all_schedules() -> Vec<Schedule> {
        vec![
            Schedule::StaticBlock,
            Schedule::StaticCyclic,
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 16 },
            Schedule::Guided { min_chunk: 1 },
        ]
    }

    #[test]
    fn fills_disjoint_array_under_every_schedule() {
        let pool = ThreadPool::new(4);
        for sched in all_schedules() {
            let mut data = vec![0usize; 1000];
            let view = SharedSlice::new(&mut data);
            // SAFETY: `parallel_for` hands each `i` to exactly one
            // worker, and its join orders the writes before the reads.
            parallel_for(&pool, 1000, sched, |i| unsafe { view.write(i, 3 * i) });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == 3 * i),
                "{sched:?}"
            );
        }
    }

    #[test]
    fn zero_iterations_is_a_no_op() {
        let pool = ThreadPool::new(2);
        let touched = AtomicUsize::new(0);
        parallel_for(&pool, 0, Schedule::multimax(), |_| {
            touched.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(touched.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn worker_ids_are_in_range() {
        let pool = ThreadPool::new(3);
        parallel_for_with_id(&pool, 500, Schedule::multimax(), |w, _| {
            assert!(w < 3);
        });
    }

    #[test]
    fn reduce_sums_match_closed_form() {
        let pool = ThreadPool::new(4);
        for sched in all_schedules() {
            let sum = parallel_reduce(&pool, 1001, sched, 0u64, |i| i as u64, |a, b| a + b);
            assert_eq!(sum, 1000 * 1001 / 2, "{sched:?}");
        }
    }

    #[test]
    fn reduce_empty_returns_identity() {
        let pool = ThreadPool::new(2);
        let out = parallel_reduce(&pool, 0, Schedule::multimax(), 42u64, |_| 0, |a, b| a + b);
        assert_eq!(out, 42);
    }

    #[test]
    fn reduce_max_over_f64() {
        let pool = ThreadPool::new(4);
        let max = parallel_reduce(
            &pool,
            1000,
            Schedule::multimax(),
            f64::NEG_INFINITY,
            |i| ((i as f64) - 500.0).abs(),
            f64::max,
        );
        assert_eq!(max, 500.0);
    }

    #[test]
    fn single_worker_matches_sequential_order_effects() {
        // With one worker and dynamic scheduling, iterations run in order;
        // verify via a strictly-increasing check.
        let pool = ThreadPool::new(1);
        let last = Mutex::new(-1i64);
        parallel_for(&pool, 100, Schedule::multimax(), |i| {
            let mut last = last.lock().unwrap();
            assert!(*last < i as i64);
            *last = i as i64;
        });
    }
}
