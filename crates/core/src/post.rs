//! The postprocessor (paper Figure 3, right).
//!
//! ```fortran
//! parallel do i = 1, N
//!     iter(a(i))  = MAXINT
//!     ready(a(i)) = NOTDONE
//!     yold(a(i))  = ynew(a(i))
//! end parallel do
//! ```
//!
//! Restores the scratch-array reuse invariant by touching exactly the
//! elements this loop instance wrote — O(N) work instead of O(data_len) —
//! and copies the freshly computed values back into `y`. Like the
//! inspector, it is a doall: distinct iterations touch distinct elements
//! because `a` is injective.
//!
//! It is not a region of its own. The region driver runs it *inside* its
//! region, behind the [`Completion`](crate::completion) gate that opens
//! when the last iteration is counted: every participant then claims
//! fixed-size chunks of the iteration range off one counter per region
//! ([`post_share`]) until none is left. There are no fixed per-worker
//! blocks, because which workers take part in a region is not fixed: a
//! joinable region ([`ThreadPool::run_joinable`]) is attended by the
//! dispatching thread and whichever helpers joined in time, and whoever is
//! present copies everything once. And `ready(a(i)) = NOTDONE` is not a
//! store per element but one epoch bump after the region
//! ([`crate::flags::ReadyFlags::retire`]).
//!
//! [`ThreadPool::run_joinable`]: doacross_par::ThreadPool::run_joinable

use crate::flags::IterMap;
use crate::pattern::AccessPattern;
use doacross_par::SharedSlice;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What a region does once all its iterations are counted.
#[derive(Debug, Clone, Copy)]
pub struct Post<'a> {
    /// The writer map whose entries this run filled and must clear again
    /// (window-relative) — `None` when the map is a prebuilt artifact that
    /// outlives the run, or there is none.
    pub map: Option<&'a IterMap>,
}

/// Iterations per copy-back claim: large enough that the shared counter
/// is touched a few times per region, small enough that a helper arriving
/// late still finds work on a Table-1-sized loop.
const POST_CHUNK: usize = 512;

/// The caller's share of the postprocessing of iterations `iter_range`:
/// chunks of [`POST_CHUNK`] claimed off `claim` (zero at the region's
/// start, shared by every participant) until none is left. For each
/// claimed iteration's `lhs` element, clears the `iter` entry
/// (window-relative) when `post` names a map, and copies `ynew` back into
/// `y`. Once every participant has returned, every iteration was
/// postprocessed exactly once, however many took part.
///
/// # Safety
/// Every iteration of `iter_range` must have completed its `ynew` store,
/// ordered before this call (the caller passed the region's completion
/// gate), and no thread may still read `y` — which the same gate implies,
/// since only iteration bodies do.
pub(crate) unsafe fn post_share<P: AccessPattern + ?Sized>(
    pattern: &P,
    iter_range: Range<usize>,
    window_start: usize,
    post: Post<'_>,
    y: SharedSlice<'_, f64>,
    ynew: SharedSlice<'_, f64>,
    claim: &AtomicUsize,
) {
    let (base, len) = (iter_range.start, iter_range.len());
    loop {
        // `Relaxed`: the add only hands out disjoint chunks; the data is
        // ordered by the completion gate and the region's join.
        let start = claim.fetch_add(POST_CHUNK, Ordering::Relaxed);
        if start >= len {
            break;
        }
        for k in start..(start + POST_CHUNK).min(len) {
            let elem = pattern.lhs(base + k);
            let slot = elem - window_start;
            if let Some(map) = post.map {
                map.clear(slot);
            }
            // SAFETY: each chunk is claimed by exactly one participant and
            // distinct iterations have distinct `lhs` elements (injective
            // `a`, verified by the inspector), so writes to `y` are
            // disjoint; `ynew[slot]` is complete and `y` has no readers
            // left by the caller's contract.
            unsafe { y.write(elem, ynew.read(slot)) };
        }
    }
}

/// Splits one region's wall time into executor and post: the worker whose
/// count fills the completion gate stamps the moment, the dispatcher reads
/// it after the join.
#[derive(Debug)]
pub(crate) struct PhaseClock {
    started: Instant,
    /// Nanoseconds after `started` at which the gate opened; 0 = never.
    gate_ns: AtomicU64,
}

impl PhaseClock {
    pub(crate) fn start() -> Self {
        Self {
            started: Instant::now(),
            gate_ns: AtomicU64::new(0),
        }
    }

    /// Called by the one worker whose add filled the gating count.
    /// `Relaxed`: read only after the region's join.
    pub(crate) fn gate_opened(&self) {
        let ns = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.gate_ns.store(ns.max(1), Ordering::Relaxed);
    }

    /// `(executor, post)` wall time, once the region has joined; all
    /// executor when the gate never opened (the region aborted).
    pub(crate) fn split(&self) -> (Duration, Duration) {
        let total = self.started.elapsed();
        match self.gate_ns.load(Ordering::Relaxed) {
            0 => (total, Duration::ZERO),
            ns => {
                let executor = Duration::from_nanos(ns).min(total);
                (executor, total - executor)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::MAXINT;
    use crate::pattern::IndirectLoop;

    fn loop_with_lhs(a: Vec<usize>, data_len: usize) -> IndirectLoop {
        let n = a.len();
        IndirectLoop::new(data_len, a, vec![vec![]; n], vec![vec![]; n]).unwrap()
    }

    /// `participants` shares claimed one after the other off one counter:
    /// the first takes everything, the rest find nothing left.
    fn post_all(
        l: &IndirectLoop,
        iter_range: Range<usize>,
        window_start: usize,
        post: Post<'_>,
        y: &mut [f64],
        ynew: &mut [f64],
        participants: usize,
    ) {
        let (y, ynew) = (SharedSlice::new(y), SharedSlice::new(ynew));
        let claim = AtomicUsize::new(0);
        for _ in 0..participants {
            // SAFETY: single-threaded; `ynew` is fully written by the test.
            unsafe { post_share(l, iter_range.clone(), window_start, post, y, ynew, &claim) };
        }
    }

    #[test]
    fn clears_the_map_and_copies_back() {
        let l = loop_with_lhs(vec![1, 3, 4], 6);
        let map = IterMap::new(6);
        for (i, &e) in [1usize, 3, 4].iter().enumerate() {
            map.record(e, i);
        }
        let mut y = vec![0.0; 6];
        let mut ynew = vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0];
        let post = Post { map: Some(&map) };
        post_all(&l, 0..3, 0, post, &mut y, &mut ynew, 2);
        assert!(map.all_clear());
        assert_eq!(y, vec![0.0, 11.0, 0.0, 13.0, 14.0, 0.0]);
    }

    #[test]
    fn windowed_post_uses_relative_slots() {
        let l = loop_with_lhs(vec![10, 11], 16);
        let map = IterMap::new(2);
        map.record(0, 0);
        map.record(1, 1);
        let mut y = vec![0.0; 16];
        let mut ynew = vec![5.0, 6.0];
        let post = Post { map: Some(&map) };
        post_all(&l, 0..2, 10, post, &mut y, &mut ynew, 2);
        assert_eq!(y[10], 5.0);
        assert_eq!(y[11], 6.0);
        assert!(map.all_clear());
        assert_eq!(map.writer(0), MAXINT);
    }

    #[test]
    fn partial_range_touches_only_its_elements() {
        let l = loop_with_lhs(vec![0, 1, 2], 3);
        let map = IterMap::new(3);
        for e in 0..3 {
            map.record(e, e);
        }
        let mut y = vec![0.0; 3];
        let mut ynew = vec![1.0, 2.0, 3.0];
        let post = Post { map: Some(&map) };
        post_all(&l, 0..2, 0, post, &mut y, &mut ynew, 4);
        assert_eq!(map.writer(2), 2, "iteration 2's entry untouched");
        assert_eq!(y, vec![1.0, 2.0, 0.0]);
    }

    #[test]
    fn concurrent_participants_post_every_iteration() {
        // More than three chunks, the last one partial, claimed by three
        // threads at once: every element copied, every entry cleared.
        let n = 3 * POST_CHUNK + 7;
        let l = loop_with_lhs((0..n).rev().collect(), n);
        let map = IterMap::new(n);
        for i in 0..n {
            map.record(n - 1 - i, i);
        }
        let mut y = vec![0.0; n];
        let mut ynew: Vec<f64> = (0..n).map(|e| e as f64 + 0.5).collect();
        let expect = ynew.clone();
        let (yv, ynewv) = (SharedSlice::new(&mut y), SharedSlice::new(&mut ynew));
        let claim = AtomicUsize::new(0);
        let post = Post { map: Some(&map) };
        std::thread::scope(|s| {
            for _ in 0..3 {
                // SAFETY: `ynew` is fully written before the threads start
                // and nobody reads `y` until the scope joins them.
                s.spawn(|| unsafe { post_share(&l, 0..n, 0, post, yv, ynewv, &claim) });
            }
        });
        assert!(map.all_clear());
        assert_eq!(y, expect);
    }

    #[test]
    fn phase_clock_splits_at_the_gate() {
        let clock = PhaseClock::start();
        let (executor, post) = clock.split();
        assert!(executor > Duration::ZERO || post == Duration::ZERO);
        assert_eq!(post, Duration::ZERO, "gate never opened: all executor");
        clock.gate_opened();
        std::thread::sleep(Duration::from_millis(2));
        let (executor, post) = clock.split();
        assert!(post >= Duration::from_millis(2), "{post:?}");
        assert!(executor < Duration::from_millis(2), "{executor:?}");
    }
}
