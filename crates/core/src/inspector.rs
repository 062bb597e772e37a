//! The inspector: execution-time preprocessing (paper Figure 3, left).
//!
//! ```fortran
//! parallel do i = 1, N
//!     iter(a(i)) = i
//! end parallel do
//! ```
//!
//! "One requirement is that the execution time preprocessing itself be
//! parallelizable. The preprocessing required for the preprocessed doacross
//! loop is fully parallelizable" (§1) — every `iter` store targets a
//! distinct element (injective `a`), so the loop is a doall.
//!
//! On top of the paper's one store per iteration, this inspector doubles as
//! the runtime's validation pass: it detects output dependencies (two
//! iterations writing one element), out-of-bounds subscripts, and — for the
//! strip-mined variant — writes escaping a block's declared element window.
//! Validation failures surface as [`DoacrossError`]s after the parallel
//! region completes instead of panicking mid-flight.

use crate::error::DoacrossError;
use crate::flags::{IterMap, MAXINT};
use crate::pattern::AccessPattern;
use doacross_par::{parallel_for, ThreadPool};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// First-error-wins slot for reporting a `(iteration, element)` pair out of
/// a parallel region without locks.
#[derive(Debug, Default)]
pub(crate) struct ErrorSlot {
    set: AtomicBool,
    iteration: AtomicUsize,
    element: AtomicUsize,
}

impl ErrorSlot {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records `(iteration, element)` if no error was recorded yet.
    #[inline]
    pub(crate) fn try_set(&self, iteration: usize, element: usize) {
        if !self.set.swap(true, Ordering::AcqRel) {
            self.iteration.store(iteration, Ordering::Relaxed);
            self.element.store(element, Ordering::Relaxed);
        }
    }

    /// Returns the recorded pair, if any. Only meaningful after the region
    /// join (the pool's `run` return).
    pub(crate) fn get(&self) -> Option<(usize, usize)> {
        if self.set.load(Ordering::Acquire) {
            Some((
                self.iteration.load(Ordering::Relaxed),
                self.element.load(Ordering::Relaxed),
            ))
        } else {
            None
        }
    }
}

/// Runs the inspector for iterations `iter_range` of `pattern`, filling
/// `map` (window-relative) with `iter(a(i)) = i`.
///
/// `window` is the element range `map` covers — `0..data_len` for the flat
/// construct. When `validate_terms` is set, right-hand-side subscripts are
/// bounds-checked as well (the paper's inspector does only the `iter`
/// stores; term validation is this library's hardening, and benchmarks can
/// disable it to measure the paper-faithful cost).
///
/// On error the map may be partially filled; the caller must reset it (see
/// [`reset_scratch`]).
pub fn run_inspector<P: AccessPattern + ?Sized>(
    pool: &ThreadPool,
    pattern: &P,
    iter_range: Range<usize>,
    window: Range<usize>,
    map: &IterMap,
    validate_terms: bool,
) -> Result<(), DoacrossError> {
    let data_len = pattern.data_len();
    let oob = ErrorSlot::new();
    let escape = ErrorSlot::new();
    let collision = ErrorSlot::new();
    let base = iter_range.start;
    let count = iter_range.end - iter_range.start;

    parallel_for(pool, count, 1, |k| {
        let i = base + k;
        let lhs = pattern.lhs(i);
        if lhs >= data_len {
            oob.try_set(i, lhs);
            return;
        }
        if !window.contains(&lhs) {
            escape.try_set(i, lhs);
            return;
        }
        let prev = map.record(lhs - window.start, i);
        if prev != MAXINT {
            collision.try_set(i, lhs);
        }
        if validate_terms {
            for j in 0..pattern.terms(i) {
                let off = pattern.term_element(i, j);
                if off >= data_len {
                    oob.try_set(i, off);
                }
            }
        }
    });

    if let Some((iteration, element)) = oob.get() {
        return Err(DoacrossError::SubscriptOutOfBounds {
            iteration,
            element,
            data_len,
        });
    }
    if let Some((iteration, element)) = escape.get() {
        return Err(DoacrossError::WindowViolation {
            iteration,
            element,
            window_start: window.start,
            window_end: window.end,
        });
    }
    if let Some((_, element)) = collision.get() {
        return Err(DoacrossError::OutputDependency { element });
    }
    Ok(())
}

/// Parallel full reset of the first `len` writer-map entries back to
/// `MAXINT`. Used to restore the reuse invariant after a failed
/// (partially-executed) inspector; the `ready` flags need nothing — none
/// was raised since they were last retired.
pub fn reset_scratch(pool: &ThreadPool, map: &IterMap, len: usize) {
    parallel_for(pool, len, 1, |e| map.clear(e));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IndirectLoop;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn loop_with_lhs(a: Vec<usize>, data_len: usize) -> IndirectLoop {
        let n = a.len();
        IndirectLoop::new(data_len, a, vec![vec![]; n], vec![vec![]; n]).unwrap()
    }

    #[test]
    fn fills_writer_map() {
        let l = loop_with_lhs(vec![3, 1, 4, 0], 6);
        let map = IterMap::new(6);
        run_inspector(&pool(), &l, 0..4, 0..6, &map, true).unwrap();
        assert_eq!(map.writer(3), 0);
        assert_eq!(map.writer(1), 1);
        assert_eq!(map.writer(4), 2);
        assert_eq!(map.writer(0), 3);
        assert_eq!(map.writer(2), MAXINT);
        assert_eq!(map.writer(5), MAXINT);
    }

    #[test]
    fn detects_output_dependency() {
        let l = loop_with_lhs(vec![2, 5, 2], 6);
        let map = IterMap::new(6);
        let err = run_inspector(&pool(), &l, 0..3, 0..6, &map, false).unwrap_err();
        assert_eq!(err, DoacrossError::OutputDependency { element: 2 });
    }

    #[test]
    fn detects_rhs_out_of_bounds_only_when_validating() {
        let l = IndirectLoop::new(4, vec![0], vec![vec![3]], vec![vec![1.0]]).unwrap();
        // IndirectLoop's constructor already validates, so build a raw
        // pattern that lies about its data_len via a wrapper.
        struct Lying<'a>(&'a IndirectLoop);
        impl AccessPattern for Lying<'_> {
            fn iterations(&self) -> usize {
                self.0.iterations()
            }
            fn data_len(&self) -> usize {
                2 // actual term element 3 is out of bounds for this claim
            }
            fn lhs(&self, i: usize) -> usize {
                self.0.lhs(i)
            }
            fn terms(&self, i: usize) -> usize {
                self.0.terms(i)
            }
            fn term_element(&self, i: usize, j: usize) -> usize {
                self.0.term_element(i, j)
            }
        }
        let lying = Lying(&l);
        let map = IterMap::new(2);
        let err = run_inspector(&pool(), &lying, 0..1, 0..2, &map, true).unwrap_err();
        assert!(matches!(
            err,
            DoacrossError::SubscriptOutOfBounds { element: 3, .. }
        ));

        // Without term validation the same pattern passes the inspector.
        let map2 = IterMap::new(2);
        run_inspector(&pool(), &lying, 0..1, 0..2, &map2, false).unwrap();
    }

    #[test]
    fn detects_window_escape() {
        let l = loop_with_lhs(vec![1, 7], 8);
        let map = IterMap::new(4);
        let err = run_inspector(&pool(), &l, 0..2, 0..4, &map, false).unwrap_err();
        assert!(matches!(
            err,
            DoacrossError::WindowViolation {
                element: 7,
                window_start: 0,
                window_end: 4,
                ..
            }
        ));
    }

    #[test]
    fn windowed_inspector_uses_relative_indices() {
        let l = loop_with_lhs(vec![10, 12], 16);
        let map = IterMap::new(4);
        run_inspector(&pool(), &l, 0..2, 10..14, &map, false).unwrap();
        assert_eq!(map.writer(0), 0, "element 10 -> slot 0");
        assert_eq!(map.writer(2), 1, "element 12 -> slot 2");
    }

    #[test]
    fn sub_range_inspection_records_global_iteration_numbers() {
        let l = loop_with_lhs(vec![0, 1, 2, 3], 4);
        let map = IterMap::new(4);
        run_inspector(&pool(), &l, 2..4, 0..4, &map, false).unwrap();
        assert_eq!(map.writer(0), MAXINT);
        assert_eq!(
            map.writer(2),
            2,
            "global iteration index, not block-relative"
        );
        assert_eq!(map.writer(3), 3);
    }

    #[test]
    fn reset_scratch_restores_invariant() {
        let map = IterMap::new(8);
        map.record(3, 1);
        reset_scratch(&pool(), &map, 8);
        assert!(map.all_clear());
    }

    #[test]
    fn error_slot_first_wins() {
        let slot = ErrorSlot::new();
        assert_eq!(slot.get(), None);
        slot.try_set(1, 10);
        slot.try_set(2, 20);
        assert_eq!(slot.get(), Some((1, 10)));
    }
}
