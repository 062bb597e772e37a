//! Writer oracles and claim sources: "which iteration writes element `e`?"
//! and, built on it, "what does claim slot `k` execute, and what class is
//! its `j`-th reference?"
//!
//! The executor's three-way check (Figure 5) needs, for every right-hand-
//! side element, the index of the iteration that writes it (or `MAXINT`).
//! The paper provides two ways to answer:
//!
//! * [`InspectedWriter`] — consult the `iter` array the inspector filled
//!   (the general case, §2.1);
//! * [`LinearWriter`] — compute it arithmetically when the left-hand-side
//!   subscript is the known linear function `a(i) = c·i + d`, eliminating
//!   both the inspector phase and the `iter` array (§2.3: "it is possible
//!   to eliminate the execution time preprocessing phase along with the
//!   need to allocate storage for array iter").
//!
//! The executor itself is generic over one level up — a [`Claims`] source,
//! which names the iteration a claim slot runs and the [`OperandClass`] of
//! each of its references. The inspecting entry points wrap a writer oracle
//! in [`ByWriter`] (the comparison `iter(off) − i` of Figure 5, taken per
//! reference); a planned run passes the plan's
//! [`ClaimStream`](crate::ClaimStream), where every answer was resolved
//! once and is read stride-1, or — when the stream holds no class bytes
//! because every reference is a true dependence — its classless view,
//! whose answer is the constant `NewValue`.

use crate::flags::{IterMap, MAXINT};
use crate::wavefront::OperandClass;
use std::ops::Range;

/// Maps a data element to the iteration that writes it, or [`MAXINT`].
pub(crate) trait WriterOracle: Sync {
    /// The (global) index of the iteration writing `element`, or [`MAXINT`]
    /// when no iteration in scope writes it.
    fn writer(&self, element: usize) -> i64;
}

/// What the executor asks per claim: which iteration slot `k` runs, and
/// where each of its right-hand-side operands comes from.
pub trait Claims: Sync {
    /// Whether the executor counts the classes it acts on, reference by
    /// reference. A source that knows its totals exactly (the plan's
    /// stream) says `false` and its caller stamps them into the stats.
    const COUNTED: bool;

    /// One claimed iteration's view of the source.
    type Row<'a>: Copy
    where
        Self: 'a;

    /// The iteration claim slot `k` executes.
    fn iteration(&self, k: usize) -> usize;

    /// Slot `k`'s references, given that it runs iteration `i` and the loop
    /// reports `terms` of them; `None` when the source was resolved for a
    /// different reference count. This is where a planned run checks each
    /// row's count, once, as the region reaches the row: the executor then
    /// rejects the region, and the planned entry point names the first
    /// mismatching slot as a typed error with `y` untouched. A by-writer
    /// source resolves every reference as it comes and never mismatches.
    fn row(&self, k: usize, i: usize, terms: usize) -> Option<Self::Row<'_>>;

    /// The class of the row's `j`-th reference, which reads element `off`.
    fn class<'a>(&'a self, row: Self::Row<'a>, j: usize, off: usize) -> OperandClass;
}

/// The by-writer adapter: resolves every reference at run time from a
/// writer oracle ([`InspectedWriter`] or [`LinearWriter`]), exactly
/// Figure 5's `check = iter(off) − i`, in the natural claim order (slot
/// `k` runs iteration `k`). A rearranged order is a plan's, carried by its
/// [`ClaimStream`](crate::ClaimStream).
#[derive(Debug, Clone, Copy)]
pub struct ByWriter<'a, W> {
    /// Who writes element `e`.
    pub oracle: &'a W,
}

impl<W: WriterOracle> Claims for ByWriter<'_, W> {
    const COUNTED: bool = true;
    type Row<'a>
        = i64
    where
        Self: 'a;

    #[inline]
    fn iteration(&self, k: usize) -> usize {
        k
    }

    #[inline]
    fn row(&self, _k: usize, i: usize, _terms: usize) -> Option<i64> {
        Some(i as i64)
    }

    #[inline]
    fn class(&self, i: i64, _j: usize, off: usize) -> OperandClass {
        match self.oracle.writer(off).cmp(&i) {
            std::cmp::Ordering::Less => OperandClass::NewValue,
            std::cmp::Ordering::Equal => OperandClass::Accumulator,
            std::cmp::Ordering::Greater => OperandClass::OldValue,
        }
    }
}

/// Oracle backed by the inspector-filled [`IterMap`], restricted to an
/// element window (the window is the full data space for the flat
/// construct, and a block's declared window for the strip-mined variant —
/// elements outside the window are by construction not written by any
/// in-scope iteration).
#[derive(Debug, Clone)]
pub struct InspectedWriter<'a> {
    map: &'a IterMap,
    window: Range<usize>,
}

impl<'a> InspectedWriter<'a> {
    /// Wraps `map`, which holds writer entries for elements
    /// `window.start..window.end` at map indices `0..window.len()`.
    pub fn new(map: &'a IterMap, window: Range<usize>) -> Self {
        debug_assert!(window.len() <= map.len());
        Self { map, window }
    }
}

impl WriterOracle for InspectedWriter<'_> {
    #[inline]
    fn writer(&self, element: usize) -> i64 {
        if self.window.contains(&element) {
            self.map.writer(element - self.window.start)
        } else {
            MAXINT
        }
    }
}

/// Arithmetic oracle for `a(i) = c·i + d` (0-based): element `e` is written
/// iff `(e - d) mod c == 0` and the quotient is a valid iteration index —
/// the test the paper gives verbatim for Figure 4's `a(i) = 2i`.
#[derive(Debug, Clone, Copy)]
pub struct LinearWriter {
    c: i64,
    d: i64,
    iterations: i64,
}

impl LinearWriter {
    /// Oracle for `a(i) = c·i + d` over `iterations` iterations.
    ///
    /// # Panics
    /// Panics if `c == 0` (a constant subscript writes one element from
    /// every iteration — an output dependency by definition).
    pub fn new(c: usize, d: usize, iterations: usize) -> Self {
        assert!(c > 0, "linear subscript requires stride c >= 1");
        Self {
            c: c as i64,
            d: d as i64,
            iterations: iterations as i64,
        }
    }

    /// The iteration writing `element`, or [`MAXINT`] when no iteration
    /// of the `0..iterations` range does. Inherent, so a caller outside
    /// the crate (the verifier's re-check) can ask it too.
    #[inline]
    pub fn writer(&self, element: usize) -> i64 {
        let e = element as i64 - self.d;
        if e < 0 || e % self.c != 0 {
            return MAXINT;
        }
        let q = e / self.c;
        if q < self.iterations {
            q
        } else {
            MAXINT
        }
    }
}

impl WriterOracle for LinearWriter {
    #[inline]
    fn writer(&self, element: usize) -> i64 {
        LinearWriter::writer(self, element)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inspected_writer_reads_through_window() {
        let map = IterMap::new(4);
        map.record(0, 10); // element 5 in a window starting at 5
        map.record(3, 11); // element 8
        let oracle = InspectedWriter::new(&map, 5..9);
        assert_eq!(oracle.writer(5), 10);
        assert_eq!(oracle.writer(8), 11);
        assert_eq!(oracle.writer(6), MAXINT, "in window, unwritten");
        assert_eq!(oracle.writer(4), MAXINT, "below window");
        assert_eq!(oracle.writer(9), MAXINT, "above window");
    }

    #[test]
    fn linear_writer_matches_brute_force() {
        for &(c, d, n) in &[(1usize, 0usize, 10usize), (2, 0, 8), (2, 16, 5), (3, 1, 7)] {
            let oracle = LinearWriter::new(c, d, n);
            // Brute-force the ground truth.
            let mut truth = vec![MAXINT; c * n + d + 5];
            for i in 0..n {
                truth[c * i + d] = i as i64;
            }
            for (e, &t) in truth.iter().enumerate() {
                assert_eq!(oracle.writer(e), t, "c={c} d={d} n={n} e={e}");
            }
        }
    }

    #[test]
    fn linear_writer_out_of_range_iterations_are_maxint() {
        let oracle = LinearWriter::new(2, 0, 3); // writes 0, 2, 4
        assert_eq!(oracle.writer(6), MAXINT, "would be iteration 3, past N");
        assert_eq!(oracle.writer(1), MAXINT, "wrong parity");
    }

    #[test]
    #[should_panic(expected = "stride c >= 1")]
    fn linear_writer_zero_stride_panics() {
        let _ = LinearWriter::new(0, 0, 4);
    }

    #[test]
    fn linear_writer_paper_example() {
        // §2.3 text for Figure 4: a(i) = 2i, test (off - d) mod c == 0,
        // writer (off - d) / c.
        let oracle = LinearWriter::new(2, 0, 10_000);
        assert_eq!(oracle.writer(4242), 2121);
        assert_eq!(oracle.writer(4243), MAXINT);
    }
}
