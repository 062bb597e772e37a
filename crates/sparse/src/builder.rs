//! Triplet (COO) accumulation and conversion to CSR.

use crate::csr::CsrMatrix;

/// Accumulates `(row, col, value)` triplets in any order and converts them
/// to a [`CsrMatrix`], summing duplicates — the standard assembly path for
/// stencil and finite-difference operators.
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletBuilder {
    /// A builder for an `nrows × ncols` matrix with room for `n` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, n: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::with_capacity(n),
        }
    }

    /// Number of accumulated triplets (before duplicate merging).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no triplets have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `value` at `(row, col)`; duplicates are summed at build time.
    ///
    /// # Panics
    /// Panics if the position is out of range.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.nrows, "row {row} out of range ({})", self.nrows);
        assert!(col < self.ncols, "col {col} out of range ({})", self.ncols);
        self.entries.push((row, col, value));
    }

    /// Buckets the triplets by row, orders each row by column, merges
    /// duplicates, and produces the CSR matrix.
    ///
    /// Duplicates of one `(row, col)` are summed in insertion order:
    /// `((v0 + v1) + v2) + …` for the values pushed first, second, third.
    pub fn build(self) -> CsrMatrix {
        #[cfg(test)]
        tests::record(&self);
        let mut row_ptr = vec![0usize; self.nrows + 1];
        for &(r, _, _) in &self.entries {
            row_ptr[r + 1] += 1;
        }
        for r in 0..self.nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        // Counting scatter: stable, so each row keeps insertion order.
        let mut next = row_ptr.clone();
        let mut bucketed = vec![(0usize, 0.0f64); self.entries.len()];
        for (r, c, v) in self.entries {
            bucketed[next[r]] = (c, v);
            next[r] += 1;
        }
        let mut col_idx: Vec<usize> = Vec::with_capacity(bucketed.len());
        let mut values: Vec<f64> = Vec::with_capacity(bucketed.len());
        let mut merged_ptr = vec![0usize; self.nrows + 1];
        for r in 0..self.nrows {
            let row = &mut bucketed[row_ptr[r]..row_ptr[r + 1]];
            row.sort_by_key(|e| e.0);
            let start = col_idx.len();
            for &(c, v) in row.iter() {
                if col_idx.len() > start && col_idx.last() == Some(&c) {
                    *values.last_mut().expect("merge target exists") += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            merged_ptr[r + 1] = col_idx.len();
        }
        CsrMatrix::from_parts(self.nrows, self.ncols, merged_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::ProblemKind;
    use crate::stencil::five_point;
    use std::cell::RefCell;

    thread_local! {
        /// While armed, a copy of every builder `build` consumes on this
        /// thread: the equivalence test replays them through the reference.
        static RECORDED: RefCell<Option<Vec<TripletBuilder>>> = const { RefCell::new(None) };
    }

    pub(super) fn record(b: &TripletBuilder) {
        RECORDED.with(|r| r.borrow_mut().as_mut().map(|seen| seen.push(b.clone())));
    }

    /// The global-sort build this crate shipped before the row-bucketed
    /// one, verbatim: the reference the bucketed build must match.
    fn sort_based_build(mut b: TripletBuilder) -> CsrMatrix {
        b.entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut row_counts = vec![0usize; b.nrows];
        let mut col_idx: Vec<usize> = Vec::with_capacity(b.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(b.entries.len());
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in b.entries {
            if last == Some((r, c)) {
                *values.last_mut().expect("merge target exists") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_counts[r] += 1;
                last = Some((r, c));
            }
        }
        let mut row_ptr = vec![0usize; b.nrows + 1];
        for r in 0..b.nrows {
            row_ptr[r + 1] = row_ptr[r] + row_counts[r];
        }
        CsrMatrix::from_parts(b.nrows, b.ncols, row_ptr, col_idx, values)
    }

    fn assert_bit_identical(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
        assert_eq!(got.nrows(), want.nrows(), "{what}");
        assert_eq!(got.ncols(), want.ncols(), "{what}");
        assert_eq!(got.row_ptr(), want.row_ptr(), "{what}");
        assert_eq!(got.col_idx(), want.col_idx(), "{what}");
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    #[test]
    fn bucketed_build_is_bit_identical_to_the_sort_based_build() {
        RECORDED.with(|r| *r.borrow_mut() = Some(Vec::new()));
        let mut built = Vec::new();
        for kind in ProblemKind::all() {
            for seed in [0x5EED + kind.equations() as u64, 7, 0xD1CE] {
                built.push((format!("{} seed {seed}", kind.name()), kind.matrix(seed)));
            }
        }
        for nx in [12, 14, 16, 18, 20] {
            for ny in nx..nx + 4 {
                built.push((
                    format!("5pt-{nx}x{ny}"),
                    five_point(nx, ny, (nx * ny) as u64),
                ));
            }
        }
        let recorded = RECORDED.with(|r| r.borrow_mut().take()).expect("armed");
        assert_eq!(recorded.len(), built.len(), "one build per operator");
        for (b, (what, m)) in recorded.into_iter().zip(&built) {
            assert_bit_identical(m, &b.clone().build(), what);
            assert_bit_identical(m, &sort_based_build(b), what);
        }
    }

    #[test]
    fn duplicates_are_summed_in_insertion_order() {
        // 1 + 1e16 rounds back to 1e16, so the order of the three adds
        // decides the sum: ((1 + 1e16) - 1e16) = 0, ((1e16 - 1e16) + 1) = 1.
        let sum = |vals: [f64; 3]| {
            let mut b = TripletBuilder::with_capacity(2, 2, 0);
            b.push(1, 0, 5.0);
            for v in vals {
                b.push(0, 1, v);
                b.push(0, 0, 2.0);
            }
            let m = b.build();
            assert_eq!(m.get(0, 0), Some(6.0));
            m.get(0, 1).expect("merged entry")
        };
        assert_eq!(sum([1.0, 1e16, -1e16]), 0.0);
        assert_eq!(sum([1e16, -1e16, 1.0]), 1.0);
    }

    #[test]
    fn builds_in_any_order() {
        let mut b = TripletBuilder::with_capacity(2, 3, 0);
        b.push(1, 2, 5.0);
        b.push(0, 0, 1.0);
        b.push(1, 0, 4.0);
        b.push(0, 2, 3.0);
        let m = b.build();
        assert_eq!(m.to_dense(), vec![vec![1.0, 0.0, 3.0], vec![4.0, 0.0, 5.0]]);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::with_capacity(2, 2, 0);
        b.push(0, 1, 1.0);
        b.push(0, 1, 2.5);
        b.push(1, 1, 1.0);
        b.push(0, 1, 0.5);
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), Some(4.0));
        assert_eq!(m.get(1, 1), Some(1.0));
    }

    #[test]
    fn duplicate_in_different_rows_not_merged() {
        let mut b = TripletBuilder::with_capacity(2, 2, 0);
        b.push(0, 1, 1.0);
        b.push(1, 1, 2.0);
        let m = b.build();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.get(1, 1), Some(2.0));
    }

    #[test]
    fn empty_builder_yields_empty_matrix() {
        let m = TripletBuilder::with_capacity(3, 3, 0).build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.nrows(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        TripletBuilder::with_capacity(1, 1, 0).push(0, 1, 1.0);
    }

    #[test]
    fn capacity_and_len() {
        let mut b = TripletBuilder::with_capacity(4, 4, 10);
        assert!(b.is_empty());
        b.push(0, 0, 1.0);
        assert_eq!(b.len(), 1);
    }
}
