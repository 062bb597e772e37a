//! Collision properties of the structural fingerprint over random
//! patterns: a single-word edit (an `lhs`, a term element) changes each of
//! the two hash streams — provably, since it changes exactly one lane of
//! each — and so does a term-count edit or an element moved across a row
//! boundary; and a subscript at or above 2³² never aliases its low 32
//! bits.

use doacross_core::AccessPattern;
use doacross_plan::PatternFingerprint;
use proptest::prelude::*;

/// A bare access pattern: index arrays only, so subscripts may be as large
/// as `usize` allows without allocating a data space to match.
#[derive(Debug, Clone)]
struct Rows {
    data_len: usize,
    lhs: Vec<usize>,
    rows: Vec<Vec<usize>>,
}

impl AccessPattern for Rows {
    fn iterations(&self) -> usize {
        self.lhs.len()
    }
    fn data_len(&self) -> usize {
        self.data_len
    }
    fn lhs(&self, i: usize) -> usize {
        self.lhs[i]
    }
    fn terms(&self, i: usize) -> usize {
        self.rows[i].len()
    }
    fn term_element(&self, i: usize, j: usize) -> usize {
        self.rows[i][j]
    }
}

/// Both hash streams, `hash` then `hash2`.
fn streams(p: &Rows) -> (u64, u64) {
    let raw = PatternFingerprint::of(p).to_raw();
    (raw[0], raw[1])
}

fn arb_rows(max_n: usize, data_len: usize) -> impl Strategy<Value = Rows> {
    (1..=max_n).prop_flat_map(move |n| {
        let lhs = proptest::collection::vec(0..data_len, n..=n);
        let rows = proptest::collection::vec(proptest::collection::vec(0..data_len, 0..6), n..=n);
        (lhs, rows).prop_map(move |(lhs, rows)| Rows {
            data_len,
            lhs,
            rows,
        })
    })
}

/// Coordinates of every term element, in row order.
fn elements(p: &Rows) -> Vec<(usize, usize)> {
    (0..p.rows.len())
        .flat_map(|i| (0..p.rows[i].len()).map(move |j| (i, j)))
        .collect()
}

const DATA: usize = 64;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn single_edits_change_both_streams(
        p in arb_rows(24, DATA),
        pick in 0usize..1_000_000,
        delta in 1..DATA,
        what in 0usize..3,
    ) {
        let mut edited = p.clone();
        let i = pick % p.lhs.len();
        match what {
            0 => edited.lhs[i] = (p.lhs[i] + delta) % DATA,
            1 => {
                let at = elements(&p);
                prop_assume!(!at.is_empty());
                let (i, j) = at[pick % at.len()];
                edited.rows[i][j] = (p.rows[i][j] + delta) % DATA;
            }
            _ => {
                // One term count edited: a row gains an element, or loses
                // its last one.
                if p.rows[i].is_empty() || delta % 2 == 0 {
                    edited.rows[i].push(delta);
                } else {
                    edited.rows[i].pop();
                }
            }
        }
        let (a, b) = (streams(&p), streams(&edited));
        prop_assert!(a.0 != b.0, "hash kept under edit {}: {:?}", what, edited);
        prop_assert!(a.1 != b.1, "hash2 kept under edit {}: {:?}", what, edited);
    }

    #[test]
    fn an_element_moved_across_a_row_boundary_changes_both_streams(
        p in arb_rows(24, DATA),
        pick in 0usize..1_000_000,
    ) {
        // Same flattened term stream, one element on the other side of the
        // boundary between rows i and i + 1.
        prop_assume!(p.lhs.len() >= 2);
        let i = pick % (p.lhs.len() - 1);
        let mut moved = p.clone();
        if let Some(e) = moved.rows[i].pop() {
            moved.rows[i + 1].insert(0, e);
        } else {
            prop_assume!(!p.rows[i + 1].is_empty());
            let e = moved.rows[i + 1].remove(0);
            moved.rows[i].push(e);
        }
        let (a, b) = (streams(&p), streams(&moved));
        prop_assert!(a.0 != b.0, "hash kept across the split: {:?}", moved);
        prop_assert!(a.1 != b.1, "hash2 kept across the split: {:?}", moved);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_subscript_at_or_above_2_pow_32_never_aliases_its_low_bits(
        p in arb_rows(16, 1 << 32),
        pick in 0usize..1_000_000,
        high in 1usize..1 << 20,
    ) {
        // `data_len` is 2⁵² so both subscripts are in range; only the
        // high half of one word differs.
        let mut low = p.clone();
        low.data_len = 1 << 52;
        let mut wide = low.clone();
        let at = elements(&p);
        let slot = pick % (p.lhs.len() + at.len());
        if slot < p.lhs.len() {
            wide.lhs[slot] += high << 32;
        } else {
            let (i, j) = at[slot - p.lhs.len()];
            wide.rows[i][j] += high << 32;
        }
        let (a, b) = (streams(&low), streams(&wide));
        prop_assert!(a.0 != b.0 && a.1 != b.1, "slot {} aliased", slot);
        prop_assert!(PatternFingerprint::of(&low) != PatternFingerprint::of(&wide));
    }
}
