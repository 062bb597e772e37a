//! Structural fingerprints of access patterns.
//!
//! A plan cache needs a key that (a) is identical for two loops with the
//! same runtime dependence structure and (b) is cheap relative to the
//! preprocessing it lets callers skip. [`PatternFingerprint`] hashes the
//! information [`AccessPattern`] exposes — iteration count, data-space
//! size, every `lhs(i)`, and every `term_element(i, j)` — with two
//! independently-seeded 64-bit FNV-1a streams plus exact structural totals.
//!
//! Lane layout: each stream is four independent FNV chains (`crate::fnv`),
//! one per role a word plays in its row — lane 0 the row's `lhs`, lane 1
//! its term count, lane 2 the elements at even positions `j`, lane 3 those
//! at odd positions — folded at the end, in that order, into the stream's
//! hash of `iterations` and `data_len`. One chain per stream made every
//! word wait on the previous word's multiply; the lanes overlap four.
//!
//! Cost: one xor-multiply per word per stream, one sequential scan —
//! ≈ 22 µs on a Table-1 structure (mean over the five, one CPU of a
//! 2-vCPU x86-64 host), against ≈ 38 µs for the single chain and ≈ 12 µs
//! for merely summing the same words through [`AccessPattern`]. A cache
//! miss adds the planner's own passes on top, which is the spread the
//! cache amortizes: for a plan the reference counts settle as sequential
//! (planner stage 0) a sum of the row lengths and one bounds pass over the
//! references, for any other the census pass and what its variant needs.
//!
//! Collisions require two different index-array contents to agree on both
//! 64-bit streams *and* on all exact counts — probability ≈ 2⁻¹²⁸ per pair;
//! we accept that, as every content-addressed cache does. Any edit of one
//! word (an `lhs`, an element) changes exactly one lane of each stream and
//! so, provably, both hashes; moving an element across a row boundary
//! changes the term-count lane of both.

use crate::fnv::{step, Lanes, FNV_OFFSET};
use doacross_core::AccessPattern;

/// Second stream: different offset basis (splitmix of the first) so the two
/// streams are not trivially correlated.
const FNV_OFFSET_2: u64 = 0x9E37_79B9_7F4A_7C15;
/// Mixed into the second stream with each row's term count. Without it the
/// second stream absorbed only subscript values, so two patterns with the
/// same flattened term stream but different per-row splits could agree on
/// `hash2` whenever a moved element's rotation happened to match a
/// left-hand side's — collapsing the advertised 128 bits to 64 for exactly
/// the row-boundary class of collisions. Absorbing the count (xor a
/// sentinel, so rows with 0 terms still perturb the stream differently
/// than absorbing a subscript would) keeps the streams independent.
const ROW_SENTINEL: u64 = 0xA076_1D64_78BD_642F;

/// The lanes of the module docs' layout.
const LHS: usize = 0;
const COUNT: usize = 1;
const EVEN: usize = 2;
const ODD: usize = 3;

/// Both streams' lanes; the second stream absorbs each word through its
/// own per-role transform.
struct Streams {
    one: Lanes,
    two: Lanes,
}

impl Streams {
    #[inline]
    fn row(&mut self, lhs: u64, terms: u64) {
        self.one.absorb(LHS, lhs);
        self.two.absorb(LHS, lhs.rotate_left(17));
        self.one.absorb(COUNT, terms);
        self.two.absorb(COUNT, terms ^ ROW_SENTINEL);
    }

    #[inline]
    fn element(&mut self, lane: usize, e: u64) {
        self.one.absorb(lane, e);
        self.two.absorb(lane, e.rotate_left(31));
    }
}

/// A 128-bit structural hash plus exact shape totals of an access pattern.
///
/// Two patterns with equal fingerprints have (with cache-grade confidence)
/// identical iteration counts, data spaces, left-hand-side subscripts, and
/// right-hand-side subscripts — i.e. identical dependence structure, which
/// is everything the preprocessed doacross's inspector, census, and
/// reordering depend on. Coefficient *values* are deliberately excluded:
/// they do not affect preprocessing, so loops differing only in values
/// share a plan (the triangular-solve case: one structure, many right-hand
/// sides).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternFingerprint {
    hash: u64,
    hash2: u64,
    iterations: usize,
    data_len: usize,
    total_terms: u64,
}

impl PatternFingerprint {
    /// Fingerprints `pattern` in one sequential scan.
    pub fn of<P: AccessPattern + ?Sized>(pattern: &P) -> Self {
        let iterations = pattern.iterations();
        let data_len = pattern.data_len();
        let head1 = step(step(FNV_OFFSET, iterations as u64), data_len as u64);
        let head2 = step(step(FNV_OFFSET_2, data_len as u64), iterations as u64);
        let mut s = Streams {
            one: Lanes::seeded(head1),
            two: Lanes::seeded(head2),
        };
        let mut total_terms = 0u64;
        for i in 0..iterations {
            let terms = pattern.terms(i);
            s.row(pattern.lhs(i) as u64, terms as u64);
            total_terms += terms as u64;
            // Pairs, so each lane is a register rather than an indexed slot.
            let mut j = 0;
            while j + 1 < terms {
                s.element(EVEN, pattern.term_element(i, j) as u64);
                s.element(ODD, pattern.term_element(i, j + 1) as u64);
                j += 2;
            }
            if j < terms {
                s.element(EVEN, pattern.term_element(i, j) as u64);
            }
        }
        Self {
            hash: s.one.fold(head1),
            hash2: s.two.fold(head2),
            iterations,
            data_len,
            total_terms,
        }
    }

    /// Iteration count of the fingerprinted pattern.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Data-space size of the fingerprinted pattern.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Total right-hand-side references of the fingerprinted pattern.
    pub fn total_terms(&self) -> u64 {
        self.total_terms
    }

    /// The first 64-bit hash stream. The sharded plan cache routes on the
    /// top bits of this value; they are as uniformly distributed as the
    /// rest of the hash, so shards load-balance across structures.
    pub fn high_bits(&self) -> u64 {
        self.hash
    }

    /// The five words of the fingerprint in a fixed serialization order —
    /// the persist codec's view. Paired with the crate's `from_raw`; treat
    /// the words as opaque.
    pub fn to_raw(self) -> [u64; 5] {
        [
            self.hash,
            self.hash2,
            self.iterations as u64,
            self.data_len as u64,
            self.total_terms,
        ]
    }

    /// Rebuilds a fingerprint from [`PatternFingerprint::to_raw`] words.
    /// Returns `None` when a count does not fit the host's `usize` (a
    /// store written on a 64-bit host read on a 32-bit one).
    pub(crate) fn from_raw(raw: [u64; 5]) -> Option<Self> {
        Some(Self {
            hash: raw[0],
            hash2: raw[1],
            iterations: usize::try_from(raw[2]).ok()?,
            data_len: usize::try_from(raw[3]).ok()?,
            total_terms: raw[4],
        })
    }
}

/// The observability identity of a fingerprint: its two hash streams.
/// Shape totals are dropped — 128 bits already identify the structure for
/// tracing and metric labels.
impl From<&PatternFingerprint> for doacross_obs::FpId {
    fn from(fp: &PatternFingerprint) -> Self {
        doacross_obs::FpId(fp.hash, fp.hash2)
    }
}

impl std::fmt::Display for PatternFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:016x}{:016x} (n={}, data={}, refs={})",
            self.hash, self.hash2, self.iterations, self.data_len, self.total_terms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::{IndirectLoop, TestLoop};

    fn sample() -> IndirectLoop {
        IndirectLoop::new(
            8,
            vec![1, 3, 5],
            vec![vec![0, 2], vec![1], vec![3, 4]],
            vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]],
        )
        .unwrap()
    }

    #[test]
    fn stable_across_calls_and_instances() {
        let a = PatternFingerprint::of(&sample());
        let b = PatternFingerprint::of(&sample());
        assert_eq!(a, b);
        assert_eq!(a.iterations(), 3);
        assert_eq!(a.data_len(), 8);
        assert_eq!(a.total_terms(), 5);
    }

    #[test]
    fn coefficients_do_not_affect_the_fingerprint() {
        let structure_only = IndirectLoop::new(
            8,
            vec![1, 3, 5],
            vec![vec![0, 2], vec![1], vec![3, 4]],
            vec![vec![9.0, 9.0], vec![9.0], vec![9.0, 9.0]],
        )
        .unwrap();
        assert_eq!(
            PatternFingerprint::of(&sample()),
            PatternFingerprint::of(&structure_only),
            "values are not structure"
        );
    }

    #[test]
    fn any_subscript_change_changes_the_fingerprint() {
        let base = PatternFingerprint::of(&sample());
        let lhs_changed = IndirectLoop::new(
            8,
            vec![1, 3, 6],
            vec![vec![0, 2], vec![1], vec![3, 4]],
            vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]],
        )
        .unwrap();
        assert_ne!(base, PatternFingerprint::of(&lhs_changed));
        let rhs_changed = IndirectLoop::new(
            8,
            vec![1, 3, 5],
            vec![vec![0, 2], vec![2], vec![3, 4]],
            vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]],
        )
        .unwrap();
        assert_ne!(base, PatternFingerprint::of(&rhs_changed));
        let data_len_changed = IndirectLoop::new(
            9,
            vec![1, 3, 5],
            vec![vec![0, 2], vec![1], vec![3, 4]],
            vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]],
        )
        .unwrap();
        assert_ne!(base, PatternFingerprint::of(&data_len_changed));
    }

    #[test]
    fn term_boundaries_matter() {
        // Same flattened reference stream, different per-iteration split:
        // [ [0,2], [1] ] vs [ [0], [2,1] ].
        let a = IndirectLoop::new(
            4,
            vec![0, 1],
            vec![vec![0, 2], vec![1]],
            vec![vec![1.0; 2], vec![1.0]],
        )
        .unwrap();
        let b = IndirectLoop::new(
            4,
            vec![0, 1],
            vec![vec![0], vec![2, 1]],
            vec![vec![1.0], vec![1.0; 2]],
        )
        .unwrap();
        assert_ne!(PatternFingerprint::of(&a), PatternFingerprint::of(&b));
    }

    #[test]
    fn row_boundary_split_perturbs_both_streams() {
        // Adversarial pair for the *second* stream: same flattened term
        // stream, different per-row split, and the row-1 left-hand side
        // chosen so rot17(lhs) equals rot31(element) — 16384 = 1 << 14,
        // rot17(1 << 14) = 1 << 31 = rot31(1). Before the per-row sentinel
        // was absorbed into the second stream, these two patterns agreed
        // on `hash2` exactly (the moved element masqueraded as the lhs in
        // the interleaved stream), leaving only 64 effective bits for the
        // row-boundary collision class.
        let lhs = vec![0usize, 1 << 14];
        let a = IndirectLoop::new(
            (1 << 14) + 1,
            lhs.clone(),
            vec![vec![1], vec![]],
            vec![vec![1.0], vec![]],
        )
        .unwrap();
        let b = IndirectLoop::new(
            (1 << 14) + 1,
            lhs,
            vec![vec![], vec![1]],
            vec![vec![], vec![1.0]],
        )
        .unwrap();
        let fa = PatternFingerprint::of(&a);
        let fb = PatternFingerprint::of(&b);
        assert_ne!(fa, fb);
        assert_ne!(fa.hash, fb.hash, "first stream separates the split");
        assert_ne!(
            fa.hash2, fb.hash2,
            "second stream must also separate per-row term counts"
        );
    }

    #[test]
    fn raw_words_round_trip() {
        let fp = PatternFingerprint::of(&sample());
        let rebuilt = PatternFingerprint::from_raw(fp.to_raw()).unwrap();
        assert_eq!(fp, rebuilt);
        assert_eq!(rebuilt.high_bits(), fp.high_bits());
    }

    #[test]
    fn testloop_parameterizations_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for l in 1..=14 {
            for m in [1usize, 5] {
                assert!(
                    seen.insert(PatternFingerprint::of(&TestLoop::new(100, m, l))),
                    "L={l} M={m} collided"
                );
            }
        }
    }

    #[test]
    fn empty_pattern_fingerprints() {
        let e = IndirectLoop::new(0, vec![], vec![], vec![]).unwrap();
        let fp = PatternFingerprint::of(&e);
        assert_eq!(fp.iterations(), 0);
        assert_eq!(fp.total_terms(), 0);
        assert_eq!(fp, PatternFingerprint::of(&e));
    }

    #[test]
    fn display_includes_shape() {
        let text = PatternFingerprint::of(&sample()).to_string();
        assert!(text.contains("n=3"));
        assert!(text.contains("refs=5"));
    }
}
