//! The paper's Figure 4 test loop, parameterized exactly as in §3.1.
//!
//! ```fortran
//! S1  do i = 1, N
//!         do j = 1, M
//!             y(a(i)) = y(a(i)) + val(j) * y(b(i) + nbrs(j))
//!         end do
//!     end do
//! ```
//!
//! with the §3.1 initialization `a(i) = 2i`, `b(i) = 2i`, and
//! `nbrs(j) = 2j − L`. The parameter `L` controls the dependence
//! structure:
//!
//! * **odd `L`** — every reference `2i + 2j − L` is odd while every written
//!   element `2i` is even: *no dependencies between outer loop iterations*.
//!   Measured efficiency then isolates the construct's overheads
//!   (pre/postprocessing plus the per-reference dependency checks) — the
//!   ≈33% (`M=1`) and ≈50% (`M=5`) plateaus of Figure 6.
//! * **even `L`** — term `j` of iteration `i` references the element
//!   written by iteration `i + j − L/2`: a *true* dependency at distance
//!   `L/2 − j` when `j < L/2`, an *intra-iteration* reference when
//!   `j == L/2`, and an *antidependency* when `j > L/2`. Increasing `L`
//!   stretches the true-dependency distances, which is why Figure 6's
//!   even-`L` efficiencies "increase monotonically" with `L`.
//!
//! Internally iterations and terms are 0-based; `PAD` shifts the element
//! space so that `2i + 2j − L` can never go negative (the paper's Fortran
//! declaration implicitly allows `y` to start below the written range).

use crate::pattern::{AccessPattern, DoacrossLoop};
use std::ops::Range;

/// Element-space shift making all subscripts non-negative for any `L` up to
/// [`TestLoop::MAX_L`].
const PAD: usize = 16;

/// The Figure 4 loop with the §3.1 parameterization.
#[derive(Debug, Clone)]
pub struct TestLoop {
    n: usize,
    m: usize,
    l: usize,
    /// `val(j)`, `j = 0..m` (0-based).
    val: Vec<f64>,
    data_len: usize,
}

impl TestLoop {
    /// Largest supported `L` (the paper sweeps 1..=14).
    const MAX_L: usize = PAD + 4;

    /// Builds the loop for outer trip count `n`, inner trip count `m`
    /// (paper `M`), and dependence parameter `l` (paper `L`).
    ///
    /// # Panics
    /// Panics if `l == 0` or `l > MAX_L`.
    pub fn new(n: usize, m: usize, l: usize) -> Self {
        assert!(
            (1..=Self::MAX_L).contains(&l),
            "L must be in 1..={}",
            Self::MAX_L
        );
        // val(j): fixed, reproducible coefficients; kept small so long
        // dependence chains stay in a numerically benign range.
        let val: Vec<f64> = (0..m).map(|j| 0.25 / (j + 1) as f64).collect();
        // Largest subscript: lhs max is 2N + PAD; term max is
        // 2N + 2M − L + PAD.
        let lhs_max = 2 * n + PAD;
        let term_max = (2 * n + 2 * m + PAD).saturating_sub(l);
        let data_len = lhs_max.max(term_max) + 1;
        Self {
            n,
            m,
            l,
            val,
            data_len,
        }
    }

    /// Outer trip count `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Dependence parameter `L`.
    pub fn l(&self) -> usize {
        self.l
    }

    /// A deterministic initial `y` for experiments: `y[e] = 1 + (e mod 10)/10`.
    pub fn initial_y(&self) -> Vec<f64> {
        (0..self.data_len)
            .map(|e| 1.0 + (e % 10) as f64 * 0.1)
            .collect()
    }

    /// The iteration (0-based) that writes `element`, if any — the linear
    /// subscript `a(i) = 2(i+1) + PAD` inverted, as §2.3 prescribes for
    /// this loop.
    pub fn writer_of(&self, element: usize) -> Option<usize> {
        let e = element.checked_sub(PAD + 2)?;
        if e % 2 != 0 {
            return None;
        }
        let i = e / 2;
        (i < self.n).then_some(i)
    }

    /// The §2.3 linear-subscript descriptor for this loop
    /// (`a(i) = 2i + PAD + 2` in 0-based form).
    pub fn linear_subscript(&self) -> crate::linear::LinearSubscript {
        crate::linear::LinearSubscript::new(2, PAD + 2)
    }

    /// Exhaustive classification of every `(i, j)` reference — the ground
    /// truth the runtime's measured [`crate::DepCounts`] are tested
    /// against, and the workload description printed by the benchmark
    /// harness.
    pub fn census(&self) -> DependencyCensus {
        let mut census = DependencyCensus::default();
        for i in 0..self.n {
            for j in 0..self.m {
                let off = self.term_element(i, j);
                match self.writer_of(off) {
                    None => census.unwritten += 1,
                    Some(w) if w < i => {
                        census.true_deps += 1;
                        let d = i - w;
                        census.min_true_distance =
                            Some(census.min_true_distance.map_or(d, |m| m.min(d)));
                        census.max_true_distance =
                            Some(census.max_true_distance.map_or(d, |m| m.max(d)));
                    }
                    Some(w) if w == i => census.intra += 1,
                    Some(_) => census.anti_deps += 1,
                }
            }
        }
        census
    }
}

impl AccessPattern for TestLoop {
    #[inline]
    fn iterations(&self) -> usize {
        self.n
    }

    #[inline]
    fn data_len(&self) -> usize {
        self.data_len
    }

    /// `a(i) = 2i` in the paper's 1-based terms: `2(i+1) + PAD` here.
    #[inline]
    fn lhs(&self, i: usize) -> usize {
        2 * (i + 1) + PAD
    }

    #[inline]
    fn terms(&self, _i: usize) -> usize {
        self.m
    }

    /// `b(i) + nbrs(j) = 2i + 2j − L` in 1-based terms.
    #[inline]
    fn term_element(&self, i: usize, j: usize) -> usize {
        // 2(i+1) + 2(j+1) − L + PAD; L ≤ PAD + 4 keeps this non-negative.
        2 * (i + 1) + 2 * (j + 1) + PAD - self.l
    }

    fn block_window(&self, iter_range: Range<usize>) -> Range<usize> {
        if iter_range.is_empty() {
            return 0..0;
        }
        self.lhs(iter_range.start)..self.lhs(iter_range.end - 1) + 1
    }
}

impl DoacrossLoop for TestLoop {
    /// Figure 5 S2: `ynew(a(i)) = y(a(i))`.
    #[inline]
    fn init(&self, _i: usize, old_lhs: f64) -> f64 {
        old_lhs
    }

    /// `+ val(j) * operand`.
    #[inline]
    fn combine(&self, _i: usize, j: usize, acc: f64, operand: f64) -> f64 {
        acc + self.val[j] * operand
    }
}

/// Ground-truth dependence counts for a [`TestLoop`] parameterization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DependencyCensus {
    /// References to elements written by an earlier iteration.
    pub true_deps: u64,
    /// References to elements written by a later iteration.
    pub anti_deps: u64,
    /// References to the iteration's own output element.
    pub intra: u64,
    /// References to elements no iteration writes.
    pub unwritten: u64,
    /// Smallest true-dependency distance (`i − writer`), if any.
    pub min_true_distance: Option<usize>,
    /// Largest true-dependency distance, if any.
    pub max_true_distance: Option<usize>,
}

impl DependencyCensus {
    /// Whether the outer loop is dependence-free (a doall): the odd-`L`
    /// regime of Figure 6.
    pub fn is_doall(&self) -> bool {
        self.true_deps == 0 && self.anti_deps == 0 && self.intra == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Doacross;
    use crate::seq::run_sequential;
    use doacross_par::ThreadPool;

    #[test]
    fn odd_l_has_no_dependencies() {
        for l in [1usize, 3, 5, 7, 9, 11, 13] {
            for m in [1usize, 5] {
                let t = TestLoop::new(500, m, l);
                let c = t.census();
                assert!(c.is_doall(), "L={l} M={m}: {c:?}");
                assert_eq!(c.unwritten, (500 * m) as u64);
            }
        }
    }

    #[test]
    fn even_l_dependency_structure_matches_formula() {
        // Term j (1-based) of iteration i references the element written by
        // iteration i + j − L/2 (1-based arithmetic).
        let n = 1000usize;
        for l in [2usize, 4, 6, 8, 10, 12, 14] {
            for m in [1usize, 5] {
                let t = TestLoop::new(n, m, l);
                let c = t.census();
                let half = l / 2;
                let mut expect_true = 0u64;
                let mut expect_intra = 0u64;
                let mut expect_anti = 0u64;
                let mut expect_none = 0u64;
                for i1 in 1..=n {
                    // paper's 1-based i
                    for j1 in 1..=m {
                        let w1 = i1 as i64 + j1 as i64 - half as i64;
                        if w1 < 1 || w1 > n as i64 {
                            expect_none += 1;
                        } else if w1 < i1 as i64 {
                            expect_true += 1;
                        } else if w1 == i1 as i64 {
                            expect_intra += 1;
                        } else {
                            expect_anti += 1;
                        }
                    }
                }
                assert_eq!(c.true_deps, expect_true, "L={l} M={m}");
                assert_eq!(c.intra, expect_intra, "L={l} M={m}");
                assert_eq!(c.anti_deps, expect_anti, "L={l} M={m}");
                assert_eq!(c.unwritten, expect_none, "L={l} M={m}");
                if half >= 2 && m >= 1 {
                    // Smallest distance comes from the largest j below L/2.
                    let expect_min = half - m.min(half - 1);
                    assert_eq!(c.min_true_distance, Some(expect_min), "L={l} M={m}");
                }
            }
        }
    }

    #[test]
    fn larger_l_means_longer_distances() {
        // The paper's monotonicity argument: as L increases, the number of
        // outer-loop iterations between dependencies increases.
        let mut prev_min = 0usize;
        for l in [4usize, 6, 8, 10, 12, 14] {
            let t = TestLoop::new(100, 1, l);
            let c = t.census();
            let d = c.min_true_distance.expect("even L >= 4, M=1 has true deps");
            assert!(d > prev_min, "L={l}: {d} should exceed {prev_min}");
            prev_min = d;
        }
    }

    #[test]
    fn l2_m1_is_pure_intra() {
        // L=2, j=1 == L/2: every reference is the iteration's own element.
        let t = TestLoop::new(50, 1, 2);
        let c = t.census();
        assert_eq!(c.intra, 50);
        assert_eq!(c.true_deps + c.anti_deps + c.unwritten, 0);
    }

    #[test]
    fn doacross_matches_sequential_across_parameter_grid() {
        let pool = ThreadPool::new(4);
        for l in 1..=14usize {
            for m in [1usize, 5] {
                let t = TestLoop::new(200, m, l);
                let mut y = t.initial_y();
                let mut oracle = y.clone();
                run_sequential(&t, &mut oracle);
                let mut rt = Doacross::for_loop(&t);
                let stats = rt.run(&pool, &t, &mut y).unwrap();
                assert_eq!(y, oracle, "L={l} M={m}");
                // Measured classification must agree with the census
                // (anti and unwritten both land in `anti_or_unwritten`).
                let c = t.census();
                assert_eq!(stats.deps.true_deps, c.true_deps, "L={l} M={m}");
                assert_eq!(stats.deps.intra, c.intra, "L={l} M={m}");
                assert_eq!(
                    stats.deps.anti_or_unwritten,
                    c.anti_deps + c.unwritten,
                    "L={l} M={m}"
                );
            }
        }
    }

    #[test]
    fn linear_subscript_oracle_agrees_with_writer_of() {
        let t = TestLoop::new(300, 5, 6);
        let sub = t.linear_subscript();
        let oracle = crate::oracle::LinearWriter::new(sub.c, sub.d, t.n());
        for e in 0..t.data_len() {
            let expect = t.writer_of(e).map(|w| w as i64).unwrap_or(i64::MAX);
            assert_eq!(oracle.writer(e), expect, "element {e}");
        }
    }

    #[test]
    fn subscripts_stay_in_bounds_across_grid() {
        for l in 1..=TestLoop::MAX_L {
            for m in [0usize, 1, 5, 9] {
                let t = TestLoop::new(64, m, l);
                for i in 0..t.iterations() {
                    assert!(t.lhs(i) < t.data_len());
                    for j in 0..t.terms(i) {
                        assert!(t.term_element(i, j) < t.data_len(), "L={l} M={m}");
                    }
                }
            }
        }
    }

    #[test]
    fn m_zero_is_trivially_parallel() {
        let pool = ThreadPool::new(2);
        let t = TestLoop::new(100, 0, 5);
        let mut y = t.initial_y();
        let oracle = y.clone();
        Doacross::for_loop(&t).run(&pool, &t, &mut y).unwrap();
        assert_eq!(y, oracle, "no terms: y unchanged");
    }

    #[test]
    #[should_panic(expected = "L must be in")]
    fn l_zero_rejected() {
        let _ = TestLoop::new(10, 1, 0);
    }

    #[test]
    fn block_window_covers_lhs_range() {
        let t = TestLoop::new(100, 3, 4);
        let w = t.block_window(10..20);
        for i in 10..20 {
            assert!(w.contains(&t.lhs(i)));
        }
        assert_eq!(w.len(), 2 * 10 - 1, "stride-2 lhs over 10 iterations");
    }
}
