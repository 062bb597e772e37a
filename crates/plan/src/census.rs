//! Dependence census: the structural facts variant selection runs on.
//!
//! One preprocessing pass classifies every right-hand-side reference the
//! way the executor's three-way check (Figure 5) would — true dependency /
//! antidependency / intra-iteration / unwritten — and extracts the
//! schedule-relevant aggregates: dependence distances, the wavefront
//! critical path, and average parallelism. A loop whose left-hand side is
//! *not* injective (illegal for the flat construct, so planned
//! sequential) has its references counted and bounds-checked, and
//! nothing more.
//!
//! ## What each planner stage materialises
//!
//! The planner builds a plan in up to four stages (see [`crate::planner`]),
//! and the pass is split along the same line so nothing is built before
//! the decision that needs it:
//!
//! * **Stage 0** — no pass at all. A loop whose reference counts settle it
//!   as sequential gets a census of shape totals alone
//!   ([`PlanCensus::is_classified`] is false): no writer map, no level, no
//!   class counted.
//! * **Stage 1** — [`CensusPass::of`]: one scan of the index arrays. It
//!   leaves the [`PlanCensus`] counters plus the two arrays every later
//!   product derives from — the writer map and the per-iteration wavefront
//!   level — and nothing else (two allocations). The planner's
//!   parallel-floor gate is arithmetic on the counters.
//! * **Stage 2** — [`CensusPass::sorted_levels`]: the counting sort of the
//!   level array into level widths and the doconsider claim order, which is
//!   what stall pricing and the wavefront's round count need. Stall pricing
//!   reads the dependence edges off the writer map stage 1 kept: no second
//!   writer map, no edge list.
//! * **Stage 3** — [`CensusPass::stream`]: the chosen variant's
//!   [`ClaimStream`] — the per-reference operand classes read off the
//!   writer map stage 1 kept, written in the variant's claim order, or no
//!   classes at all when the census counted every reference a true
//!   dependence. Only a plan that runs a stream-backed variant (doacross,
//!   reordered, wavefront) pays for it.

use doacross_core::{AccessPattern, ClaimStream, OperandClass, MAXINT};

/// Everything the planner knows about a pattern's dependence structure.
///
/// The shape totals (`iterations`, `data_len`, `total_terms`) are always
/// measured. The dependence fields are measured by the census pass; a
/// census the planner settled on its reference counts (stage 0) holds
/// zeros and `None`s there that mean "not counted"
/// ([`PlanCensus::is_classified`]), as a non-injective census does for its
/// classes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanCensus {
    /// Outer-loop iterations.
    pub iterations: usize,
    /// Data-space size.
    pub data_len: usize,
    /// Total right-hand-side references.
    pub total_terms: u64,
    /// References to elements written by an earlier iteration (0 when not
    /// counted: a non-injective or unclassified census).
    pub true_deps: u64,
    /// References to elements written by a later iteration.
    pub anti_deps: u64,
    /// References to the iteration's own output element.
    pub intra: u64,
    /// References to elements no iteration writes.
    pub unwritten: u64,
    /// Smallest true-dependency distance (`i − writer`), if any was
    /// measured.
    pub min_true_distance: Option<usize>,
    /// Largest true-dependency distance, if any.
    pub max_true_distance: Option<usize>,
    /// Whether the left-hand-side subscript is injective (the flat
    /// construct's legality requirement).
    pub injective: bool,
    /// Wavefront critical path: at least 1 for a non-empty injective loop
    /// the census pass ran over; 0 for an empty loop, a non-injective one
    /// (not computed) and an unclassified census (not measured).
    pub critical_path: usize,
}

/// What stage 1 of a plan build leaves behind: the census and the two
/// arrays every later product is derived from (see the module docs).
#[derive(Debug)]
pub struct CensusPass {
    /// The structural facts.
    pub census: PlanCensus,
    /// First `(iteration, element)` reference outside the declared data
    /// space, if any. A pattern with out-of-bounds subscripts cannot be
    /// planned (or legally executed); the planner surfaces this as
    /// [`doacross_core::DoacrossError::SubscriptOutOfBounds`], so no built
    /// plan's census ever describes one.
    pub first_out_of_bounds: Option<(usize, usize)>,
    /// Writer map as the inspector would fill it (last writer wins,
    /// `MAXINT` = never written).
    pub(crate) writer: Vec<i64>,
    /// Wavefront level of each iteration, `1..=critical_path`; empty for
    /// non-injective patterns (no level structure is computed for them).
    levels: Vec<usize>,
}

/// "Not seen yet" for the pass's running minima: no distance or
/// iteration index reaches it.
const UNSET: usize = usize::MAX;

/// Slots of the pass's cold ledger: the three reference classes that are
/// not true dependencies, then the out-of-bounds record. One array indexed
/// by a computed class so it lives in memory — a legal triangular pattern
/// never touches it, and it costs the scan's inner loop no register.
const INTRA: usize = 0;
const UNWRITTEN: usize = 1;
const ANTI: usize = 2;
/// Out-of-bounds right-hand-side references (counted in `total_terms`,
/// members of no class), then the first offender's iteration and element.
const OOB_TERMS: usize = 3;
const OOB_ITERATION: usize = 4;
const OOB_ELEMENT: usize = 5;

impl CensusPass {
    /// Runs the pass in O(data space + references).
    ///
    /// The scan counts in registers: per reference the common case (a true
    /// dependency) updates three row-local values — nearest and farthest
    /// writer, deepest predecessor level — and nothing else; the other
    /// classes are counted on their own (rare) branches, true dependencies
    /// are what is left of the row, distances and the critical path are
    /// folded in once per row, and the [`PlanCensus`] is written once at
    /// the end. A counter that lives in memory is a load-modify-store
    /// chain per reference, and this loop is the whole of a plan build
    /// that stage 1 gates (a plan the reference counts settle runs no pass
    /// at all) — keep its common path to those three registers.
    pub fn of<P: AccessPattern + ?Sized>(pattern: &P) -> Self {
        let n = pattern.iterations();
        let data_len = pattern.data_len();
        let mut cold = [0usize; 6];
        cold[OOB_ITERATION] = UNSET;

        // Writer map; a second write to any element makes the left-hand
        // side non-injective.
        let mut writer = vec![MAXINT; data_len];
        let mut injective = true;
        for i in 0..n {
            let lhs = pattern.lhs(i);
            if lhs >= data_len {
                if cold[OOB_ITERATION] == UNSET {
                    (cold[OOB_ITERATION], cold[OOB_ELEMENT]) = (i, lhs);
                }
                continue;
            }
            injective &= writer[lhs] == MAXINT;
            writer[lhs] = i as i64;
        }

        let mut total_terms = 0u64;
        let (mut min_distance, mut max_distance) = (UNSET, 0usize);
        let mut critical_path = 0usize;
        let mut levels = Vec::new();
        if injective {
            // Classify every reference and compute wavefront levels in the
            // same pass (a predecessor's level is final before its readers
            // are visited, since true dependencies point backwards).
            levels = vec![0usize; n];
            for i in 0..n {
                let terms = pattern.terms(i);
                total_terms += terms as u64;
                let mut below = 0usize;
                let (mut nearest, mut farthest) = (0usize, UNSET);
                for j in 0..terms {
                    let e = pattern.term_element(i, j);
                    // `MAXINT` (unwritten) and `UNSET` (out of bounds) both
                    // lie past every iteration, so one comparison sends
                    // everything but a true dependency to the cold branch.
                    let w = writer.get(e).map_or(UNSET, |&w| w as usize);
                    if w < i {
                        nearest = nearest.max(w);
                        farthest = farthest.min(w);
                        below = below.max(levels[w]);
                    } else {
                        let slot = if w == i {
                            INTRA
                        } else if w == MAXINT as usize {
                            UNWRITTEN
                        } else if w == UNSET {
                            OOB_TERMS
                        } else {
                            ANTI
                        };
                        cold[slot] += 1;
                        if slot == OOB_TERMS && cold[OOB_ITERATION] == UNSET {
                            (cold[OOB_ITERATION], cold[OOB_ELEMENT]) = (i, e);
                        }
                    }
                }
                if farthest != UNSET {
                    min_distance = min_distance.min(i - nearest);
                    max_distance = max_distance.max(i - farthest);
                }
                levels[i] = below + 1;
                critical_path = critical_path.max(below + 1);
            }
        } else {
            // The flat construct is illegal; reference classification
            // against a collided writer map would be meaningless. Still
            // bounds-check every reference — a plan must never certify an
            // unexecutable pattern — then count the references and stop.
            for i in 0..n {
                let terms = pattern.terms(i);
                total_terms += terms as u64;
                for j in 0..terms {
                    let e = pattern.term_element(i, j);
                    if e >= data_len && cold[OOB_ITERATION] == UNSET {
                        (cold[OOB_ITERATION], cold[OOB_ELEMENT]) = (i, e);
                    }
                }
            }
        }

        let [intra, unwritten, anti_deps, oob_terms] =
            [INTRA, UNWRITTEN, ANTI, OOB_TERMS].map(|slot| cold[slot] as u64);
        let true_deps = if injective {
            total_terms - intra - unwritten - anti_deps - oob_terms
        } else {
            0
        };
        let census = PlanCensus {
            iterations: n,
            data_len,
            total_terms,
            true_deps,
            anti_deps,
            intra,
            unwritten,
            min_true_distance: (true_deps > 0).then_some(min_distance),
            max_true_distance: (true_deps > 0).then_some(max_distance),
            injective,
            critical_path,
        };
        Self {
            census,
            first_out_of_bounds: (cold[OOB_ITERATION] != UNSET)
                .then_some((cold[OOB_ITERATION], cold[OOB_ELEMENT])),
            writer,
            levels,
        }
    }

    /// Whether the wavefront artifacts exist for this pattern: the flat
    /// construct's own legality conditions (injective, in bounds).
    fn schedulable(&self) -> bool {
        self.census.injective && self.first_out_of_bounds.is_none()
    }

    /// Stage 2's product: the level array counting-sorted into CSR level
    /// boundaries and the stable level-sorted iteration order — the same
    /// [`ClaimStream::sort_levels`] `doconsider_order` runs, so it doubles
    /// as the doconsider claim order (`tests/staged_equivalence.rs`). Only
    /// meaningful for injective patterns.
    pub fn sorted_levels(&self) -> (Vec<usize>, Vec<usize>) {
        ClaimStream::sort_levels(&self.levels, self.census.critical_path)
    }

    /// Stage 3's product: the [`ClaimStream`] of a stream-backed variant —
    /// every reference's [`OperandClass`], read off the writer map the pass
    /// kept and written straight into claim order: `order` is `None` for
    /// the flat doacross (natural order) and the level-sorted order for the
    /// reordered doacross and the wavefront, which adds `level_offsets`
    /// over it. When the census counted every reference a true dependence,
    /// there is nothing to classify: the stream is the reference ends
    /// alone, with no class bytes. `None` when the loop does not fit the
    /// stream's `u32` indices ([`ClaimStream::fits`]). `pattern` must be
    /// the in-bounds, injective pattern the pass ran over.
    pub fn stream<P: AccessPattern + ?Sized>(
        &self,
        pattern: &P,
        order: Option<&[usize]>,
        level_offsets: Option<&[usize]>,
    ) -> Option<ClaimStream> {
        debug_assert!(self.schedulable());
        let n = self.census.iterations;
        let census = &self.census;
        let mut ends = Vec::with_capacity(n + 1);
        let mut classes = (census.true_deps != census.total_terms)
            .then(|| Vec::with_capacity(census.total_terms as usize));
        let mut end = 0usize;
        ends.push(0u32);
        for k in 0..n {
            let i = order.map_or(k, |order| order[k]);
            let terms = pattern.terms(i);
            end += terms;
            ends.push(u32::try_from(end).ok()?);
            // Figure 5's three-way check, once and for all. `MAXINT`
            // (unwritten) lies past every iteration, so it reads as a later
            // writer: old value. Branch-free, one exact-size extend per row.
            if let Some(classes) = classes.as_mut() {
                classes.extend((0..terms).map(|j| {
                    let w = self.writer[pattern.term_element(i, j)] as usize;
                    let class = match w.cmp(&i) {
                        std::cmp::Ordering::Less => OperandClass::NewValue,
                        std::cmp::Ordering::Equal => OperandClass::Accumulator,
                        std::cmp::Ordering::Greater => OperandClass::OldValue,
                    };
                    class as u8
                }));
            }
        }
        let narrowed = |values: Option<&[usize]>| match values {
            Some(values) => ClaimStream::narrow(values).map(Some),
            None => Some(None),
        };
        ClaimStream::from_parts(narrowed(order)?, ends, classes, narrowed(level_offsets)?)
    }
}

impl PlanCensus {
    /// Builds the census in O(data space + references).
    pub fn of<P: AccessPattern + ?Sized>(pattern: &P) -> Self {
        CensusPass::of(pattern).census
    }

    /// The census of an injective loop that the planner settled on its
    /// reference counts (stage 0): the shape totals and nothing measured.
    pub(crate) fn counts(iterations: usize, data_len: usize, total_terms: u64) -> Self {
        Self {
            iterations,
            data_len,
            total_terms,
            injective: true,
            ..Self::default()
        }
    }

    /// Whether the dependence fields were measured. False only for a
    /// census the planner settled on its reference counts: a non-empty
    /// injective census with `critical_path == 0`, which the census pass
    /// never produces (every iteration of such a loop sits on a level
    /// ≥ 1). Its class counts, distances and critical path are "not
    /// counted", never "none".
    pub fn is_classified(&self) -> bool {
        !(self.injective && self.iterations > 0 && self.critical_path == 0)
    }

    /// The census facts `doacross-verify`'s artifact-mode checks run on —
    /// the schedule-relevant subset, converted into the verifier's own
    /// (layering-neutral) vocabulary.
    pub fn facts(&self) -> doacross_verify::CensusFacts {
        doacross_verify::CensusFacts {
            iterations: self.iterations,
            data_len: self.data_len,
            total_terms: self.total_terms,
            true_deps: self.true_deps,
            anti_deps: self.anti_deps,
            intra: self.intra,
            unwritten: self.unwritten,
            injective: self.injective,
            critical_path: self.critical_path,
            classified: self.is_classified(),
        }
    }

    /// Whether the loop is a doall (no cross- or intra-iteration
    /// dependencies at all — the odd-`L` regime of Figure 6). False on an
    /// unclassified census: nothing was counted, so nothing is known.
    pub fn is_doall(&self) -> bool {
        self.injective
            && self.is_classified()
            && self.true_deps == 0
            && self.anti_deps == 0
            && self.intra == 0
    }

    /// `iterations / critical_path` (0 for an empty loop and an
    /// unclassified census).
    pub fn average_parallelism(&self) -> f64 {
        if self.critical_path == 0 {
            0.0
        } else {
            self.iterations as f64 / self.critical_path as f64
        }
    }

    /// Mean references per iteration (0 for an empty loop).
    pub fn terms_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.total_terms as f64 / self.iterations as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::{AccessPattern, IndirectLoop, TestLoop, MAXINT};

    fn chain(n: usize) -> IndirectLoop {
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap()
    }

    #[test]
    fn chain_census() {
        let c = PlanCensus::of(&chain(10));
        assert!(c.injective);
        assert_eq!(c.true_deps, 9, "iteration 0 reads unwritten element 0");
        assert_eq!(c.unwritten, 1);
        assert_eq!(c.min_true_distance, Some(1));
        assert_eq!(c.max_true_distance, Some(1));
        assert_eq!(c.critical_path, 10);
        assert_eq!(c.average_parallelism(), 1.0);
        assert!(!c.is_doall());
    }

    #[test]
    fn census_agrees_with_testloop_ground_truth() {
        for l in 1..=14usize {
            for m in [1usize, 5] {
                let t = TestLoop::new(300, m, l);
                let truth = t.census();
                let c = PlanCensus::of(&t);
                assert_eq!(c.true_deps, truth.true_deps, "L={l} M={m}");
                assert_eq!(c.anti_deps, truth.anti_deps, "L={l} M={m}");
                assert_eq!(c.intra, truth.intra, "L={l} M={m}");
                assert_eq!(c.unwritten, truth.unwritten, "L={l} M={m}");
                assert_eq!(c.min_true_distance, truth.min_true_distance, "L={l} M={m}");
                assert_eq!(c.max_true_distance, truth.max_true_distance, "L={l} M={m}");
                assert_eq!(c.is_doall(), truth.is_doall(), "L={l} M={m}");
            }
        }
    }

    /// The census written the obvious way — every reference updates the
    /// struct's fields and `Option`s directly — as the oracle for the
    /// register-counting pass (with its first out-of-bounds reference).
    fn reference_census<P: AccessPattern + ?Sized>(
        pattern: &P,
    ) -> (PlanCensus, Option<(usize, usize)>) {
        let (n, data_len) = (pattern.iterations(), pattern.data_len());
        let mut c = PlanCensus {
            iterations: n,
            data_len,
            injective: true,
            ..Default::default()
        };
        let mut first_out_of_bounds = None;
        let mut writer = vec![MAXINT; data_len];
        for i in 0..n {
            let lhs = pattern.lhs(i);
            if lhs >= data_len {
                first_out_of_bounds.get_or_insert((i, lhs));
                continue;
            }
            if writer[lhs] != MAXINT {
                c.injective = false;
            }
            writer[lhs] = i as i64;
        }
        let mut levels = vec![0usize; n];
        for i in 0..n {
            let mut level = 1;
            for j in 0..pattern.terms(i) {
                c.total_terms += 1;
                let e = pattern.term_element(i, j);
                if e >= data_len {
                    first_out_of_bounds.get_or_insert((i, e));
                } else if !c.injective {
                    // counted and bounds-checked only
                } else if writer[e] == MAXINT {
                    c.unwritten += 1;
                } else if (writer[e] as usize) < i {
                    let w = writer[e] as usize;
                    c.true_deps += 1;
                    c.min_true_distance = Some(c.min_true_distance.map_or(i - w, |m| m.min(i - w)));
                    c.max_true_distance = Some(c.max_true_distance.map_or(i - w, |m| m.max(i - w)));
                    level = level.max(levels[w] + 1);
                } else if writer[e] as usize == i {
                    c.intra += 1;
                } else {
                    c.anti_deps += 1;
                }
            }
            levels[i] = level;
            if c.injective {
                c.critical_path = c.critical_path.max(level);
            }
        }
        (c, first_out_of_bounds)
    }

    #[test]
    fn pass_agrees_with_the_field_by_field_reference() {
        // Raw index arrays (no constructor validation), so out-of-bounds
        // subscripts and duplicate writes are in the mix.
        struct Raw {
            data_len: usize,
            lhs: Vec<usize>,
            rhs: Vec<Vec<usize>>,
        }
        impl AccessPattern for Raw {
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
                self.rhs[i].len()
            }
            fn term_element(&self, i: usize, j: usize) -> usize {
                self.rhs[i][j]
            }
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let (mut injective, mut collided, mut out_of_bounds) = (0, 0, 0);
        for case in 0..400 {
            let n = next(40);
            let data_len = n + next(n + 2);
            // Mostly a permutation prefix (injective); sometimes free draws
            // (collisions) and, rarely, a subscript past the data space.
            let mut lhs: Vec<usize> = (0..data_len).collect();
            for i in (1..lhs.len()).rev() {
                lhs.swap(i, next(i + 1));
            }
            lhs.truncate(n);
            let stray = |next: &mut dyn FnMut(usize) -> usize| {
                if next(40) == 0 {
                    data_len + next(3)
                } else {
                    next(data_len.max(1))
                }
            };
            if case % 3 == 0 {
                for slot in lhs.iter_mut() {
                    if next(4) == 0 {
                        *slot = stray(&mut next);
                    }
                }
            }
            let rhs: Vec<Vec<usize>> = (0..n)
                .map(|_| (0..next(5)).map(|_| stray(&mut next)).collect())
                .collect();
            let raw = Raw { data_len, lhs, rhs };
            if data_len == 0 && raw.rhs.iter().any(|r| !r.is_empty()) {
                continue; // `stray` draws from an empty space
            }
            let (expect, expect_oob) = reference_census(&raw);
            let pass = CensusPass::of(&raw);
            assert_eq!(pass.census, expect, "case {case}");
            assert_eq!(pass.first_out_of_bounds, expect_oob, "case {case}");
            injective += expect.injective as usize;
            collided += !expect.injective as usize;
            out_of_bounds += expect_oob.is_some() as usize;
        }
        assert!(injective > 100 && collided > 30 && out_of_bounds > 30);
    }

    #[test]
    fn doall_census() {
        let n = 20;
        let a: Vec<usize> = (0..n).collect();
        let l = IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
        let c = PlanCensus::of(&l);
        assert!(c.is_doall());
        assert_eq!(c.critical_path, 1);
        assert_eq!(c.average_parallelism(), n as f64);
    }

    #[test]
    fn non_injective_census_finds_the_duplicate_writes() {
        // Element 0 written by iterations 0 and 3: counted, not classified.
        let l = IndirectLoop::new(
            4,
            vec![0, 1, 2, 0],
            vec![vec![], vec![], vec![], vec![]],
            vec![vec![], vec![], vec![], vec![]],
        )
        .unwrap();
        let c = PlanCensus::of(&l);
        assert!(!c.injective);
        assert_eq!((c.true_deps, c.critical_path), (0, 0));
        assert!(!c.is_doall(), "non-injective is never a doall");

        let tight = IndirectLoop::new(
            3,
            vec![1, 1, 1],
            vec![vec![], vec![], vec![]],
            vec![vec![], vec![], vec![]],
        )
        .unwrap();
        assert!(!PlanCensus::of(&tight).injective);
    }

    #[test]
    fn wavefront_structure_of_interleaved_chains() {
        // Two distance-2 chains: levels [1,1,2,2], critical path 2.
        let a = vec![4, 5, 6, 7];
        let rhs = vec![vec![], vec![], vec![4], vec![5]];
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![1.0; r.len()]).collect();
        let l = IndirectLoop::new(8, a, rhs, coeff).unwrap();
        let c = PlanCensus::of(&l);
        assert_eq!(c.critical_path, 2);
        assert_eq!(c.average_parallelism(), 2.0);
    }

    #[test]
    fn schedule_materializes_the_census_levels() {
        // Two distance-2 chains: levels [1,1,2,2] — the schedule must sort
        // iterations by level (stable) and classify every reference.
        let a = vec![4, 5, 6, 7];
        let rhs = vec![vec![0], vec![], vec![4], vec![5]];
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![1.0; r.len()]).collect();
        let l = IndirectLoop::new(8, a, rhs, coeff).unwrap();
        let pass = CensusPass::of(&l);
        let (offsets, order) = pass.sorted_levels();
        let s = pass
            .stream(&l, Some(&order), Some(&offsets))
            .expect("injective in-bounds pattern");
        let c = &pass.census;
        assert_eq!(s.level_count(), c.critical_path);
        assert_eq!(s.iterations(), 4);
        assert_eq!(s.order(), Some(&[0u32, 1, 2, 3][..]));
        assert_eq!((s.level_slots(0), s.level_slots(1)), (0..2, 2..4));
        assert_eq!(s.total_terms() as u64, c.total_terms);
        let counts = s.class_counts();
        assert_eq!(counts.true_deps, c.true_deps);
        assert_eq!(counts.anti_or_unwritten, c.anti_deps + c.unwritten);
        assert_eq!(counts.intra, c.intra);
    }

    #[test]
    fn schedule_absent_for_illegal_patterns() {
        // Non-injective lhs: no schedule (the planner asks before it
        // builds a stream).
        let dup = IndirectLoop::new(
            3,
            vec![1, 1, 2],
            vec![vec![], vec![], vec![]],
            vec![vec![], vec![], vec![]],
        )
        .unwrap();
        assert!(!CensusPass::of(&dup).schedulable());

        // Out-of-bounds right-hand side: no schedule either.
        struct Oob;
        impl AccessPattern for Oob {
            fn iterations(&self) -> usize {
                2
            }
            fn data_len(&self) -> usize {
                2
            }
            fn lhs(&self, i: usize) -> usize {
                i
            }
            fn terms(&self, _: usize) -> usize {
                1
            }
            fn term_element(&self, _: usize, _: usize) -> usize {
                9
            }
        }
        let pass = CensusPass::of(&Oob);
        assert!(pass.first_out_of_bounds.is_some());
        assert!(!pass.schedulable());
    }

    #[test]
    fn empty_loop_census() {
        let l = IndirectLoop::new(0, vec![], vec![], vec![]).unwrap();
        let c = PlanCensus::of(&l);
        assert_eq!(c.critical_path, 0);
        assert_eq!(c.average_parallelism(), 0.0);
        assert!(c.is_doall());
    }
}
