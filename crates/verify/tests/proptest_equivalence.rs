//! Property-based link between static acceptance and dynamic truth: for
//! random index patterns, a schedule the verifier accepts executes
//! bit-identically to the sequential oracle on the real executors, and a
//! schedule it rejects is pinned to a dependence edge that actually exists
//! in the pattern — across all five Table 1 execution structures
//! (doacross flags, linear fast path, reordered claims, blocked
//! strip-mining, wavefront levels; sequential is the oracle itself).

use doacross_core::{
    seq::run_sequential, AccessPattern, Doacross, IndirectLoop, LevelSchedule, LinearSubscript,
    PreparedInspection, MAXINT,
};
use doacross_par::{Schedule, ThreadPool};
use doacross_verify::{verify_pattern, DependenceEdge, SoundnessViolation, SyncSchedule};
use proptest::prelude::*;

/// Last-writer truth map: `writers[e]` = last iteration writing `e`, or
/// `MAXINT` when unwritten (the unique writer for injective patterns).
fn truth_writers<P: AccessPattern + ?Sized>(p: &P) -> Vec<i64> {
    let mut writers = vec![MAXINT; p.data_len()];
    for i in 0..p.iterations() {
        writers[p.lhs(i)] = i as i64;
    }
    writers
}

/// Honest level schedule derived from the truth map (injective patterns).
fn honest_wavefront<P: AccessPattern + ?Sized>(p: &P) -> LevelSchedule {
    let writers = truth_writers(p);
    let n = p.iterations();
    let mut levels = vec![0usize; n];
    let mut term_offsets = Vec::with_capacity(n + 1);
    let mut classes = Vec::new();
    term_offsets.push(0);
    let mut nlevels = 1;
    for i in 0..n {
        let mut lvl = 1;
        for j in 0..p.terms(i) {
            let e = p.term_element(i, j);
            let w = writers[e];
            classes.push(if w == MAXINT || w as usize > i {
                1 // OldValue
            } else if (w as usize) == i {
                2 // Accumulator
            } else {
                lvl = lvl.max(levels[w as usize] + 1);
                0 // NewValue
            });
        }
        levels[i] = lvl;
        nlevels = nlevels.max(lvl);
        term_offsets.push(classes.len());
    }
    LevelSchedule::from_levels(&levels, nlevels, term_offsets, classes)
}

/// Stable level-sorted claim order (the `doconsider` reordering).
fn level_order<P: AccessPattern + ?Sized>(p: &P) -> Vec<usize> {
    let writers = truth_writers(p);
    let n = p.iterations();
    let mut levels = vec![1usize; n];
    for i in 0..n {
        for j in 0..p.terms(i) {
            let w = writers[p.term_element(i, j)];
            if w != MAXINT && (w as usize) < i {
                levels[i] = levels[i].max(levels[w as usize] + 1);
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| levels[i]);
    order
}

fn oracle<P: AccessPattern + doacross_core::DoacrossLoop + ?Sized>(p: &P, y0: &[f64]) -> Vec<f64> {
    let mut y = y0.to_vec();
    run_sequential(p, &mut y);
    y
}

/// An arbitrary injective loop: lhs is a shuffled prefix of the data
/// space, rhs references are unconstrained, coefficients deterministic.
fn arb_injective(max_n: usize) -> impl Strategy<Value = (IndirectLoop, Vec<f64>)> {
    (1..=max_n)
        .prop_flat_map(move |n| {
            let data_len = 2 * n + 1;
            let lhs = Just((0..data_len).collect::<Vec<usize>>())
                .prop_shuffle()
                .prop_map(move |perm| perm[..n].to_vec());
            let rhs =
                proptest::collection::vec(proptest::collection::vec(0..data_len, 0..4), n..=n);
            let y0 = proptest::collection::vec(-2.0..2.0f64, data_len..=data_len);
            (lhs, rhs, y0)
        })
        .prop_map(|(lhs, rhs, y0)| (build_loop(y0.len(), lhs, rhs), y0))
}

/// An arbitrary possibly-duplicating loop (non-injective lhs allowed).
fn arb_any(max_n: usize) -> impl Strategy<Value = (IndirectLoop, Vec<f64>)> {
    (2..=max_n)
        .prop_flat_map(move |n| {
            let data_len = n + 2;
            let lhs = proptest::collection::vec(0..data_len, n..=n);
            let rhs =
                proptest::collection::vec(proptest::collection::vec(0..data_len, 0..3), n..=n);
            let y0 = proptest::collection::vec(-1.0..1.0f64, data_len..=data_len);
            (lhs, rhs, y0)
        })
        .prop_map(|(lhs, rhs, y0)| (build_loop(y0.len(), lhs, rhs), y0))
}

/// An arbitrary linear-subscript loop: `lhs(i) = c·i + d`.
fn arb_linear(max_n: usize) -> impl Strategy<Value = (IndirectLoop, Vec<f64>, usize, usize)> {
    (1..=max_n, 1..3usize, 0..3usize)
        .prop_flat_map(move |(n, c, d)| {
            let data_len = c * (n - 1) + d + 2;
            let lhs: Vec<usize> = (0..n).map(|i| c * i + d).collect();
            let rhs =
                proptest::collection::vec(proptest::collection::vec(0..data_len, 0..3), n..=n);
            let y0 = proptest::collection::vec(-1.0..1.0f64, data_len..=data_len);
            (Just(lhs), rhs, y0, Just(c), Just(d))
        })
        .prop_map(|(lhs, rhs, y0, c, d)| (build_loop(y0.len(), lhs, rhs), y0, c, d))
}

fn build_loop(data_len: usize, lhs: Vec<usize>, rhs: Vec<Vec<usize>>) -> IndirectLoop {
    let coeff: Vec<Vec<f64>> = rhs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            r.iter()
                .enumerate()
                .map(|(j, _)| 0.25 + ((i + j) % 3) as f64 * 0.125)
                .collect()
        })
        .collect();
    IndirectLoop::new(data_len, lhs, rhs, coeff).expect("strategy generates valid loops")
}

/// Is `edge` a dependence that genuinely exists in the pattern?
fn edge_is_real<P: AccessPattern + ?Sized>(p: &P, edge: &DependenceEdge) -> bool {
    let reads = |i: usize, e: usize| (0..p.terms(i)).any(|j| p.term_element(i, j) == e);
    match *edge {
        DependenceEdge::Flow {
            element,
            writer,
            reader,
        } => writer < reader && p.lhs(writer) == element && reads(reader, element),
        DependenceEdge::Anti {
            element,
            reader,
            writer,
        } => reader < writer && p.lhs(writer) == element && reads(reader, element),
        DependenceEdge::Output {
            element,
            first,
            second,
        } => first < second && p.lhs(first) == element && p.lhs(second) == element,
        DependenceEdge::Intra { element, iteration } => {
            p.lhs(iteration) == element && reads(iteration, element)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// For injective patterns: the honest schedule of every variant is
    /// accepted, and the matching real executor reproduces the oracle.
    #[test]
    fn accepted_schedules_execute_like_the_oracle((loop_, y0) in arb_injective(24),
                                                  block_size in 1..8usize) {
        let pool = ThreadPool::new(3);
        let expect = oracle(&loop_, &y0);
        let data_len = loop_.data_len();
        let n = loop_.iterations();

        // Doacross (natural flag claims): inspector artifact.
        let prepared = PreparedInspection::inspect(&pool, Schedule::default(), &loop_, true)
            .expect("injective pattern inspects cleanly");
        verify_pattern(&loop_, &SyncSchedule::FlagsNatural { writers: &prepared })
            .expect("honest natural schedule is sound");
        let mut y = y0.clone();
        Doacross::new(data_len).run_planned(&pool, &loop_, &mut y, &prepared, None, None)
            .expect("planned run");
        prop_assert_eq!(&y, &expect, "doacross");

        // Reordered (level-sorted claim order).
        let order = level_order(&loop_);
        verify_pattern(&loop_, &SyncSchedule::FlagsOrdered { writers: &prepared, order: &order })
            .expect("topological order is sound");
        let mut y = y0.clone();
        Doacross::new(data_len).run_planned(&pool, &loop_, &mut y, &prepared, Some(&order), None)
            .expect("reordered run");
        prop_assert_eq!(&y, &expect, "reordered");

        // Wavefront (level schedule).
        let schedule = honest_wavefront(&loop_);
        verify_pattern(&loop_, &SyncSchedule::Wavefront { schedule: &schedule })
            .expect("honest level schedule is sound");
        let mut y = y0.clone();
        Doacross::new(data_len).run_wavefront(&pool, &loop_, &mut y, &schedule, None, None)
            .expect("wavefront run");
        prop_assert_eq!(&y, &expect, "wavefront");

        // Blocked: any block size is sound for an injective pattern.
        let bs = block_size.min(n);
        verify_pattern(&loop_, &SyncSchedule::Blocked { block_size: bs })
            .expect("injective patterns never share a block between duplicate writes");
        let mut y = y0.clone();
        Doacross::new(0).run_blocked(&pool, &loop_, &mut y, bs)
            .expect("blocked run");
        prop_assert_eq!(&y, &expect, "blocked");

        // Sequential is the oracle by definition.
        verify_pattern(&loop_, &SyncSchedule::Sequential).expect("always sound");
    }

    /// Linear-subscript patterns: the true `(c, d)` is accepted and the
    /// inspector-free executor matches the oracle; a wrong subscript is
    /// rejected with a mismatch naming a real iteration.
    #[test]
    fn linear_subscripts_accept_truth_and_reject_lies((loop_, y0, c, d) in arb_linear(24)) {
        let pool = ThreadPool::new(3);
        let expect = oracle(&loop_, &y0);
        let subscript = LinearSubscript::new(c, d);
        verify_pattern(&loop_, &SyncSchedule::FlagsLinear { subscript })
            .expect("the true subscript is sound");
        let mut y = y0.clone();
        Doacross::new(loop_.data_len()).run_linear(&pool, &loop_, &mut y, subscript, None)
            .expect("linear run");
        prop_assert_eq!(&y, &expect, "linear");

        // Lie about the stride: rejected, pinned to a real iteration
        // (unless the loop is too short to witness the difference).
        let wrong = LinearSubscript::new(c + 1, d);
        if loop_.iterations() > 1 {
            let violation = verify_pattern(&loop_, &SyncSchedule::FlagsLinear { subscript: wrong })
                .expect_err("a wrong stride must be rejected");
            prop_assert!(
                matches!(&violation,
                    SoundnessViolation::SubscriptMismatch { iteration, .. }
                        if *iteration < loop_.iterations())
                    || matches!(&violation, SoundnessViolation::OutOfBounds { .. }),
                "unexpected violation: {violation}"
            );
        }
    }

    /// Non-injective patterns: flag-based schedules are rejected with a
    /// real output dependence; blocked schedules are accepted exactly when
    /// no duplicate pair shares a block — and then execute like the
    /// oracle.
    #[test]
    fn duplicate_writers_split_blocked_from_flagged((loop_, y0) in arb_any(20)) {
        let pool = ThreadPool::new(3);
        let n = loop_.iterations();
        // Closest pair of same-element writers (by iteration distance).
        let mut min_gap = usize::MAX;
        let mut pair = (0usize, 0usize);
        let mut last = vec![usize::MAX; loop_.data_len()];
        for i in 0..n {
            let e = loop_.lhs(i);
            if last[e] != usize::MAX && i - last[e] < min_gap {
                min_gap = i - last[e];
                pair = (last[e], i);
            }
            last[e] = i;
        }
        if min_gap == usize::MAX {
            // Injective after all: covered by the other property.
            return Ok(());
        }

        let writers = truth_writers(&loop_);
        let prepared = PreparedInspection::from_writer_map(n, &writers)
            .expect("truth map is well-formed");
        let violation = verify_pattern(&loop_, &SyncSchedule::FlagsNatural { writers: &prepared })
            .expect_err("duplicate writers cannot share one flag generation");
        if let SoundnessViolation::UncoveredOutput { edge } = &violation {
            prop_assert!(edge_is_real(&loop_, edge), "fabricated edge: {edge}");
        }

        // A block size at or under the gap keeps duplicates apart.
        let bs = min_gap.min(n);
        verify_pattern(&loop_, &SyncSchedule::Blocked { block_size: bs })
            .expect("blocks no larger than the write gap are sound");
        let expect = oracle(&loop_, &y0);
        let mut y = y0.clone();
        Doacross::new(0).run_blocked(&pool, &loop_, &mut y, bs)
            .expect("blocked run");
        prop_assert_eq!(&y, &expect, "blocked with duplicates");

        // Block boundaries are aligned, so `min_gap + 1` need not merge
        // the pair — but a first block reaching past it must (block 0
        // holds every iteration up to and including the later write).
        let violation = verify_pattern(&loop_, &SyncSchedule::Blocked { block_size: pair.1 + 1 })
            .expect_err("a block spanning a duplicate pair is unsound");
        match &violation {
            SoundnessViolation::DuplicateWriteInBlock { edge, .. } => {
                prop_assert!(edge_is_real(&loop_, edge), "fabricated edge: {edge}");
            }
            other => prop_assert!(false, "unexpected violation: {other}"),
        }
    }

    /// Random writer-map corruption: when the verifier accepts the mutant
    /// the executor still matches the oracle (the corruption was benign —
    /// it touched no classified reference); when it rejects, the violation
    /// names a dependence that genuinely exists.
    #[test]
    fn writer_map_corruption_is_benign_iff_accepted((loop_, y0) in arb_injective(20),
                                                    slot in 0..64usize,
                                                    coin in 0..2usize) {
        let to_maxint = coin == 0;
        let pool = ThreadPool::new(3);
        let n = loop_.iterations();
        let mut writers = truth_writers(&loop_);
        let slot = slot % writers.len();
        let mutated = if to_maxint {
            writers[slot] != MAXINT && { writers[slot] = MAXINT; true }
        } else {
            // Remap to a different (possibly bogus) iteration.
            let new = (slot % n) as i64;
            writers[slot] != new && { writers[slot] = new; true }
        };
        prop_assume!(mutated);
        let prepared = PreparedInspection::from_writer_map(n, &writers)
            .expect("entries stay in range");
        match verify_pattern(&loop_, &SyncSchedule::FlagsNatural { writers: &prepared }) {
            Ok(_) => {
                // Accepted ⇒ behaviorally identical: run it for real.
                let expect = oracle(&loop_, &y0);
                let mut y = y0.clone();
                Doacross::new(loop_.data_len())
                    .run_planned(&pool, &loop_, &mut y, &prepared, None, None)
                    .expect("accepted mutant executes");
                prop_assert_eq!(&y, &expect, "accepted mutant must match the oracle");
            }
            Err(violation) => {
                // The corruption touched exactly one map entry, so the
                // violation must be pinned to that element (the edge mixes
                // claimed-writer and true-pattern facts, so it need not
                // exist verbatim in the pattern — but its element must be
                // the corrupted one).
                let element = match &violation {
                    SoundnessViolation::UncoveredFlow { edge }
                    | SoundnessViolation::UncoveredAnti { edge }
                    | SoundnessViolation::UncoveredOutput { edge }
                    | SoundnessViolation::UncoveredIntra { edge } => Some(match *edge {
                        DependenceEdge::Flow { element, .. }
                        | DependenceEdge::Anti { element, .. }
                        | DependenceEdge::Output { element, .. }
                        | DependenceEdge::Intra { element, .. } => element,
                    }),
                    SoundnessViolation::PhantomWait { element, .. } => Some(*element),
                    _ => None,
                };
                if let Some(element) = element {
                    prop_assert_eq!(element, slot, "violation strayed from the corrupted slot: {}", violation);
                }
            }
        }
    }
}
