//! Property-based link between static acceptance and dynamic truth: for
//! random index patterns, a schedule the verifier accepts executes
//! bit-identically to the sequential oracle on the real executors, and a
//! schedule it rejects is pinned to a dependence edge that actually exists
//! in the pattern — across all five Table 1 execution structures
//! (doacross flags, linear fast path, reordered claims, blocked
//! strip-mining, wavefront levels; sequential is the oracle itself).

use doacross_core::{
    claim_grain, seq::run_sequential, AccessPattern, ClaimStream, Doacross, IndirectLoop,
    LinearSubscript, MAXINT,
};
use doacross_par::ThreadPool;
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

/// The honest classification of an injective pattern, derived from the
/// truth map and in *iteration* order: per-iteration term offsets, one
/// class byte per reference, and each iteration's wavefront level.
struct Honest {
    term_offsets: Vec<usize>,
    classes: Vec<u8>,
    levels: Vec<usize>,
    nlevels: usize,
}

impl Honest {
    fn of<P: AccessPattern + ?Sized>(p: &P) -> Self {
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
        Self {
            term_offsets,
            classes,
            levels,
            nlevels,
        }
    }

    /// Stable level-sorted claim order (the `doconsider` reordering) and its
    /// CSR level offsets.
    fn level_sorted(&self) -> (Vec<usize>, Vec<usize>) {
        ClaimStream::sort_levels(&self.levels, self.nlevels)
    }

    /// The flag stream under `order` (`None` = natural).
    fn flags(&self, order: Option<&[usize]>) -> ClaimStream {
        ClaimStream::from_iteration_order(order, None, &self.term_offsets, self.classes.clone())
            .expect("consistent parts")
    }

    /// The wavefront stream.
    fn wavefront(&self) -> ClaimStream {
        let (offsets, order) = self.level_sorted();
        ClaimStream::from_iteration_order(
            Some(&order),
            Some(&offsets),
            &self.term_offsets,
            self.classes.clone(),
        )
        .expect("consistent parts")
    }
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

    /// For injective patterns: the honest stream of every stream-backed
    /// variant is accepted, and the real executor reproduces the oracle bit
    /// for bit at every worker count and claim grain — one-iteration
    /// claims, the grain the plan layer would derive, and the cap — with
    /// `RunStats.deps` stamped to exactly the counts the verifier derived
    /// from the index arrays. Blocked and sequential ride along.
    #[test]
    fn accepted_schedules_execute_like_the_oracle((loop_, y0) in arb_injective(24),
                                                  block_size in 1..8usize) {
        let expect: Vec<u64> = oracle(&loop_, &y0).iter().map(|v| v.to_bits()).collect();
        let data_len = loop_.data_len();
        let n = loop_.iterations();
        let honest = Honest::of(&loop_);
        let (_, order) = honest.level_sorted();

        let natural = honest.flags(None);
        let reordered = honest.flags(Some(&order));
        let wavefront = honest.wavefront();
        let report = verify_pattern(&loop_, &SyncSchedule::FlagsNatural { stream: &natural })
            .expect("honest natural schedule is sound");
        verify_pattern(&loop_, &SyncSchedule::FlagsOrdered { stream: &reordered })
            .expect("topological order is sound");
        verify_pattern(&loop_, &SyncSchedule::Wavefront { stream: &wavefront })
            .expect("honest level schedule is sound");
        // The hints the plan layer derives its grain from.
        let writers = truth_writers(&loop_);
        let min_distance = (0..n)
            .flat_map(|i| (0..loop_.terms(i)).map(move |j| (i, j)))
            .filter_map(|(i, j)| {
                let w = writers[loop_.term_element(i, j)];
                (w != MAXINT && (w as usize) < i).then(|| i - w as usize)
            })
            .min()
            .unwrap_or(n);
        let parallelism = n / honest.nlevels;

        for workers in [1usize, 2, 4] {
            let pool = ThreadPool::new(workers);
            let mut rt = Doacross::new(data_len);
            let check = |what: &str, stats: doacross_core::RunStats, y: &[f64]| {
                let bits: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&bits, &expect, "{} on {} workers", what, workers);
                prop_assert_eq!(stats.deps.true_deps, report.flow_edges, "{}", what);
                prop_assert_eq!(
                    stats.deps.anti_or_unwritten,
                    report.anti_edges + report.unwritten_refs,
                    "{}", what
                );
                prop_assert_eq!(stats.deps.intra, report.intra_refs, "{}", what);
                Ok(())
            };
            for (stream, hint, what) in [
                (&natural, min_distance, "doacross"),
                (&reordered, parallelism, "reordered"),
            ] {
                for grain in [1, claim_grain(hint, workers), 16] {
                    let mut y = y0.clone();
                    let stats = rt.run_planned(&pool, &loop_, &mut y, stream, Some(grain), None)
                        .expect("planned run");
                    check(&format!("{what} grain {grain}"), stats, &y)?;
                }
            }
            for chunk in [Some(1), None, Some(16)] {
                let mut y = y0.clone();
                let stats = rt.run_planned(&pool, &loop_, &mut y, &wavefront, chunk, None)
                    .expect("wavefront run");
                prop_assert_eq!(stats.wait_polls, 0);
                check(&format!("wavefront chunk {chunk:?}"), stats, &y)?;
            }
        }

        // Blocked: any block size is sound for an injective pattern.
        let pool = ThreadPool::new(3);
        let bs = block_size.min(n);
        verify_pattern(&loop_, &SyncSchedule::Blocked { block_size: bs })
            .expect("injective patterns never share a block between duplicate writes");
        let mut y = y0.clone();
        Doacross::new(0).run_blocked(&pool, &loop_, &mut y, bs)
            .expect("blocked run");
        prop_assert_eq!(&y, &oracle(&loop_, &y0), "blocked");

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

        // Whatever classes a stream claims, flags fire once per element.
        let terms: usize = (0..n).map(|i| loop_.terms(i)).sum();
        let mut term_offsets = vec![0usize];
        for i in 0..n {
            term_offsets.push(term_offsets[i] + loop_.terms(i));
        }
        let stream = ClaimStream::from_iteration_order(None, None, &term_offsets, vec![1; terms])
            .expect("consistent parts");
        let violation = verify_pattern(&loop_, &SyncSchedule::FlagsNatural { stream: &stream })
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

    /// Random stream corruption, the two kinds a stream can suffer. A claim
    /// order with two slots swapped: the verifier accepts it exactly when
    /// the swap crossed no true dependence, and then the executor still
    /// matches the oracle at every worker count and grain (accepted ⇒
    /// executes); when it rejects, the inversion names a flow edge that
    /// genuinely exists — and the mutant is *not* run, because that edge is
    /// a livelock. A class byte changed: never benign, always rejected,
    /// pinned to the element that reference reads.
    #[test]
    fn stream_corruption_is_benign_iff_accepted((loop_, y0) in arb_injective(20),
                                                a in 0..64usize,
                                                b in 0..64usize,
                                                coin in 0..2usize) {
        let n = loop_.iterations();
        let honest = Honest::of(&loop_);
        let (_, mut order) = honest.level_sorted();
        if coin == 0 {
            let (a, b) = (a % n, b % n);
            prop_assume!(a != b);
            order.swap(a, b);
            let stream = honest.flags(Some(&order));
            match verify_pattern(&loop_, &SyncSchedule::FlagsOrdered { stream: &stream }) {
                Ok(_) => {
                    let expect = oracle(&loop_, &y0);
                    for workers in [1usize, 2, 4] {
                        let pool = ThreadPool::new(workers);
                        for grain in [1usize, 3, 16] {
                            let mut y = y0.clone();
                            Doacross::new(loop_.data_len())
                                .run_planned(&pool, &loop_, &mut y, &stream, Some(grain), None)
                                .expect("accepted mutant executes");
                            prop_assert_eq!(&y, &expect, "accepted mutant must match the oracle");
                        }
                    }
                }
                Err(SoundnessViolation::ClaimOrderInversion { edge, writer_position, reader_position }) => {
                    prop_assert!(edge_is_real(&loop_, &edge), "fabricated edge: {edge}");
                    prop_assert!(writer_position > reader_position);
                }
                Err(other) => prop_assert!(false, "unexpected violation: {other}"),
            }
        } else {
            prop_assume!(!honest.classes.is_empty());
            let at = a % honest.classes.len();
            let mut classes = honest.classes.clone();
            classes[at] = (classes[at] + 1 + (b % 2) as u8) % 3;
            let stream =
                ClaimStream::from_iteration_order(None, None, &honest.term_offsets, classes)
                    .expect("consistent parts");
            let violation = verify_pattern(&loop_, &SyncSchedule::FlagsNatural { stream: &stream })
                .expect_err("a changed class byte is a changed operand source");
            // The reference the byte belongs to, and the element it reads.
            let i = honest.term_offsets.partition_point(|&o| o <= at) - 1;
            let read = loop_.term_element(i, at - honest.term_offsets[i]);
            let element = match &violation {
                SoundnessViolation::UncoveredFlow { edge }
                | SoundnessViolation::UncoveredAnti { edge }
                | SoundnessViolation::UncoveredIntra { edge } => Some(match *edge {
                    DependenceEdge::Flow { element, .. }
                    | DependenceEdge::Anti { element, .. }
                    | DependenceEdge::Output { element, .. }
                    | DependenceEdge::Intra { element, .. } => element,
                }),
                SoundnessViolation::PhantomWait { element, .. } => Some(*element),
                _ => None,
            };
            prop_assert_eq!(element, Some(read), "violation strayed from the corrupted reference: {}", violation);
        }
    }
}
