//! Property-based tests of plan persistence: for *any* planner-built plan
//! over a runtime-generated pattern, the binary codec round-trips
//! bit-exactly, a decoded plan executes bit-identically to the sequential
//! oracle, cache snapshots survive serialization with their recency order
//! intact, and arbitrarily corrupted stores fail with a typed error — a
//! panic or a silently wrong plan is a test failure.

use doacross_core::{seq::run_sequential, IndirectLoop};
use doacross_par::ThreadPool;
use doacross_plan::{
    ConcurrentPlanCache, ExecutionPlan, PatternFingerprint, PersistError, PlanExecutor, PlanStore,
    PlanVariant, Planner,
};
use doacross_sim::CostModel;
use proptest::prelude::*;
use std::sync::Arc;

/// An arbitrary *injective* loop (lhs a shuffled prefix of the data space)
/// — the patterns the three stream-backed variants are legal for.
fn arb_injective(max_n: usize) -> impl Strategy<Value = IndirectLoop> {
    (2..=max_n)
        .prop_flat_map(move |n| {
            let data_len = 2 * n + 1;
            let lhs = Just((0..data_len).collect::<Vec<usize>>())
                .prop_shuffle()
                .prop_map(move |perm| perm[..n].to_vec());
            let rhs =
                proptest::collection::vec(proptest::collection::vec(0..data_len, 0..4), n..=n);
            (lhs, rhs, Just(data_len))
        })
        .prop_map(|(lhs, rhs, data_len)| {
            let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.375; r.len()]).collect();
            IndirectLoop::new(data_len, lhs, rhs, coeff).expect("valid")
        })
}

/// Prices that pin a parallel family the way `benchmark/` does: sequential
/// costs a fortune, and either the flag polls or the level hand-offs do
/// too.
fn pinned(flags: bool) -> Planner {
    let (wait_poll, barrier) = if flags { (0.0, 1e9) } else { (1e6, 0.0) };
    Planner::with_costs(CostModel {
        seq_iter: 1e6,
        seq_term: 1e6,
        wait_poll,
        barrier,
        ..CostModel::multimax()
    })
}

/// The snapshot of a cache that planned `loop_`.
fn store_of(pool: &ThreadPool, planner: &Planner, loop_: &IndirectLoop) -> PlanStore {
    let cache = ConcurrentPlanCache::new(2);
    let key = PatternFingerprint::of(loop_);
    cache
        .get_or_build(&key, || planner.plan(pool, loop_))
        .expect("in-bounds");
    cache.snapshot()
}

/// `plan` and its one-record store read back: the record codec, exercised
/// through the store that carries it. Returns the original store's bytes,
/// the decoded plan and the decoded store's bytes.
fn round_trip(
    pool: &ThreadPool,
    planner: &Planner,
    loop_: &IndirectLoop,
) -> (Arc<ExecutionPlan>, Vec<u8>, Arc<ExecutionPlan>, Vec<u8>) {
    let store = store_of(pool, planner, loop_);
    let plan = store.plans().next().expect("one plan").clone();
    let bytes = store.to_bytes();
    let decoded = PlanStore::from_bytes(&bytes).expect("own encoding decodes");
    let again = decoded.to_bytes();
    let decoded = decoded.plans().next().expect("one plan").clone();
    (plan, bytes, decoded, again)
}

/// A store written by an older format (v3: writer-map, claim-order and
/// level-schedule sections) is not parsed, patched or migrated: it fails
/// with the typed version error before the checksum is even looked at, and
/// every warm-start path treats that as a cold start.
#[test]
fn a_format_version_3_blob_cold_starts_typed() {
    let pool = ThreadPool::new(2);
    let grid = doacross_plan::testgrid::deep_grid(24, 8, 3, 5);
    let mut bytes = store_of(&pool, &Planner::new(), &grid).to_bytes();
    // The version word follows the 8-byte magic.
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    assert!(matches!(
        PlanStore::from_bytes(&bytes),
        Err(PersistError::UnsupportedVersion {
            found: 3,
            supported: 10,
        })
    ));
}

/// An arbitrary valid loop — injective or not, so every planner choice
/// (sequential, linear, doacross, reordered) is reachable.
fn arb_loop(max_n: usize) -> impl Strategy<Value = (IndirectLoop, Vec<f64>)> {
    (1..=max_n)
        .prop_flat_map(move |n| {
            let data_len = n + 4;
            let lhs = proptest::collection::vec(0..data_len, n..=n);
            let rhs =
                proptest::collection::vec(proptest::collection::vec(0..data_len, 0..3), n..=n);
            let y0 = proptest::collection::vec(-1.0..1.0f64, data_len..=data_len);
            (lhs, rhs, y0, Just(data_len))
        })
        .prop_map(|(lhs, rhs, y0, data_len)| {
            let coeff: Vec<Vec<f64>> = rhs
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    r.iter()
                        .enumerate()
                        .map(|(j, _)| 0.25 + ((i + 2 * j) % 4) as f64 * 0.125)
                        .collect()
                })
                .collect();
            let loop_ = IndirectLoop::new(data_len, lhs, rhs, coeff).expect("valid");
            (loop_, y0)
        })
}

/// A randomized deep dependence grid (`doacross_plan::testgrid`'s shared
/// shape): `depth` levels of `width` mutually independent iterations,
/// each reading 3 elements written one level earlier at randomized
/// column offsets — the wavefront-friendly structure, so the planner's
/// own selection produces `Wavefront` records to round-trip (no forcing
/// anywhere). Width is a multiple of the test's 4-worker pool and large
/// enough that the flag bill strictly exceeds the barrier bill for every
/// parameter combination.
fn arb_deep_grid() -> impl Strategy<Value = (IndirectLoop, Vec<f64>)> {
    (6usize..=10, 8usize..=16, 1usize..=13)
        .prop_flat_map(|(quads, depth, stride)| {
            let n = 4 * quads * depth;
            let y0 = proptest::collection::vec(-1.0..1.0f64, n..=n);
            (Just((4 * quads, depth, stride)), y0)
        })
        .prop_map(|((width, depth, stride), y0)| {
            (
                doacross_plan::testgrid::deep_grid(width, depth, 3, stride),
                y0,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn planner_built_plans_round_trip_bit_exactly((loop_, _y0) in arb_loop(40)) {
        let pool = ThreadPool::new(3);
        let (plan, bytes, decoded, again) = round_trip(&pool, &Planner::new(), &loop_);
        prop_assert_eq!(again, bytes, "bit-exact round trip");
        prop_assert_eq!(decoded.variant(), plan.variant());
        prop_assert_eq!(decoded.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn stream_backed_plans_round_trip_equal_and_verify(loop_ in arb_injective(40), flags in 0..2usize) {
        // Pinned by price to a flag variant or to the wavefront, every
        // plan that carries a claim stream decodes to an *equal* stream
        // (order, ends, classes, levels, counts), passes the pattern-free
        // artifact check, and still proves sound against the live pattern.
        let pool = ThreadPool::new(3);
        let (plan, _, decoded, _) = round_trip(&pool, &pinned(flags == 1), &loop_);
        // (A dependence-free draw has no wavefront candidate, and a tiny one
        // may have a linear lhs: those go to a flag variant either way.)
        prop_assert!(
            plan.census().true_deps == 0
                || (plan.variant() == PlanVariant::Wavefront) == (flags == 0),
            "{} under flags={}", plan.variant(), flags
        );
        prop_assert!(
            plan.stream().is_some() || matches!(plan.variant(), PlanVariant::Linear(_)),
            "{}", plan.variant()
        );
        prop_assert_eq!(decoded.stream(), plan.stream());
        prop_assert_eq!(decoded.memory_bytes(), plan.memory_bytes());
        prop_assert!(decoded.verify_artifacts().is_ok());
        prop_assert!(decoded.verify_against(&loop_).is_ok());
    }

    #[test]
    fn decoded_plans_execute_like_the_original((loop_, y0) in arb_loop(32)) {
        let pool = ThreadPool::new(3);
        let (_, _, decoded, _) = round_trip(&pool, &Planner::new(), &loop_);

        let mut expect = y0.clone();
        run_sequential(&loop_, &mut expect);
        let mut y = y0.clone();
        PlanExecutor::new()
            .execute(&pool, &loop_, &mut y, &decoded, None)
            .expect("a revalidated plan executes");
        prop_assert_eq!(&y, &expect, "deserialized plan is bit-identical");
    }

    #[test]
    fn wavefront_records_round_trip_and_execute((loop_, y0) in arb_deep_grid()) {
        // Deep grids make the planner select the wavefront on its own; the
        // record's stream section (order, ends, level offsets, operand
        // classes) must round-trip bit-exactly and the decoded plan must execute
        // bit-identically to the oracle with zero wait polls.
        let pool = ThreadPool::new(4);
        let (plan, bytes, decoded, again) = round_trip(&pool, &Planner::new(), &loop_);
        prop_assert_eq!(
            plan.variant(),
            doacross_plan::PlanVariant::Wavefront,
            "{:?}", plan.costs()
        );
        prop_assert_eq!(again, bytes, "bit-exact round trip");
        prop_assert_eq!(decoded.stream(), plan.stream());

        let mut expect = y0.clone();
        run_sequential(&loop_, &mut expect);
        let mut y = y0.clone();
        let stats = PlanExecutor::new()
            .execute(&pool, &loop_, &mut y, &decoded, None)
            .expect("a revalidated plan executes");
        prop_assert_eq!(&y, &expect, "deserialized wavefront plan is bit-identical");
        prop_assert_eq!(stats.wait_polls, 0, "no busy waiting through the persisted path");
    }

    #[test]
    fn snapshots_survive_serialization_with_recency(
        loops in proptest::collection::vec(arb_loop(24), 1..6),
        touch in 0usize..6,
    ) {
        let pool = ThreadPool::new(2);
        let planner = Planner::new();
        let cache = ConcurrentPlanCache::new(8);
        let prepare = |l: &IndirectLoop| {
            let key = PatternFingerprint::of(l);
            cache
                .get_or_build(&key, || planner.plan(&pool, l))
                .expect("in-bounds");
        };
        for (l, _) in &loops {
            prepare(l);
        }
        // Touch one structure so the recency order is not just insertion
        // order.
        prepare(&loops[touch % loops.len()].0);

        let bytes = cache.snapshot().to_bytes();
        let store = PlanStore::from_bytes(&bytes).expect("own bytes parse");
        let warmed = ConcurrentPlanCache::new(8);
        warmed.warm_from(&store, |plan| Some(plan.clone()));
        let recency = |cache: &ConcurrentPlanCache| -> Vec<PatternFingerprint> {
            cache.snapshot().plans().map(|plan| *plan.fingerprint()).collect()
        };
        prop_assert_eq!(recency(&warmed), recency(&cache));
        // Restores are insertions, never traffic: the fresh cache still
        // reports a 0.0 (not NaN) hit rate.
        prop_assert_eq!(warmed.stats().hit_rate(), 0.0);
        prop_assert_eq!(warmed.stats().hits + warmed.stats().misses, 0);
    }

    #[test]
    fn corrupted_stores_fail_typed_never_panic(
        (loop_, _y0) in arb_loop(24),
        flip_bit in 0usize..1_000_000,
        cut in 0usize..1_000_000,
    ) {
        let pool = ThreadPool::new(2);
        let bytes = store_of(&pool, &Planner::new(), &loop_).to_bytes();

        // Any single-bit flip must surface as a typed error (a flip changes
        // one checksummed word, which the lanes absorb injectively, so no
        // flip can slip past the checksum).
        let mut flipped = bytes.clone();
        let bit = flip_bit % (bytes.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(PlanStore::from_bytes(&flipped).is_err());

        // Any truncation must surface as a typed error.
        let cut = cut % bytes.len();
        let err = PlanStore::from_bytes(&bytes[..cut]).unwrap_err();
        prop_assert!(matches!(
            err,
            PersistError::Truncated { .. }
                | PersistError::ChecksumMismatch { .. }
                | PersistError::BadMagic
                | PersistError::UnsupportedVersion { .. }
        ), "{:?}", err);

        // The pristine bytes still parse.
        prop_assert!(PlanStore::from_bytes(&bytes).is_ok());
    }
}

/// The store checksum as the persist module documents it (four-lane FNV-1a
/// over the little-endian words of everything before it, the last word
/// zero-padded, folded into the byte length), re-derived here so a test
/// can re-seal a blob it mutated.
fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    let mut lanes = [OFFSET; 4];
    for (k, word) in bytes.chunks(8).enumerate() {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        lanes[k % 4] = step(lanes[k % 4], u64::from_le_bytes(padded));
    }
    lanes
        .into_iter()
        .fold(step(OFFSET, bytes.len() as u64), step)
}

/// A v10 store of six plans, one per variant the planner selects under
/// the Multimax preset at four workers (sequential twice: a serial chain
/// and a non-injective loop), two of them rebuilt after an invalidation so
/// the generation table is not empty.
fn whole_store_fixture() -> &'static [u8] {
    static FIXTURE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (chains, len) = (32usize, 16usize);
        let interleaved: Vec<Vec<usize>> = (0..chains * len)
            .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let loops = [
            // A serial chain.
            (
                301,
                (1..=300).collect(),
                (0..300).map(|i| vec![i]).collect(),
            ),
            // The dependence-free strided loop.
            (
                4_001,
                (0..2_000).map(|i| 2 * i + 1).collect(),
                vec![vec![]; 2_000],
            ),
            // A dependence-free reversed scatter.
            (4_000, (0..4_000).rev().collect(), vec![vec![]; 4_000]),
            // Interleaved distance-1 chains.
            (chains * len, (0..chains * len).collect(), interleaved),
            // A non-injective left-hand side.
            (
                512,
                (0..4_096).map(|i| i % 512).collect(),
                (0..4_096).map(|i| vec![(i + 7) % 512]).collect(),
            ),
        ]
        .map(
            |(data_len, lhs, rhs): (usize, Vec<usize>, Vec<Vec<usize>>)| {
                let coeff = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
                IndirectLoop::new(data_len, lhs, rhs, coeff).expect("valid")
            },
        );
        let grid = doacross_plan::testgrid::deep_grid(64, 20, 3, 7);
        let (pool, planner) = (ThreadPool::new(4), Planner::new());
        let cache = ConcurrentPlanCache::new(8);
        let build = |l: &IndirectLoop| {
            let key = PatternFingerprint::of(l);
            cache.get_or_build(&key, || planner.plan(&pool, l)).unwrap();
            key
        };
        for l in loops.iter().chain([&grid]) {
            build(l);
        }
        for l in &loops[..2] {
            cache.invalidate(&build(l));
            build(l);
        }
        let store = cache.snapshot();
        let mut variants: Vec<String> = store
            .plans()
            .map(|plan| match plan.variant() {
                PlanVariant::Linear(_) => "linear".into(),
                variant => variant.to_string(),
            })
            .collect();
        variants.sort();
        assert_eq!(
            variants,
            [
                "doacross",
                "linear",
                "reordered",
                "sequential",
                "sequential",
                "wavefront"
            ]
        );
        assert_eq!(store.generations().count(), 2);
        let bytes = store.to_bytes();
        let (body, sealed) = bytes.split_at(bytes.len() - 8);
        assert_eq!(
            sealed,
            checksum(body).to_le_bytes(),
            "the re-derived checksum"
        );
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// One byte anywhere after the version word flipped, dropped or
    /// inserted, and the checksum re-sealed, so the generation table, the
    /// counts and the record length prefixes are fuzzed past the checksum
    /// along with the records: the store fails typed or loads plans that
    /// pass `verify_artifacts`, and never panics.
    #[test]
    fn a_mutated_store_fails_typed_or_loads_verified_plans(
        mutation in 0u8..3,
        at in 0usize..1 << 20,
        byte in 1u8..=255,
    ) {
        const HEADER: usize = 8 + 4;
        let bytes = whole_store_fixture();
        let mut blob = bytes[..bytes.len() - 8].to_vec();
        let span = blob.len() - HEADER;
        match mutation {
            0 => blob[HEADER + at % span] ^= byte,
            1 => {
                blob.remove(HEADER + at % span);
            }
            _ => blob.insert(HEADER + at % (span + 1), byte),
        }
        let sealed = checksum(&blob);
        blob.extend_from_slice(&sealed.to_le_bytes());
        match PlanStore::from_bytes(&blob) {
            Ok(store) => {
                for plan in store.plans() {
                    prop_assert!(plan.verify_artifacts().is_ok(), "{}", plan);
                }
            }
            Err(err) => prop_assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. }
                        | PersistError::Malformed(_)
                        | PersistError::Structural(_)
                        | PersistError::Unsound(_)
                ),
                "{:?}",
                err
            ),
        }
    }
}
