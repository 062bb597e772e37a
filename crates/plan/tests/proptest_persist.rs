//! Property-based tests of plan persistence: for *any* planner-built plan
//! over a runtime-generated pattern, the binary codec round-trips
//! bit-exactly, a decoded plan executes bit-identically to the sequential
//! oracle, cache snapshots survive serialization with their recency order
//! intact, and arbitrarily corrupted stores fail with a typed error — a
//! panic or a silently wrong plan is a test failure.

use doacross_core::{seq::run_sequential, IndirectLoop};
use doacross_par::ThreadPool;
use doacross_plan::persist::{decode_plan, encode_plan, FORMAT_VERSION, MAGIC};
use doacross_plan::{
    ConcurrentPlanCache, PatternFingerprint, PersistError, PlanExecutor, PlanStore, PlanVariant,
    Planner,
};
use doacross_sim::CostModel;
use proptest::prelude::*;

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

/// The snapshot of a one-shard cache that planned `loop_`.
fn store_of(pool: &ThreadPool, planner: &Planner, loop_: &IndirectLoop) -> PlanStore {
    let cache = ConcurrentPlanCache::new(2, 1);
    let key = PatternFingerprint::of(loop_);
    cache
        .get_or_build(&key, |_| true, || planner.plan(pool, loop_))
        .expect("in-bounds");
    cache.snapshot()
}

/// A store written by an older format (v3: writer-map, claim-order and
/// level-schedule sections) is not parsed, patched or migrated: it fails
/// with the typed version error before the checksum is even looked at, and
/// every warm-start path treats that as a cold start.
#[test]
fn a_format_version_3_blob_cold_starts_typed() {
    assert_eq!(FORMAT_VERSION, 6);
    let pool = ThreadPool::new(2);
    let grid = doacross_plan::testgrid::deep_grid(24, 8, 3, 5);
    let mut bytes = store_of(&pool, &Planner::new(), &grid).to_bytes();
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&3u32.to_le_bytes());
    assert!(matches!(
        PlanStore::from_bytes(&bytes),
        Err(PersistError::UnsupportedVersion {
            found: 3,
            supported: 6,
        })
    ));
}

/// An arbitrary valid loop — injective or not, so every planner fallback
/// (sequential, linear, doacross, reordered, blocked) is reachable.
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
        let plan = Planner::new().plan(&pool, &loop_).expect("in-bounds");
        let bytes = encode_plan(&plan);
        let decoded = decode_plan(&bytes).expect("own encoding decodes");
        prop_assert_eq!(encode_plan(&decoded), bytes, "bit-exact round trip");
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
        let plan = pinned(flags == 1).plan(&pool, &loop_).expect("in-bounds");
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
        let decoded = decode_plan(&encode_plan(&plan)).expect("own encoding decodes");
        prop_assert_eq!(decoded.stream(), plan.stream());
        prop_assert_eq!(decoded.memory_bytes(), plan.memory_bytes());
        prop_assert!(decoded.verify_artifacts().is_ok());
        prop_assert!(decoded.verify_against(&loop_).is_ok());
    }

    #[test]
    fn decoded_plans_execute_like_the_original((loop_, y0) in arb_loop(32)) {
        let pool = ThreadPool::new(3);
        let plan = Planner::new().plan(&pool, &loop_).expect("in-bounds");
        let decoded = decode_plan(&encode_plan(&plan)).expect("decodes");

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
        let plan = Planner::new().plan(&pool, &loop_).expect("in-bounds");
        prop_assert_eq!(
            plan.variant(),
            doacross_plan::PlanVariant::Wavefront,
            "{:?}", plan.costs()
        );
        let bytes = encode_plan(&plan);
        let decoded = decode_plan(&bytes).expect("own encoding decodes");
        prop_assert_eq!(encode_plan(&decoded), bytes, "bit-exact round trip");
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
        // One shard, so a snapshot's plan order is one recency order.
        let cache = ConcurrentPlanCache::new(8, 1);
        let prepare = |l: &IndirectLoop| {
            let key = PatternFingerprint::of(l);
            cache
                .get_or_build(&key, |_| true, || planner.plan(&pool, l))
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
        let warmed = ConcurrentPlanCache::new(8, 1);
        warmed.warm_from(&store);
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
