//! Allocation audit: warm solves of every parallel variant must not touch
//! the heap — and must cost exactly one region dispatch.
//!
//! The paper's amortization argument assumes the executor's marginal cost
//! is arithmetic plus synchronization — preprocessing products (the plan's
//! claim stream, the scratch arrays) are built once and reused. A per-solve heap
//! allocation anywhere on the dispatch path would silently tax every
//! solve of a many-solve workload. This binary installs
//! [`doacross_core::alloc::CountingAllocator`] as the global allocator
//! and pins the bill: after the cold solve grows the scratch, a warm
//! solve reports **zero** allocations on the dispatching thread
//! ([`RunStats::allocations`]). The same warm solves pin the region count:
//! executor and postprocessor share one `ThreadPool::run`. Three audits
//! move the bracket out to the whole `PreparedLoop::execute` call, so
//! what the engine does around the executor is covered too — one on the
//! sequential path, which leases no sub-pool, and one with observability,
//! profiling and adaptation all on.

use doacross_core::alloc::CountingAllocator;
use doacross_core::{
    seq::run_sequential, AccessPattern, DoacrossLoop, IndirectLoop, PlanProvenance, RunStats,
    TestLoop,
};
use doacross_engine::{Engine, EngineBuilder, FallbackPolicy, PlanStore};
use doacross_par::ThreadPool;
use doacross_plan::{PatternFingerprint, PlanVariant, Planner, VariantCosts};
use doacross_sim::CostModel;

#[global_allocator]
static AUDIT: CountingAllocator = CountingAllocator;

/// Dependence-free but non-linear left-hand side: the flat doacross in
/// natural order is the only parallel candidate, so the planner picks
/// [`PlanVariant::Doacross`] (same shape the planner's own unit tests
/// pin).
fn scattered_doall(n: usize) -> IndirectLoop {
    let a: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
    IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).expect("valid structure")
}

/// Four workers priced by the paper's Multimax preset, which picks the
/// parallel variant each audit names; the default engine prices with
/// this host's costs and may run the same shapes sequentially, where
/// there is no region to count.
fn preset_engine() -> EngineBuilder {
    Engine::builder()
        .workers(4)
        .pools(1)
        .planner(Planner::new())
}

/// Warm solves of `loop_` on a fresh 4-worker engine: the variant is the
/// one the caller means to audit, the output is the oracle's, the
/// dispatching thread allocates nothing, and each solve costs exactly one
/// region.
/// Returns whether the plan's stream holds class bytes (`None` without a
/// stream).
fn assert_warm_solves_are_lean<L: DoacrossLoop>(
    loop_: &L,
    wants: fn(PlanVariant) -> bool,
) -> Option<bool> {
    let engine = preset_engine().build();
    let prepared = engine.prepare(loop_).expect("plannable");
    assert!(wants(prepared.variant()), "picked {:?}", prepared.variant());
    let y0: Vec<f64> = (0..loop_.data_len())
        .map(|e| 1.0 + (e % 7) as f64 / 8.0)
        .collect();
    let mut oracle = y0.clone();
    run_sequential(loop_, &mut oracle);

    // Cold solve: checking out a fresh executor and growing its
    // per-variant scratch is allowed to allocate.
    let mut y = y0.clone();
    let cold: RunStats = prepared.execute(loop_, &mut y).expect("cold solve");
    assert_eq!(y, oracle);
    // Warm solves: scratch, plan artifacts, and the stats sink are all
    // reused — the dispatching thread's heap bill is exactly zero.
    for round in 0..3 {
        let mut y = y0.clone();
        let regions_before = engine.pool().dispatches();
        let stats = prepared.execute(loop_, &mut y).expect("valid");
        let regions = engine.pool().dispatches() - regions_before;
        assert_eq!(y, oracle);
        assert_eq!(
            stats.allocations,
            0,
            "{:?}: warm solve {round} allocated (cold solve billed {})",
            prepared.variant(),
            cold.allocations
        );
        assert_eq!(
            regions,
            1,
            "{:?}: executor and copy-back must share one region",
            prepared.variant()
        );
    }
    let stream = prepared.plan().stream();
    stream.map(|stream| stream.classes().is_some())
}

/// `loop_` with one more reference per row, to an element no iteration
/// writes: the same dependences, so the same variant, but a stream that
/// keeps its class bytes.
fn with_unwritten_reads(loop_: &IndirectLoop) -> IndirectLoop {
    let n = loop_.iterations();
    let unwritten = loop_.data_len();
    let rhs: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..loop_.terms(i))
                .map(|j| loop_.term_element(i, j))
                .chain([unwritten])
                .collect()
        })
        .collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
    let lhs = (0..n).map(|i| loop_.lhs(i)).collect();
    IndirectLoop::new(unwritten + 1, lhs, rhs, coeff).expect("valid structure")
}

/// Interleaved distance-1 chains: the doconsider claim order wins.
fn interleaved_chains(chains: usize, len: usize) -> IndirectLoop {
    let n = chains * len;
    let rhs: Vec<Vec<usize>> = (0..n)
        .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
        .collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
    IndirectLoop::new(n, (0..n).collect(), rhs, coeff).expect("valid structure")
}

#[test]
fn warm_wavefront_and_flag_solves_allocate_nothing_in_one_region() {
    // Level-scheduled family: completion counters, no flags — over a
    // stream of true dependences only (no class bytes) and over the same
    // grid with an unwritten read per row (class bytes).
    let wavefront = |v: PlanVariant| v == PlanVariant::Wavefront;
    let grid = doacross_plan::testgrid::deep_grid(64, 20, 3, 7);
    assert_eq!(assert_warm_solves_are_lean(&grid, wavefront), Some(false));
    let mixed = with_unwritten_reads(&grid);
    assert_eq!(assert_warm_solves_are_lean(&mixed, wavefront), Some(true));
    // Flag family, every claim source: the linear subscript of Figure 4
    // through the by-writer adapter, and the plan's claim stream of a
    // scattered doall (natural order, claims in derived chunks).
    let linear = |v: PlanVariant| matches!(v, PlanVariant::Linear(_));
    assert_eq!(
        assert_warm_solves_are_lean(&TestLoop::new(2_000, 1, 7), linear),
        None
    );
    let doacross = |v: PlanVariant| v == PlanVariant::Doacross;
    assert_eq!(
        assert_warm_solves_are_lean(&scattered_doall(4_000), doacross),
        Some(false)
    );
    // ... and under the stream's doconsider claim order: validated when
    // the plan was built, so a solve checks only each row's reference
    // count, inside the region, allocating nothing. Classless, and with
    // class bytes.
    let reordered = |v: PlanVariant| v == PlanVariant::Reordered;
    let chains = interleaved_chains(32, 16);
    assert_eq!(assert_warm_solves_are_lean(&chains, reordered), Some(false));
    let mixed = with_unwritten_reads(&chains);
    assert_eq!(assert_warm_solves_are_lean(&mixed, reordered), Some(true));
}

/// The profiler's off-path discipline, audited: an engine built
/// *without* profiling pays one branch per site and no heap — the warm
/// flat-doacross solve stays at exactly zero allocations with the
/// profiling code compiled in. (The armed path is audited whole-call, with
/// observability and adaptation, in
/// `warm_observed_profiled_adaptive_calls_allocate_nothing`.)
#[test]
fn disabled_profiling_keeps_warm_solves_allocation_free() {
    let engine = preset_engine().build();
    assert!(!engine.profiling_enabled());
    let loop_ = scattered_doall(4_000);
    let prepared = engine.prepare(&loop_).expect("plannable");
    assert_eq!(prepared.variant(), PlanVariant::Doacross);

    let mut y = vec![1.0; 4_000];
    prepared.execute(&loop_, &mut y).expect("cold solve");
    for round in 0..3 {
        let mut y = vec![1.0; 4_000];
        let stats = prepared.execute(&loop_, &mut y).expect("valid");
        assert_eq!(
            stats.allocations, 0,
            "disarmed profiling leaked a warm-path allocation (round {round})"
        );
    }
    assert!(engine.recent_profiles().is_empty(), "nothing harvested");

    // Cross-check: the *armed* engine actually profiles the same shape —
    // the zero above is the off-switch working, not the feature missing.
    let armed = preset_engine().profiling_default().build();
    let prepared = armed.prepare(&loop_).expect("plannable");
    let mut y = vec![1.0; 4_000];
    prepared.execute(&loop_, &mut y).expect("valid");
    assert_eq!(armed.recent_profiles().len(), 1);
}

/// Warm solves of `loop_` through `engine`, with the audit bracket around
/// the whole `PreparedLoop::execute` call instead of the executor alone:
/// the output is the oracle's and the calling thread allocates nothing —
/// not in admission, not arming the lease (the pristine copy reuses the
/// sub-pool's buffer), not recording. A parallel plan is one dispatch per
/// call, spread evenly over the sub-pools; a sequential one leases none.
fn assert_whole_call_allocates_nothing<L: DoacrossLoop>(
    engine: &Engine,
    loop_: &L,
    wants: fn(PlanVariant) -> bool,
) {
    assert_eq!(engine.fallback_policy(), FallbackPolicy::SequentialRetry);
    let prepared = engine.prepare(loop_).expect("plannable");
    assert!(wants(prepared.variant()), "picked {:?}", prepared.variant());
    let y0: Vec<f64> = (0..loop_.data_len())
        .map(|e| 1.0 + (e % 7) as f64 / 8.0)
        .collect();
    let mut oracle = y0.clone();
    run_sequential(loop_, &mut oracle);
    let ledger_before = engine.pool_stats();

    // Cold solves, one per sub-pool (the scheduler's rotor walks them in
    // turn): each grows that sub-pool's executor scratch and pristine
    // buffer, and may allocate.
    let mut y = y0.clone();
    for _ in 0..engine.pools() {
        y.copy_from_slice(&y0);
        prepared.execute(loop_, &mut y).expect("cold solve");
        assert_eq!(y, oracle);
    }
    const WARM_PER_POOL: usize = 2;
    for round in 0..WARM_PER_POOL * engine.pools() {
        y.copy_from_slice(&y0);
        let before = doacross_core::alloc::thread_allocations();
        let stats = prepared.execute(loop_, &mut y).expect("valid");
        let allocated = doacross_core::alloc::thread_allocations() - before;
        assert_eq!(y, oracle);
        assert_eq!(
            (allocated, stats.allocations),
            (0, 0),
            "{:?}: warm call {round} allocated outside / inside the executor",
            prepared.variant()
        );
    }
    // Every sub-pool served exactly its share (one cold solve plus the
    // warm ones, never stolen: each call finds its preferred sub-pool
    // free): the zeros above cover each lease's scratch, not one warm
    // sub-pool over and over. A sequential plan leased nothing.
    let share = match prepared.variant() {
        PlanVariant::Sequential => 0,
        _ => 1 + WARM_PER_POOL as u64,
    };
    for (before, after) in ledger_before.iter().zip(engine.pool_stats()) {
        assert_eq!(
            (
                after.dispatches - before.dispatches,
                after.steals - before.steals
            ),
            (share, 0),
            "{:?}: {after:?}",
            prepared.variant()
        );
    }
}

/// `RunStats::allocations` brackets `PlanExecutor::execute` only; what
/// the engine does around it — admit, arm, record — is audited here, under
/// the default fallback policy, whose pristine copy of `y` is the one
/// per-solve buffer the engine itself fills.
#[test]
fn warm_whole_calls_allocate_nothing_under_the_default_policy() {
    let engine = preset_engine().build();
    assert_whole_call_allocates_nothing(
        &engine,
        &doacross_plan::testgrid::deep_grid(64, 20, 3, 7),
        |v| v == PlanVariant::Wavefront,
    );
    assert_whole_call_allocates_nothing(&engine, &scattered_doall(4_000), |v| {
        v == PlanVariant::Doacross
    });
    // Two single-worker sub-pools make consecutive solves alternate
    // between both leases, each with its own scratch and pristine buffer;
    // the prices pin a flag variant, since only a parallel plan leases.
    let flag_prices = CostModel {
        seq_iter: 1e6,
        seq_term: 1e6,
        wait_poll: 0.0,
        barrier: 1e9,
        ..CostModel::multimax()
    };
    let tenants = Engine::builder()
        .workers(1)
        .pools(2)
        .planner(Planner::with_costs(flag_prices))
        .build();
    assert_whole_call_allocates_nothing(&tenants, &TestLoop::new(300, 1, 8), |v| {
        matches!(v, PlanVariant::Linear(_))
    });
}

/// A sequential plan runs on the caller's thread: on a multi-pool engine a
/// warm whole call allocates nothing and dispatches nothing — no lease, no
/// scratch, no pristine copy — and its stats count its allocations all the
/// same.
#[test]
fn warm_sequential_calls_allocate_nothing_and_lease_no_sub_pool() {
    let tenants = Engine::builder()
        .workers(1)
        .pools(2)
        .planner(Planner::new())
        .build();
    assert_whole_call_allocates_nothing(&tenants, &TestLoop::new(300, 1, 8), |v| {
        v == PlanVariant::Sequential
    });
    for pool in tenants.pool_stats() {
        assert_eq!((pool.dispatches, pool.steals), (0, 0), "{pool:?}");
    }
}

/// Warm whole calls with observability, profiling and adaptation all on:
/// the record stage traces, harvests into the profile ring and feeds the
/// adaptive layer without touching the heap — across adaptive evaluation
/// points (refinement reads the entries where they are kept) and
/// across wraps of the profile ring (a harvest drains into the evicted
/// profile's buffer, which is as large as the largest profile so far).
/// Only a solve that deposits more spans than every solve before it may
/// grow that capacity; a flag-variant solve's span count is its stall
/// count, which scheduling decides, so such a call is exempt and counted.
fn assert_observed_calls_allocate_nothing<L: DoacrossLoop>(
    engine: &Engine,
    loop_: &L,
    wants: fn(PlanVariant) -> bool,
) {
    let ring = 32; // the profile ring's depth
    let eval_interval = 12; // an adaptive engine's evaluation cadence, in solves
    let prepared = engine.prepare(loop_).expect("plannable");
    assert!(wants(prepared.variant()), "picked {:?}", prepared.variant());
    let y0: Vec<f64> = (0..loop_.data_len())
        .map(|e| 1.0 + (e % 7) as f64 / 8.0)
        .collect();
    let mut oracle = y0.clone();
    run_sequential(loop_, &mut oracle);
    let latest_spans = || {
        engine
            .recent_profiles()
            .last()
            .expect("profiled")
            .spans
            .len()
    };

    // Warm-up: the first evaluation (and its one-off baseline probe), the
    // ring filling up with profiles whose buffers the harvest recycles
    // from then on, twice round.
    let mut y = y0.clone();
    let mut most_spans = 0;
    for _ in 0..2 * ring + 2 * eval_interval {
        y.copy_from_slice(&y0);
        prepared.execute(loop_, &mut y).expect("warm-up solve");
        most_spans = most_spans.max(latest_spans());
    }
    let evaluations_before = engine.adaptive_stats().expect("adaptive").repricings;
    let calls = ring + 2 * eval_interval + 1;
    let mut new_maxima = 0;
    for call in 0..calls {
        y.copy_from_slice(&y0);
        let before = doacross_core::alloc::thread_allocations();
        let stats = prepared.execute(loop_, &mut y).expect("valid");
        let allocated = doacross_core::alloc::thread_allocations() - before;
        assert_eq!(y, oracle);
        assert_eq!(stats.allocations, 0, "inside the executor");
        let spans = latest_spans();
        if spans > most_spans {
            (most_spans, new_maxima) = (spans, new_maxima + 1);
            continue;
        }
        assert_eq!(
            allocated,
            0,
            "{:?}: observed call {call} ({spans} spans) allocated",
            prepared.variant()
        );
    }
    // The bracket really spanned what it claims to.
    let evaluations = engine.adaptive_stats().expect("adaptive").repricings - evaluations_before;
    assert!(evaluations >= 2, "{evaluations} evaluation points");
    assert!(calls - new_maxima > ring, "the ring wrapped under audit");
    assert!(!prepared.is_stale(), "no trial swapped the plan mid-audit");
}

#[test]
fn warm_observed_profiled_adaptive_calls_allocate_nothing() {
    let everything_on = |builder: EngineBuilder| {
        builder
            .pools(1)
            .observability_default()
            .profiling_default()
            .adaptive()
            .build()
    };
    // A serial chain is sequential under any model; here, the host's.
    let n = 300usize;
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let chain = IndirectLoop::new(n + 1, (1..=n).collect(), rhs, vec![vec![0.5]; n]).unwrap();
    assert_observed_calls_allocate_nothing(
        &everything_on(Engine::builder().workers(2)),
        &chain,
        |v| v == PlanVariant::Sequential,
    );
    // The preset misprices this host, and an evaluation that acts on it
    // starts a trial: a plan build and a generation bump that retires the
    // handle — adaptation's one by-design allocating path. With the trial
    // failpoint saturated, every challenger is absorbed before it is built
    // (the path `chaos.rs` proves keeps the incumbent), so every
    // evaluation point stays on the path under audit: refine, re-price,
    // trace the divergence, keep.
    failpoint::arm(
        "engine::adaptive::trial",
        failpoint::FailAction::Saturate { times: u64::MAX },
    );
    assert_observed_calls_allocate_nothing(
        &everything_on(preset_engine()),
        &doacross_plan::testgrid::deep_grid(64, 20, 3, 7),
        |v| v == PlanVariant::Wavefront,
    );
    assert_observed_calls_allocate_nothing(
        &everything_on(preset_engine()),
        &interleaved_chains(32, 16),
        |v| v == PlanVariant::Reordered,
    );
    failpoint::disarm("engine::adaptive::trial");
}

/// What a build that stops at the planner's stage-1 gate costs, and that
/// the plan it leaves is a full citizen of the persistence path.
#[test]
fn a_gated_build_allocates_two_arrays_and_round_trips_through_a_store() {
    // A 500-iteration serial chain: critical path == n, so the parallel
    // floor settles `sequential` from the census alone, preset or not.
    let n = 500usize;
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let chain = IndirectLoop::new(n + 1, (1..=n).collect(), rhs, vec![vec![0.5]; n]).unwrap();
    let pool = ThreadPool::new(4);
    let planner = Planner::new();
    let fingerprint = PatternFingerprint::of(&chain);

    // The whole build: the census pass's writer map and level array, and
    // nothing else — no DAG, no claim order or its inverse, no class
    // stream, no level schedule.
    let before = doacross_core::alloc::thread_allocations();
    let plan = planner.plan_with_fingerprint(&pool, &chain, fingerprint);
    let allocated = doacross_core::alloc::thread_allocations() - before;
    let plan = plan.expect("plannable");
    // (Debug builds also run the planner's translation-validation assert
    // on every return, gated or not; its bill is measured, not guessed.)
    let before = doacross_core::alloc::thread_allocations();
    plan.verify_against(&chain).expect("sound");
    let verifier = doacross_core::alloc::thread_allocations() - before;
    let debug_assert = if cfg!(debug_assertions) { verifier } else { 0 };
    assert_eq!(allocated - debug_assert, 2, "writer map + level array");
    assert!(plan.is_gated(), "{plan}");
    assert_eq!(plan.variant(), PlanVariant::Sequential);
    assert_eq!(plan.memory_bytes(), 0);
    let sequential_only = VariantCosts {
        sequential: plan.costs().sequential,
        ..Default::default()
    };
    assert_eq!(*plan.costs(), sequential_only);

    // Through an engine, a store, and back: same prices, artifacts verify,
    // and the restored plan serves the next prepare as a hit.
    let preset = || preset_engine().cache_capacity(4);
    let first = preset().build();
    let cold = first.prepare(&chain).expect("plannable");
    assert!(!cold.from_cache() && cold.plan().is_gated());
    let bytes = first.snapshot().to_bytes();
    let store = PlanStore::from_bytes(&bytes).expect("own bytes decode");
    let decoded = store.plans().next().expect("one plan");
    assert_eq!(*decoded.costs(), sequential_only);
    assert!(decoded.is_gated());
    decoded.verify_artifacts().expect("nothing to disprove");

    let second = preset().build();
    assert_eq!(second.warm_from(&store), 1);
    let served = second.prepare(&chain).expect("plannable");
    assert!(served.from_cache(), "restored gated plan hits");
    let mut y = vec![1.0; n + 1];
    let mut oracle = y.clone();
    run_sequential(&chain, &mut oracle);
    let stats = served.execute(&chain, &mut y).expect("valid");
    assert_eq!(stats.provenance, PlanProvenance::PlanCached);
    assert_eq!(y, oracle);
}

/// A plan the reference counts settle runs no census pass: its cold
/// `prepare` makes exactly the census pass's two allocations (writer map,
/// level array) fewer than the same structure gated at stage 1.
#[test]
fn a_cold_prepare_settled_on_counts_skips_the_census_pass_allocations() {
    // The serial chain of the gated-build audit: under the preset its
    // counts floor (`CP = 0`) is below `T_seq` and only the measured
    // critical path closes the gate; a dispatch priced at 1e9 closes it
    // on the counts alone.
    let n = 500usize;
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let chain = IndirectLoop::new(n + 1, (1..=n).collect(), rhs, vec![vec![0.5]; n]).unwrap();
    let settling = Planner::with_costs(CostModel {
        region_dispatch: 1e9,
        ..CostModel::multimax()
    });
    let cold_prepare = |planner: Planner| {
        let engine = Engine::builder()
            .workers(4)
            .pools(1)
            .planner(planner)
            .build();
        let before = doacross_core::alloc::thread_allocations();
        let prepared = engine.prepare(&chain).expect("plannable");
        let allocated = doacross_core::alloc::thread_allocations() - before;
        assert!(!prepared.from_cache() && prepared.plan().is_gated());
        (allocated, prepared.plan().census().is_classified())
    };
    let (stage_one, classified) = cold_prepare(Planner::new());
    assert!(classified, "the preset needs the critical path");
    let (stage_zero, classified) = cold_prepare(settling);
    assert!(!classified, "the counts settle it");
    assert_eq!(stage_one - stage_zero, 2, "writer map + level array");
}

#[test]
fn the_audit_allocator_actually_counts() {
    // Self-check that the harness is live: an explicit heap allocation on
    // this thread must show up in the counter — otherwise the zero
    // assertion above would pass vacuously.
    let before = doacross_core::alloc::thread_allocations();
    let v: Vec<u8> = Vec::with_capacity(1024);
    let after = doacross_core::alloc::thread_allocations();
    drop(v);
    assert!(after > before, "global audit allocator not installed");
}
