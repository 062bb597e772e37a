//! Multi-pool scheduler stress tests: many tenants, one shared engine.
//!
//! The concurrent-tenant acceptance suite for the `crates/sched`
//! subsystem. Sixteen tenant threads hammer a shared multi-pool engine
//! with a mix of the paper's structures — Figure 4 parameterized loops
//! and forward-substitution loops over the Table 1 stencil families
//! (5-PT, 7-PT, 9-PT ILU(0) factors) — and every result must stay
//! bit-identical to the sequential oracle while the scheduler's own
//! ledgers (per-pool dispatches, cache shard traffic) reconcile exactly.
//! Saturation is pinned deterministically with a gated loop that holds a
//! sub-pool open on purpose.
//!
//! Only a parallel solve is admitted to a sub-pool, and on this host the
//! default engine plans nearly everything sequential, so the engines here
//! are priced ([`flag_prices`]) to run a flag variant: the scheduler is
//! what is under test.

use doacross_core::{seq::run_sequential, AccessPattern, DoacrossLoop, IndirectLoop, TestLoop};
use doacross_engine::{Engine, EngineError, SolveOutcome};
use doacross_plan::{PlanVariant, Planner};
use doacross_sim::CostModel;
use doacross_sparse::{ilu0, stencil, TriangularMatrix};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Prices under which a flag variant wins on any structure with a legal
/// one: the sequential loop and barriers cost a fortune, polls nothing —
/// the way `benchmark/` pins `table1-par`'s flag engine.
fn flag_prices() -> Planner {
    Planner::with_costs(CostModel {
        seq_iter: 1e6,
        seq_term: 1e6,
        wait_poll: 0.0,
        barrier: 1e9,
        ..CostModel::multimax()
    })
}

fn is_flags(v: PlanVariant) -> bool {
    matches!(
        v,
        PlanVariant::Doacross | PlanVariant::Linear(_) | PlanVariant::Reordered
    )
}

/// Every iteration writes element 0: no parallel candidate is legal, so
/// the plan is sequential under any cost model.
fn accumulator(n: usize) -> IndirectLoop {
    let rhs: Vec<Vec<usize>> = (1..=n).map(|j| vec![j]).collect();
    IndirectLoop::new(n + 1, vec![0; n], rhs, vec![vec![0.5]; n]).expect("valid structure")
}

/// Forward-substitution-shaped indirect loop over a strict-lower factor:
/// `y[i] += Σ_j (−L_ij)·y[col_j]`, row by row — the §3.2 workload.
fn forward_sub(l: &TriangularMatrix) -> IndirectLoop {
    let n = l.n();
    let a: Vec<usize> = (0..n).collect();
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| l.row_cols(i).to_vec()).collect();
    let coeff: Vec<Vec<f64>> = (0..n)
        .map(|i| l.row_values(i).iter().map(|v| -v).collect())
        .collect();
    IndirectLoop::new(n, a, rhs, coeff).expect("valid structure")
}

/// Sixteen tenant structures cycling the Table 1 stencil kinds (at sizes
/// bounded for test time) and Figure 4 shapes, all with distinct
/// fingerprints.
fn tenant_loops() -> Vec<IndirectLoop> {
    (0..16usize)
        .map(|t| {
            let seed = 100 + t as u64;
            match t % 4 {
                0 => forward_sub(&TriangularMatrix::from_strict_lower(
                    &ilu0(&stencil::five_point(6 + t / 4, 7, seed)).l,
                )),
                1 => forward_sub(&TriangularMatrix::from_strict_lower(
                    &ilu0(&stencil::seven_point(4, 4, 3 + t / 4, seed)).l,
                )),
                2 => forward_sub(&TriangularMatrix::from_strict_lower(
                    &ilu0(&stencil::nine_point(5 + t / 4, 6, seed)).l,
                )),
                // Figure 4 shapes: vary N, M, L for doall / short- /
                // long-dependence structures.
                _ => {
                    let figure4 = TestLoop::new(150 + 40 * t, 1 + t % 3, 4 + t % 7);
                    IndirectLoop::new(
                        figure4.data_len(),
                        (0..figure4.iterations()).map(|i| figure4.lhs(i)).collect(),
                        (0..figure4.iterations())
                            .map(|i| {
                                (0..figure4.terms(i))
                                    .map(|j| figure4.term_element(i, j))
                                    .collect()
                            })
                            .collect(),
                        (0..figure4.iterations())
                            .map(|i| vec![0.25; figure4.terms(i)])
                            .collect(),
                    )
                    .expect("valid structure")
                }
            }
        })
        .collect()
}

/// 16 tenants × several rounds on one shared 2-pool engine: bit-identical
/// results throughout, no deadlock across sub-pools, and afterwards the
/// scheduler's per-pool dispatch ledger and the cache's per-shard ledger
/// both reconcile exactly with the work submitted. Every tenant runs a
/// flag variant, so every solve is admitted.
#[test]
fn sixteen_tenants_on_a_shared_multi_pool_engine_stay_bit_identical() {
    const ROUNDS: usize = 3;
    let engine = Arc::new(
        Engine::builder()
            .workers(1)
            .pools(2)
            .cache_capacity(32)
            .shards(4)
            .planner(flag_prices())
            .build(),
    );
    assert_eq!(engine.pools(), 2);
    assert_eq!(engine.threads(), 1, "workers are per sub-pool");
    assert_eq!(engine.total_workers(), 2);

    let loops = tenant_loops();
    // Priced on a bare planner, so the engine's cache ledger below sees
    // only the tenants' own traffic.
    for l in &loops {
        let variant = engine
            .planner()
            .plan(engine.pool(), l)
            .expect("plannable")
            .variant();
        assert!(is_flags(variant), "tenant planned {variant:?}");
    }
    let oracles: Vec<Vec<f64>> = loops
        .iter()
        .map(|l| {
            let mut y = vec![1.0; l.data_len()];
            run_sequential(l, &mut y);
            y
        })
        .collect();

    std::thread::scope(|scope| {
        for (t, (l, oracle)) in loops.iter().zip(&oracles).enumerate() {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let mut y = vec![1.0; l.data_len()];
                    engine.run(l, &mut y).expect("valid loop");
                    assert_eq!(&y, oracle, "tenant {t} round {round} diverged");
                }
            });
        }
    });

    // Scheduler ledger: every solve is parallel and acquired exactly one
    // sub-pool; the per-pool dispatch counts sum to the solves submitted,
    // and each sub-pool reports its configured worker count.
    let total_solves = (loops.len() * ROUNDS) as u64;
    let pool_stats = engine.pool_stats();
    assert_eq!(pool_stats.len(), 2);
    assert_eq!(
        pool_stats.iter().map(|p| p.dispatches).sum::<u64>(),
        total_solves,
        "per-pool dispatches reconcile with solves"
    );
    for p in &pool_stats {
        assert_eq!(p.workers, 1);
        assert!(p.steals <= p.dispatches);
    }
    assert_eq!(
        engine.saturations(),
        0,
        "default admission bound never trips"
    );

    // Cache ledger: one miss per tenant structure, every other lookup a
    // hit.
    let cache = engine.cache_stats();
    assert_eq!(cache.misses, loops.len() as u64);
    assert_eq!(cache.hits + cache.misses, total_solves);
}

/// A loop whose first iteration parks until released — holds its engine
/// sub-pool open so admission behavior can be pinned deterministically.
struct GateLoop {
    n: usize,
    entered: AtomicBool,
    release: AtomicBool,
}

impl GateLoop {
    fn new(n: usize) -> Self {
        Self {
            n,
            entered: AtomicBool::new(false),
            release: AtomicBool::new(false),
        }
    }
}

impl AccessPattern for GateLoop {
    fn iterations(&self) -> usize {
        self.n
    }
    fn data_len(&self) -> usize {
        self.n
    }
    fn lhs(&self, i: usize) -> usize {
        i
    }
    fn terms(&self, _i: usize) -> usize {
        0
    }
    fn term_element(&self, _i: usize, _j: usize) -> usize {
        unreachable!("no rhs terms")
    }
}

impl DoacrossLoop for GateLoop {
    fn init(&self, i: usize, old_lhs: f64) -> f64 {
        if i == 0 {
            self.entered.store(true, Ordering::Release);
            while !self.release.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
        old_lhs + 1.0
    }
    fn combine(&self, _i: usize, _j: usize, acc: f64, _operand: f64) -> f64 {
        acc
    }
}

/// With one sub-pool and a zero-waiter admission bound, a second parallel
/// solve arriving while the pool is held fails fast with the typed
/// [`EngineError::Saturated`] — its flight record names no sub-pool, since
/// it was granted none — while a sequential solve, which occupies no
/// worker, is served beside the held pool without touching admission. The
/// engine serves normally again once the pool frees up.
#[test]
fn saturated_admission_fails_typed_and_recovers() {
    let engine = Engine::builder()
        .workers(1)
        .pools(1)
        .max_pending(0)
        .planner(flag_prices())
        .observability_default()
        .build();
    assert_eq!(engine.max_pending(), 0);
    let gate = GateLoop::new(4);
    let holding = engine.prepare(&gate).expect("plannable").variant();
    assert!(
        is_flags(holding),
        "the holder must lease the pool: {holding:?}"
    );
    let small = TestLoop::new(40, 1, 7);
    let victim = engine.prepare(&small).expect("plannable");
    assert!(is_flags(victim.variant()), "{:?}", victim.variant());
    let serial = accumulator(64);
    let sequential = engine.prepare(&serial).expect("plannable");
    assert_eq!(sequential.variant(), PlanVariant::Sequential);
    let mut oracle = small.initial_y();
    run_sequential(&small, &mut oracle);

    std::thread::scope(|scope| {
        let (engine_ref, gate_ref) = (&engine, &gate);
        let holder = scope.spawn(move || {
            let mut y = vec![0.0; 4];
            let stats = engine_ref
                .run(gate_ref, &mut y)
                .expect("gated loop is valid");
            (y, stats)
        });
        // Wait until the gated solve provably occupies the only sub-pool.
        while !gate.entered.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let mut y = small.initial_y();
        let err = victim.execute(&small, &mut y).expect_err("pool is held");
        assert!(
            matches!(
                err,
                EngineError::Saturated {
                    pools: 1,
                    max_pending: 0
                }
            ),
            "unexpected error: {err}"
        );
        assert_eq!(engine.saturations(), 1);
        assert_eq!(y, small.initial_y(), "a refused solve never ran");
        let refused = engine.recent_solves().pop().expect("flight-recorded");
        assert_eq!(refused.outcome, SolveOutcome::Saturated);
        assert_eq!(refused.pool, None, "a refused attempt held no sub-pool");

        // The only sub-pool is still held: a sequential plan is served on
        // this thread all the same, and admission never sees it.
        let mut y = vec![1.0; serial.data_len()];
        let mut serial_oracle = y.clone();
        run_sequential(&serial, &mut serial_oracle);
        sequential
            .execute(&serial, &mut y)
            .expect("sequential solves are not admitted");
        assert_eq!(y, serial_oracle);
        assert_eq!(engine.saturations(), 1);
        let served = engine.recent_solves().pop().expect("flight-recorded");
        assert_eq!(
            (served.outcome, served.pool),
            (SolveOutcome::Ok, None),
            "a sequential solve held no sub-pool"
        );

        gate.release.store(true, Ordering::Release);
        let (y, _stats) = holder.join().expect("holder thread");
        assert_eq!(
            y,
            vec![1.0; 4],
            "the gated solve itself completed correctly"
        );
    });

    // The rejection was admission-only: nothing is poisoned, and the
    // ledger holds the two parallel solves admitted, not the refused one
    // or the sequential one.
    let mut y = small.initial_y();
    victim.execute(&small, &mut y).expect("engine recovered");
    assert_eq!(y, oracle);
    let dispatches: u64 = engine.pool_stats().iter().map(|p| p.dispatches).sum();
    assert_eq!(dispatches, 2, "the holder and the recovered victim");
    assert_eq!(engine.saturations(), 1);
}
