//! The multi-pool scheduler end to end: one shared engine partitioned into
//! sub-pools serves four concurrent parallel tenants and one sequential
//! one, each solving its own structure bit-identically to a sequential
//! oracle.
//!
//! The example asserts its own contract as it goes: every tenant's result
//! matches the oracle, the scheduler's per-pool dispatch ledger accounts
//! for every parallel solve — one dispatch each, nothing else dispatches,
//! and a sequential solve, which runs on its caller's thread and occupies
//! no worker, is admitted nowhere — and admission never saturated.
//!
//! Run: `cargo run --release --example throughput`

use preprocessed_doacross::core::seq::run_sequential;
use preprocessed_doacross::core::{DoacrossLoop, IndirectLoop, TestLoop};
use preprocessed_doacross::plan::{PlanVariant, Planner};
use preprocessed_doacross::sim::CostModel;
use preprocessed_doacross::Engine;

fn main() {
    const TENANTS: usize = 4;

    // Two sub-pools of one worker each: enough to show real concurrent
    // dispatch on any host, including single-core CI runners. Only a
    // parallel plan is dispatched, and this host's own prices would plan
    // these tenants sequentially — so the prices are named: the
    // sequential loop and barriers cost a fortune, flag polls nothing.
    let flag_prices = CostModel {
        seq_iter: 1e6,
        seq_term: 1e6,
        wait_poll: 0.0,
        barrier: 1e9,
        ..CostModel::multimax()
    };
    let engine = Engine::builder()
        .workers(1)
        .pools(2)
        .planner(Planner::with_costs(flag_prices))
        .build();
    println!(
        "engine: {} sub-pools x {} worker(s) = {} workers total, max_pending {}\n",
        engine.pools(),
        engine.threads(),
        engine.total_workers(),
        engine.max_pending()
    );

    // Four parallel tenants with distinct structures (different sizes and
    // dependence shapes), and a fifth whose every iteration writes one
    // element — sequential under any prices — prepared up front.
    let parallel: Vec<TestLoop> = (0..TENANTS)
        .map(|t| TestLoop::new(600 + 150 * t, 1 + t % 2, 4 + 2 * t))
        .collect();
    let n = 500;
    let serial = IndirectLoop::new(
        n + 1,
        vec![0; n],
        (1..=n).map(|j| vec![j]).collect(),
        vec![vec![0.5]; n],
    )
    .expect("valid structure");
    let tenants: Vec<&dyn DoacrossLoop> = parallel
        .iter()
        .map(|l| l as &dyn DoacrossLoop)
        .chain([&serial as &dyn DoacrossLoop])
        .collect();
    let prepared: Vec<_> = tenants
        .iter()
        .map(|l| engine.prepare(*l).expect("plannable structure"))
        .collect();
    for p in &prepared {
        println!("  tenant plans {}", p.variant());
    }

    const SOLVES_PER_TENANT: usize = 50;
    std::thread::scope(|scope| {
        for (l, p) in tenants.iter().zip(&prepared) {
            scope.spawn(move || {
                let y0: Vec<f64> = (0..l.data_len())
                    .map(|e| 1.0 + (e % 7) as f64 / 8.0)
                    .collect();
                let mut oracle = y0.clone();
                run_sequential(*l, &mut oracle);
                for _ in 0..SOLVES_PER_TENANT {
                    let mut y = y0.clone();
                    p.execute(*l, &mut y).expect("valid solve");
                    assert_eq!(y, oracle, "tenant result differs from oracle");
                }
            });
        }
    });

    // Every parallel solve passed through the scheduler's admission gate,
    // and the per-pool ledger accounts for each one; the sequential
    // tenant's solves are in no sub-pool's ledger.
    let parallel_tenants = prepared
        .iter()
        .filter(|p| p.variant() != PlanVariant::Sequential)
        .count();
    assert_eq!(
        parallel_tenants, TENANTS,
        "the prices pinned a parallel variant"
    );
    let expected = (parallel_tenants * SOLVES_PER_TENANT) as u64;
    let pool_stats = engine.pool_stats();
    let dispatched: u64 = pool_stats.iter().map(|s| s.dispatches).sum();
    assert_eq!(
        dispatched, expected,
        "dispatch ledger covers every parallel solve"
    );
    assert_eq!(engine.saturations(), 0, "admission never saturated");
    println!(
        "\n== {} tenants x {SOLVES_PER_TENANT} solves, all bit-identical ==",
        tenants.len()
    );
    for s in &pool_stats {
        println!(
            "  pool {}: {} worker(s), {} dispatches ({} stolen)",
            s.pool, s.workers, s.dispatches, s.steals
        );
    }
    println!(
        "  caller threads: {} sequential solves, no dispatch",
        SOLVES_PER_TENANT
    );
    println!("throughput surface verified: dispatch ledger and admission reconcile");
}
