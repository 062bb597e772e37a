//! The multi-pool scheduler end to end: one shared engine partitioned into
//! sub-pools serves four concurrent tenants, each solving its own
//! structure bit-identically to a sequential oracle.
//!
//! The example asserts its own contract as it goes: every tenant's result
//! matches the oracle, the scheduler's per-pool dispatch ledger accounts
//! for every solve — one dispatch each, nothing else dispatches — and
//! admission never saturated.
//!
//! Run: `cargo run --release --example throughput`

use preprocessed_doacross::core::seq::run_sequential;
use preprocessed_doacross::core::TestLoop;
use preprocessed_doacross::Engine;

fn main() {
    const TENANTS: usize = 4;

    // Two sub-pools of one worker each: enough to show real concurrent
    // dispatch on any host, including single-core CI runners.
    let engine = Engine::builder().workers(1).pools(2).build();
    println!(
        "engine: {} sub-pools x {} worker(s) = {} workers total, max_pending {}\n",
        engine.pools(),
        engine.threads(),
        engine.total_workers(),
        engine.max_pending()
    );

    // Four tenants, one engine: distinct structures (different sizes and
    // dependence shapes), prepared up front.
    let loops: Vec<TestLoop> = (0..TENANTS)
        .map(|t| TestLoop::new(600 + 150 * t, 1 + t % 2, 4 + 2 * t))
        .collect();
    let prepared: Vec<_> = loops
        .iter()
        .map(|l| engine.prepare(l).expect("plannable structure"))
        .collect();

    const SOLVES_PER_TENANT: usize = 50;
    std::thread::scope(|scope| {
        for (l, p) in loops.iter().zip(&prepared) {
            scope.spawn(move || {
                let mut oracle = l.initial_y();
                run_sequential(l, &mut oracle);
                for _ in 0..SOLVES_PER_TENANT {
                    let mut y = l.initial_y();
                    p.execute(l, &mut y).expect("valid solve");
                    assert_eq!(y, oracle, "tenant result differs from oracle");
                }
            });
        }
    });

    // Every solve passed through the scheduler's admission gate, and the
    // per-pool ledger accounts for each one.
    let expected = (TENANTS * SOLVES_PER_TENANT) as u64;
    let pool_stats = engine.pool_stats();
    let dispatched: u64 = pool_stats.iter().map(|s| s.dispatches).sum();
    assert_eq!(dispatched, expected, "dispatch ledger covers every solve");
    assert_eq!(engine.saturations(), 0, "admission never saturated");
    println!("== {TENANTS} tenants x {SOLVES_PER_TENANT} solves, all bit-identical ==");
    for s in &pool_stats {
        println!(
            "  pool {}: {} worker(s), {} dispatches ({} stolen)",
            s.pool, s.workers, s.dispatches, s.steals
        );
    }
    println!("throughput surface verified: dispatch ledger and admission reconcile");
}
