//! Prints the plan-cache amortization curve on host threads:
//! per-call re-inspection vs. per-call planning vs. cached plans, for
//! 1 / 10 / 100 reuses of each Table 1 structure —
//! then the shared-engine concurrency headline: N threads solving through
//! one engine with the merged cache hit rate.
//!
//! Regenerate with `cargo run -p doacross-bench --release --bin amortize`.

use doacross_bench::amortize::{amortization_curve, concurrent_throughput};
use doacross_bench::report::Table;
use doacross_engine::Engine;
use doacross_par::ThreadPool;
use doacross_sparse::table1_problems;

fn main() {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get().min(8))
        .unwrap_or(4);
    let pool = ThreadPool::new(workers);
    println!("plan-cache amortization on {workers} host threads");
    println!("(total wall time for the whole solve sequence, per policy)\n");

    let mut table = Table::new([
        "problem",
        "reuses",
        "re-inspect",
        "cold plan",
        "cached",
        "cached speedup",
    ]);
    for problem in table1_problems() {
        let sys = problem.triangular_system();
        for point in amortization_curve(&pool, &sys, &[1, 10, 100]) {
            table.row(vec![
                sys.kind.name().into(),
                point.reuses.to_string(),
                format!("{:?}", point.reinspect),
                format!("{:?}", point.cold_plan),
                format!("{:?}", point.cached),
                format!("{:.2}x", point.speedup_vs_reinspect()),
            ]);
        }
    }
    print!("{}", table.render());

    println!("\nshared-engine concurrency (one engine, many solve threads):\n");
    let engine = Engine::builder()
        .workers(workers)
        .cache_capacity(16)
        .build();
    let mut concurrent = Table::new([
        "problem", "threads", "solves", "wall", "solves/s", "hit rate",
    ]);
    for problem in table1_problems() {
        let sys = problem.triangular_system();
        for threads in [1usize, 2, 4] {
            let r = concurrent_throughput(&engine, &sys, threads, 50);
            concurrent.row(vec![
                sys.kind.name().into(),
                r.threads.to_string(),
                r.solves.to_string(),
                format!("{:?}", r.elapsed),
                format!("{:.0}", r.solves_per_sec()),
                format!("{:.1}%", r.stats.hit_rate() * 100.0),
            ]);
        }
    }
    print!("{}", concurrent.render());
}
