//! Inside the doconsider transformation: visualize the wavefront structure
//! of a triangular system, how reordering changes the claim sequence, and
//! the engine *executing* the level structure directly — the wavefront
//! variant, with zero busy-wait polls.
//!
//! Prints the level histogram of a small ILU(0) factor, the natural vs.
//! doconsider claim orders, the simulated 16-processor schedules of both
//! (showing where the paper's Table 1 gap comes from), and then runs a
//! deep 7-point structure through an engine pricing with the paper's
//! Multimax preset, asserting that the cost model selects the wavefront
//! variant on its own and that the run reports `wait_polls == 0`.
//!
//! Run: `cargo run --release --example wavefront`
//!
//! With a store path argument the engine warm-starts from (and saves to)
//! that plan store, so a second run's first solve is `plan:cached` — the
//! CI smoke that a wavefront plan, level offsets included, survives a
//! restart through the plan store:
//! `cargo run --release --example wavefront -- /tmp/wavefront.plans`

use preprocessed_doacross::core::seq::run_sequential;
use preprocessed_doacross::core::PlanProvenance;
use preprocessed_doacross::doconsider::{
    level_histogram, reorder::order_from_levels, DependenceDag, LevelAssignment,
};
use preprocessed_doacross::plan::{detect_linear, CensusPass, PlanVariant, Planner};
use preprocessed_doacross::sim::Machine;
use preprocessed_doacross::sparse::{
    ilu0, stencil::five_point, stencil::seven_point, TriangularMatrix,
};
use preprocessed_doacross::trisolve::TriSolveLoop;
use preprocessed_doacross::{Engine, PlanStore};

fn main() {
    // Small enough that the level map fits a terminal, large enough that
    // the simulated schedules show the reordering effect.
    let (nx, ny) = (16usize, 12usize);
    let a = five_point(nx, ny, 2026);
    let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
    println!(
        "ILU(0) L factor of a {nx}x{ny} five-point operator: {} rows, {} deps\n",
        l.n(),
        l.nnz()
    );

    let dag = DependenceDag::from_predecessors(l.n(), |i| l.row_cols(i).iter().copied());
    let levels = LevelAssignment::compute(&dag);
    let hist = level_histogram(&levels);
    println!(
        "wavefront levels (critical path = {}):",
        levels.critical_path()
    );
    for (k, width) in hist.iter().enumerate() {
        println!("  level {:>2}: {}", k + 1, "#".repeat(*width));
    }

    println!("\nlevel of each grid row (rows = grid y, columns = grid x):");
    for y in 0..ny {
        let row: Vec<String> = (0..nx)
            .map(|x| format!("{:>3}", levels.level(y * nx + x)))
            .collect();
        println!("  {}", row.join(""));
    }
    println!("  (each point's level = 1 + max(level of W and S neighbors) — diagonal wavefronts)");

    let order = order_from_levels(&levels);
    println!("\nnatural claim order : 0 1 2 3 ... (row-major; consecutive claims are dependent)");
    let shown = 16.min(order.len());
    let head: Vec<String> = order[..shown].iter().map(|i| i.to_string()).collect();
    println!(
        "doconsider order    : {} ... (wavefront-major; consecutive claims independent)",
        head.join(" ")
    );

    // What the 16-processor machine does with each order.
    let rhs = vec![1.0; l.n()];
    let loop_ = TriSolveLoop::new(&l, &rhs);
    let machine = Machine::multimax();
    let opts = preprocessed_doacross::sim::SimOptions {
        include_inspector: false,
        light_post: true,
        chunk: 1,
    };
    let natural = machine.simulate_doacross(&loop_, None, opts);
    let reordered = machine.simulate_doacross(&loop_, Some(&order), opts);
    println!("\nsimulated Multimax/320 (16 processors):");
    println!("  natural    : {natural}");
    println!("  doconsider : {reordered}");
    println!(
        "\nreordering removed {} of {} stalls and cut T_par by {:.1}%.",
        natural.stalls - reordered.stalls,
        natural.stalls,
        100.0 * (1.0 - reordered.t_par / natural.t_par)
    );

    // What the engine's cost model concludes about the same structure on
    // the host. A host-priced plan usually stops at the planner's floor —
    // `sequential` settled from the census, nothing else priced — so the
    // candidates (the doconsider order is one of them) are priced here by
    // calling the planner's pricing stage directly.
    let engine = Engine::builder().build();
    let prepared = engine.prepare(&loop_).expect("plannable");
    println!(
        "\nengine plan for this structure ({} workers): {}{}",
        engine.threads(),
        prepared.variant(),
        if prepared.plan().is_gated() {
            " (settled at the parallel floor; no candidate priced)"
        } else {
            ""
        }
    );
    let costs = engine
        .planner()
        .price(
            &loop_,
            &CensusPass::of(&loop_),
            detect_linear(&loop_),
            engine.threads(),
        )
        .costs;
    println!(
        "  priced candidates: sequential {:.0}, doacross {:?}, reordered {:?}, wavefront {:?}",
        costs.sequential,
        costs.doacross.map(|c| c.round()),
        costs.reordered.map(|c| c.round()),
        costs.wavefront.map(|c| c.round()),
    );

    // ------------------------------------------------------------------
    // Executing the level structure: the wavefront variant. A deep 7-point
    // ILU(0) factor has many true dependencies but few levels relative to
    // its size, so at a multicore worker count the cost model converts the
    // doacross into counter-separated level doalls on its own.
    // Preset planner by name: host pricing (the default, printed above) may keep it sequential.
    let store = std::env::args().nth(1);
    let a3d = seven_point(20, 20, 20, 7);
    let l3d = TriangularMatrix::from_strict_lower(&ilu0(&a3d).l);
    let rhs3d: Vec<f64> = (0..l3d.n()).map(|i| 1.0 + (i % 11) as f64 * 0.25).collect();
    let deep = TriSolveLoop::new(&l3d, &rhs3d);

    let mut builder = Engine::builder().workers(4).planner(Planner::new());
    if let Some(path) = &store {
        builder = builder.warm_start(path);
    }
    let engine = builder.build();

    let prepared = engine.prepare(&deep).expect("plannable");
    assert_eq!(
        prepared.variant(),
        PlanVariant::Wavefront,
        "cost model must pick the wavefront on its own: {:?}",
        prepared.plan().costs()
    );
    let schedule = prepared.plan().stream().expect("carries its claim stream");

    let mut y = vec![0.0; l3d.n()];
    let stats = prepared.execute(&deep, &mut y).expect("valid system");
    let mut oracle = vec![0.0; l3d.n()];
    run_sequential(&deep, &mut oracle);
    assert_eq!(y, oracle, "bit-identical to the sequential solve");
    assert_eq!(stats.wait_polls, 0, "no ready-flag polling, ever");
    assert_eq!(stats.stalls, 0);
    assert!(matches!(
        stats.provenance,
        PlanProvenance::PlanCold | PlanProvenance::PlanCached
    ));

    println!(
        "\nwavefront execution of a 20x20x20 seven-point L factor ({} rows):",
        l3d.n()
    );
    println!(
        "  variant {} with {} levels (max width {}), preprocessing {}",
        prepared.variant(),
        schedule.level_count(),
        schedule.max_width(),
        stats.provenance,
    );
    println!(
        "  {} true dependencies resolved with {} wait polls in {:?}",
        stats.deps.true_deps, stats.wait_polls, stats.total,
    );

    if let Some(path) = &store {
        let saved = engine.save_plans(path).expect("store writable");
        // What the next run restores: this wavefront plan, level offsets
        // included.
        let stored = PlanStore::load(path).expect("a store just written loads");
        let levels = stored
            .plans()
            .find(|plan| plan.fingerprint() == prepared.fingerprint())
            .and_then(|plan| plan.stream())
            .map(|stream| stream.level_count());
        assert_eq!(
            levels,
            Some(schedule.level_count()),
            "stored wavefront plan"
        );
        println!("  saved {saved} plan(s) to {path} (run again for a warm start)");
    }
}
