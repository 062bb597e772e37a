//! Sparse triangular solve (the paper's §3.2 application): generate a
//! Table 1 problem, ILU(0)-factor it, and solve it every way the
//! evaluation compares — sequential, preprocessed doacross,
//! doconsider-rearranged doacross, strip-mined doacross, and the
//! engine's cached plan — verifying they agree bit for bit.
//!
//! Run: `cargo run --release --example triangular [spe2|spe5|5pt|7pt|9pt]`
//! (default: 5pt)

use preprocessed_doacross::core::{Doacross, PlanProvenance};
use preprocessed_doacross::doconsider::{
    is_topological_order, reorder::order_from_levels, DependenceDag, LevelAssignment,
};
use preprocessed_doacross::plan::CensusPass;
use preprocessed_doacross::sparse::{Problem, ProblemKind};
use preprocessed_doacross::trisolve::{seq::solve_sequential, verify::assert_solves, TriSolveLoop};
use preprocessed_doacross::Engine;
use std::time::Instant;

fn main() {
    let kind = match std::env::args().nth(1).as_deref() {
        Some("spe2") => ProblemKind::Spe2,
        Some("spe5") => ProblemKind::Spe5,
        Some("7pt") => ProblemKind::SevenPt,
        Some("9pt") => ProblemKind::NinePt,
        _ => ProblemKind::FivePt,
    };

    println!(
        "building {} (as specified in the paper's appendix)...",
        kind.name()
    );
    let problem = Problem::build(kind);
    let sys = problem.triangular_system();
    println!(
        "  A: {} equations; L factor: {} strictly-lower nonzeros",
        sys.n(),
        sys.l.nnz()
    );

    // One engine: its pool serves the runtime below, and its plan cache
    // serves the engine-cached solves.
    let engine = Engine::builder().build();
    let workers = engine.threads();
    let pool = engine.pool();

    // 1. Sequential (Figure 7 verbatim).
    let y_seq = solve_sequential(&sys.l, &sys.rhs);
    assert_solves(&sys.l, &y_seq, &sys.rhs, 1e-10);

    // 2. Preprocessed doacross, natural row order: the identity subscript
    // is the §2.3 linear variant, so there is no inspector.
    let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
    let mut runtime = Doacross::new(sys.n());
    let mut y_plain = vec![0.0; sys.n()];
    let stats_plain = runtime
        .run_linear(pool, &loop_, &mut y_plain, TriSolveLoop::subscript())
        .expect("valid");
    assert_eq!(y_plain, y_seq, "doacross == sequential, bitwise");
    println!("\npreprocessed doacross ({workers} workers): {stats_plain}");

    // 3. Doconsider-rearranged doacross: rows claimed in wavefront order,
    // which enters the runtime as a claim stream (a `Reordered` plan's
    // artifact) and runs on the executor plans run.
    let start = Instant::now();
    let dag = DependenceDag::build(&loop_);
    let levels = LevelAssignment::compute(&dag);
    let order = order_from_levels(&levels);
    assert!(is_topological_order(&dag, &order));
    let stream = CensusPass::of(&loop_)
        .stream(&loop_, Some(&order), None)
        .expect("an injective, in-bounds system");
    println!(
        "\ndoconsider plan: {} wavefronts (critical path), avg parallelism {:.1}, planned in {:?}",
        levels.critical_path(),
        levels.average_parallelism(),
        start.elapsed()
    );
    let mut y_re = vec![0.0; sys.n()];
    let stats_re = runtime
        .run_planned(pool, &loop_, &mut y_re, &stream, Some(1), None)
        .expect("valid");
    assert_eq!(y_re, y_seq, "rearranged == sequential, bitwise");
    println!("rearranged doacross:  {stats_re}");
    println!(
        "stall reduction: {} -> {} ({}x)",
        stats_plain.stalls,
        stats_re.stalls,
        if stats_re.stalls > 0 {
            stats_plain.stalls / stats_re.stalls.max(1)
        } else {
            stats_plain.stalls
        }
    );

    // 4. Strip-mined: 256 rows per block, scratch the size of a block.
    let mut y_blocked = vec![0.0; sys.n()];
    let stats_blocked = Doacross::new(0)
        .run_blocked(pool, &loop_, &mut y_blocked, 256)
        .expect("valid");
    assert_eq!(y_blocked, y_seq, "strip-mined == sequential, bitwise");
    println!("strip-mined doacross: {stats_blocked}");

    // 5. Engine-cached: the cost model picks the variant, the plan is
    // cached, and the second solve skips preprocessing entirely.
    // The engine times a sequential solve only when something in it
    // consumes the time, so the caller times the calls.
    let mut y_eng = vec![0.0; sys.n()];
    let started = Instant::now();
    let cold = engine.run(&loop_, &mut y_eng).expect("valid");
    let cold_wall = started.elapsed();
    assert_eq!(y_eng, y_seq, "engine == sequential, bitwise");
    let started = Instant::now();
    let hot = engine.run(&loop_, &mut y_eng).expect("valid");
    let hot_wall = started.elapsed();
    assert_eq!(cold.provenance, PlanProvenance::PlanCold);
    assert_eq!(hot.provenance, PlanProvenance::PlanCached);
    println!(
        "\nengine, plan cached: cold {cold_wall:?} -> cached {hot_wall:?} (inspector {:?})",
        hot.inspector
    );

    // The manufactured solution lets us check accuracy end to end.
    let max_err = y_seq
        .iter()
        .zip(&sys.solution)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("\nmax |y - manufactured solution| = {max_err:.2e}");
    println!("all solvers agree bit for bit.");
}
