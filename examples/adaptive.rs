//! Adaptive planning end to end: seed the engine with a deliberately
//! mispriced cost model, watch the feedback loop notice and fix it.
//!
//! The mispriced model prices busy-wait polls absurdly high and barriers
//! nearly free, so static selection picks the wavefront for a Table 1
//! triangular structure. The adaptive engine records every solve,
//! notices the observed cost diverging from the prediction, probes the
//! sequential baseline, refines the model from its own measurements, and
//! promotes the measured-cheaper variant — swapping the cached plan with
//! a generation bump, so handles prepared before the promotion fail
//! typed instead of running the superseded plan. Every solve before,
//! during, and after adaptation is asserted bit-identical to the
//! sequential oracle: adaptation is a pure performance decision.
//!
//! Run: `cargo run --release --example adaptive`

use preprocessed_doacross::core::seq::run_sequential;
use preprocessed_doacross::engine::EngineError;
use preprocessed_doacross::plan::Planner;
use preprocessed_doacross::sim::CostModel;
use preprocessed_doacross::sparse::{Problem, ProblemKind};
use preprocessed_doacross::trisolve::TriSolveLoop;
use preprocessed_doacross::Engine;

fn main() {
    let mispriced = CostModel {
        wait_poll: 500.0,
        barrier: 0.001,
        post_per_iter: 0.01,
        region_dispatch: 1.0,
        ..CostModel::multimax()
    };
    let engine = Engine::builder()
        .workers(2)
        .planner(Planner::with_costs(mispriced))
        .adaptive()
        .build();
    assert!(engine.is_adaptive());

    let sys = Problem::build(ProblemKind::FivePt).triangular_system();
    let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
    let mut oracle = vec![0.0; sys.n()];
    run_sequential(&loop_, &mut oracle);
    assert_eq!(oracle, sys.l.forward_solve(&sys.rhs));

    let before = engine.prepare(&loop_).expect("plannable");
    println!(
        "mispriced static pick for {} ({} rows): {}",
        ProblemKind::FivePt.name(),
        sys.n(),
        before.variant()
    );

    // The first evaluation comes at solve 12 and a trial needs 6 solves of
    // its own, so 40 solves reach a verdict with room to spare.
    const SOLVES: usize = 40;
    let mut last_samples = 0;
    for round in 1..=SOLVES {
        let mut y = vec![0.0; sys.n()];
        let stats = engine.run(&loop_, &mut y).expect("solvable");
        assert_eq!(y, oracle, "round {round}: bit-identical to the oracle");
        let samples = engine.telemetry_totals().expect("adaptive").samples;
        assert!(samples > last_samples, "telemetry grows every solve");
        last_samples = samples;
        if round == 1 || round == SOLVES {
            println!(
                "  solve {round:>2}: {:?} total, provenance {}, {} telemetry samples",
                stats.total, stats.provenance, samples
            );
        }
    }

    let stats = engine.adaptive_stats().expect("adaptive");
    let after = engine.prepare(&loop_).expect("plannable");
    println!(
        "after {SOLVES} solves: serving {}, {} repricings, {} baseline probes, \
         {} trials, {} promoted, {} demoted",
        after.variant(),
        stats.repricings,
        stats.baseline_probes,
        stats.trials,
        stats.promotions,
        stats.demotions
    );

    if stats.promotions > 0 {
        // The promotion retired the pre-adaptation handle: generation
        // bumped, stale executes fail typed, and the promoted plan still
        // computes the oracle bit for bit.
        assert!(before.is_stale(), "old handles observe the generation bump");
        let mut y = vec![0.0; sys.n()];
        match before.execute(&loop_, &mut y).unwrap_err() {
            EngineError::StalePlan { .. } => {}
            other => panic!("stale handle must fail typed, got {other}"),
        }
        let mut y = vec![0.0; sys.n()];
        after.execute(&loop_, &mut y).expect("promoted plan runs");
        assert_eq!(y, oracle, "promotion kept results bit-identical");
        println!(
            "promotion verified: {} -> {} (stale handles fail typed, results bit-identical)",
            before.variant(),
            after.variant()
        );
    } else {
        println!("no promotion fired on this host (prediction within the divergence band)");
    }
}
