//! The engine end to end: fingerprint → cost-model variant selection →
//! concurrent plan cache → preprocessing-free reruns from many
//! threads — plus invalidation retiring stale handles.
//!
//! ```bash
//! cargo run --release --example plan_cache
//! ```

use preprocessed_doacross::core::{PlanProvenance, TestLoop};
use preprocessed_doacross::plan::PatternFingerprint;
use preprocessed_doacross::sparse::{ilu0, stencil::five_point, TriangularMatrix};
use preprocessed_doacross::trisolve::TriSolveLoop;
use preprocessed_doacross::{Engine, EngineError};
use std::time::Instant;

fn main() {
    let engine = Engine::builder().workers(4).cache_capacity(16).build();

    // --- 1. What does the planner decide, and why? -----------------------
    println!("== variant selection across dependence structures ==");
    for (name, l) in [
        ("doall (odd L)", 7usize),
        ("distance-1 chain (L=4)", 4),
        ("stretched deps (L=14)", 14),
    ] {
        let loop_ = TestLoop::new(2_000, 1, l);
        let prepared = engine.prepare(&loop_).expect("plannable");
        let census = prepared.plan().census();
        let why = if census.is_classified() {
            format!(
                "critical path {}, avg parallelism {:.1}",
                census.critical_path,
                census.average_parallelism()
            )
        } else {
            "settled on its reference counts".to_string()
        };
        println!("  {name:<22} -> {} ({why})", prepared.variant());
    }

    // --- 2. Cold plan, then cached reruns. -------------------------------
    println!("\n== plan cache on the Figure 4 loop ==");
    let loop_ = TestLoop::new(10_000, 2, 8);
    for round in 0..3 {
        let mut y = loop_.initial_y();
        let started = Instant::now();
        let stats = engine.run(&loop_, &mut y).expect("valid loop");
        let wall = started.elapsed();
        println!(
            "  run {round}: preprocessing {} (inspector {:?}, wall {wall:?})",
            stats.provenance, stats.inspector,
        );
        assert_eq!(
            stats.provenance,
            if round == 0 {
                PlanProvenance::PlanCold
            } else {
                PlanProvenance::PlanCached
            }
        );
    }

    // --- 3. Many threads, one engine: the redesign's point. --------------
    println!("\n== 4 threads executing one prepared handle ==");
    let prepared = engine.prepare(&loop_).expect("cached");
    let expect = {
        let mut y = loop_.initial_y();
        preprocessed_doacross::core::seq::run_sequential(&loop_, &mut y);
        y
    };
    std::thread::scope(|scope| {
        for t in 0..4 {
            let handle = prepared.clone();
            let (loop_, expect) = (&loop_, &expect);
            scope.spawn(move || {
                let mut y = loop_.initial_y();
                handle.execute(loop_, &mut y).expect("valid");
                assert_eq!(&y, expect, "thread {t}");
            });
        }
    });
    let s = engine.cache_stats();
    println!(
        "  all bit-identical; cache {} hits / {} misses, {} plans held (hit rate {:.0}%)",
        s.hits,
        s.misses,
        engine.cache_len(),
        s.hit_rate() * 100.0
    );

    // --- 4. The fingerprint is structural: values don't matter. ----------
    println!("\n== fingerprints are value-blind ==");
    let a = five_point(16, 16, 1);
    let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
    let rhs1 = vec![1.0; l.n()];
    let rhs2: Vec<f64> = (0..l.n()).map(|i| (i % 5) as f64).collect();
    let (system1, system2) = (TriSolveLoop::new(&l, &rhs1), TriSolveLoop::new(&l, &rhs2));
    let fp = PatternFingerprint::of(&system1);
    println!("  L factor fingerprint: {fp}");

    let (mut y1, mut y2) = (vec![0.0; l.n()], vec![0.0; l.n()]);
    let cold = engine.run(&system1, &mut y1).expect("valid system");
    let hot = engine.run(&system2, &mut y2).expect("valid system");
    assert_eq!(y1, l.forward_solve(&rhs1));
    assert_eq!(y2, l.forward_solve(&rhs2));
    println!(
        "  solve(rhs1): {} | solve(rhs2): {} (same structure, plan reused)",
        cold.provenance, hot.provenance
    );

    // --- 5. Invalidation retires stale handles, typed. -------------------
    println!("\n== invalidation fails stale handles fast ==");
    let handle = engine.prepare(&system1).expect("cached");
    engine.invalidate(handle.fingerprint());
    let mut y = vec![0.0; l.n()];
    match handle.execute(&system1, &mut y) {
        Err(EngineError::StalePlan {
            prepared_generation,
            current_generation,
            ..
        }) => println!(
            "  stale handle rejected (generation {prepared_generation} < {current_generation}); \
             re-prepare to rebuild"
        ),
        other => panic!("expected StalePlan, got {other:?}"),
    }
    let fresh = engine.prepare(&system1).expect("replanned");
    fresh.execute(&system1, &mut y).expect("fresh handle works");
    assert_eq!(y, l.forward_solve(&rhs1));
    println!(
        "  fresh handle (generation {}) solves again.",
        fresh.generation()
    );
}
