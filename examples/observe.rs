//! The observability layer end to end: an instrumented engine runs a
//! mixed workload — several structures (including one deep enough that
//! the cost model picks the wavefront variant), cached reruns, an
//! invalidation, and a save/load cycle — then prints the flight recorder,
//! a slice of the trace, and the full Prometheus scrape.
//!
//! The example asserts its own contract as it goes: the scrape covers
//! cache traffic and per-variant latency histograms with numbers that
//! reconcile against the engine's counters, and the flight recorder holds
//! the solves just executed, newest last.
//!
//! Run: `cargo run --release --example observe`

use preprocessed_doacross::core::TestLoop;
use preprocessed_doacross::obs::PlanProvenance;
use preprocessed_doacross::sparse::{ilu0, stencil::seven_point, TriangularMatrix};
use preprocessed_doacross::trisolve::TriSolveLoop;
use preprocessed_doacross::Engine;

fn main() {
    let engine = Engine::builder()
        .workers(4)
        .cache_capacity(16)
        .observability_default()
        .build();
    assert!(engine.observability_enabled());

    // --- 1. Mixed workload. ----------------------------------------------
    // Flat chains of different depths (flag-based variants) ...
    let loops: Vec<TestLoop> = [(2_000usize, 7usize), (1_500, 8), (2_500, 14)]
        .iter()
        .map(|&(n, l)| TestLoop::new(n, 1, l))
        .collect();
    let mut solves = 0u64;
    for _ in 0..3 {
        for l in &loops {
            let mut y = l.initial_y();
            engine.run(l, &mut y).expect("valid loop");
            solves += 1;
        }
    }
    // ... plus a deep triangular structure the cost model runs as
    // counter-separated level doalls.
    let a = seven_point(12, 12, 6, 2026);
    let l_factor = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
    let rhs = vec![1.0; l_factor.n()];
    let tri = TriSolveLoop::new(&l_factor, &rhs);
    for _ in 0..2 {
        let mut y = vec![0.0; l_factor.n()];
        engine.run(&tri, &mut y).expect("valid solve");
        solves += 1;
    }

    // An invalidation and a persistence round trip, so those series have
    // traffic too.
    let fp = preprocessed_doacross::plan::PatternFingerprint::of(&loops[0]);
    assert!(engine.invalidate(&fp));
    let store = std::env::temp_dir().join(format!("observe-{}.plans", std::process::id()));
    let saved = engine.save_plans(&store).expect("save");
    let restored = engine.load_plans(&store).expect("load");
    let _ = std::fs::remove_file(&store);
    println!(
        "workload: {solves} solves, 1 invalidation, saved {saved} / restored {restored} plans\n"
    );

    // --- 2. The flight recorder. -----------------------------------------
    let recent = engine.recent_solves();
    assert_eq!(recent.len() as u64, solves, "every solve was recorded");
    assert_eq!(
        recent.last().unwrap().provenance,
        PlanProvenance::PlanCached,
        "the rerun of the triangular structure was cache-served"
    );
    println!("== flight recorder (last {} solves) ==", recent.len());
    for s in recent.iter().rev().take(5) {
        println!(
            "  {} variant={:<10} plan:{:<11} total={}ns polls={} barriers={}",
            s.fp,
            s.variant.as_str(),
            s.provenance.as_str(),
            s.total_ns,
            s.wait_polls,
            s.barrier_crossings
        );
    }

    // --- 3. The trace ring. ----------------------------------------------
    let events = engine.trace_events();
    println!("\n== trace ({} events retained) ==", events.len());
    for e in events.iter().take(6) {
        println!("  seq={:<3} +{:>9}ns {}", e.seq, e.at_ns, e.event.kind());
    }
    println!("  ...");

    // --- 4. The Prometheus scrape. ---------------------------------------
    let text = engine.metrics_text();
    let stats = engine.cache_stats();
    assert!(text.contains(&format!("doacross_cache_hits_total {}", stats.hits)));
    assert!(text.contains(&format!("doacross_cache_misses_total {}", stats.misses)));
    assert!(text.contains("# TYPE doacross_solve_ns histogram"));
    assert!(text.contains("doacross_solves_total{variant="));
    assert!(text.contains("doacross_cache_invalidations_total 1"));
    assert!(text.contains("doacross_store_saves_total 1"));
    let total_solves: u64 = text
        .lines()
        .filter(|l| l.starts_with("doacross_solves_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(total_solves, solves, "scrape covers every solve");
    println!("\n== metrics_text() ==\n{text}");
    println!("observability surface verified: flight recorder, trace, scrape all reconcile");
}
