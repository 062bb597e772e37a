//! Fault-contained execution end to end: deterministic fault injection
//! against a live engine.
//!
//! The `failpoint` shim arms a named site inside the parallel executor to
//! panic a worker at a chosen iteration. The example then shows the whole
//! containment story and asserts its own contract as it goes:
//!
//! 1. With the sequential fallback disabled, the injected panic surfaces
//!    as typed `EngineError::SolvePanicked` — no hang, no abort — and the
//!    same engine solves the same structure correctly on the very next
//!    call: the sub-pool was poisoned, drained, and reused.
//! 2. With the default `FallbackPolicy::SequentialRetry`, the same fault
//!    is absorbed: the engine replays the solve sequentially against the
//!    pristine input and delivers the oracle answer (`attempts == 2`).
//! 3. The fault is fully observable: `SolvePoisoned`/`SolveFellBack`
//!    trace events, `Panicked`/`FellBack` flight-recorder outcomes, and
//!    nonzero `doacross_fault_*` counters in the Prometheus scrape.
//! 4. A solve dragged past `EngineBuilder::solve_deadline` (a `DelayNs`
//!    failpoint on every iteration, fallback disabled) is aborted
//!    cooperatively and surfaces as typed `EngineError::SolveTimeout`,
//!    with `y` exactly as the caller passed it.
//!
//! Run: `cargo run --release --example chaos`

use preprocessed_doacross::core::seq::run_sequential;
use preprocessed_doacross::core::{AccessPattern, IndirectLoop};
use preprocessed_doacross::obs::SolveOutcome;
use preprocessed_doacross::plan::Planner;
use preprocessed_doacross::{Engine, EngineError, FallbackPolicy, TraceEvent};
use std::time::Duration;

/// A dependence-free scattered doall — priced by the paper's Multimax
/// preset the planner runs it as the flat preprocessed doacross, so a
/// mid-region worker panic exercises the poison protocol across the whole
/// pool.
fn victim() -> IndirectLoop {
    let n = 4_000;
    let a: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
    IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap()
}

const SITE: &str = "core::executor::iter";

fn main() {
    // The injected worker panic and the cooperative unwinds it triggers
    // (`abort_region`'s typed payloads) are all caught by the pool, but
    // the default panic hook would still splatter them over the demo
    // output.
    std::panic::set_hook(Box::new(|info| {
        let expected = info.to_string().contains("failpoint: injected panic")
            || info
                .location()
                .is_some_and(|l| l.file().contains("crates/par/src"));
        if !expected {
            eprintln!("{info}");
        }
    }));

    let loop_ = victim();
    let y0: Vec<f64> = (0..loop_.data_len())
        .map(|e| 1.0 + (e % 10) as f64 / 10.0)
        .collect();
    let mut oracle = y0.clone();
    run_sequential(&loop_, &mut oracle);

    // --- 1. Typed containment: fallback off, the fault reaches the caller.
    // Preset planner by name: a fault needs a parallel region, which host pricing may not pick.
    let strict = Engine::builder()
        .workers(4)
        .pools(1)
        .planner(Planner::new())
        .fallback(FallbackPolicy::Disabled)
        .observability_default()
        .build();

    failpoint::arm(SITE, failpoint::FailAction::PanicAt { iteration: 3_900 });
    let mut y = y0.clone();
    let err = strict.run(&loop_, &mut y).unwrap_err();
    println!("injected worker panic  -> {err}");
    assert!(
        matches!(err, EngineError::SolvePanicked { .. }),
        "expected SolvePanicked, got {err:?}"
    );
    failpoint::disarm(SITE);

    // The poisoned sub-pool was drained and released: the same engine
    // serves the same structure correctly on the very next call.
    let mut y = y0.clone();
    let stats = strict.run(&loop_, &mut y).unwrap();
    assert_eq!(y, oracle, "recovered solve matches the sequential oracle");
    println!(
        "next solve after fault -> ok ({} workers, attempts {})",
        stats.workers, stats.attempts
    );

    // --- 2. Graceful degradation: the default policy absorbs the fault.
    let engine = Engine::builder()
        .workers(4)
        .pools(1)
        .planner(Planner::new())
        .observability_default()
        .build();
    assert_eq!(engine.fallback_policy(), FallbackPolicy::SequentialRetry);

    failpoint::arm(SITE, failpoint::FailAction::PanicAt { iteration: 3_900 });
    let mut y = y0.clone();
    let stats = engine.run(&loop_, &mut y).unwrap();
    failpoint::disarm(SITE);
    assert_eq!(y, oracle, "fallback delivered the oracle answer");
    assert_eq!(stats.attempts, 2, "one faulted attempt, one replay");
    assert_eq!(stats.workers, 1, "the replay ran sequentially");
    println!(
        "same fault, default policy -> delivered via sequential fallback (attempts {})",
        stats.attempts
    );

    // --- 3. The fault is observable everywhere it should be.
    let events = engine.trace_events();
    assert!(events
        .iter()
        .any(|e| matches!(e.event, TraceEvent::SolvePoisoned { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e.event, TraceEvent::SolveFellBack { .. })));
    let outcomes: Vec<SolveOutcome> = engine.recent_solves().iter().map(|r| r.outcome).collect();
    assert!(outcomes.contains(&SolveOutcome::Panicked));
    assert!(outcomes.contains(&SolveOutcome::FellBack));
    println!("flight recorder outcomes -> {outcomes:?}");

    let scrape = engine.metrics_text();
    for needle in [
        "doacross_fault_panics_total 1",
        "doacross_fault_fallbacks_total 1",
    ] {
        assert!(scrape.contains(needle), "scrape missing `{needle}`");
        println!("scrape: {needle}");
    }

    // --- 4. A wedged solve resolves typed at its deadline: ~200 µs of
    // drag per iteration puts the region far past a 40 ms budget.
    let deadline = Duration::from_millis(40);
    let bounded = Engine::builder()
        .workers(4)
        .pools(1)
        .planner(Planner::new())
        .solve_deadline(deadline)
        .fallback(FallbackPolicy::Disabled)
        .build();
    failpoint::arm(SITE, failpoint::FailAction::DelayNs { ns: 200_000 });
    let mut y = y0.clone();
    let err = bounded.run(&loop_, &mut y).unwrap_err();
    failpoint::disarm(SITE);
    assert_eq!(err, EngineError::SolveTimeout { pool: 0, deadline });
    assert_eq!(y, y0, "a timed-out solve leaves y untouched");
    println!("wedged solve, {deadline:?} deadline -> {err}");

    println!("chaos example: all containment contracts held");
}
