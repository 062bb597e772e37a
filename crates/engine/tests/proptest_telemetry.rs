//! Property test of the adaptive engine's telemetry under concurrent
//! solves: however the threads interleave (with each other, with
//! evaluations and with trials), the per-structure entries hold exactly
//! one sample per delivered solve plus one per sequential anchor, and
//! exactly the structures that were solved.

use doacross_core::{seq::run_sequential, AccessPattern, IndirectLoop};
use doacross_engine::{Engine, EngineError};
use doacross_plan::{testgrid::deep_grid, Planner};
use doacross_sim::CostModel;
use proptest::prelude::*;

/// Three structures of distinct shapes, hence distinct fingerprints.
fn structures() -> [IndirectLoop; 3] {
    [
        deep_grid(2, 60, 1, 1),
        deep_grid(3, 40, 1, 1),
        deep_grid(8, 10, 1, 1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_recording_preserves_order_independent_invariants(
        per_thread in proptest::collection::vec(0usize..3, 1..=24),
        threads in 2usize..=4,
    ) {
        // Every thread delivers the same list of solves; the totals must
        // equal the sequential count scaled by the thread count, exactly.
        let engine = Engine::builder()
            .workers(2)
            .planner(Planner::with_costs(CostModel::multimax()))
            .adaptive()
            .build();
        let loops = structures();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let (engine, loops, per_thread) = (&engine, &loops, &per_thread);
                scope.spawn(move || {
                    for &s in per_thread {
                        let loop_ = &loops[s];
                        let y0 = vec![1.0; loop_.data_len()];
                        let mut expect = y0.clone();
                        run_sequential(loop_, &mut expect);
                        loop {
                            let mut y = y0.clone();
                            match engine.run(loop_, &mut y) {
                                Ok(_) => {
                                    assert_eq!(y, expect);
                                    break;
                                }
                                // A trial swapped the plan between prepare
                                // and execute: nothing ran, prepare again.
                                Err(EngineError::StalePlan { .. }) => {}
                                Err(err) => panic!("{err:?}"),
                            }
                        }
                    }
                });
            }
        });

        let stats = engine.adaptive_stats().expect("adaptive engine");
        let totals = engine.telemetry_totals().expect("adaptive engine");
        prop_assert_eq!(
            totals.samples,
            (threads * per_thread.len()) as u64 + stats.baseline_probes + stats.fallbacks
        );
        let mut solved = per_thread.clone();
        solved.sort_unstable();
        solved.dedup();
        prop_assert_eq!(totals.structures, solved.len());
        // Each solved structure holds at least its own variant's entry.
        prop_assert!(totals.entries >= totals.structures, "{:?}", totals);
    }
}
