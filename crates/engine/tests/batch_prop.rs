//! Property test: batched submission is observationally equivalent to
//! serial submission.
//!
//! For arbitrary mixes of Figure 4 shapes — sizes straddling the
//! sequential/parallel pricing boundary of the paper's Multimax preset
//! (named explicitly: this host's own model, the default, prices every
//! one of them sequential) so batches contain both coalesced and direct
//! jobs — [`doacross_engine::SolveBatch::execute_all`] must
//! produce exactly the outputs and per-job iteration counts of N
//! separate [`doacross_engine::PreparedLoop::execute`] calls.

use doacross_core::{AccessPattern, TestLoop};
use doacross_engine::Engine;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn execute_all_matches_n_serial_executes(
        shapes in proptest::collection::vec((20usize..900, 1usize..4, 2usize..10), 1..10)
    ) {
        let engine = Engine::builder()
            .workers(2)
            .cache_capacity(32)
            .planner(doacross_plan::Planner::new())
            .build();
        let loops: Vec<TestLoop> = shapes
            .iter()
            .map(|&(n, m, l)| TestLoop::new(n, m, l))
            .collect();
        let prepared: Vec<_> = loops
            .iter()
            .map(|l| engine.prepare(l).expect("plannable"))
            .collect();

        // Serial oracle: one execute per job, in submission order.
        let mut serial: Vec<Vec<f64>> = loops.iter().map(|l| l.initial_y()).collect();
        let mut serial_stats = Vec::new();
        for ((p, l), y) in prepared.iter().zip(&loops).zip(&mut serial) {
            serial_stats.push(p.execute(l, y).expect("valid"));
        }

        // Batched: same handles, same inputs, one execute_all.
        let mut batched: Vec<Vec<f64>> = loops.iter().map(|l| l.initial_y()).collect();
        let mut batch = engine.batch();
        for ((p, l), y) in prepared.iter().zip(&loops).zip(&mut batched) {
            batch.submit(p, l, y);
        }
        let results = engine.execute_all(batch);

        prop_assert_eq!(results.len(), loops.len());
        for (i, result) in results.iter().enumerate() {
            let stats = result.as_ref().expect("every job valid");
            prop_assert_eq!(stats.iterations, loops[i].iterations());
            prop_assert_eq!(stats.iterations, serial_stats[i].iterations);
            prop_assert!(stats.workers >= 1);
        }
        prop_assert_eq!(batched, serial);
    }
}
