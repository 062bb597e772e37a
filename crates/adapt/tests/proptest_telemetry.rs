//! Property tests of the telemetry recorder's invariants — including
//! under concurrent recorders, where the per-key accumulators must behave
//! exactly as if the same multiset of samples had arrived sequentially
//! (counts, sums, minimum) and the order-dependent EWMA must stay inside
//! the sample hull.

use doacross_adapt::{SolveSample, TelemetryEntry, VariantTelemetry};
use doacross_core::IndirectLoop;
use doacross_obs::ObsVariant;
use doacross_plan::PatternFingerprint;
use proptest::prelude::*;
use std::sync::Arc;

fn fingerprint(n: usize) -> PatternFingerprint {
    let a: Vec<usize> = (0..n).collect();
    PatternFingerprint::of(&IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap())
}

fn arb_samples(max: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((1_000u64..2_000_000, 0u64..500), 1..=max)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn sequential_recording_matches_a_hand_rolled_reference(samples in arb_samples(64)) {
        let telemetry = VariantTelemetry::new(4);
        let key = fingerprint(17);
        for &(ns, polls) in &samples {
            telemetry.record(&key, ObsVariant::Doacross, SolveSample {
                ns,
                wait_polls: polls,
                barriers: 0,
                terms: 321,
                pred_units: 800.0,
                work_units: 750.0,
            });
        }
        let e = telemetry.get(&key, ObsVariant::Doacross).expect("recorded");
        prop_assert_eq!(e.samples, samples.len() as u64);
        prop_assert_eq!(e.min_ns, samples.iter().map(|s| s.0).min().unwrap());
        prop_assert_eq!(e.last_ns, samples.last().unwrap().0);
        prop_assert_eq!(e.wait_polls, samples.iter().map(|s| s.1).sum::<u64>());
        let sum_ns: f64 = samples.iter().map(|s| s.0 as f64).sum();
        prop_assert!((e.sum_ns - sum_ns).abs() <= 1e-6 * sum_ns.max(1.0));
        // EWMA lives inside the sample hull.
        let lo = samples.iter().map(|s| s.0).min().unwrap() as f64;
        let hi = samples.iter().map(|s| s.0).max().unwrap() as f64;
        prop_assert!(e.ewma_ns >= lo && e.ewma_ns <= hi, "{} not in [{lo}, {hi}]", e.ewma_ns);
        // The persisted mirror is lossless.
        let stored = e.to_stored(key, ObsVariant::Doacross);
        let (_, _, back) = TelemetryEntry::from_stored(&stored).unwrap();
        prop_assert_eq!(back, e);
    }

    #[test]
    fn concurrent_recording_preserves_order_independent_invariants(
        per_thread in arb_samples(40),
        threads in 2usize..=4,
    ) {
        // Every thread deposits the same sample list into the same keys;
        // the order-independent accumulators must equal the sequential
        // reference scaled by the thread count, exactly.
        let telemetry = Arc::new(VariantTelemetry::new(2));
        let keys: Arc<Vec<PatternFingerprint>> = Arc::new((3..6).map(fingerprint).collect());
        let samples = Arc::new(per_thread);
        let handles: Vec<_> = (0..threads).map(|_| {
            let (telemetry, keys, samples) = (
                Arc::clone(&telemetry), Arc::clone(&keys), Arc::clone(&samples));
            std::thread::spawn(move || {
                for (i, &(ns, polls)) in samples.iter().enumerate() {
                    telemetry.record(&keys[i % keys.len()], ObsVariant::Reordered, SolveSample {
                        ns,
                        wait_polls: polls,
                        barriers: 0,
                        terms: 50,
                        pred_units: 100.0,
                        work_units: 90.0,
                    });
                }
            })
        }).collect();
        for h in handles {
            h.join().unwrap();
        }

        let totals = telemetry.totals();
        prop_assert_eq!(totals.samples, (threads * samples.len()) as u64);
        for (k, key) in keys.iter().enumerate() {
            let slice: Vec<&(u64, u64)> = samples
                .iter().skip(k).step_by(keys.len()).collect();
            let Some(e) = telemetry.get(key, ObsVariant::Reordered) else {
                prop_assert!(slice.is_empty());
                continue;
            };
            prop_assert_eq!(e.samples, (threads * slice.len()) as u64);
            prop_assert_eq!(e.min_ns, slice.iter().map(|s| s.0).min().unwrap());
            prop_assert_eq!(e.wait_polls,
                threads as u64 * slice.iter().map(|s| s.1).sum::<u64>());
            let sum_ns: f64 = threads as f64 * slice.iter().map(|s| s.0 as f64).sum::<f64>();
            prop_assert!((e.sum_ns - sum_ns).abs() <= 1e-6 * sum_ns.max(1.0));
            let lo = slice.iter().map(|s| s.0).min().unwrap() as f64;
            let hi = slice.iter().map(|s| s.0).max().unwrap() as f64;
            prop_assert!(e.ewma_ns >= lo && e.ewma_ns <= hi);
            // `last_ns` is *some* thread's final deposit for this key.
            prop_assert!(slice.iter().any(|s| s.0 == e.last_ns));
        }
    }
}
