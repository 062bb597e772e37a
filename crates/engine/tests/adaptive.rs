//! Integration tests of the adaptive feedback loop: telemetry growth,
//! divergence-triggered promotion to the measured-cheaper variant,
//! generation-bump staleness, learned-state persistence (v3), and the
//! v2 → v3 store-version regression.

use doacross_core::{seq::run_sequential, AccessPattern, IndirectLoop, TestLoop};
use doacross_engine::{
    AdaptiveConfig, Engine, EngineError, ObsVariant, PersistError, TelemetryEntry, TraceEvent,
};
use doacross_plan::{PatternFingerprint, PlanVariant, Planner};
use doacross_sim::CostModel;

/// The engine's telemetry as its snapshot stores it, read back through
/// the stored-record decoder: one `(structure, variant, entry)` row per
/// accumulator, in recorder order (empty for a static engine).
fn telemetry(engine: &Engine) -> Vec<(PatternFingerprint, ObsVariant, TelemetryEntry)> {
    engine
        .snapshot()
        .telemetry()
        .iter()
        .filter_map(TelemetryEntry::from_stored)
        .collect()
}

/// One `(structure, variant)` accumulator of [`telemetry`], if observed.
fn telemetry_of(
    engine: &Engine,
    fp: &PatternFingerprint,
    kind: ObsVariant,
) -> Option<TelemetryEntry> {
    telemetry(engine)
        .into_iter()
        .find(|(f, k, _)| f == fp && *k == kind)
        .map(|(_, _, entry)| entry)
}

/// The value of an unlabelled counter in a `metrics_text` scrape.
fn scraped(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from the scrape"))
        .parse()
        .unwrap()
}

/// A deliberately mispriced cost model: busy-wait polls priced absurdly
/// expensive (so every flag-based variant is off the table) and barriers
/// plus pre/post overheads priced nearly free (so the wavefront looks
/// unbeatable). On the narrow-deep structure below, the *measured* truth
/// is the opposite: hundreds of barrier crossings per solve dwarf the
/// tiny sequential loop.
fn mispriced() -> CostModel {
    CostModel {
        wait_poll: 500.0,
        barrier: 0.001,
        post_per_iter: 0.01,
        region_dispatch: 1.0,
        ..CostModel::multimax()
    }
}

/// Narrow-and-deep dependence grid: 2 columns, 300 wavefront levels. A
/// barrier-per-level executor pays 299 real crossings per solve for 600
/// tiny iterations — measurably catastrophic next to the sequential loop
/// on any host, which is exactly what the mispriced model denies.
fn narrow_deep() -> IndirectLoop {
    doacross_plan::testgrid::deep_grid(2, 300, 1, 1)
}

fn fast_adaptive() -> AdaptiveConfig {
    AdaptiveConfig {
        min_samples: 4,
        eval_interval: 5,
        divergence: 1.3,
        hysteresis: 1.05,
        max_trials: 3,
        confidence: 4,
    }
}

#[test]
fn mispriced_model_promotes_to_the_measured_cheaper_variant() {
    let loop_ = narrow_deep();
    let engine = Engine::builder()
        .workers(2)
        .planner(Planner::with_costs(mispriced()))
        .adaptive_config(fast_adaptive())
        .observability_default()
        .build();
    assert!(engine.is_adaptive());

    // The mispriced model statically selects the wavefront.
    let first = engine.prepare(&loop_).expect("plannable");
    assert_eq!(
        first.variant(),
        PlanVariant::Wavefront,
        "seeded mispricing must pick the wavefront: {:?}",
        first.plan().costs()
    );
    let generation_at_start = first.generation();

    let y0 = vec![1.0; loop_.data_len()];
    let mut expect = y0.clone();
    run_sequential(&loop_, &mut expect);

    // Solve repeatedly; every result must stay bit-identical to the
    // oracle regardless of what adaptation does underneath.
    for round in 0..40 {
        let mut y = y0.clone();
        engine.run(&loop_, &mut y).expect("solvable");
        assert_eq!(y, expect, "round {round} diverged from the oracle");
    }

    // Telemetry grew: one entry per executed variant, >= 40 solves plus
    // the sequential baseline probe.
    let totals = engine.telemetry_totals().expect("adaptive engine");
    assert!(totals.samples >= 41, "{totals:?}");
    assert!(totals.entries >= 2, "{totals:?}");

    // The engine noticed the divergence, trialed the measured-cheaper
    // variant, and committed the promotion.
    let stats = engine.adaptive_stats().expect("adaptive engine");
    assert!(stats.repricings >= 1, "{stats:?}");
    assert!(stats.baseline_probes >= 1, "{stats:?}");
    assert!(stats.trials >= 1, "{stats:?}");
    assert!(stats.promotions >= 1, "promotion must commit: {stats:?}");
    assert_eq!(stats.demotions, 0, "{stats:?}");

    // The cached plan is now the sequential variant — the one the
    // measurements, not the model, say is cheaper here.
    let promoted = engine.prepare(&loop_).expect("plannable");
    assert_eq!(promoted.variant(), PlanVariant::Sequential, "{stats:?}");
    assert!(promoted.generation() > generation_at_start, "bumped");

    // The measured comparison that justified the commit is visible in
    // telemetry: sequential's observed floor beats the wavefront's.
    let fp = *promoted.fingerprint();
    let seq = telemetry_of(&engine, &fp, ObsVariant::Sequential).expect("sequential was measured");
    let wave = telemetry_of(&engine, &fp, ObsVariant::Wavefront).expect("wavefront was measured");
    assert!(
        (seq.min_ns as f64) * 1.05 <= wave.min_ns as f64,
        "promotion implies a measured win: seq {} vs wave {}",
        seq.min_ns,
        wave.min_ns
    );

    // Every challenger was proved sound against the live pattern before
    // it could be trialed: one `plan_verified` verdict per verified
    // challenger, every one sound, and the verify counters are exactly
    // those verdicts.
    let verdicts: Vec<bool> = engine
        .trace_events()
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::PlanVerified { fp: got, sound, .. } => {
                assert_eq!(
                    got,
                    doacross_obs::FpId::from(&fp),
                    "the structure's own challenger"
                );
                Some(sound)
            }
            _ => None,
        })
        .collect();
    let passes = verdicts.iter().filter(|&&sound| sound).count() as u64;
    assert_eq!(passes, verdicts.len() as u64, "no unsound challenger");
    assert!(passes >= stats.trials, "{passes} verdicts for {stats:?}");
    let text = engine.metrics_text();
    assert_eq!(scraped(&text, "doacross_verify_passes_total"), passes);
    assert_eq!(scraped(&text, "doacross_verify_failures_total"), 0);

    // Handles prepared before the promotion observed the generation bump
    // and fail typed; nothing ever silently executes the superseded plan.
    assert!(first.is_stale());
    let mut y = y0.clone();
    let err = first.execute(&loop_, &mut y).unwrap_err();
    assert!(
        matches!(err, EngineError::StalePlan { .. }),
        "stale handles fail typed, got {err:?}"
    );

    // The promoted plan still computes the oracle, through a fresh handle.
    let mut y = y0;
    promoted
        .execute(&loop_, &mut y)
        .expect("promoted plan runs");
    assert_eq!(y, expect);
}

#[test]
fn adaptation_is_off_the_result_path_for_static_engines() {
    let engine = Engine::builder().workers(2).build();
    let loop_ = TestLoop::new(400, 1, 8);
    let mut y = loop_.initial_y();
    engine.run(&loop_, &mut y).unwrap();
    assert!(!engine.is_adaptive());
    assert_eq!(engine.adaptive_stats(), None);
    assert_eq!(engine.telemetry_totals(), None);
    assert!(telemetry(&engine).is_empty());
}

#[test]
fn zero_capacity_cache_disables_adaptation() {
    // Nothing to swap a promoted plan into: the builder drops the
    // adaptive request instead of building a loop that can never act.
    let engine = Engine::builder()
        .workers(2)
        .cache_capacity(0)
        .adaptive()
        .build();
    assert!(!engine.is_adaptive());
}

#[test]
fn invalidation_resets_the_structure_s_learned_state() {
    let loop_ = narrow_deep();
    let engine = Engine::builder()
        .workers(2)
        .planner(Planner::with_costs(mispriced()))
        .adaptive_config(fast_adaptive())
        .build();
    let y0 = vec![1.0; loop_.data_len()];
    for _ in 0..3 {
        let mut y = y0.clone();
        engine.run(&loop_, &mut y).unwrap();
    }
    let fp = doacross_plan::PatternFingerprint::of(&loop_);
    assert!(telemetry_of(&engine, &fp, ObsVariant::Wavefront).is_some());
    engine.invalidate(&fp);
    assert_eq!(
        telemetry_of(&engine, &fp, ObsVariant::Wavefront),
        None,
        "observations of the retired structure are dropped"
    );
    // And the structure keeps solving correctly afterwards.
    let mut y = y0.clone();
    let mut expect = y0;
    run_sequential(&loop_, &mut expect);
    engine.run(&loop_, &mut y).unwrap();
    assert_eq!(y, expect);
}

#[test]
fn learned_state_persists_across_a_restart() {
    let path = std::env::temp_dir().join(format!(
        "doacross-adaptive-persist-{}.plans",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let loop_ = narrow_deep();
    let y0 = vec![1.0; loop_.data_len()];
    let fp = doacross_plan::PatternFingerprint::of(&loop_);
    let (first_entries, saved) = {
        let engine = Engine::builder()
            .workers(2)
            .adaptive_config(fast_adaptive())
            .build();
        for _ in 0..5 {
            let mut y = y0.clone();
            engine.run(&loop_, &mut y).unwrap();
        }
        let entries = telemetry(&engine);
        assert!(!entries.is_empty());
        let saved = engine.save_plans(&path).unwrap();
        (entries, saved)
    };
    assert!(saved >= 1);

    // Restart: plans AND telemetry come back; refinement resumes
    // mid-confidence instead of observing from scratch.
    let engine = Engine::builder()
        .workers(2)
        .adaptive_config(fast_adaptive())
        .warm_start(&path)
        .build();
    assert!(engine.cache_len() >= 1);
    let restored = telemetry(&engine);
    assert_eq!(restored, first_entries, "telemetry survives the restart");
    let kind = restored
        .iter()
        .find(|(f, _, _)| f == &fp)
        .map(|(_, k, _)| *k)
        .expect("the structure's entry survived");
    assert!(telemetry_of(&engine, &fp, kind).is_some());

    // A static engine ignores the telemetry section without error.
    let plain = Engine::builder().workers(2).warm_start(&path).build();
    assert!(telemetry(&plain).is_empty());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn calibration_persists_and_a_warm_calibrated_engine_skips_measurement() {
    let path = std::env::temp_dir().join(format!(
        "doacross-adaptive-calib-{}.plans",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let loop_ = TestLoop::new(300, 1, 8);
    let measured = {
        let engine = Engine::builder().workers(2).build();
        let mut y = loop_.initial_y();
        engine.run(&loop_, &mut y).unwrap();
        let calibration = *engine.calibration().expect("default engines carry one");
        assert!(calibration.is_valid());
        engine.save_plans(&path).unwrap();
        calibration
    };
    let mut store = doacross_plan::PlanStore::load(&path).unwrap();
    assert_eq!(
        store.calibration(),
        Some(&measured),
        "persisted as measured"
    );

    // Every engine in this process shares one measurement, so adopting
    // the store's constants only shows when they differ from it: store a
    // perturbed but valid calibration and the warm-started engine must
    // carry it bit for bit — it read the store and measured nothing.
    let mut perturbed = measured;
    perturbed.unit_ns *= 1.25;
    perturbed.model.region_dispatch *= 1.25;
    assert!(perturbed.is_valid());
    store.set_calibration(Some(perturbed));
    store.save(&path).unwrap();
    let engine = Engine::builder().workers(2).warm_start(&path).build();
    assert_eq!(engine.calibration(), Some(&perturbed));
    assert_eq!(engine.planner().costs(), &perturbed.model);

    // An invalid persisted calibration is revalidated away: the build
    // falls back to the process's own measurement instead of pricing
    // with nonsense.
    let mut poisoned = measured;
    poisoned.unit_ns = f64::NAN;
    store.set_calibration(Some(poisoned));
    store.save(&path).unwrap();
    let engine = Engine::builder().workers(2).warm_start(&path).build();
    let fresh = engine.calibration().expect("measured instead");
    assert!(fresh.is_valid());
    assert_eq!(fresh, &measured, "the process-wide measurement");

    // An engine handed its planner never consumes a stored calibration,
    // and never persists one.
    store.set_calibration(Some(perturbed));
    store.save(&path).unwrap();
    let preset = Planner::new();
    let pinned = Engine::builder()
        .workers(2)
        .planner(preset.clone())
        .warm_start(&path)
        .build();
    assert_eq!(pinned.calibration(), None);
    assert_eq!(pinned.planner().costs(), preset.costs());
    assert_eq!(pinned.snapshot().calibration(), None);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn v2_stores_fail_typed_and_the_boot_path_cold_starts() {
    let path = std::env::temp_dir().join(format!(
        "doacross-adaptive-v2-relic-{}.plans",
        std::process::id()
    ));
    // Fabricate a v2 relic: a current-format store with its version field
    // rewritten to 2 (the version check precedes the checksum, exactly as
    // a real v2 file would fail).
    {
        let engine = Engine::builder().workers(2).build();
        let loop_ = TestLoop::new(200, 1, 8);
        let mut y = loop_.initial_y();
        engine.run(&loop_, &mut y).unwrap();
        engine.save_plans(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
    }

    // Explicit load: strict, typed.
    let engine = Engine::builder().workers(2).build();
    let err = engine.load_plans(&path).unwrap_err();
    assert_eq!(
        err,
        EngineError::Persist(PersistError::UnsupportedVersion {
            found: 2,
            supported: doacross_plan::FORMAT_VERSION,
        })
    );
    assert_eq!(engine.cache_len(), 0, "cache untouched");

    // Boot path: version succession is a cold start, not a crash loop —
    // for plain, calibrated, and adaptive engines alike.
    for builder in [
        Engine::builder().workers(2),
        Engine::builder().workers(2).adaptive(),
    ] {
        let engine = builder.warm_start(&path).build();
        assert_eq!(engine.cache_len(), 0);
    }
    std::fs::remove_file(&path).unwrap();
}
