//! Integration tests of the adaptive feedback loop: telemetry growth,
//! divergence-triggered promotion to the measured-cheaper variant,
//! generation-bump staleness, exact telemetry counts under concurrent
//! solves, invalidation, the calibration a warm start prices with, and the
//! store-version regression (v2, v6, v7, v8 and v9 stores against v10).

use doacross_core::{seq::run_sequential, AccessPattern, IndirectLoop, TestLoop};
use doacross_engine::{Engine, EngineError, ObsVariant, PersistError, TraceEvent};
use doacross_obs::ColdStartReason;
use doacross_plan::{PatternFingerprint, PlanVariant, Planner};
use doacross_sim::CostModel;

/// The fastest delivered solve of `kind` on structure `fp` among the
/// engine's recent solves (the flight recorder), if one was recorded.
fn fastest_solve(engine: &Engine, fp: &PatternFingerprint, kind: ObsVariant) -> Option<u64> {
    engine
        .recent_solves()
        .iter()
        .filter(|r| r.fp == doacross_obs::FpId::from(fp) && r.variant == kind)
        .map(|r| r.total_ns)
        .min()
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

#[test]
fn mispriced_model_promotes_to_the_measured_cheaper_variant() {
    let loop_ = narrow_deep();
    let engine = Engine::builder()
        .workers(2)
        .planner(Planner::with_costs(mispriced()))
        .adaptive()
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
    // the flight recorder: sequential's fastest solve beats the
    // wavefront's by the hysteresis margin.
    let fp = *promoted.fingerprint();
    let seq = fastest_solve(&engine, &fp, ObsVariant::Sequential).expect("sequential was measured");
    let wave = fastest_solve(&engine, &fp, ObsVariant::Wavefront).expect("wavefront was measured");
    assert!(
        (seq as f64) * 1.05 <= wave as f64,
        "promotion implies a measured win: seq {seq} vs wave {wave}"
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
        .adaptive()
        .build();
    let y0 = vec![1.0; loop_.data_len()];
    for _ in 0..3 {
        let mut y = y0.clone();
        engine.run(&loop_, &mut y).unwrap();
    }
    // Three wavefront solves, below the first evaluation point: one
    // structure, one entry, three samples.
    let totals = engine.telemetry_totals().expect("adaptive engine");
    assert_eq!(
        (totals.structures, totals.entries, totals.samples),
        (1, 1, 3)
    );
    let fp = doacross_plan::PatternFingerprint::of(&loop_);
    engine.invalidate(&fp);
    assert_eq!(
        engine.telemetry_totals(),
        Some(Default::default()),
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
fn concurrent_solves_are_each_recorded_exactly_once() {
    // k threads × m delivered solves over two structures on one adaptive
    // engine: every solve is one sample under the one structure lock, and
    // the only other samples are the sequential anchors (baseline probes
    // and fallbacks), so the count is exact however the solves
    // interleave with evaluations and trials.
    const THREADS: u64 = 4;
    const SOLVES: u64 = 30;
    let engine = Engine::builder()
        .workers(2)
        .planner(Planner::with_costs(mispriced()))
        .adaptive()
        .build();
    let loops = [
        narrow_deep(),
        doacross_plan::testgrid::deep_grid(2, 150, 1, 1),
    ];
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (engine, loop_) = (&engine, &loops[t as usize % loops.len()]);
            scope.spawn(move || {
                let y0 = vec![1.0; loop_.data_len()];
                let mut expect = y0.clone();
                run_sequential(loop_, &mut expect);
                let mut delivered = 0;
                while delivered < SOLVES {
                    let mut y = y0.clone();
                    match engine.run(loop_, &mut y) {
                        Ok(_) => {
                            assert_eq!(y, expect);
                            delivered += 1;
                        }
                        // A trial swapped the plan between prepare and
                        // execute: nothing ran, prepare again.
                        Err(EngineError::StalePlan { .. }) => {}
                        Err(err) => panic!("{err:?}"),
                    }
                }
            });
        }
    });
    let stats = engine.adaptive_stats().expect("adaptive engine");
    let totals = engine.telemetry_totals().expect("adaptive engine");
    assert_eq!(stats.fallbacks, 0, "{stats:?}");
    assert_eq!(
        totals.samples,
        THREADS * SOLVES + stats.baseline_probes,
        "{totals:?} {stats:?}"
    );
    assert_eq!(totals.structures, 2, "{totals:?}");
}

#[test]
fn a_warm_started_engines_calibration_is_this_processs_host_calibration() {
    // A store carries no cost model: every engine that prices its host
    // prices with this process's one measurement, warm-started or not, and
    // restores the plans that measurement selects.
    let path = std::env::temp_dir().join(format!(
        "doacross-adaptive-calib-{}.plans",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let host = doacross_sim::host_calibration();

    let loop_ = TestLoop::new(300, 1, 8);
    {
        let engine = Engine::builder().workers(2).build();
        let mut y = loop_.initial_y();
        engine.run(&loop_, &mut y).unwrap();
        assert_eq!(engine.save_plans(&path).unwrap(), 1);
    }
    for builder in [
        Engine::builder().workers(2),
        Engine::builder().workers(2).adaptive(),
    ] {
        let engine = builder.warm_start(&path).build();
        let calibration = engine.calibration().expect("host pricing is the default");
        assert!(
            std::ptr::eq(calibration, host),
            "the process-wide measurement"
        );
        assert_eq!(engine.planner().costs(), &host.model);
        assert_eq!(engine.cache_len(), 1, "its own decision, restored");
    }

    // An engine handed its planner prices with that planner, warm or not.
    let preset = Planner::new();
    let pinned = Engine::builder()
        .workers(2)
        .planner(preset.clone())
        .warm_start(&path)
        .build();
    assert!(pinned.calibration().is_none());
    assert_eq!(pinned.planner().costs(), preset.costs());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn v2_stores_fail_typed_and_the_boot_path_cold_starts() {
    // Relics of three superseded formats: v2 (before the adaptive
    // sections), v6 (the last store with a telemetry table) and v7 (the
    // last whose streams always carry class bytes).
    for version in [2u32, 6, 7] {
        let path = std::env::temp_dir().join(format!(
            "doacross-adaptive-v{version}-relic-{}.plans",
            std::process::id()
        ));
        // Fabricate the relic: a current-format store with its version
        // field rewritten (the version check precedes the checksum,
        // exactly as a real old file would fail).
        {
            let engine = Engine::builder().workers(2).build();
            let loop_ = TestLoop::new(200, 1, 8);
            let mut y = loop_.initial_y();
            engine.run(&loop_, &mut y).unwrap();
            engine.save_plans(&path).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
        }

        // Explicit load: strict, typed.
        let engine = Engine::builder().workers(2).build();
        let err = engine.load_plans(&path).unwrap_err();
        assert_eq!(
            err,
            EngineError::Persist(PersistError::UnsupportedVersion {
                found: version,
                supported: 10,
            })
        );
        assert_eq!(engine.cache_len(), 0, "cache untouched");

        // Boot path: version succession is a cold start, not a crash
        // loop — for plain, calibrated, and adaptive engines alike — and
        // not a corruption: nothing is quarantined.
        for builder in [
            Engine::builder().workers(2),
            Engine::builder().workers(2).adaptive(),
        ] {
            let engine = builder.warm_start(&path).build();
            assert_eq!(engine.cache_len(), 0);
        }
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        let quarantined = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .any(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("{name}.corrupt-"))
            });
        assert!(!quarantined, "a v{version} store is not corrupt");
        assert!(path.exists(), "the relic stays where it was");
        std::fs::remove_file(&path).unwrap();
    }
}

/// A current store with its version field rewritten to `version`: an
/// explicit load fails typed and leaves the cache untouched, and a warm
/// start's only trace event is a version-mismatch cold start, with nothing
/// quarantined.
fn a_relic_fails_typed_and_warm_start_traces_a_clean_cold_start(version: u32) {
    let path = std::env::temp_dir().join(format!(
        "doacross-adaptive-v{version}-boot-relic-{}.plans",
        std::process::id()
    ));
    {
        let engine = Engine::builder().workers(2).build();
        let loop_ = TestLoop::new(200, 1, 8);
        let mut y = loop_.initial_y();
        engine.run(&loop_, &mut y).unwrap();
        engine.save_plans(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
    }

    let engine = Engine::builder().workers(2).build();
    assert_eq!(
        engine.load_plans(&path).unwrap_err(),
        EngineError::Persist(PersistError::UnsupportedVersion {
            found: version,
            supported: 10,
        })
    );
    assert_eq!(engine.cache_len(), 0, "cache untouched");

    // The boot path starts cold, says why, and quarantines nothing.
    let engine = Engine::builder()
        .workers(2)
        .observability_default()
        .warm_start(&path)
        .build();
    assert_eq!(engine.cache_len(), 0);
    let events: Vec<TraceEvent> = engine.trace_events().iter().map(|e| e.event).collect();
    assert_eq!(
        events,
        [TraceEvent::ColdStart {
            reason: ColdStartReason::VersionMismatch,
        }]
    );
    let name = path.file_name().unwrap().to_str().unwrap().to_owned();
    let quarantined = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .flatten()
        .any(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with(&format!("{name}.corrupt-"))
        });
    assert!(!quarantined, "a v{version} store is not corrupt");
    assert!(path.exists(), "the relic stays where it was");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn v8_stores_fail_typed_and_warm_start_traces_a_clean_cold_start() {
    // The last format with the strip-mined variant: its census carries a
    // duplicate-write gap and its prices a blocked candidate.
    a_relic_fails_typed_and_warm_start_traces_a_clean_cold_start(8);
}

#[test]
fn v9_stores_fail_typed_and_warm_start_traces_a_clean_cold_start() {
    // The last format that could carry a host calibration.
    a_relic_fails_typed_and_warm_start_traces_a_clean_cold_start(9);
}
