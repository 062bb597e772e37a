//! Engine-level persistence: warm starts across "process" boundaries
//! (simulated by independent engines sharing only a store file), typed
//! failures for untrustworthy stores, generation-aware restores, and
//! restores that keep only the plans the loading engine's model selects.

use doacross_core::{seq::run_sequential, AccessPattern, IndirectLoop, PlanProvenance, TestLoop};
use doacross_engine::{Engine, EngineError, PersistError, PlanStore};
use doacross_plan::{selection, ExecutionPlan, PlanVariant, Planner};
use doacross_sim::calib::assemble;

/// A unique temp path per test (tests run concurrently in one process).
fn store_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "doacross-engine-persist-{tag}-{}.plans",
        std::process::id()
    ))
}

fn engine(workers: usize) -> Engine {
    Engine::builder().workers(workers).cache_capacity(8).build()
}

#[test]
fn warm_start_serves_the_first_solve_from_the_store() {
    let path = store_path("happy");
    let _ = std::fs::remove_file(&path);
    let loops = [TestLoop::new(600, 2, 8), TestLoop::new(400, 1, 7)];

    // First "process": cold solves, then checkpoint.
    let first = engine(2);
    for loop_ in &loops {
        let mut y = loop_.initial_y();
        let stats = first.run(loop_, &mut y).unwrap();
        assert_eq!(stats.provenance, PlanProvenance::PlanCold);
    }
    assert_eq!(first.save_plans(&path).unwrap(), 2);
    drop(first);

    // Second "process": warm start; every first solve is a cache hit and
    // bit-identical to the sequential oracle.
    let second = Engine::builder()
        .workers(2)
        .cache_capacity(8)
        .warm_start(&path)
        .build();
    assert_eq!(second.cache_len(), 2);
    for loop_ in &loops {
        let prepared = second.prepare(loop_).unwrap();
        assert!(prepared.from_cache(), "restored plan served the prepare");
        let mut y = loop_.initial_y();
        let stats = prepared.execute(loop_, &mut y).unwrap();
        assert_eq!(stats.provenance, PlanProvenance::PlanCached);
        assert_eq!(stats.inspector, std::time::Duration::ZERO);
        let mut oracle = loop_.initial_y();
        run_sequential(loop_, &mut oracle);
        assert_eq!(y, oracle);
    }
    let s = second.cache_stats();
    assert_eq!((s.hits, s.misses), (2, 0), "no replanning after restore");

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn wavefront_plans_warm_start_across_processes() {
    // The level-scheduled artifact (offsets, order, term offsets, operand
    // classes) survives the full engine persistence path: plan → save →
    // fresh engine → warm start → cached wavefront execution with zero
    // wait polls and a bit-identical result.
    let path = store_path("wavefront");
    let _ = std::fs::remove_file(&path);

    // A deep, wide, stall-free grid (the workspace's shared wavefront
    // fixture): under the paper's Multimax preset the planner picks
    // Wavefront at 4 workers on its own. (The default engine prices with
    // this host's costs, which may run the grid sequentially.)
    let preset = || {
        Engine::builder()
            .workers(4)
            .cache_capacity(8)
            .planner(doacross_plan::Planner::new())
    };
    let loop_ = doacross_plan::testgrid::deep_grid(64, 20, 3, 7);
    let n = 64 * 20;
    let y0: Vec<f64> = (0..n).map(|e| 1.0 + (e % 7) as f64 * 0.125).collect();
    let mut oracle = y0.clone();
    run_sequential(&loop_, &mut oracle);

    let first = preset().build();
    let prepared = first.prepare(&loop_).unwrap();
    assert_eq!(
        prepared.variant(),
        doacross_plan::PlanVariant::Wavefront,
        "{:?}",
        prepared.plan().costs()
    );
    let mut y = y0.clone();
    let stats = prepared.execute(&loop_, &mut y).unwrap();
    assert_eq!(y, oracle);
    assert_eq!(stats.wait_polls, 0);
    assert_eq!(first.save_plans(&path).unwrap(), 1);
    drop(first);

    let second = preset().warm_start(&path).build();
    let restored = second.prepare(&loop_).unwrap();
    assert!(restored.from_cache(), "restored wavefront plan hits");
    assert_eq!(restored.variant(), doacross_plan::PlanVariant::Wavefront);
    let mut y = y0;
    let stats = restored.execute(&loop_, &mut y).unwrap();
    assert_eq!(stats.provenance, PlanProvenance::PlanCached);
    assert_eq!(stats.wait_polls, 0, "no flags through the persisted path");
    assert_eq!(stats.inspector, std::time::Duration::ZERO);
    assert_eq!(y, oracle, "bit-identical after the restart");

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_stores_fail_with_typed_persist_errors() {
    let path = store_path("corrupt");
    let source = engine(2);
    let loop_ = TestLoop::new(500, 1, 8);
    let mut y = loop_.initial_y();
    source.run(&loop_, &mut y).unwrap();
    source.save_plans(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // Bit flip in the middle → checksum mismatch, via both entry points.
    let mut bytes = pristine.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let fresh = engine(2);
    let err = fresh.load_plans(&path).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Persist(PersistError::ChecksumMismatch { .. })
        ),
        "{err:?}"
    );
    assert_eq!(fresh.cache_len(), 0, "failed load leaves the cache cold");

    // Truncation → typed error, never a panic or a partial restore.
    std::fs::write(&path, &pristine[..pristine.len() / 3]).unwrap();
    assert!(matches!(
        fresh.load_plans(&path),
        Err(EngineError::Persist(_))
    ));

    // Version from the future → typed version mismatch.
    let mut bytes = pristine.clone();
    bytes[8] = 0x7F;
    std::fs::write(&path, &bytes).unwrap();
    let err = fresh.load_plans(&path).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Persist(PersistError::UnsupportedVersion { found: 0x7F, .. })
        ),
        "{err:?}"
    );

    // Not a store at all.
    std::fs::write(&path, b"definitely not a plan store").unwrap();
    assert!(matches!(
        fresh.load_plans(&path),
        Err(EngineError::Persist(PersistError::BadMagic))
    ));

    assert_eq!(fresh.cache_len(), 0);
    std::fs::remove_file(&path).unwrap();

    // Explicit loads report a missing store as typed NotFound; the
    // warm-start boot treats exactly that case as first boot.
    assert!(matches!(
        fresh.load_plans(&path),
        Err(EngineError::Persist(PersistError::NotFound))
    ));
    let booted = Engine::builder()
        .workers(2)
        .cache_capacity(8)
        .warm_start(&path)
        .build();
    assert_eq!(booted.cache_len(), 0, "a missing store is a cold boot");
}

#[test]
fn damaged_boot_store_quarantines_and_the_boot_loop_recovers() {
    let path = store_path("quarantine-loop");
    let _ = std::fs::remove_file(&path);
    let source = engine(2);
    let loop_ = TestLoop::new(500, 1, 8);
    let mut y = loop_.initial_y();
    source.run(&loop_, &mut y).unwrap();

    let corrupt_checkpoint = |path: &std::path::Path| {
        source.save_plans(path).unwrap();
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(path, &bytes).unwrap();
    };

    // A crash-looping service keeps re-writing and re-corrupting its
    // checkpoint. Every boot must come up cold and serving — quarantine
    // exists precisely so a damaged checkpoint cannot wedge the restart
    // loop — while the corpse is preserved aside for post-mortem.
    for round in 0..3u64 {
        corrupt_checkpoint(&path);
        let booted = Engine::builder()
            .workers(2)
            .cache_capacity(8)
            .warm_start(&path)
            .build();
        assert_eq!(booted.cache_len(), 0, "round {round}: booted cold");
        assert!(!path.exists(), "round {round}: corpse moved aside");
        let mut y = loop_.initial_y();
        booted.run(&loop_, &mut y).unwrap();
        let mut oracle = loop_.initial_y();
        run_sequential(&loop_, &mut oracle);
        assert_eq!(y, oracle, "round {round}: cold boot still solves");
    }

    // The rotation is bounded: only the two newest corpses survive.
    let dir = path.parent().unwrap().to_path_buf();
    let prefix = format!("{}.corrupt-", path.file_name().unwrap().to_str().unwrap());
    let corpses: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|f| f.starts_with(&prefix))
        .collect();
    assert_eq!(corpses.len(), 2, "{corpses:?}");

    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&prefix) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[test]
fn old_format_stores_cold_start_the_boot_path_but_fail_explicit_loads() {
    // The version-succession rule: a store whose format version differs
    // (a crafted "v1" relic from before the wavefront bump, a v4 one, and
    // the v5 store a deploy of this format actually meets on disk) is a clean
    // cold start through the warm-start boot path — a format-bumping
    // deploy must not crash-loop on its own previous checkpoint — while
    // the explicit load stays strict and typed.
    for relic in [1u32, 4, 5] {
        let path = store_path(&format!("old-format-v{relic}"));
        let source = engine(2);
        let loop_ = TestLoop::new(400, 1, 8);
        let mut y = loop_.initial_y();
        source.run(&loop_, &mut y).unwrap();
        source.save_plans(&path).unwrap();

        // Rewrite the version field (the magic is 8 bytes, the version the
        // next 4). The checksum is irrelevant: the version is checked
        // before it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&relic.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let fresh = Engine::builder()
            .workers(2)
            .cache_capacity(8)
            .warm_start(&path)
            .build();
        assert_eq!(
            fresh.cache_len(),
            0,
            "v{relic}: cold start, nothing restored"
        );
        assert!(path.exists(), "v{relic}: succession is not quarantined");
        let err = fresh.load_plans(&path).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Persist(PersistError::UnsupportedVersion { found, .. })
                    if found == relic
            ),
            "v{relic}: {err:?}"
        );

        // The next save rewrites the current format and warm starts again.
        let mut y = loop_.initial_y();
        fresh.run(&loop_, &mut y).unwrap();
        assert_eq!(fresh.save_plans(&path).unwrap(), 1);
        let healed = Engine::builder()
            .workers(2)
            .cache_capacity(8)
            .warm_start(&path)
            .build();
        assert_eq!(healed.cache_len(), 1);

        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn restores_drop_plans_invalidated_after_the_snapshot() {
    let path = store_path("generations");
    let source = engine(2);
    let loop_ = TestLoop::new(300, 1, 8);
    let prepared = source.prepare(&loop_).unwrap();
    source.save_plans(&path).unwrap();

    // Invalidate after the save: reloading the older store must not
    // resurrect the retired plan in this engine...
    source.invalidate(prepared.fingerprint());
    assert_eq!(source.load_plans(&path).unwrap(), 0);
    assert_eq!(source.cache_len(), 0, "the retired plan stays out");
    assert!(prepared.is_stale());

    // ...and a *new* engine that loads the post-invalidation checkpoint
    // inherits the generation, so the old store stays rejected there too.
    let newer = store_path("generations-newer");
    source.save_plans(&newer).unwrap();
    let restarted = engine(2);
    assert_eq!(restarted.load_plans(&newer).unwrap(), 0);
    assert_eq!(
        restarted.load_plans(&path).unwrap(),
        0,
        "old store is stale"
    );
    assert_eq!(restarted.cache_len(), 0, "the retired plan stays out");

    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&newer).unwrap();
}

#[test]
fn worker_count_mismatch_restores_but_replans() {
    // A plan priced for a different pool size is not restored (its
    // features were measured for that size); the first solve replans it
    // for this one — correctness never depends on the stored worker count.
    let path = store_path("workers");
    let source = engine(2);
    let loop_ = TestLoop::new(600, 2, 8);
    let mut y = loop_.initial_y();
    source.run(&loop_, &mut y).unwrap();
    source.save_plans(&path).unwrap();

    let wider = engine(3);
    assert_eq!(wider.load_plans(&path).unwrap(), 0, "nothing restored");
    assert_eq!(wider.cache_len(), 0);
    let mut y = loop_.initial_y();
    let stats = wider.run(&loop_, &mut y).unwrap();
    assert_eq!(
        stats.provenance,
        PlanProvenance::PlanCold,
        "priced for the new pool size"
    );
    let mut oracle = loop_.initial_y();
    run_sequential(&loop_, &mut oracle);
    assert_eq!(y, oracle);

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn snapshots_flow_between_engines_in_memory() {
    // The byte round trip is not required: snapshot → warm_from hands a
    // live engine's plans to another engine in-process (e.g. blue/green
    // session rotation), and PlanStore::to_bytes/from_bytes is the same
    // artifact on the wire.
    let a = engine(2);
    let loop_ = TestLoop::new(500, 2, 8);
    let mut y = loop_.initial_y();
    a.run(&loop_, &mut y).unwrap();

    let store = a.snapshot();
    let b = engine(2);
    assert_eq!(b.warm_from(&store), 1);
    let mut y = loop_.initial_y();
    let stats = b.run(&loop_, &mut y).unwrap();
    assert_eq!(stats.provenance, PlanProvenance::PlanCached);

    let wired = PlanStore::from_bytes(&store.to_bytes()).unwrap();
    let c = engine(2);
    assert_eq!(c.warm_from(&wired), 1);
    assert_eq!(c.cache_len(), 1);
}

/// The Figure 7 forward-substitution loop of each Table-1 problem's ILU(0)
/// factor, as `plan/tests/table1_decision.rs` builds it: row `i` writes
/// `y[i]` and reads the row's earlier unknowns.
fn table1_loops() -> Vec<IndirectLoop> {
    doacross_sparse::table1_problems()
        .iter()
        .map(|problem| {
            let l = problem.triangular_system().l;
            let rhs: Vec<Vec<usize>> = (0..l.n()).map(|i| l.row_cols(i).to_vec()).collect();
            let coeff = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
            IndirectLoop::new(l.n(), (0..l.n()).collect(), rhs, coeff).expect("a valid loop")
        })
        .collect()
}

/// A store written under one model, loaded by an engine on another at the
/// same worker count: the loading engine's five decisions equal a cold
/// engine's on its model, every plan it skipped is rebuilt cold by its
/// first solve, and every output is the sequential oracle's, bit for bit.
/// Every plan it restored carries its own prices: `selection`'s under its
/// model, and for the plan's variant a cold engine's price, bit for bit.
/// Returns how many stored plans were skipped, and how many restored ones
/// were re-priced.
fn warm_start_decides_like_a_cold_engine(
    store: &std::path::Path,
    loops: &[IndirectLoop],
    builder: impl Fn() -> doacross_engine::EngineBuilder,
) -> (usize, usize) {
    let written = PlanStore::load(store).unwrap();
    assert_eq!(written.len(), loops.len());
    let warm = builder().warm_start(store).build();
    let restored = warm.cache_len();
    let cold = builder().build();
    let (mut skipped, mut repriced) = (0, 0);
    for loop_ in loops {
        let prepared = warm.prepare(loop_).unwrap();
        let decided = cold.prepare(loop_).unwrap();
        let variant = decided.variant();
        assert_eq!(
            prepared.variant(),
            variant,
            "the loading engine's own decision"
        );
        skipped += usize::from(!prepared.from_cache());
        if prepared.from_cache() {
            let plan = prepared.plan();
            assert_eq!(
                selection(warm.planner().costs(), plan),
                Some((variant, *plan.costs())),
                "restored at this engine's prices"
            );
            let price = |plan: &ExecutionPlan| plan.costs().of(variant).map(f64::to_bits);
            assert_eq!(
                price(plan),
                price(decided.plan()),
                "a cold engine's {variant} price"
            );
            let stored = written
                .plans()
                .find(|stored| stored.fingerprint() == plan.fingerprint())
                .unwrap();
            repriced += usize::from(stored.costs() != plan.costs());
        }
        let mut y = vec![1.0; loop_.data_len()];
        let stats = prepared.execute(loop_, &mut y).unwrap();
        let expected = if prepared.from_cache() {
            PlanProvenance::PlanCached
        } else {
            PlanProvenance::PlanCold
        };
        assert_eq!(stats.provenance, expected);
        let mut oracle = vec![1.0; loop_.data_len()];
        run_sequential(loop_, &mut oracle);
        assert_eq!(y, oracle, "bit-identical to the sequential oracle");
    }
    assert_eq!(
        restored + skipped,
        loops.len(),
        "a skipped plan is not resident"
    );
    assert_eq!(warm.cache_len(), loops.len());
    (skipped, repriced)
}

#[test]
fn a_store_written_under_another_model_restores_only_this_engines_decisions() {
    // The paper's Multimax preset plans four of the five Table-1 factors
    // as wavefronts at two workers; a store of those decisions is data,
    // not truth, for an engine that prices another model.
    let path = store_path("foreign-model");
    let _ = std::fs::remove_file(&path);
    let loops = table1_loops();
    let preset = Engine::builder()
        .workers(2)
        .cache_capacity(8)
        .planner(Planner::new())
        .build();
    for loop_ in &loops {
        preset.prepare(loop_).unwrap();
    }
    assert_eq!(preset.save_plans(&path).unwrap(), 5);
    let wavefronts = PlanStore::load(&path)
        .unwrap()
        .plans()
        .filter(|plan| plan.variant() == PlanVariant::Wavefront)
        .count();
    assert_eq!(wavefronts, 4);

    // `table1_decision.rs`'s host-like model, constant so the skip count
    // is pinned without a clock: it settles all five at the floor, so the
    // four stored wavefronts are skipped and the stored sequential 5-PT
    // plan, its own selection there too, is kept — at this model's
    // sequential price, not the preset's.
    let host = assemble(2.0, 6.0, 16.75, 27.75, 8_600.0, 100.0).model;
    let host_like = || {
        Engine::builder()
            .workers(2)
            .cache_capacity(8)
            .planner(Planner::with_costs(host))
    };
    assert_eq!(
        warm_start_decides_like_a_cold_engine(&path, &loops, host_like),
        (4, 1)
    );

    // A default engine prices with this process's measurement, whatever
    // it selects: how many plans it skips depends on the host.
    let default = || Engine::builder().workers(2).cache_capacity(8);
    warm_start_decides_like_a_cold_engine(&path, &loops, default);

    // The same engine on the store's own model keeps every plan.
    let own = || {
        Engine::builder()
            .workers(2)
            .cache_capacity(8)
            .planner(Planner::new())
    };
    assert_eq!(
        warm_start_decides_like_a_cold_engine(&path, &loops, own),
        (0, 0)
    );
    // There every stored price is already the engine's: the restore shares
    // the stored plans and copies none.
    let written = PlanStore::load(&path).unwrap();
    let again = own().build();
    assert_eq!(again.warm_from(&written), 5);
    for loop_ in &loops {
        let prepared = again.prepare(loop_).unwrap();
        let stored = written
            .plans()
            .find(|stored| stored.fingerprint() == prepared.fingerprint())
            .unwrap();
        assert!(std::ptr::eq(prepared.plan(), &**stored), "the stored Arc");
    }
    std::fs::remove_file(&path).unwrap();
}
