//! The solve profiler end to end: a profiling engine runs a wavefront
//! solve and a flat scattered doall, then walks every exported view of
//! where the nanoseconds went — the per-worker span timelines, wait
//! attribution reconciled against [`RunStats`], the realized critical
//! path, the `doacross_profile_*` scrape, and a Chrome trace written to
//! disk that `chrome://tracing` or Perfetto can open directly.
//!
//! The example asserts its own contract as it goes: the wavefront
//! profile must carry one barrier-wait span per joined worker per crossing
//! (exactly `RunStats::barrier_crossings`), work-span payloads must sum
//! to the iteration count, and the exported trace must validate
//! structurally with one track per joined worker. A worker *joined* when
//! the region ran its job — the dispatching thread (worker 0) always, a
//! helper when it woke before the work was gone — and the tracks carrying
//! a work span are exactly those (`SpanKind::Work`).
//!
//! Run: `cargo run --release --example profile`

use preprocessed_doacross::core::{AccessPattern, IndirectLoop, RunStats};
use preprocessed_doacross::plan::Planner;
use preprocessed_doacross::{validate_chrome_trace, Engine, SolveProfile, SpanKind};

fn main() {
    // Preset planner by name: host pricing (the default) may run both solves sequentially.
    let engine = Engine::builder()
        .workers(4)
        .pools(1)
        .planner(Planner::new())
        .profiling_default()
        .observability_default()
        .build();
    assert!(engine.profiling_enabled());

    // --- 1. A wavefront solve: a sequence of level doalls. ----------------
    // 64 columns x 20 dependence levels — the planner runs this as one
    // completion counter per level, and the profiler stamps each level's
    // work and each worker's wait at each level boundary.
    let grid = preprocessed_doacross::plan::testgrid::deep_grid(64, 20, 3, 7);
    let prepared = engine.prepare(&grid).expect("plannable");
    let mut y: Vec<f64> = (0..grid.data_len())
        .map(|e| 1.0 + (e % 10) as f64)
        .collect();
    let stats: RunStats = prepared.execute(&grid, &mut y).expect("valid solve");
    let wavefront = latest_profile(&engine);
    println!(
        "wavefront solve: {} iterations, {} workers, {} barrier crossings",
        stats.iterations, stats.workers, stats.barrier_crossings
    );
    print_attribution(&wavefront);

    // Wait attribution is the executor's own bookkeeping with
    // timestamps: one barrier-wait span per joined worker per crossing...
    let joined = joined_workers(&wavefront);
    assert!(joined.first() == Some(&0) && joined.len() <= stats.workers);
    println!("  joined workers: {joined:?} of {}", stats.workers);
    for worker in 0..stats.workers as u32 {
        let crossings = wavefront
            .spans
            .iter()
            .filter(|s| s.worker == worker && s.kind == SpanKind::BarrierWait)
            .count() as u64;
        let expect = if joined.contains(&worker) {
            stats.barrier_crossings
        } else {
            0
        };
        assert_eq!(crossings, expect, "worker {worker}");
    }
    // ...and the work-span payloads sum to the full iteration space.
    let worked: u64 = wavefront
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Work)
        .map(|s| s.aux)
        .sum();
    assert_eq!(worked, stats.iterations as u64);

    // --- 2. A flat doall for contrast: no barriers at all. ----------------
    let n = 4_000;
    let a: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
    let flat = IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).expect("valid");
    let prepared = engine.prepare(&flat).expect("plannable");
    let mut y = vec![1.0; n];
    let flat_stats = prepared.execute(&flat, &mut y).expect("valid solve");
    let flat_profile = latest_profile(&engine);
    println!(
        "\nflat doall: {} iterations, {} stalls",
        flat_stats.iterations, flat_stats.stalls
    );
    print_attribution(&flat_profile);
    assert_eq!(flat_profile.kind_spans[SpanKind::BarrierWait.index()], 0);
    assert_eq!(
        flat_profile.kind_spans[SpanKind::FlagWait.index()],
        flat_stats.stalls
    );

    // --- 3. The scrape gains doacross_profile_* families. -----------------
    let text = engine.metrics_text();
    assert!(text.contains("doacross_profile_solves_total 2"));
    assert!(text.contains("doacross_profile_barrier_wait_ns_count{level=\"0\"}"));
    let profile_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("doacross_profile_") && !l.contains("_bucket"))
        .collect();
    println!(
        "\nscrape ({} doacross_profile_* samples):",
        profile_lines.len()
    );
    for line in profile_lines.iter().take(8) {
        println!("  {line}");
    }

    // --- 4. Export the Chrome trace and validate it structurally. ---------
    let trace = engine.profile_chrome_trace();
    let summary = validate_chrome_trace(&trace).expect("structurally valid trace");
    // One pid per profiled solve; the wavefront solve's tracks cover
    // every joined worker plus the dispatcher.
    let wavefront_tracks = summary
        .tracks
        .keys()
        .filter(|(pid, _)| *pid == wavefront.seq)
        .count();
    assert_eq!(
        wavefront_tracks,
        joined.len() + 1,
        "joined workers + dispatcher"
    );
    let path = std::env::temp_dir().join(format!("doacross-profile-{}.json", std::process::id()));
    std::fs::write(&path, &trace).expect("write trace");
    println!(
        "\nchrome trace: {} events across {} tracks -> {}",
        summary.events,
        summary.tracks.len(),
        path.display()
    );
    println!("open it in chrome://tracing or https://ui.perfetto.dev");

    println!("\nprofile example: all assertions passed");
}

/// The workers that joined the profiled region: the tracks with a work span.
fn joined_workers(profile: &SolveProfile) -> Vec<u32> {
    let mut joined: Vec<u32> = profile
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Work)
        .map(|s| s.worker)
        .collect();
    joined.sort_unstable();
    joined.dedup();
    joined
}

fn latest_profile(engine: &Engine) -> SolveProfile {
    engine
        .recent_profiles()
        .pop()
        .expect("profiled solve landed in the ring")
}

fn print_attribution(profile: &SolveProfile) {
    println!(
        "  attribution: work {}ns, flag-wait {}ns, barrier-wait {}ns, dispatch-wait {}ns \
         ({} spans, realized critical path {}ns)",
        profile.work_ns(),
        profile.flag_wait_ns(),
        profile.barrier_wait_ns(),
        profile.dispatch_wait_ns(),
        profile.spans.len(),
        profile.realized_critical_ns,
    );
}
