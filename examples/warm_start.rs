//! Warm starts across process restarts: run this example twice.
//!
//! The first run finds no plan store, pays full preprocessing for each
//! structure (`plan:cold`), and checkpoints the engine's plan cache to
//! disk on exit. Every later run warm-starts from that store, so its
//! *first* solve of each structure is already a cache hit (`plan:cached`)
//! — the paper's "preprocess once" economy surviving the process
//! boundary. The example asserts this, so a second run doubles as a
//! smoke test:
//!
//! ```text
//! cargo run --release --example warm_start            # cold, saves store
//! cargo run --release --example warm_start            # warm, asserts hits
//! cargo run --release --example warm_start -- /tmp/x  # explicit store path
//! ```
//!
//! The default store lives under the system temp directory, not
//! `target/`: CI caches `target/` across commits, and a stale store from
//! an older format (or an older fingerprint function) must not leak into
//! unrelated builds.

use preprocessed_doacross::core::PlanProvenance;
use preprocessed_doacross::sparse::{Problem, ProblemKind};
use preprocessed_doacross::trisolve::TriSolveLoop;
use preprocessed_doacross::Engine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        std::env::temp_dir()
            .join("doacross_warm_start.plans")
            .display()
            .to_string()
    });
    // A fixed worker count keeps plans priced identically across runs; a
    // plan priced for another pool size would be repriced (a miss).
    let engine = Engine::builder()
        .workers(2)
        .cache_capacity(16)
        .warm_start(&path)
        .build();
    // Gate the assertion on plans actually restored, not on the file
    // existing: a store from a superseded FORMAT_VERSION (e.g. a relic
    // in the temp dir from before a format bump) is a legitimate cold
    // start under the version policy, and this run rewrites it current.
    let restored = engine.cache_len();
    println!(
        "store {path}: {}",
        if restored > 0 {
            format!("loaded, {restored} plans restored")
        } else {
            "no usable plans (first boot or format succession), starting cold".into()
        }
    );

    for kind in [ProblemKind::FivePt, ProblemKind::Spe5] {
        let sys = Problem::build(kind).triangular_system();
        let mut y = vec![0.0; sys.n()];
        let stats = engine.run(&TriSolveLoop::new(&sys.l, &sys.rhs), &mut y)?;
        assert_eq!(y, sys.l.forward_solve(&sys.rhs), "solves stay bit-exact");
        println!(
            "{:>5}: first solve provenance = {} ({:?} total, inspector {:?})",
            kind.name(),
            stats.provenance,
            stats.total,
            stats.inspector,
        );
        if restored > 0 {
            assert_eq!(
                stats.provenance,
                PlanProvenance::PlanCached,
                "{}: a warm-started engine must hit on its first solve",
                kind.name()
            );
        }
    }

    let saved = engine.save_plans(&path)?;
    println!("checkpointed {saved} plans to {path}");
    Ok(())
}
