//! # repro — the paper's evaluation, regenerated
//!
//! One binary, one subcommand per paper artefact (all numbers come from
//! the simulated 16-processor Multimax unless a section says "host"):
//!
//! * `table1` — Table 1: sparse triangular solve times (sequential,
//!   preprocessed doacross, doconsider-rearranged doacross) on SPE2, SPE5,
//!   5-PT, 7-PT, 9-PT.
//! * `fig6` — Figure 6: parallel efficiency of the preprocessed doacross
//!   on the Figure 4 test loop, `N = 10000`, `M ∈ {1, 5}`, `L = 1..14`.
//! * `census` — the dependence census behind Figure 6's shape.
//! * `ablation` — the §2.3 variants and the design choices around them.
//! * `solve [MATRIX.mtx]` — the §3.2 pipeline on a Matrix Market file of
//!   your own.
//!
//! Usage: `cargo run --release -p doacross-bench -- <subcommand> [args]`
//!
//! Host timing of the engine is not this crate's job: `benchmark/` is the
//! repo's one measuring instrument (`BENCHMARK.json`).

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
mod ablation;
mod census;
mod fig6;
mod report;
mod solve;
mod table1;

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("table1") => table1::run(),
        Some("fig6") => fig6::run(),
        Some("census") => census::run(),
        Some("ablation") => ablation::run(),
        Some("solve") => solve::run(args),
        _ => {
            eprintln!("usage: repro <table1|fig6|census|ablation|solve> [args]");
            std::process::exit(2);
        }
    }
}
