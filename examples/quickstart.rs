//! Quickstart: parallelize a loop whose dependencies are only known at
//! run time (the paper's Figure 1 situation), through the engine API.
//!
//! ```fortran
//! do i = 1, N
//!     y(a(i)) = y(a(i)) + c * y(b(i))
//! end do
//! ```
//!
//! `a` and `b` are data read from somewhere at run time — no compiler can
//! prove which iterations depend on which. The engine's preprocessing
//! figures it out on the fly, and its planner decides from that analysis
//! and this machine's measured costs whether running the loop in parallel
//! pays (a loop this small runs sequentially). The `Engine` remembers the
//! analysis, so the second run of the same structure skips it entirely.
//!
//! Run: `cargo run --release --example quickstart`

use preprocessed_doacross::core::{seq::run_sequential, IndirectLoop};
use preprocessed_doacross::Engine;

fn main() {
    // A scrambled dependency pattern: iteration i writes y[a[i]] and reads
    // y[b[i]]. Some reads hit elements written by earlier iterations (true
    // dependencies), the rest elements written by later ones
    // (antidependencies).
    let n = 12usize;
    let a: Vec<usize> = vec![5, 2, 9, 0, 7, 11, 4, 1, 8, 3, 10, 6];
    let b: Vec<usize> = vec![2, 9, 0, 7, 5, 4, 2, 8, 11, 0, 3, 9];
    let rhs: Vec<Vec<usize>> = b.iter().map(|&e| vec![e]).collect();
    let coeff = vec![vec![0.5]; n];
    let loop_ = IndirectLoop::new(n, a.clone(), rhs, coeff).expect("valid loop");

    let y0: Vec<f64> = (0..n).map(|e| e as f64).collect();

    // Sequential oracle.
    let mut y_seq = y0.clone();
    run_sequential(&loop_, &mut y_seq);

    // One engine for the whole session: workers, planner, and a sharded
    // plan cache behind &self — clones share everything.
    let engine = Engine::builder().workers(4).build();

    let mut y_par = y0.clone();
    let stats = engine.run(&loop_, &mut y_par).expect("no output deps");

    println!("sequential : {y_seq:?}");
    println!("engine     : {y_par:?}");
    assert_eq!(y_seq, y_par, "bit-identical results");

    println!("\nrun statistics: {stats}");
    println!(
        "preprocessing: {} (first sight of this structure)",
        stats.provenance
    );

    // Same structure again — any coefficients, any y contents: the plan is
    // served from the cache and the inspector never runs.
    let prepared = engine.prepare(&loop_).expect("cached");
    // The plan keeps what its census measured. `a` is not a linear
    // subscript, so the census pass ran and classified every reference.
    let census = prepared.plan().census();
    println!(
        "reference classification (census classified: {}): {} true deps, {} anti deps, \
         {} unwritten reads, {} intra",
        census.is_classified(),
        census.true_deps,
        census.anti_deps,
        census.unwritten,
        census.intra
    );
    let mut y_again = y0;
    let hot = prepared.execute(&loop_, &mut y_again).expect("valid");
    assert_eq!(y_again, y_seq);
    println!(
        "\nrerun via prepared handle: {} (inspector {:?}), variant {}",
        hot.provenance,
        hot.inspector,
        prepared.variant()
    );
    let s = engine.cache_stats();
    println!(
        "cache: {} hit / {} miss over {} shards",
        s.hits,
        s.misses,
        engine.shards()
    );
}
