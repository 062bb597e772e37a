//! The paper's Figure 4 test loop, end to end: dependence census,
//! engine-planned parallel execution on host threads, the §2.3
//! inspector-free linear variant, and the simulated 16-processor
//! efficiency — one row of Figure 6, reproduced live.
//!
//! Run: `cargo run --release --example test_loop [L] [M]`
//! (defaults: L = 8, M = 5)

use preprocessed_doacross::core::{seq::run_sequential, Doacross, TestLoop};
use preprocessed_doacross::sim::{Machine, SimOptions};
use preprocessed_doacross::Engine;

fn main() {
    let mut args = std::env::args().skip(1);
    let l: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(8);
    let m: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(5);
    let n = 10_000usize;

    println!("Figure 4 test loop: N = {n}, M = {m}, L = {l}");
    println!("  y(a(i)) += val(j) * y(b(i) + nbrs(j)),  a(i) = 2i, nbrs(j) = 2j - L\n");

    let loop_ = TestLoop::new(n, m, l);
    let census = loop_.census();
    println!("dependence census: {census:?}");
    if census.is_doall() {
        println!("-> odd L: no cross-iteration dependencies (pure overhead regime)\n");
    } else {
        println!(
            "-> even L: true dependencies at distances {:?}..{:?}\n",
            census.min_true_distance, census.max_true_distance
        );
    }

    // Host-thread execution through the engine: the cost model picks the
    // variant, and the plan is cached for reruns.
    let engine = Engine::builder().build();
    let workers = engine.threads();
    let mut y_seq = loop_.initial_y();
    run_sequential(&loop_, &mut y_seq);

    let prepared = engine.prepare(&loop_).expect("valid loop");
    println!(
        "engine plan: {} (priced for {} workers)",
        prepared.variant(),
        prepared.plan().processors()
    );
    let mut y_par = loop_.initial_y();
    let stats = prepared.execute(&loop_, &mut y_par).expect("valid loop");
    assert_eq!(y_seq, y_par);
    println!("host ({workers} workers), engine:      {stats}");

    // §2.3: a(i) = 2i is linear, so the inspector can be eliminated —
    // shown here against the low-level runtime directly.
    let mut y_lin = loop_.initial_y();
    let mut runtime = Doacross::new(y_lin.len());
    let lin_stats = runtime
        .run_linear(
            engine.pool(),
            &loop_,
            &mut y_lin,
            loop_.linear_subscript(),
            None,
        )
        .expect("subscript is linear");
    assert_eq!(y_seq, y_lin);
    println!("host ({workers} workers), linear §2.3: {lin_stats}");

    // Simulated 16-processor Multimax: the Figure 6 y-value for (L, M).
    let machine = Machine::multimax();
    let sim = machine.simulate_doacross(&loop_, None, SimOptions::default());
    println!("\nsimulated Multimax/320: {sim}");
    println!(
        "\nFigure 6 point (L={l}, M={m}): efficiency = {:.3}",
        sim.efficiency
    );
}
