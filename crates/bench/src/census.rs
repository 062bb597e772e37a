//! Dependence census of the Figure 4 test loop across the paper's
//! parameter grid — the ground truth behind Figure 6's shape (odd `L`:
//! doall; even `L`: true dependencies at distance `L/2 − j`).

use crate::report::Table;
use doacross_core::TestLoop;

/// `repro census`: one table per `M`, 14 rows each.
pub fn run() {
    let n = 10_000;
    println!("Dependence census of the Figure 4 test loop (N = {n})\n");
    for m in [1usize, 5] {
        println!("M = {m}:");
        let mut t = Table::new([
            "L",
            "true deps",
            "anti deps",
            "intra",
            "unwritten",
            "min dist",
            "max dist",
            "doall?",
        ]);
        for l in 1..=14 {
            let c = TestLoop::new(n, m, l).census();
            t.row([
                l.to_string(),
                c.true_deps.to_string(),
                c.anti_deps.to_string(),
                c.intra.to_string(),
                c.unwritten.to_string(),
                c.min_true_distance.map_or("-".into(), |d| d.to_string()),
                c.max_true_distance.map_or("-".into(), |d| d.to_string()),
                if c.is_doall() { "yes" } else { "no" }.to_string(),
            ]);
        }
        println!("{}", t.render());
    }
    println!("Odd L: every reference targets an element no iteration writes —");
    println!("the loop is a doall and measured efficiency is pure overhead.");
    println!("Even L: term j is a true dependency at distance L/2 − j (j < L/2),");
    println!("so larger L stretches dependencies and efficiency recovers.");
}
