//! Figure 6: "Effect of Loop Parameters on Efficiency of Preprocessed
//! Doacross" — efficiency vs. `L` for `M ∈ {1, 5}`, `N = 10000`, 16
//! processors.

use crate::report::Table;
use doacross_core::{DependencyCensus, TestLoop};
use doacross_sim::{Machine, SimOptions, SimResult};

/// One point of the Figure 6 series.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// The loop's `L` parameter (x-axis).
    pub l: usize,
    /// Simulated 16-processor parallel efficiency (y-axis).
    pub efficiency: f64,
    /// Simulated speedup.
    pub speedup: f64,
    /// Ground-truth dependence census for the parameterization.
    pub census: DependencyCensus,
    /// Stall count observed in the simulated schedule.
    pub stalls: u64,
}

/// The paper's parameter grid: `L = 1..=14`, for one `M`.
pub fn series(machine: &Machine, n: usize, m: usize) -> Vec<Fig6Point> {
    (1..=14)
        .map(|l| {
            let loop_ = TestLoop::new(n, m, l);
            let r: SimResult = machine.simulate_doacross(&loop_, None, SimOptions::default());
            Fig6Point {
                l,
                efficiency: r.efficiency,
                speedup: r.speedup(),
                census: loop_.census(),
                stalls: r.stalls,
            }
        })
        .collect()
}

/// Both series of the figure (`M = 1` and `M = 5`), paper-sized
/// (`N = 10000`) unless overridden.
pub fn figure6(machine: &Machine, n: usize) -> (Vec<Fig6Point>, Vec<Fig6Point>) {
    (series(machine, n, 1), series(machine, n, 5))
}

/// `repro fig6`: prints both series for the simulated 16-processor
/// Multimax at the paper's `N = 10000`.
pub fn run() {
    let n = 10_000;
    let machine = Machine::multimax();
    println!("Figure 6 — Effect of Loop Parameters on Efficiency of Preprocessed Doacross");
    println!(
        "Simulated Encore Multimax/320: {} processors, N = {n}\n",
        machine.processors
    );

    let (m1, m5) = figure6(&machine, n);
    let mut table = Table::new([
        "L",
        "eff M=1",
        "eff M=5",
        "speedup M=1",
        "speedup M=5",
        "true deps M=5",
        "stalls M=5",
    ]);
    for (a, b) in m1.iter().zip(&m5) {
        table.row([
            a.l.to_string(),
            format!("{:.3}", a.efficiency),
            format!("{:.3}", b.efficiency),
            format!("{:.2}", a.speedup),
            format!("{:.2}", b.speedup),
            b.census.true_deps.to_string(),
            b.stalls.to_string(),
        ]);
    }
    println!("{}", table.render());

    println!("Paper reference points: odd-L plateaus ≈ 0.33 (M=1) and ≈ 0.50 (M=5);");
    println!("even-L efficiencies rise monotonically with L toward those plateaus.\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_odd_plateaus() {
        let machine = Machine::multimax();
        let (m1, m5) = figure6(&machine, 10_000);
        for p in m1.iter().filter(|p| p.l % 2 == 1) {
            assert!(
                (p.efficiency - 0.33).abs() < 0.02,
                "M=1 L={}: {}",
                p.l,
                p.efficiency
            );
            assert!(p.census.is_doall());
            assert_eq!(p.stalls, 0);
        }
        for p in m5.iter().filter(|p| p.l % 2 == 1) {
            assert!(
                (p.efficiency - 0.50).abs() < 0.02,
                "M=5 L={}: {}",
                p.l,
                p.efficiency
            );
        }
    }

    #[test]
    fn paper_shape_m5_dominates_m1_on_odd_l() {
        let machine = Machine::multimax();
        let (m1, m5) = figure6(&machine, 4_000);
        for (a, b) in m1.iter().zip(&m5) {
            if a.l % 2 == 1 {
                assert!(b.efficiency > a.efficiency, "L={}", a.l);
            }
        }
    }

    #[test]
    fn paper_shape_even_l_rises() {
        let machine = Machine::multimax();
        let (m1, _) = figure6(&machine, 10_000);
        let evens: Vec<f64> = m1
            .iter()
            .filter(|p| p.l % 2 == 0 && p.l >= 4)
            .map(|p| p.efficiency)
            .collect();
        for w in evens.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "{evens:?}");
        }
        assert!(evens.last().unwrap() > &(evens[0] * 1.5));
    }
}
