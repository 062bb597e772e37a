//! Simulation outputs.

/// The outcome of one simulated doacross run, in abstract machine cycles.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Simulated processors.
    pub processors: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Sequential execution time of the same loop (`T_seq`).
    pub t_seq: f64,
    /// Parallel end-to-end time (`T_par`): inspector + executor + post.
    pub t_par: f64,
    /// Inspector phase time (0 when the inspector is eliminated).
    pub t_inspector: f64,
    /// Executor phase time.
    pub t_executor: f64,
    /// Postprocessor phase time.
    pub t_post: f64,
    /// Parallel efficiency `T_seq / (p · T_par)` — the paper's §3 metric.
    pub efficiency: f64,
    /// Total processor-cycles spent busy-waiting on `ready` flags.
    pub wait_cycles: f64,
    /// True-dependency references that stalled (writer unfinished at first
    /// check).
    pub stalls: u64,
    /// All true-dependency references.
    pub true_deps: u64,
}

impl SimResult {
    /// Speedup `T_seq / T_par`.
    pub fn speedup(&self) -> f64 {
        if self.t_par == 0.0 {
            0.0
        } else {
            self.t_seq / self.t_par
        }
    }

    /// Fraction of total processor time lost to busy-waiting.
    fn wait_fraction(&self) -> f64 {
        let total = self.t_par * self.processors as f64;
        if total == 0.0 {
            0.0
        } else {
            self.wait_cycles / total
        }
    }
}

impl std::fmt::Display for SimResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p={} n={}: T_seq={:.0} T_par={:.0} (insp {:.0} / exec {:.0} / post {:.0}) \
             eff={:.3} speedup={:.2} stalls={}/{} wait={:.1}%",
            self.processors,
            self.iterations,
            self.t_seq,
            self.t_par,
            self.t_inspector,
            self.t_executor,
            self.t_post,
            self.efficiency,
            self.speedup(),
            self.stalls,
            self.true_deps,
            100.0 * self.wait_fraction(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let r = SimResult {
            processors: 4,
            t_seq: 100.0,
            t_par: 50.0,
            wait_cycles: 20.0,
            ..Default::default()
        };
        assert_eq!(r.speedup(), 2.0);
        assert_eq!(r.wait_fraction(), 0.1);
    }

    #[test]
    fn zero_time_edge_cases() {
        let r = SimResult::default();
        assert_eq!(r.speedup(), 0.0);
        assert_eq!(r.wait_fraction(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let r = SimResult {
            processors: 16,
            iterations: 100,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("p=16"));
        assert!(s.contains("n=100"));
    }
}
