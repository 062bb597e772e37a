//! Table 1: "Preprocessed Doacross Times for Sparse Triangular Matrices".
//!
//! For each of SPE2 / SPE5 / 5-PT / 7-PT / 9-PT the paper reports three
//! times on 16 processors: the preprocessed doacross solve, the doconsider-
//! rearranged preprocessed doacross solve, and the optimized sequential
//! solve. Efficiencies derived from the paper's milliseconds are 0.32–0.46
//! (plain) and 0.63–0.75 (rearranged).
//!
//! The solve uses the identity output subscript (`y(i)` ← row `i`), so the
//! §2.3 linear-subscript variant applies: the simulated runs disable the
//! inspector and use flag-reset-only postprocessing (a consumer reads the
//! result from the shadow array), matching how a solver library deploys
//! the construct.

use crate::report::Table;
use doacross_doconsider::{reorder::order_from_levels, DependenceDag, LevelAssignment};
use doacross_sim::{Machine, SimOptions};
use doacross_sparse::{Problem, ProblemKind, TriSystem};
use doacross_trisolve::TriSolveLoop;

/// One row of the regenerated Table 1 (times in simulated kilocycles).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Problem name as in the paper.
    pub name: &'static str,
    /// Equations.
    pub n: usize,
    /// Strictly-lower nonzeros (dependencies).
    pub nnz: usize,
    /// Wavefront count (dependence critical path).
    pub critical_path: usize,
    /// Average wavefront width `n / critical_path`.
    pub avg_parallelism: f64,
    /// Sequential solve time, kilocycles.
    pub t_seq: f64,
    /// Preprocessed doacross (natural order), kilocycles.
    pub t_plain: f64,
    /// Doconsider-rearranged preprocessed doacross, kilocycles.
    pub t_reordered: f64,
    /// Efficiency of the plain doacross (`T_seq / (p · T_par)`).
    pub eff_plain: f64,
    /// Efficiency of the rearranged doacross.
    pub eff_reordered: f64,
    /// Stalled references in the plain schedule (the table prints times;
    /// only the paper-shape tests compare stall counts).
    #[cfg(test)]
    pub stalls_plain: u64,
    /// Stalled references in the rearranged schedule.
    #[cfg(test)]
    pub stalls_reordered: u64,
}

/// The simulation options Table 1 uses (see module docs).
pub fn solve_sim_options() -> SimOptions {
    SimOptions {
        chunk: 1,
        include_inspector: false,
        light_post: true,
    }
}

/// Simulates one problem's row.
pub fn simulate_row(machine: &Machine, sys: &TriSystem) -> Table1Row {
    let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
    let opts = solve_sim_options();
    let plain = machine.simulate_doacross(&loop_, None, opts);
    let levels = LevelAssignment::compute(&DependenceDag::build(&loop_));
    let reordered = machine.simulate_doacross(&loop_, Some(&order_from_levels(&levels)), opts);
    Table1Row {
        name: sys.kind.name(),
        n: sys.n(),
        nnz: sys.l.nnz(),
        critical_path: levels.critical_path(),
        avg_parallelism: levels.average_parallelism(),
        t_seq: plain.t_seq / 1e3,
        t_plain: plain.t_par / 1e3,
        t_reordered: reordered.t_par / 1e3,
        eff_plain: plain.efficiency,
        eff_reordered: reordered.efficiency,
        #[cfg(test)]
        stalls_plain: plain.stalls,
        #[cfg(test)]
        stalls_reordered: reordered.stalls,
    }
}

/// Regenerates the full table on the given machine (16-processor Multimax
/// for the paper's configuration).
pub fn table1(machine: &Machine) -> Vec<Table1Row> {
    ProblemKind::all()
        .iter()
        .map(|&kind| {
            let sys = Problem::build(kind).triangular_system();
            simulate_row(machine, &sys)
        })
        .collect()
}

/// `repro table1`: prints the regenerated table for the simulated
/// 16-processor Multimax.
pub fn run() {
    let machine = Machine::multimax();
    println!("Table 1 — Preprocessed Doacross Times for Sparse Triangular Matrices");
    println!(
        "Simulated Encore Multimax/320: {} processors (times in kilocycles)\n",
        machine.processors
    );

    let rows = table1(&machine);
    let mut t = Table::new([
        "Problem",
        "n",
        "nnz",
        "wavefronts",
        "avg ||ism",
        "Doacross",
        "Rearranged",
        "Sequential",
        "eff",
        "eff (rearr)",
    ]);
    for r in &rows {
        t.row([
            r.name.to_string(),
            r.n.to_string(),
            r.nnz.to_string(),
            r.critical_path.to_string(),
            format!("{:.1}", r.avg_parallelism),
            format!("{:.1}", r.t_plain),
            format!("{:.1}", r.t_reordered),
            format!("{:.1}", r.t_seq),
            format!("{:.2}", r.eff_plain),
            format!("{:.2}", r.eff_reordered),
        ]);
    }
    println!("{}", t.render());
    println!("Paper reference: plain efficiencies 0.32–0.46; rearranged 0.63–0.75;");
    println!("rearranging reduces every problem's time (e.g. 5-PT 37 ms → 19 ms).\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reordering_wins_on_every_problem() {
        // The paper's headline Table 1 claim. Uses the two small problems
        // plus 5-PT to keep test time bounded; the full set runs in the
        // bench binary and integration tests.
        let machine = Machine::multimax();
        for kind in [ProblemKind::Spe2, ProblemKind::FivePt] {
            let sys = Problem::build(kind).triangular_system();
            let row = simulate_row(&machine, &sys);
            assert!(
                row.t_reordered < row.t_plain,
                "{}: reordered {} !< plain {}",
                row.name,
                row.t_reordered,
                row.t_plain
            );
            assert!(row.eff_reordered > row.eff_plain, "{}", row.name);
            assert!(
                row.stalls_reordered < row.stalls_plain,
                "{}: reordering must reduce stalls",
                row.name
            );
        }
    }

    #[test]
    fn doacross_beats_sequential_on_16_processors() {
        let machine = Machine::multimax();
        let sys = Problem::build(ProblemKind::FivePt).triangular_system();
        let row = simulate_row(&machine, &sys);
        assert!(row.t_plain < row.t_seq, "parallel must beat sequential");
        assert!(row.t_reordered < row.t_seq);
    }

    #[test]
    fn rearranged_efficiency_lands_in_paper_band() {
        // Paper band: 0.63–0.75. Allow a generous margin (our coefficients
        // and machine are synthetic) but require the same regime.
        let machine = Machine::multimax();
        let sys = Problem::build(ProblemKind::FivePt).triangular_system();
        let row = simulate_row(&machine, &sys);
        assert!(
            row.eff_reordered > 0.45 && row.eff_reordered < 0.90,
            "5-PT rearranged efficiency {} out of regime",
            row.eff_reordered
        );
    }
}
