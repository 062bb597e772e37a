//! The claim-grain rule against the simulator, clock-free: on the paper's
//! five Table 1 structures, claiming in chunks sized by
//! `doacross_core::claim_grain` costs next to nothing on the paper's
//! machine (whose grab is cheaper than an iteration) and pays on a machine
//! shaped like this repo's benchmark host (whose grab costs two sequential
//! iterations) — at every processor count the planner prices for.
//!
//! The hints are what `doacross_plan::PlanExecutor` derives the grain from:
//! a level's own width for the wavefront, the level-sorted order's average
//! parallelism for the reordered doacross. (The natural order of a
//! triangular solve has a distance-1 dependence, hence grain 1 — the
//! paper's policy, nothing to compare.)

use doacross_core::{claim_grain, AccessPattern, ClaimStream, IndirectLoop};
use doacross_sim::{CostModel, Machine, SimOptions};
use doacross_sparse::{table1_problems, ProblemKind};

/// How far above one-iteration claims the derived grain may land under the
/// Multimax model, where a grab is the cheapest thing an iteration does.
const MULTIMAX_BAND: f64 = 1.10;

/// Each problem's forward-substitution pattern with its level-sorted claim
/// order and level widths.
fn table1_levels() -> Vec<(ProblemKind, IndirectLoop, Vec<usize>, Vec<usize>)> {
    table1_problems()
        .iter()
        .map(|problem| {
            let l = problem.triangular_system().l;
            let n = l.n();
            let rhs: Vec<Vec<usize>> = (0..n).map(|i| l.row_cols(i).to_vec()).collect();
            let coeff = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
            // Row i reads strictly earlier unknowns: every reference is a
            // true dependency on iteration `term_element`.
            let mut levels = vec![1usize; n];
            for i in 0..n {
                for &w in &rhs[i] {
                    levels[i] = levels[i].max(levels[w] + 1);
                }
            }
            let nlevels = levels.iter().copied().max().unwrap_or(0);
            let (offsets, order) = ClaimStream::sort_levels(&levels, nlevels);
            let widths = offsets.windows(2).map(|w| w[1] - w[0]).collect();
            let pattern = IndirectLoop::new(n, (0..n).collect(), rhs, coeff)
                .expect("a triangular solve is a valid loop");
            (problem.kind, pattern, order, widths)
        })
        .collect()
}

/// `(grain 1, derived grain)` executor times of both stream-backed orders.
fn simulate(
    costs: CostModel,
    p: usize,
    pattern: &IndirectLoop,
    order: &[usize],
    widths: &[usize],
) -> [(f64, f64); 2] {
    let machine = Machine {
        processors: p,
        costs,
    };
    let flags = |chunk: usize| {
        let opts = SimOptions {
            chunk,
            include_inspector: false,
            ..SimOptions::default()
        };
        machine
            .simulate_doacross(pattern, Some(order), opts)
            .t_executor
    };
    let levels = |chunk: Option<usize>| {
        machine
            .simulate_level_scheduled(pattern, order, widths, chunk)
            .t_par
    };
    let parallelism = pattern.iterations() / widths.len();
    [
        (flags(1), flags(claim_grain(parallelism, p))),
        (levels(Some(1)), levels(None)),
    ]
}

#[test]
fn derived_grain_stays_in_band_on_the_multimax_and_wins_where_grabs_are_dear() {
    let multimax = CostModel::multimax();
    // This host's shape: claiming off the shared counter (a `lock xadd`
    // bouncing between cores) costs two sequential iterations.
    let host_shaped = CostModel {
        schedule_grab: 2.0 * multimax.seq_iter,
        ..multimax
    };
    for (kind, pattern, order, widths) in table1_levels() {
        for p in [2usize, 4, 8, 16] {
            let case = format!("{} on {p} processors", kind.name());
            for (one, derived) in simulate(multimax, p, &pattern, &order, &widths) {
                assert!(
                    derived <= MULTIMAX_BAND * one,
                    "{case}: derived grain {derived} vs one-iteration claims {one}"
                );
            }
            let [flags, levels] = simulate(host_shaped, p, &pattern, &order, &widths);
            // Strictly faster wherever the rule derives a grain above 1 at
            // all (at 8 and 16 processors the narrower structures keep
            // one-iteration claims, and then the two runs are one run).
            let grains_differ = widths.iter().any(|&w| claim_grain(w, p) > 1);
            assert!(
                levels.1 < levels.0 || !grains_differ,
                "{case}: level doalls {} vs {}",
                levels.1,
                levels.0
            );
            let parallelism = pattern.iterations() / widths.len();
            assert!(
                flags.1 < flags.0 || claim_grain(parallelism, p) == 1,
                "{case}: reordered flags {} vs {}",
                flags.1,
                flags.0
            );
        }
    }
}
