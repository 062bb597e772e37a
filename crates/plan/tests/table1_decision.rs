//! What the planner decides for the paper's five Table 1 structures, under
//! the two cost models an engine can be pricing with: a host-like one (a
//! default engine's — region dispatch costs thousands of terms) and the
//! paper's Multimax preset. Both models are constants, so the decisions
//! repeat exactly on any machine — and so does *where* each build stops:
//! the host-like model settles all five at the planner's stage-1 floor
//! (nothing priced but `sequential`, nothing built), the preset prices
//! every candidate.

use doacross_core::{AccessPattern, IndirectLoop};
use doacross_par::ThreadPool;
use doacross_plan::{ExecutionPlan, PlanVariant, Planner};
use doacross_sim::{calib::assemble, CostModel};
use doacross_sparse::{table1_problems, ProblemKind};

/// The Figure 7 forward-substitution pattern of each problem's ILU(0)
/// factor: row `i` writes `y[i]` and reads the row's earlier unknowns.
fn table1_patterns() -> Vec<(ProblemKind, IndirectLoop)> {
    table1_problems()
        .iter()
        .map(|problem| {
            let l = problem.triangular_system().l;
            let rhs: Vec<Vec<usize>> = (0..l.n()).map(|i| l.row_cols(i).to_vec()).collect();
            let coeff = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
            let pattern = IndirectLoop::new(l.n(), (0..l.n()).collect(), rhs, coeff)
                .expect("a triangular solve is a valid loop");
            (problem.kind, pattern)
        })
        .collect()
}

fn planned(costs: CostModel, pool: &ThreadPool, pattern: &IndirectLoop) -> ExecutionPlan {
    Planner::with_costs(costs)
        .plan(pool, pattern)
        .expect("plannable")
}

#[test]
fn table1_structures_stay_sequential_on_a_host_like_model_and_go_wavefront_on_the_preset() {
    // Timings of the size this repo's benchmark host reports, through the
    // same arithmetic a real calibration goes through: a sequential
    // iteration of 1 ns plus 1 ns per term, a doacross iteration of 14 ns
    // plus 2.75 ns per term, 8.6 µs to dispatch a region, 100 ns per
    // level hand-off.
    let host = assemble(2.0, 6.0, 16.75, 27.75, 8_600.0, 100.0).model;
    assert_eq!((host.seq_iter, host.seq_term), (1.0, 1.0));
    assert_eq!((host.region_dispatch, host.barrier), (8_600.0, 100.0));

    let pool = ThreadPool::new(2);
    let mut wavefronts = 0;
    for (kind, pattern) in table1_patterns() {
        let on_host = planned(host, &pool, &pattern);
        assert_eq!(
            on_host.variant(),
            PlanVariant::Sequential,
            "{} on the host-like model",
            kind.name()
        );
        // Settled at the floor: no parallel candidate priced, no artifact.
        assert!(on_host.is_gated(), "{}: {:?}", kind.name(), on_host.costs());
        let prices = on_host.costs().as_candidate_prices();
        assert!(prices[1..].iter().all(Option::is_none), "{prices:?}");
        assert_eq!(on_host.memory_bytes(), 0);

        // The paper's machine, whose dispatch costs 50 terms: everything
        // but the 5-point grid converts to level doalls — decided by
        // pricing every candidate, the sequential 5-point grid included.
        let on_preset = planned(CostModel::multimax(), &pool, &pattern);
        let expected = if kind == ProblemKind::FivePt {
            PlanVariant::Sequential
        } else {
            PlanVariant::Wavefront
        };
        assert_eq!(
            on_preset.variant(),
            expected,
            "{} on the Multimax preset",
            kind.name()
        );
        assert!(!on_preset.is_gated());
        let costs = on_preset.costs();
        assert!(
            costs.doacross.is_some() && costs.reordered.is_some() && costs.wavefront.is_some(),
            "{}: {costs:?}",
            kind.name()
        );
        wavefronts += (on_preset.variant() == PlanVariant::Wavefront) as usize;
    }
    assert_eq!(wavefronts, 4);
}

/// The bytes a plan holds are pinned, because `benchmark/` gates them
/// (`plan_kb`, bound 0.10): the struct itself — what every sequential plan
/// costs, five to ten of them being the whole of `plan_kb` on four of the
/// five workloads — and the one heap artifact of a stream-backed plan,
/// `u32` indices in claim order plus one class byte per reference.
#[test]
fn plan_bytes_are_the_struct_plus_the_stream_formula() {
    assert!(
        std::mem::size_of::<ExecutionPlan>() <= 512,
        "ExecutionPlan grew to {} B",
        std::mem::size_of::<ExecutionPlan>()
    );

    // Flag plans pinned the way `benchmark/`'s `table1-par` pins them.
    let flag_prices = CostModel {
        seq_iter: 1e6,
        seq_term: 1e6,
        wait_poll: 0.0,
        barrier: 1e9,
        ..CostModel::multimax()
    };
    let pool = ThreadPool::new(2);
    for (kind, pattern) in table1_patterns() {
        let n = pattern.iterations();
        let ends = 4 * (n + 1); // one `u32` per claim, plus the sentinel
        let preset = planned(CostModel::multimax(), &pool, &pattern);
        let nnz = preset.census().total_terms as usize;
        let levels = preset.census().critical_path;
        let expected = match preset.variant() {
            PlanVariant::Wavefront => 4 * n + ends + nnz + 4 * (levels + 1),
            _ => 0, // sequential: no artifact
        };
        assert_eq!(preset.memory_bytes(), expected, "{} preset", kind.name());

        let flags = planned(flag_prices, &pool, &pattern);
        assert_eq!(flags.variant(), PlanVariant::Reordered, "{}", kind.name());
        assert_eq!(
            flags.memory_bytes(),
            4 * n + ends + nnz,
            "{} reordered",
            kind.name()
        );
    }
}
