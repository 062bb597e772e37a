//! Acceptance check for the soundness verifier against the paper's five
//! Table 1 problems: for every structure, the plan the engine selects must
//! be *proven* to cover every dependence the sparse triangular system
//! implies — full translation validation of the prepared plan
//! (`ExecutionPlan::verify_against` the live pattern), plus a direct pass
//! over all legal variants of one structure.

use doacross_core::{AccessPattern, ClaimStream};
use doacross_engine::Engine;
use doacross_plan::{PlanVariant, Planner, SyncSchedule};
use doacross_sparse::{table1_problems, ProblemKind};
use doacross_trisolve::TriSolveLoop;

#[test]
fn all_five_table1_selected_plans_verify_sound() {
    // Priced for the paper's machine: the Multimax preset is the model the
    // wavefront assertion below is about (the default engine prices with
    // this host's costs and picks for itself).
    let engine = Engine::builder().workers(4).planner(Planner::new()).build();
    for problem in table1_problems() {
        let sys = problem.triangular_system();
        let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
        let selected = engine.prepare(&loop_).expect("plannable");
        let report = selected
            .plan()
            .verify_against(&loop_)
            .unwrap_or_else(|err| panic!("{}: selected plan unsound: {err}", problem.kind.name()));
        assert_eq!(report.iterations, sys.l.n(), "{}", problem.kind.name());
        // A triangular solve row reads strictly earlier unknowns: every
        // reference is a flow dependence, and the verifier must have
        // walked all of them.
        assert_eq!(
            report.references,
            report.flow_edges,
            "{}: triangular structure is pure flow",
            problem.kind.name()
        );
        assert!(report.flow_edges > 0, "{}", problem.kind.name());
        // What was proven is what the model picks on its own prices: at 4
        // workers the deep structures go to the wavefront, nothing forced.
        if matches!(problem.kind, ProblemKind::Spe2 | ProblemKind::SevenPt) {
            assert_eq!(
                selected.variant(),
                PlanVariant::Wavefront,
                "{}: {:?}",
                problem.kind.name(),
                selected.plan().costs()
            );
        }
    }
}

/// The same Table 1 structure proves sound under *every* schedule that is
/// legal for it — not just the cost model's winner — exercising all the
/// flag-based rules on real sparse structure.
#[test]
fn first_table1_structure_sound_under_all_legal_schedules() {
    let problem = &table1_problems()[0];
    let sys = problem.triangular_system();
    let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
    let n = loop_.iterations();

    // A row of L reads strictly earlier unknowns: every reference is a
    // true dependency, in any claim order.
    let mut term_offsets = vec![0usize];
    for i in 0..n {
        term_offsets.push(term_offsets[i] + loop_.terms(i));
    }
    let all_new = vec![0u8; term_offsets[n]];
    let stream = |order: Option<&[usize]>| {
        ClaimStream::from_iteration_order(order, None, &term_offsets, all_new.clone())
            .expect("a consistent stream")
    };
    doacross_verify::verify_pattern(
        &loop_,
        &SyncSchedule::FlagsNatural {
            stream: &stream(None),
        },
    )
    .expect("flat doacross covers a lower-triangular solve");
    doacross_verify::verify_pattern(
        &loop_,
        &SyncSchedule::FlagsLinear {
            subscript: TriSolveLoop::subscript(),
        },
    )
    .expect("a(i) = i is the inspector-free fast path");
    let natural: Vec<usize> = (0..n).collect();
    doacross_verify::verify_pattern(
        &loop_,
        &SyncSchedule::FlagsOrdered {
            stream: &stream(Some(&natural)),
        },
    )
    .expect("natural order is topological for a triangular system");
    doacross_verify::verify_pattern(&loop_, &SyncSchedule::Sequential).expect("always sound");
}
