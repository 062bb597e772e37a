//! Ablation studies over the paper's §2.3 variants and the design
//! choices around them, all on the simulated machine:
//!
//! 1. Self-scheduling chunk size.
//! 2. Inspector elimination (§2.3 linear subscript) and light
//!    postprocessing.
//! 3. Processor-count scaling of both Table 1 solvers.
//! 4. Flag synchronization vs. a barrier per level.
//!
//! The host is timed by `benchmark/` alone.

use crate::report::Table;
use crate::table1::solve_sim_options;
use doacross_core::TestLoop;
use doacross_doconsider::{
    doconsider_order, level_histogram, reorder::order_from_levels, DependenceDag, LevelAssignment,
};
use doacross_sim::{Machine, SimOptions};
use doacross_sparse::{Problem, ProblemKind};
use doacross_trisolve::TriSolveLoop;

/// `repro ablation`: every section in order.
pub fn run() {
    chunk_sweep();
    inspector_elimination();
    processor_scaling();
    sync_granularity();
}

/// Simulated: how the self-scheduling chunk size trades grab overhead
/// against load balance and dependence stalling.
fn chunk_sweep() {
    println!("Ablation 1 — self-scheduling chunk size (simulated, 16 processors)\n");
    let machine = Machine::multimax();
    let mut t = Table::new([
        "chunk",
        "eff (L=7 doall)",
        "eff (L=8, deps)",
        "stalls (L=8)",
    ]);
    for chunk in [1usize, 2, 4, 8, 16, 64] {
        let opts = SimOptions {
            chunk,
            ..Default::default()
        };
        let doall = machine.simulate_doacross(&TestLoop::new(10_000, 1, 7), None, opts);
        let deps = machine.simulate_doacross(&TestLoop::new(10_000, 1, 8), None, opts);
        t.row([
            chunk.to_string(),
            format!("{:.3}", doall.efficiency),
            format!("{:.3}", deps.efficiency),
            deps.stalls.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Larger chunks amortize the claim counter but turn short-distance");
    println!("dependencies into intra-chunk serial chains.\n");
}

/// Simulated: the §2.3 inspector-elimination and light-post variants on the
/// Table 1 solve (5-PT).
fn inspector_elimination() {
    println!("Ablation 2 — §2.3 inspector elimination (simulated, 5-PT solve)\n");
    let machine = Machine::multimax();
    let sys = Problem::build(ProblemKind::FivePt).triangular_system();
    let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
    let order = doconsider_order(&loop_);
    let mut t = Table::new(["configuration", "T_par (kc)", "efficiency"]);
    for (name, insp, light) in [
        ("full inspector + copy-back", true, false),
        ("full inspector, light post", true, true),
        ("no inspector (linear a(i)=i)", false, false),
        ("no inspector, light post", false, true),
    ] {
        let r = machine.simulate_doacross(
            &loop_,
            Some(&order),
            SimOptions {
                chunk: 1,
                include_inspector: insp,
                light_post: light,
            },
        );
        t.row([
            name.to_string(),
            format!("{:.1}", r.t_par / 1e3),
            format!("{:.3}", r.efficiency),
        ]);
    }
    println!("{}", t.render());
}

/// Simulated: efficiency of both Table 1 solvers as the machine grows.
fn processor_scaling() {
    println!("Ablation 3 — processor scaling (simulated, 5-PT solve)\n");
    let sys = Problem::build(ProblemKind::FivePt).triangular_system();
    let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
    let order = doconsider_order(&loop_);
    let opts = solve_sim_options();
    let mut t = Table::new([
        "p",
        "eff plain",
        "eff rearranged",
        "speedup plain",
        "speedup rearr",
    ]);
    for p in [1usize, 2, 4, 8, 16, 32, 64] {
        let machine = Machine::new(p);
        let plain = machine.simulate_doacross(&loop_, None, opts);
        let re = machine.simulate_doacross(&loop_, Some(&order), opts);
        t.row([
            p.to_string(),
            format!("{:.3}", plain.efficiency),
            format!("{:.3}", re.efficiency),
            format!("{:.2}", plain.speedup()),
            format!("{:.2}", re.speedup()),
        ]);
    }
    println!("{}", t.render());
    println!("The reordering's advantage grows with p until the wavefront width");
    println!("(avg ||ism) is exhausted.\n");
}

/// Simulated: fine-grained flag synchronization (the paper's doacross) vs.
/// coarse barrier synchronization (level scheduling) over the same
/// wavefront preprocessing — the design space the construct occupies.
fn sync_granularity() {
    println!("Ablation 4 — flag sync (doacross) vs. barrier sync (level-scheduled), simulated\n");
    let machine = Machine::multimax();
    let opts = solve_sim_options();
    let mut t = Table::new([
        "Problem",
        "wavefronts",
        "doacross+doconsider (kc)",
        "level-scheduled (kc)",
        "winner",
    ]);
    for kind in ProblemKind::all() {
        let sys = Problem::build(kind).triangular_system();
        let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
        let levels = LevelAssignment::compute(&DependenceDag::build(&loop_));
        let order = order_from_levels(&levels);
        let doacross = machine.simulate_doacross(&loop_, Some(&order), opts);
        let level =
            machine.simulate_level_scheduled(&loop_, &order, &level_histogram(&levels), Some(1));
        t.row([
            sys.kind.name().to_string(),
            levels.critical_path().to_string(),
            format!("{:.1}", doacross.t_par / 1e3),
            format!("{:.1}", level.t_par / 1e3),
            if doacross.t_par <= level.t_par {
                "doacross".to_string()
            } else {
                "level".to_string()
            },
        ]);
    }
    println!("{}", t.render());
    println!("Many narrow wavefronts make the barrier-per-level cost dominate;");
    println!("the doacross's per-element flags only pay for dependencies that exist.\n");
}
