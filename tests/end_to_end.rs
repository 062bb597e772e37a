//! Cross-crate integration tests: the full pipeline from PDE operator to
//! parallel triangular solve, and the doacross runtime on the paper's
//! workloads, at host scale.

use preprocessed_doacross::core::{seq::run_sequential, Doacross, DoacrossConfig, TestLoop};
use preprocessed_doacross::doconsider::doconsider_order;
use preprocessed_doacross::par::{ThreadPool, WaitStrategy};
use preprocessed_doacross::plan::CensusPass;
use preprocessed_doacross::sparse::{Problem, ProblemKind};
use preprocessed_doacross::trisolve::{seq::solve_sequential, verify::assert_solves, TriSolveLoop};

fn pool() -> ThreadPool {
    ThreadPool::new(4)
}

#[test]
fn all_table1_systems_solve_with_all_solvers() {
    // Every way the one runtime runs Figure 7 — inspector/executor, the
    // §2.3 linear subscript in natural and doconsider claim order, and the
    // strip-mined variant — on one runtime reused across the five systems.
    let pool = pool();
    let mut runtime = Doacross::new(0);
    for kind in ProblemKind::all() {
        let name = kind.name();
        let sys = Problem::build(kind).triangular_system();
        let expect = solve_sequential(&sys.l, &sys.rhs);
        assert_solves(&sys.l, &expect, &sys.rhs, 1e-9);
        let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
        let true_deps = sys.l.nnz() as u64;

        let mut y = vec![0.0; sys.n()];
        let stats = runtime.run(&pool, &loop_, &mut y).expect("valid system");
        assert_eq!(y, expect, "{name}: inspected");
        assert_eq!(stats.iterations, sys.n());
        assert_eq!(stats.deps.true_deps, true_deps, "{name}: inspected");

        let order = doconsider_order(&loop_);
        for (lane, order) in [("doacross", None), ("rearranged", Some(&order[..]))] {
            let mut y = vec![0.0; sys.n()];
            let stats = runtime
                .run_linear(&pool, &loop_, &mut y, TriSolveLoop::subscript(), order)
                .expect("valid system");
            assert_eq!(y, expect, "{name}: {lane}");
            assert_eq!(stats.deps.true_deps, true_deps, "{name}: {lane}");
        }

        let mut y = vec![0.0; sys.n()];
        runtime
            .run_blocked(&pool, &loop_, &mut y, 256)
            .expect("valid system");
        assert_eq!(y, expect, "{name}: blocked");

        // Accuracy against the manufactured solution.
        let max_err = expect
            .iter()
            .zip(&sys.solution)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-8, "{}: err {max_err}", kind.name());
    }
}

#[test]
fn figure6_grid_matches_sequential_on_host_threads() {
    let pool = pool();
    for l in 1..=14 {
        for m in [1usize, 5] {
            let loop_ = TestLoop::new(500, m, l);
            let mut expect = loop_.initial_y();
            run_sequential(&loop_, &mut expect);

            let mut y = loop_.initial_y();
            Doacross::for_loop(&loop_)
                .run(&pool, &loop_, &mut y)
                .expect("valid loop");
            assert_eq!(y, expect, "inspected L={l} M={m}");

            let mut y2 = loop_.initial_y();
            Doacross::new(y2.len())
                .run_linear(&pool, &loop_, &mut y2, loop_.linear_subscript(), None)
                .expect("linear subscript");
            assert_eq!(y2, expect, "linear L={l} M={m}");

            let mut y3 = loop_.initial_y();
            Doacross::new(0)
                .run_blocked(&pool, &loop_, &mut y3, 64)
                .expect("valid loop");
            assert_eq!(y3, expect, "blocked L={l} M={m}");
        }
    }
}

#[test]
fn one_runtime_serves_many_loop_instances() {
    // The reuse story of §2.1: one scratch allocation, many loops.
    let pool = pool();
    let mut runtime = Doacross::new(0);
    for l in [3usize, 4, 8, 11] {
        let loop_ = TestLoop::new(300, 2, l);
        let mut expect = loop_.initial_y();
        run_sequential(&loop_, &mut expect);
        let mut y = loop_.initial_y();
        runtime.run(&pool, &loop_, &mut y).expect("valid loop");
        assert_eq!(y, expect, "L={l}");
        assert!(runtime.scratch_is_clean(), "L={l}");
    }
}

#[test]
fn doacross_runs_under_every_configuration() {
    // Inspected (one iteration per claim) under every wait strategy, with
    // and without validation; planned off the census's flag stream under
    // every wait strategy and claim grain.
    let pool = pool();
    let loop_ = TestLoop::new(400, 3, 6);
    let mut expect = loop_.initial_y();
    run_sequential(&loop_, &mut expect);
    let stream = CensusPass::of(&loop_)
        .stream(&loop_, None, None)
        .expect("an injective, in-bounds loop");
    for wait in [
        WaitStrategy::Spin,
        WaitStrategy::SpinYield { spins: 32 },
        WaitStrategy::Backoff { max_spin_batch: 32 },
    ] {
        for validate in [true, false] {
            let mut rt = Doacross::with_config(
                loop_.initial_y().len(),
                DoacrossConfig {
                    wait,
                    validate_terms: validate,
                },
            );
            let mut y = loop_.initial_y();
            rt.run(&pool, &loop_, &mut y).expect("valid loop");
            assert_eq!(y, expect, "{wait:?} validate={validate}");
        }
        let config = DoacrossConfig {
            wait,
            ..DoacrossConfig::default()
        };
        let mut rt = Doacross::with_config(loop_.initial_y().len(), config);
        for grain in [Some(1), Some(2), Some(8), Some(32), None] {
            let mut y = loop_.initial_y();
            rt.run_planned(&pool, &loop_, &mut y, &stream, grain, None)
                .expect("the loop's own stream");
            assert_eq!(y, expect, "{wait:?} grain {grain:?}");
        }
    }
}

#[test]
fn oversubscribed_pool_still_correct() {
    // 16 workers on a small host: waits must yield and the solve must
    // still complete and agree (the Multimax-on-a-laptop case).
    let big_pool = ThreadPool::new(16);
    let sys = Problem::build(ProblemKind::Spe2).triangular_system();
    let expect = solve_sequential(&sys.l, &sys.rhs);
    let mut y = vec![0.0; sys.n()];
    Doacross::new(sys.n())
        .run_linear(
            &big_pool,
            &TriSolveLoop::new(&sys.l, &sys.rhs),
            &mut y,
            TriSolveLoop::subscript(),
            None,
        )
        .expect("valid system");
    assert_eq!(y, expect);

    let loop_ = TestLoop::new(2_000, 1, 4); // distance-1 chain
    let mut expect2 = loop_.initial_y();
    run_sequential(&loop_, &mut expect2);
    let mut y2 = loop_.initial_y();
    Doacross::for_loop(&loop_)
        .run(&big_pool, &loop_, &mut y2)
        .expect("valid loop");
    assert_eq!(y2, expect2);
}

#[test]
fn reordered_solver_reduces_stalls_on_host() {
    // The Table 1 mechanism: same solve, fewer stalls under the doconsider
    // order. How many references stall on live threads depends on how the
    // host schedules them, so the reduction is asserted where it is
    // deterministic — the simulated machine, same processor count, natural
    // vs. doconsider claim order of the same system.
    use preprocessed_doacross::sim::{Machine, SimOptions};

    let pool = pool();
    let sys = Problem::build(ProblemKind::FivePt).triangular_system();
    let expect = sys.l.forward_solve(&sys.rhs);
    let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
    let order = doconsider_order(&loop_);

    let machine = Machine::new(pool.threads());
    let sim_plain = machine.simulate_doacross(&loop_, None, SimOptions::default());
    let sim_re = machine.simulate_doacross(&loop_, Some(&order), SimOptions::default());
    assert_eq!(sim_plain.true_deps, sim_re.true_deps, "same dependencies");
    assert!(
        sim_re.stalls < sim_plain.stalls,
        "reordering should reduce stalls: {} -> {}",
        sim_plain.stalls,
        sim_re.stalls
    );

    // What threads do guarantee: both claim orders resolve the same
    // dependencies and produce the sequential result bit for bit.
    let mut runtime = Doacross::new(sys.n());
    let mut solve = |order: Option<&[usize]>| {
        let mut y = vec![0.0; sys.n()];
        let stats = runtime
            .run_linear(&pool, &loop_, &mut y, TriSolveLoop::subscript(), order)
            .expect("valid");
        (y, stats)
    };
    let (y_plain, plain) = solve(None);
    let (y_re, re) = solve(Some(&order));
    assert_eq!(plain.deps.true_deps, re.deps.true_deps, "same dependencies");
    assert_eq!(plain.deps.true_deps, sim_plain.true_deps);
    assert_eq!(y_plain, expect);
    assert_eq!(y_re, expect);
}

#[test]
fn facade_engine_serves_concurrent_callers() {
    // The facade's front door: one shared Engine, several threads, mixed
    // structures — exact results and a warm cache.
    use preprocessed_doacross::Engine;

    let engine = Engine::builder().workers(2).cache_capacity(8).build();
    let loops = [
        TestLoop::new(500, 1, 7),
        TestLoop::new(500, 2, 8),
        TestLoop::new(400, 1, 4),
    ];
    let oracles: Vec<Vec<f64>> = loops
        .iter()
        .map(|l| {
            let mut y = l.initial_y();
            run_sequential(l, &mut y);
            y
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..3 {
            let engine = engine.clone();
            let (loops, oracles) = (&loops, &oracles);
            scope.spawn(move || {
                for round in 0..3 {
                    for (i, l) in loops.iter().enumerate() {
                        let mut y = l.initial_y();
                        engine.run(l, &mut y).expect("valid loop");
                        assert_eq!(&y, &oracles[i], "thread {t} round {round} loop {i}");
                    }
                }
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.misses, loops.len() as u64, "one plan per structure");
    assert!(stats.hits > 0, "shared cache serves hits across threads");

    // Prepared handles survive cache eviction but not invalidation: on a
    // one-plan cache, preparing a second structure evicts the first.
    let engine = Engine::builder()
        .workers(2)
        .cache_capacity(1)
        .shards(1)
        .build();
    let prepared = engine.prepare(&loops[0]).expect("plannable");
    engine.prepare(&loops[1]).expect("plannable");
    assert_eq!(engine.cache_stats().evictions, 1);
    let mut y = loops[0].initial_y();
    prepared.execute(&loops[0], &mut y).expect("eviction-proof");
    assert_eq!(y, oracles[0]);
    engine.invalidate(prepared.fingerprint());
    assert!(prepared.is_stale());
    assert!(prepared.execute(&loops[0], &mut y).is_err());
}
