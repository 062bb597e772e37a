//! Adversarial and failure-injection tests: dependence patterns chosen to
//! stress the runtime's synchronization, scheduling, and error paths.

use preprocessed_doacross::core::{
    seq::run_sequential, Doacross, DoacrossError, IndirectLoop, TestLoop,
};
use preprocessed_doacross::engine::{Engine, EngineError};
use preprocessed_doacross::par::ThreadPool;
use preprocessed_doacross::plan::{CensusPass, PlanVariant, Planner};
use preprocessed_doacross::sim::CostModel;

fn pool(n: usize) -> ThreadPool {
    ThreadPool::new(n)
}

/// Fully serial loop: iteration i reads what iteration i-1 wrote, distance
/// 1, maximal stalling. The runtime must degrade gracefully, not deadlock.
#[test]
fn fully_serial_chain_under_all_schedules() {
    let n = 1_000;
    let a: Vec<usize> = (1..=n).collect();
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let l = IndirectLoop::new(n + 1, a, rhs, vec![vec![0.5]; n]).unwrap();
    let mut expect = vec![1.0; n + 1];
    run_sequential(&l, &mut expect);
    let mut rt = Doacross::for_loop(&l);
    let mut y = vec![1.0; n + 1];
    let stats = rt.run(&pool(4), &l, &mut y).unwrap();
    assert_eq!(y, expect, "inspected");
    // Iteration 0 reads the unwritten element 0; the rest chain.
    assert_eq!(stats.deps.true_deps, (n - 1) as u64, "inspected");
    // Planned, a chunk of up to 100 links of the chain per claim.
    let stream = CensusPass::of(&l).stream(&l, None, None).unwrap();
    for grain in [1, 2, 8, 100] {
        let mut y = vec![1.0; n + 1];
        let stats = rt
            .run_planned(&pool(4), &l, &mut y, &stream, Some(grain), None)
            .unwrap();
        assert_eq!(y, expect, "grain {grain}");
        assert_eq!(stats.deps.true_deps, (n - 1) as u64, "grain {grain}");
    }
}

/// Fan-in: the last iteration reads every earlier iteration's output.
#[test]
fn total_fan_in() {
    let n = 300;
    let mut a: Vec<usize> = (0..n).collect();
    a[n - 1] = n - 1;
    let mut rhs: Vec<Vec<usize>> = (0..n).map(|_| vec![]).collect();
    rhs[n - 1] = (0..n - 1).collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![1.0; r.len()]).collect();
    let l = IndirectLoop::new(n, a, rhs, coeff).unwrap();
    let y0: Vec<f64> = (0..n).map(|e| e as f64 * 0.01).collect();
    let mut expect = y0.clone();
    run_sequential(&l, &mut expect);
    let mut y = y0;
    let stats = Doacross::for_loop(&l).run(&pool(4), &l, &mut y).unwrap();
    assert_eq!(y, expect);
    assert_eq!(stats.deps.true_deps, (n - 1) as u64);
}

/// Fan-out: every iteration reads iteration 0's output — a single hot
/// ready flag polled by everyone (worst-case coherence traffic).
#[test]
fn total_fan_out_hot_flag() {
    let n = 500;
    let a: Vec<usize> = (0..n).collect();
    let rhs: Vec<Vec<usize>> = (0..n)
        .map(|i| if i == 0 { vec![] } else { vec![0] })
        .collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![2.0; r.len()]).collect();
    let l = IndirectLoop::new(n, a, rhs, coeff).unwrap();
    let y0 = vec![1.0; n];
    let mut expect = y0.clone();
    run_sequential(&l, &mut expect);
    let mut rt = Doacross::for_loop(&l);
    for workers in [2, 4, 8] {
        let mut y = y0.clone();
        rt.run(&pool(workers), &l, &mut y).unwrap();
        assert_eq!(y, expect, "workers={workers}");
    }
}

/// Every iteration only references its own output element (pure intra).
#[test]
fn pure_self_reference() {
    let n = 200;
    let a: Vec<usize> = (0..n).collect();
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i, i, i]).collect();
    let l = IndirectLoop::new(n, a, rhs, vec![vec![1.0; 3]; n]).unwrap();
    let y0 = vec![1.0; n];
    let mut expect = y0.clone();
    run_sequential(&l, &mut expect);
    let mut y = y0;
    let stats = Doacross::for_loop(&l).run(&pool(3), &l, &mut y).unwrap();
    assert_eq!(y, expect);
    assert_eq!(stats.deps.intra, 3 * n as u64);
    assert_eq!(stats.stalls, 0, "intra references never stall");
    // Each element: 1 -> 2 -> 4 -> 8.
    assert!(y.iter().all(|&v| v == 8.0));
}

/// Tiny loops: n = 1 with every reference classification.
#[test]
fn single_iteration_loops() {
    let p = pool(2);
    // Reads an unwritten element.
    let l1 = IndirectLoop::new(2, vec![0], vec![vec![1]], vec![vec![1.0]]).unwrap();
    let mut y = vec![1.0, 5.0];
    Doacross::for_loop(&l1).run(&p, &l1, &mut y).unwrap();
    assert_eq!(y, vec![6.0, 5.0]);
    // Reads itself.
    let l2 = IndirectLoop::new(1, vec![0], vec![vec![0]], vec![vec![1.0]]).unwrap();
    let mut y2 = vec![3.0];
    Doacross::for_loop(&l2).run(&p, &l2, &mut y2).unwrap();
    assert_eq!(y2, vec![6.0]);
}

/// Repeated failures must not poison the runtime: alternate between a loop
/// with an output dependency (rejected) and a valid loop (accepted).
#[test]
fn error_recovery_across_repeated_failures() {
    let p = pool(3);
    let bad = IndirectLoop::new(4, vec![1, 1], vec![vec![], vec![]], vec![vec![], vec![]]).unwrap();
    let good = IndirectLoop::new(
        4,
        vec![2, 3],
        vec![vec![0], vec![2]],
        vec![vec![1.0], vec![1.0]],
    )
    .unwrap();
    let mut rt = Doacross::new(4);
    for round in 0..5 {
        let mut y = vec![1.0, 2.0, 3.0, 4.0];
        let err = rt.run(&p, &bad, &mut y).unwrap_err();
        assert_eq!(
            err,
            DoacrossError::OutputDependency { element: 1 },
            "round {round}"
        );
        assert!(rt.scratch_is_clean(), "round {round}");

        let mut y2 = vec![1.0, 2.0, 3.0, 4.0];
        let mut expect = y2.clone();
        run_sequential(&good, &mut expect);
        rt.run(&p, &good, &mut y2).unwrap();
        assert_eq!(y2, expect, "round {round}");
    }
}

/// Massive oversubscription on a dependence-heavy loop: 32 workers on a
/// small host, distance-1 chain. The wait's periodic yield must keep it
/// live.
#[test]
fn oversubscription_stress() {
    let loop_ = TestLoop::new(2_000, 1, 4);
    let mut expect = loop_.initial_y();
    run_sequential(&loop_, &mut expect);
    let big = pool(32);
    let mut y = loop_.initial_y();
    Doacross::for_loop(&loop_)
        .run(&big, &loop_, &mut y)
        .unwrap();
    assert_eq!(y, expect);
}

/// The same runtime instance driven from different pools.
#[test]
fn one_runtime_many_pools() {
    let loop_ = TestLoop::new(500, 2, 6);
    let mut expect = loop_.initial_y();
    run_sequential(&loop_, &mut expect);
    let mut rt = Doacross::for_loop(&loop_);
    for workers in [1usize, 2, 4, 8] {
        let p = pool(workers);
        let mut y = loop_.initial_y();
        rt.run(&p, &loop_, &mut y).unwrap();
        assert_eq!(y, expect, "workers={workers}");
    }
}

/// Two runtimes driving the same pool from different threads: the pool
/// serializes parallel regions, so both must complete correctly.
#[test]
fn concurrent_runtimes_share_one_pool() {
    let p = std::sync::Arc::new(pool(4));
    let mut joins = Vec::new();
    for t in 0..3 {
        let p = std::sync::Arc::clone(&p);
        joins.push(std::thread::spawn(move || {
            let loop_ = TestLoop::new(400 + t * 37, 2, 6);
            let mut expect = loop_.initial_y();
            run_sequential(&loop_, &mut expect);
            let mut rt = Doacross::for_loop(&loop_);
            for _ in 0..10 {
                let mut y = loop_.initial_y();
                rt.run(&p, &loop_, &mut y).unwrap();
                assert_eq!(y, expect, "thread {t}");
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

/// Dense dependence web: every iteration reads three pseudo-random earlier
/// outputs (plus one forward/antidependency), repeatedly, across claim
/// grains.
#[test]
fn dense_random_web() {
    let n = 800;
    let a: Vec<usize> = (0..n).map(|i| n + i).collect(); // write upper half
    let rhs: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let mut v = Vec::new();
            if i > 0 {
                v.push(n + (i * 7919 % i)); // earlier output (true dep)
                v.push(n + (i * 104729 % i)); // another earlier output
            }
            v.push(i); // lower half: never written (old value)
            if i + 1 < n {
                v.push(n + i + 1); // later output (antidependency)
            }
            v
        })
        .collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.125; r.len()]).collect();
    let l = IndirectLoop::new(2 * n, a, rhs, coeff).unwrap();
    let y0: Vec<f64> = (0..2 * n).map(|e| 1.0 + (e % 13) as f64 * 0.0625).collect();
    let mut expect = y0.clone();
    run_sequential(&l, &mut expect);
    let mut rt = Doacross::for_loop(&l);
    let mut y = y0.clone();
    rt.run(&pool(4), &l, &mut y).unwrap();
    assert_eq!(y, expect, "inspected");
    let stream = CensusPass::of(&l).stream(&l, None, None).unwrap();
    for grain in [Some(1), Some(8), None] {
        let mut y = y0.clone();
        rt.run_planned(&pool(4), &l, &mut y, &stream, grain, None)
            .unwrap();
        assert_eq!(y, expect, "grain {grain:?}");
    }
}

/// A loop that disagrees with the plan it is run under — same iteration
/// count, same data space, one row longer — is a typed error on the flag
/// variants as on the wavefront: the region checks each row's reference
/// count where it reads the row, rejects the solve before that row is
/// folded (a typed rejection, not a worker panic) and names the first
/// mismatching slot in claim order, `y` is untouched, and the sub-pool
/// serves the next solve.
#[test]
fn loop_disagreeing_with_its_plan_is_a_typed_error() {
    // Interleaved distance-1 chains: reordering pays, levels exist.
    let (chains, len) = (16usize, 12usize);
    let n = chains * len;
    let rows = |extra: Option<usize>| -> IndirectLoop {
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut row = if i % len == 0 { vec![] } else { vec![i - 1] };
                if extra == Some(i) {
                    row.push(0);
                }
                row
            })
            .collect();
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
        IndirectLoop::new(n, (0..n).collect(), rhs, coeff).unwrap()
    };
    let grown = n / 2 + 1; // a mid-chain row
    let (planned, longer) = (rows(None), rows(Some(grown)));
    let y0: Vec<f64> = (0..n).map(|e| 1.0 + (e % 7) as f64 * 0.25).collect();
    let mut expect = y0.clone();
    run_sequential(&planned, &mut expect);

    // Pinned by price, the way `benchmark/` pins them: to a flag variant
    // (polls free, level hand-offs ruinous), then to the wavefront.
    for (wait_poll, barrier, wavefront) in [(0.0, 1e9, false), (1e6, 0.0, true)] {
        let prices = CostModel {
            seq_iter: 1e6,
            seq_term: 1e6,
            wait_poll,
            barrier,
            ..CostModel::multimax()
        };
        let engine = Engine::builder()
            .workers(2)
            .pools(1)
            .planner(Planner::with_costs(prices))
            .build();
        let prepared = engine.prepare(&planned).unwrap();
        match prepared.variant() {
            PlanVariant::Wavefront => assert!(wavefront),
            PlanVariant::Reordered => assert!(!wavefront),
            other => panic!("prices pin a stream-backed variant, got {other}"),
        }

        for round in 0..3 {
            let mut y = y0.clone();
            let err = prepared.execute(&longer, &mut y).unwrap_err();
            assert!(
                matches!(
                    err,
                    EngineError::Doacross(DoacrossError::ScheduleTermsMismatch {
                        iteration,
                        schedule_terms: 1,
                        loop_terms: 2,
                    }) if iteration == grown
                ),
                "{}: {err:?}",
                prepared.variant()
            );
            assert_eq!(y, y0, "round {round}: a refused solve leaves y alone");

            let mut y = y0.clone();
            let stats = prepared.execute(&planned, &mut y).unwrap();
            assert_eq!(y, expect, "round {round}: the sub-pool is reusable");
            assert_eq!(stats.attempts, 1, "and nothing fell back");
        }
    }
}
