//! Who pays for a sequential solve's clock. `RunStats::total` of a
//! sequential solve is measured only when something in the engine
//! consumes it — observability, the profiler or the adaptive layer — and
//! is `Duration::ZERO` ("not measured") otherwise. A parallel solve always
//! measures it. The answer never depends on the switches.

use doacross_core::{seq::run_sequential, DoacrossLoop, IndirectLoop, RunStats, TestLoop};
use doacross_engine::{Engine, SpanKind};
use doacross_plan::{PlanVariant, Planner};
use doacross_sim::CostModel;
use std::time::Duration;

/// A serial chain: every iteration reads the one before it, so it is
/// sequential under any cost model.
fn chain() -> IndirectLoop {
    let n = 400usize;
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    IndirectLoop::new(n + 1, (1..=n).collect(), rhs, vec![vec![0.5]; n]).unwrap()
}

fn fresh_y(len: usize) -> Vec<f64> {
    (0..len).map(|e| 1.0 + (e % 10) as f64 / 10.0).collect()
}

/// Prepares `loop_` on `engine`, warms it, and returns the stats of one
/// more solve after checking its answer bit for bit against
/// `run_sequential`.
fn warm_solve<L: DoacrossLoop>(engine: &Engine, loop_: &L) -> RunStats {
    let prepared = engine.prepare(loop_).unwrap();
    let y0 = fresh_y(loop_.data_len());
    let mut oracle = y0.clone();
    run_sequential(loop_, &mut oracle);
    for _ in 0..3 {
        let mut y = y0.clone();
        prepared.execute(loop_, &mut y).unwrap();
    }
    let mut y = y0;
    let stats = prepared.execute(loop_, &mut y).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&y), bits(&oracle), "the answer is the source loop's");
    stats
}

#[test]
fn a_default_engine_does_not_time_a_sequential_solve() {
    let engine = Engine::builder().build();
    let loop_ = chain();
    assert_eq!(
        engine.prepare(&loop_).unwrap().variant(),
        PlanVariant::Sequential
    );
    let stats = warm_solve(&engine, &loop_);
    assert_eq!(stats.total, Duration::ZERO, "not measured");
    assert_eq!(stats.iterations, 400);
    assert_eq!((stats.workers, stats.blocks, stats.attempts), (1, 1, 1));
}

#[test]
fn observability_times_a_sequential_solve_and_records_that_time() {
    let engine = Engine::builder().observability_default().build();
    let stats = warm_solve(&engine, &chain());
    assert!(stats.total > Duration::ZERO);
    let record = engine.recent_solves().pop().expect("a flight record");
    assert_eq!(u128::from(record.total_ns), stats.total.as_nanos());
}

#[test]
fn profiling_times_a_sequential_solve_as_its_one_work_span() {
    let engine = Engine::builder().profiling_default().build();
    let stats = warm_solve(&engine, &chain());
    assert!(stats.total > Duration::ZERO);
    let profile = engine.recent_profiles().pop().expect("a profile");
    let work: Vec<_> = profile
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Work)
        .collect();
    assert_eq!(work.len(), 1);
    assert_eq!(u128::from(work[0].dur_ns), stats.total.as_nanos());
}

#[test]
fn adaptation_times_a_sequential_solve() {
    let engine = Engine::builder().adaptive().build();
    assert!(engine.is_adaptive());
    let stats = warm_solve(&engine, &chain());
    assert!(stats.total > Duration::ZERO);
}

#[test]
fn a_parallel_solve_on_a_default_engine_is_timed() {
    // Prices under which a flag variant wins: the sequential loop and
    // barriers cost a fortune, polls nothing.
    let engine = Engine::builder()
        .workers(2)
        .pools(1)
        .planner(Planner::with_costs(CostModel {
            seq_iter: 1e6,
            seq_term: 1e6,
            wait_poll: 0.0,
            barrier: 1e9,
            ..CostModel::multimax()
        }))
        .build();
    let loop_ = TestLoop::new(400, 1, 8);
    assert_ne!(
        engine.prepare(&loop_).unwrap().variant(),
        PlanVariant::Sequential
    );
    let stats = warm_solve(&engine, &loop_);
    assert!(stats.total > Duration::ZERO);
    assert!(stats.total >= stats.executor);
}
