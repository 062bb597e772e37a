//! Chaos suite: deterministic fault injection against a live engine.
//!
//! Every test arms a `failpoint` site (a worker panic at a chosen
//! iteration, a per-iteration delay that trips the solve deadline, or
//! synthetic admission saturation), drives a solve through the full
//! engine path, and proves the failure mode resolves **typed and
//! recoverable**: a specific `EngineError` within a hard watchdog bound
//! (never a hang), the sub-pool reusable immediately afterwards, other
//! tenants bit-identical to the sequential oracle throughout, and — when
//! the fallback policy is on — the answer still delivered.
//!
//! The failpoint registry is process-global, so every test serializes on
//! [`chaos_lock`] and disarms on the way out.

use doacross_core::{
    seq::run_sequential, AccessPattern, DoacrossError, DoacrossLoop, IndirectLoop, PlanProvenance,
    TestLoop,
};
use doacross_engine::{
    AdaptiveConfig, Engine, EngineBuilder, EngineError, FallbackPolicy, ObsVariant, PersistError,
    SolveOutcome, SolveProfile, SpanKind, TraceEvent,
};
use doacross_plan::{PlanVariant, Planner};
use doacross_sim::CostModel;
use doacross_sparse::{ilu0, stencil::five_point, TriangularMatrix};
use doacross_trisolve::TriSolveLoop;
use failpoint::FailAction;
use std::sync::{mpsc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serializes chaos tests (the failpoint registry is process-global). A
/// test that panicked while holding the lock poisons it; the next test
/// still runs (and re-disarms).
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    failpoint::disarm_all();
    guard
}

/// The no-hang proof: runs `solve` on a helper thread and panics if it
/// has not produced a result within `bound` — a wedged region fails the
/// test instead of wedging the suite.
fn within<T: Send + 'static>(bound: Duration, solve: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        let _ = tx.send(solve());
    });
    let result = rx
        .recv_timeout(bound)
        .expect("watchdog: solve did not resolve within the hang bound");
    watchdog.join().expect("solver thread exited cleanly");
    result
}

const HANG_BOUND: Duration = Duration::from_secs(30);

fn oracle_of<L: DoacrossLoop + ?Sized>(loop_: &L, y0: &[f64]) -> Vec<f64> {
    let mut oracle = y0.to_vec();
    run_sequential(loop_, &mut oracle);
    oracle
}

fn fresh_y(len: usize) -> Vec<f64> {
    (0..len).map(|e| 1.0 + (e % 10) as f64 / 10.0).collect()
}

/// Dependence-free, non-linear (reversed) subscript: plans as the flat
/// inspected doacross.
fn doacross_victim() -> IndirectLoop {
    let n = 4_000;
    let a: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
    IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap()
}

/// Interleaved distance-1 chains: the doconsider claim order wins.
fn reordered_victim() -> IndirectLoop {
    let (chains, len) = (32, 16);
    let n = chains * len;
    let a: Vec<usize> = (0..n).collect();
    let rhs: Vec<Vec<usize>> = (0..n)
        .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
        .collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
    IndirectLoop::new(n, a, rhs, coeff).unwrap()
}

/// Sparse doall over a data space 8 times the iteration count — the
/// planner's strip-mining ratio — so it runs blocked (the test asserts the
/// variant).
fn blocked_victim() -> IndirectLoop {
    let n = 4_096;
    let spread = 8;
    let a: Vec<usize> = (0..n).map(|i| (n - 1 - i) * spread).collect();
    let rhs: Vec<Vec<usize>> = (0..n)
        .map(|i| vec![i * spread + 3, ((i + 9) % n) * spread + 3])
        .collect();
    let coeff = vec![vec![0.5, 0.25]; n];
    IndirectLoop::new(n * spread, a, rhs, coeff).unwrap()
}

/// Wide dependence grid: level-scheduled wavefront with one barrier per
/// level.
fn wavefront_victim() -> IndirectLoop {
    doacross_plan::testgrid::deep_grid(64, 20, 3, 7)
}

/// The engine a victim is prepared on: four workers under the paper's
/// Multimax preset, which prices each shape above as the parallel variant
/// its name says. The default engine prices with this host's measured
/// costs and may run any of them sequentially — and a fault needs a
/// parallel region to land in.
fn victim_engine() -> EngineBuilder {
    Engine::builder().workers(4).planner(Planner::new())
}

const EXECUTOR_ITER: &str = "core::executor::iter";
const WAVEFRONT_ITER: &str = "core::wavefront::iter";
const SCHED_ACQUIRE: &str = "sched::acquire";

/// One injected-panic round trip: arm the site, prove the typed error
/// arrives under the watchdog with `y` byte-identical to its input (the
/// fallback is off, so the executor worked on the caller's own buffer: the
/// in-region copy-back must not have started before every iteration was
/// counted — and the panicking one never is), disarm, prove the *same*
/// handle and sub-pool immediately solve to the oracle.
fn assert_panic_contained<L>(
    engine: &Engine,
    loop_: L,
    wants: fn(PlanVariant) -> bool,
    site: &'static str,
    iteration: u64,
) where
    L: DoacrossLoop + Clone + Send + 'static,
{
    let prepared = engine.prepare(&loop_).unwrap();
    assert!(
        wants(prepared.variant()),
        "loop shape picked {:?}",
        prepared.variant()
    );
    let y0 = fresh_y(loop_.data_len());
    let oracle = oracle_of(&loop_, &y0);

    failpoint::arm(site, FailAction::PanicAt { iteration });
    let (err, y_after) = {
        let (prepared, loop_, mut y) = (prepared.clone(), loop_.clone(), y0.clone());
        within(HANG_BOUND, move || {
            let err = prepared.execute(&loop_, &mut y).unwrap_err();
            (err, y)
        })
    };
    assert!(
        matches!(err, EngineError::SolvePanicked { .. }),
        "{:?}: {err:?}",
        prepared.variant()
    );
    failpoint::disarm(site);
    // The strip-mined variant copies back block by block by design (the
    // copy-back carries its cross-block dependencies); every other
    // variant must not have touched `y`.
    if !matches!(prepared.variant(), PlanVariant::Blocked { .. }) {
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&y_after),
            bits(&y0),
            "{:?}: a failed solve left y torn",
            prepared.variant()
        );
    }

    // The sub-pool is immediately reusable and the same prepared handle
    // now solves correctly — containment, not contamination.
    let mut y = y0;
    let stats = prepared.execute(&loop_, &mut y).unwrap();
    assert_eq!(y, oracle, "{:?}: recovered solve", prepared.variant());
    assert_eq!(stats.attempts, 1);
}

#[test]
fn injected_worker_panic_fails_typed_across_every_parallel_variant() {
    let _serial = chaos_lock();
    let engine = victim_engine()
        .pools(1)
        .fallback(FallbackPolicy::Disabled)
        .observability_default()
        .build();

    assert_panic_contained(
        &engine,
        TestLoop::new(2_000, 1, 7),
        |v| matches!(v, PlanVariant::Linear(_)),
        EXECUTOR_ITER,
        1_900,
    );
    assert_panic_contained(
        &engine,
        doacross_victim(),
        |v| v == PlanVariant::Doacross,
        EXECUTOR_ITER,
        3_900,
    );
    assert_panic_contained(
        &engine,
        reordered_victim(),
        |v| v == PlanVariant::Reordered,
        EXECUTOR_ITER,
        500,
    );
    assert_panic_contained(
        &engine,
        wavefront_victim(),
        |v| v == PlanVariant::Wavefront,
        WAVEFRONT_ITER,
        1_200,
    );
    // The blocked variant dispatches several regions per solve (one per
    // strip-mined block); a panic in a late block must contain
    // identically. The executor's failpoint sees the *global* iteration
    // index, so 4 000 lands in a late block.
    assert_panic_contained(
        &engine,
        blocked_victim(),
        |v| matches!(v, PlanVariant::Blocked { .. }),
        EXECUTOR_ITER,
        4_000,
    );

    // Every injected fault left a Panicked record in the flight recorder.
    let panicked = engine
        .recent_solves()
        .iter()
        .filter(|r| r.outcome == SolveOutcome::Panicked)
        .count();
    assert_eq!(panicked, 5, "one failed-attempt record per variant");
    failpoint::disarm_all();
}

#[test]
fn fallback_delivers_the_oracle_answer_after_a_panic() {
    let _serial = chaos_lock();
    assert_fallback_delivers(1);
    // Once more where the faulted attempt does not hold sub-pool 0: the
    // replay's record must name the sub-pool the attempt really ran on.
    assert_fallback_delivers(2);
}

fn assert_fallback_delivers(pools: usize) {
    let engine = victim_engine()
        .pools(pools)
        .adaptive()
        .observability_default()
        .build();
    assert_eq!(engine.fallback_policy(), FallbackPolicy::SequentialRetry);
    let loop_ = doacross_victim();
    let prepared = engine.prepare(&loop_).unwrap();
    assert_eq!(prepared.variant(), PlanVariant::Doacross);
    let y0 = fresh_y(loop_.data_len());
    let oracle = oracle_of(&loop_, &y0);
    // Clean solves walk the scheduler's rotor off sub-pool 0 first (none
    // on a single-pool engine).
    for _ in 1..pools {
        let mut y = y0.clone();
        prepared.execute(&loop_, &mut y).unwrap();
        assert_eq!(y, oracle);
    }

    failpoint::arm(EXECUTOR_ITER, FailAction::PanicAt { iteration: 3_900 });
    let (stats, y) = {
        let (prepared, loop_, mut y) = (prepared.clone(), loop_.clone(), y0.clone());
        within(HANG_BOUND, move || {
            let stats = prepared.execute(&loop_, &mut y).unwrap();
            (stats, y)
        })
    };
    failpoint::disarm(EXECUTOR_ITER);

    assert_eq!(y, oracle, "fallback replays against the pristine input");
    assert_eq!(stats.attempts, 2, "one parallel fault, one replay");
    assert_eq!(stats.workers, 1, "the replay is sequential");
    assert_eq!(
        stats.provenance,
        PlanProvenance::PlanCold,
        "a replayed solve still reports its handle's provenance"
    );

    // The demotion is visible everywhere it should be: the trace, the
    // flight recorder (failed attempt AND delivering replay), adaptive
    // telemetry, and the scrape.
    let events = engine.trace_events();
    let poisoned_pool = events
        .iter()
        .find_map(|e| match e.event {
            TraceEvent::SolvePoisoned { pool, .. } => Some(pool),
            _ => None,
        })
        .expect("the fault was traced");
    assert!(events
        .iter()
        .any(|e| matches!(e.event, TraceEvent::SolveFellBack { .. })));
    let solves = engine.recent_solves();
    let outcomes: Vec<SolveOutcome> = solves.iter().map(|r| r.outcome).collect();
    assert!(outcomes.contains(&SolveOutcome::Panicked), "{outcomes:?}");
    let fell_back = solves
        .iter()
        .find(|r| r.outcome == SolveOutcome::FellBack)
        .unwrap_or_else(|| panic!("no FellBack record: {outcomes:?}"));
    assert_eq!(fell_back.provenance, PlanProvenance::PlanCold);
    assert_eq!(fell_back.variant, ObsVariant::Sequential);
    assert_eq!(fell_back.workers, 1);
    assert_eq!(
        fell_back.pool,
        Some(poisoned_pool),
        "the replay is charged to the sub-pool the faulted attempt held"
    );
    if pools > 1 {
        assert_ne!(poisoned_pool, 0, "the clean solves moved the rotor on");
    }
    let text = engine.metrics_text();
    assert!(
        text.contains("doacross_solves_total{variant=\"sequential\",provenance=\"plan_cold\"} 1"),
        "{text}"
    );
    assert_eq!(engine.adaptive_stats().unwrap().fallbacks, 1);
    assert!(text.contains("doacross_fault_panics_total 1"), "{text}");
    assert!(text.contains("doacross_fault_fallbacks_total 1"), "{text}");
    assert!(text.contains("doacross_adaptive_fallbacks_total 1"));
    failpoint::disarm_all();
}

/// The default fallback replays a faulted parallel solve through
/// `run_sequential`, which on a `TriSolveLoop` folds each row through the
/// loop's own `fold_terms`: the delivered answer is the matrix's
/// `forward_solve`, bit for bit.
#[test]
fn fallback_replay_of_a_triangular_solve_is_forward_solve() {
    let _serial = chaos_lock();
    let engine = Engine::builder()
        .workers(4)
        .pools(1)
        .planner(flag_prices())
        .build();
    assert_eq!(engine.fallback_policy(), FallbackPolicy::SequentialRetry);
    // Leaked so the solve can move onto the watchdog's thread.
    let l: &'static TriangularMatrix = Box::leak(Box::new(TriangularMatrix::from_strict_lower(
        &ilu0(&five_point(30, 30, 41)).l,
    )));
    let rhs: &'static [f64] = (0..l.n())
        .map(|i| 1.0 - (i % 7) as f64 * 0.375)
        .collect::<Vec<_>>()
        .leak();
    let loop_ = TriSolveLoop::new(l, rhs);
    let prepared = engine.prepare(&loop_).unwrap();
    assert!(
        matches!(
            prepared.variant(),
            PlanVariant::Doacross | PlanVariant::Reordered | PlanVariant::Linear(_)
        ),
        "flag prices pick a flag variant, got {:?}",
        prepared.variant()
    );

    failpoint::arm(EXECUTOR_ITER, FailAction::PanicAt { iteration: 700 });
    let (stats, y) = within(HANG_BOUND, move || {
        let mut y = vec![f64::NAN; l.n()];
        let stats = prepared.execute(&loop_, &mut y).unwrap();
        (stats, y)
    });
    failpoint::disarm(EXECUTOR_ITER);

    assert_eq!(stats.attempts, 2, "one parallel fault, one replay");
    assert_eq!(stats.workers, 1, "the replay is sequential");
    let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&y), bits(&l.forward_solve(rhs)));
    failpoint::disarm_all();
}

/// One wedged-solve round trip on a fresh engine: ~200µs of injected drag
/// per iteration pushes the region far past a 40ms budget; the deadline
/// polls (claim loop, flag waits, level gates) drain it typed, `y` stays
/// byte-identical to its input, and un-wedged the same handle solves.
fn assert_deadline_contained<L>(loop_: L, wants: fn(PlanVariant) -> bool, site: &'static str)
where
    L: DoacrossLoop + Clone + Send + 'static,
{
    let deadline = Duration::from_millis(40);
    let engine = victim_engine()
        .pools(1)
        .solve_deadline(deadline)
        .fallback(FallbackPolicy::Disabled)
        .observability_default()
        .build();
    let prepared = engine.prepare(&loop_).unwrap();
    assert!(wants(prepared.variant()), "picked {:?}", prepared.variant());
    let y0 = fresh_y(loop_.data_len());
    let oracle = oracle_of(&loop_, &y0);

    failpoint::arm(site, FailAction::DelayNs { ns: 200_000 });
    let (err, y_after) = {
        let (prepared, loop_, mut y) = (prepared.clone(), loop_.clone(), y0.clone());
        within(HANG_BOUND, move || {
            let err = prepared.execute(&loop_, &mut y).unwrap_err();
            (err, y)
        })
    };
    assert_eq!(
        err,
        EngineError::SolveTimeout { pool: 0, deadline },
        "typed timeout"
    );
    failpoint::disarm(site);
    // A waiter that gives up holds no iterations, so its siblings could
    // still finish: it has to abandon the copy-back gate first, or a
    // timed-out solve could commit part of `y`.
    assert_eq!(
        y_after,
        y0,
        "{:?}: a timed-out solve left y torn",
        prepared.variant()
    );

    // The aborted attempt left a TimedOut record with partial stats.
    let record = engine
        .recent_solves()
        .into_iter()
        .find(|r| r.outcome == SolveOutcome::TimedOut)
        .expect("flight recorder kept the aborted attempt");
    assert!(
        record.total_ns >= deadline.as_nanos() as u64,
        "attempt ran at least the budget: {record:?}"
    );
    assert!(engine
        .metrics_text()
        .contains("doacross_fault_timeouts_total 1"));

    // Un-wedged, the same handle beats the deadline and solves.
    let mut y = y0;
    prepared.execute(&loop_, &mut y).unwrap();
    assert_eq!(y, oracle);
}

#[test]
fn solve_deadline_resolves_a_wedged_solve_typed() {
    let _serial = chaos_lock();
    assert_deadline_contained(
        doacross_victim(),
        |v| v == PlanVariant::Doacross,
        EXECUTOR_ITER,
    );
    assert_deadline_contained(
        wavefront_victim(),
        |v| v == PlanVariant::Wavefront,
        WAVEFRONT_ITER,
    );
}

#[test]
fn solve_deadline_with_fallback_still_delivers() {
    let _serial = chaos_lock();
    let engine = victim_engine()
        .pools(1)
        .solve_deadline(Duration::from_millis(40))
        .build();
    let loop_ = doacross_victim();
    let prepared = engine.prepare(&loop_).unwrap();
    let y0 = fresh_y(loop_.data_len());
    let oracle = oracle_of(&loop_, &y0);

    // The failpoint sites live in the parallel executors only — the
    // sequential replay is immune to the very drag that wedged the
    // parallel attempt.
    failpoint::arm(EXECUTOR_ITER, FailAction::DelayNs { ns: 200_000 });
    let (stats, y) = {
        let (prepared, loop_, mut y) = (prepared.clone(), loop_.clone(), y0.clone());
        within(HANG_BOUND, move || {
            let stats = prepared.execute(&loop_, &mut y).unwrap();
            (stats, y)
        })
    };
    failpoint::disarm(EXECUTOR_ITER);
    assert_eq!(y, oracle);
    assert_eq!(stats.attempts, 2);
}

/// Prices under which a flag variant wins: the sequential loop and
/// barriers cost a fortune, polls nothing.
fn flag_prices() -> Planner {
    Planner::with_costs(CostModel {
        seq_iter: 1e6,
        seq_term: 1e6,
        wait_poll: 0.0,
        barrier: 1e9,
        ..CostModel::multimax()
    })
}

/// Injected saturation lands on admission, which only a parallel solve
/// crosses: each refusal is a typed `Saturated` that leaves `y` as it was,
/// is counted once and dispatches nothing, and the solve after the last
/// refusal delivers. A sequential solve on the same engine — never
/// admitted — is served with the failpoint still armed, consuming none of
/// its refusals.
#[test]
fn injected_saturation_fails_typed_and_spares_sequential_plans() {
    let _serial = chaos_lock();
    let engine = Engine::builder()
        .workers(2)
        .pools(1)
        .planner(flag_prices())
        .observability_default()
        .build();
    let loop_ = TestLoop::new(600, 1, 7);
    let prepared = engine.prepare(&loop_).unwrap();
    assert!(
        matches!(prepared.variant(), PlanVariant::Linear(_)),
        "{:?}",
        prepared.variant()
    );
    let y0 = fresh_y(loop_.data_len());
    let oracle = oracle_of(&loop_, &y0);
    let dispatches = || -> u64 { engine.pool_stats().iter().map(|p| p.dispatches).sum() };

    // Two synthetic refusals, then the gate opens.
    failpoint::arm(SCHED_ACQUIRE, FailAction::Saturate { times: 2 });
    for refused in 1..=2u64 {
        let mut y = y0.clone();
        let err = prepared.execute(&loop_, &mut y).unwrap_err();
        assert!(matches!(err, EngineError::Saturated { .. }), "{err:?}");
        assert_eq!(y, y0, "a refused solve leaves y as it was");
        assert_eq!(engine.saturations(), refused, "one count per refusal");
        assert_eq!(dispatches(), 0, "a refusal dispatches nothing");
    }
    let mut y = y0.clone();
    let stats = prepared.execute(&loop_, &mut y).unwrap();
    assert_eq!(y, oracle);
    assert_eq!(stats.attempts, 1);
    assert_eq!(engine.saturations(), 2);
    assert_eq!(dispatches(), 1);

    // With the gate armed again, a sequential plan is served: it is never
    // admitted, so it neither consumes a refusal nor moves the ledger.
    failpoint::arm(SCHED_ACQUIRE, FailAction::Saturate { times: 100 });
    let n = 300;
    let rhs: Vec<Vec<usize>> = (1..=n).map(|j| vec![j]).collect();
    let serial = IndirectLoop::new(n + 1, vec![0; n], rhs, vec![vec![0.5]; n]).unwrap();
    let sequential = engine.prepare(&serial).unwrap();
    assert_eq!(sequential.variant(), PlanVariant::Sequential);
    let s0 = fresh_y(serial.data_len());
    let mut y = s0.clone();
    let stats = sequential
        .execute(&serial, &mut y)
        .expect("a sequential solve is not admitted");
    assert_eq!(y, oracle_of(&serial, &s0));
    assert_eq!(stats.attempts, 1);
    assert_eq!(engine.saturations(), 2);
    assert_eq!(dispatches(), 1);
    assert_eq!(
        failpoint::lookup(SCHED_ACQUIRE),
        Some(FailAction::Saturate { times: 100 }),
        "the armed site saw no attempt"
    );
    failpoint::disarm(SCHED_ACQUIRE);

    // And with the gate open again, the plain path works.
    let mut y = y0;
    prepared.execute(&loop_, &mut y).unwrap();
    assert_eq!(y, oracle);
    assert_eq!(dispatches(), 2);
    failpoint::disarm_all();
}

#[test]
fn faults_leave_concurrent_tenants_bit_identical() {
    let _serial = chaos_lock();
    let engine = victim_engine()
        .pools(2)
        .fallback(FallbackPolicy::Disabled)
        .build();
    let victim_loop = doacross_victim();
    let victim = engine.prepare(&victim_loop).unwrap();
    assert_eq!(victim.variant(), PlanVariant::Doacross);

    // Tenant loops are far smaller than the armed iteration (3 900), so
    // the global failpoint site never fires for them.
    let tenants: Vec<TestLoop> = vec![TestLoop::new(300, 1, 7), TestLoop::new(280, 2, 8)];
    for t in &tenants {
        let mut y = t.initial_y();
        engine.run(t, &mut y).unwrap();
    }

    failpoint::arm(EXECUTOR_ITER, FailAction::PanicAt { iteration: 3_900 });
    let (typed_faults, tenant_rounds) = within(HANG_BOUND, {
        let engine = engine.clone();
        let victim = victim.clone();
        let victim_loop = victim_loop.clone();
        let tenants = tenants.clone();
        move || {
            std::thread::scope(|scope| {
                let victim_thread = scope.spawn(|| {
                    let mut typed = 0;
                    for _ in 0..4 {
                        let mut y = fresh_y(victim_loop.data_len());
                        match victim.execute(&victim_loop, &mut y) {
                            Err(EngineError::SolvePanicked { .. }) => typed += 1,
                            other => panic!("victim expected typed panic, got {other:?}"),
                        }
                    }
                    typed
                });
                let mut rounds = 0;
                for _ in 0..20 {
                    for t in &tenants {
                        let mut y = t.initial_y();
                        engine.run(t, &mut y).expect("tenant solves never fault");
                        let mut oracle = t.initial_y();
                        run_sequential(t, &mut oracle);
                        assert_eq!(y, oracle, "tenant output is bit-identical");
                        rounds += 1;
                    }
                }
                (victim_thread.join().expect("victim thread"), rounds)
            })
        }
    });
    failpoint::disarm(EXECUTOR_ITER);
    assert_eq!(typed_faults, 4, "every victim attempt failed typed");
    assert_eq!(tenant_rounds, 40, "tenants ran to completion throughout");

    // After the storm, the victim's own structure solves clean.
    let mut y = fresh_y(victim_loop.data_len());
    let y0 = y.clone();
    victim.execute(&victim_loop, &mut y).unwrap();
    assert_eq!(y, oracle_of(&victim_loop, &y0));
}

const PERSIST_SAVE: &str = "plan::persist::save";
const PERSIST_LOAD: &str = "plan::persist::load";
const ADAPTIVE_TRIAL: &str = "engine::adaptive::trial";

#[test]
fn injected_persist_faults_fail_typed_and_clear_on_disarm() {
    let _serial = chaos_lock();
    let path = std::env::temp_dir().join(format!(
        "doacross-chaos-persist-{}.plans",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let engine = Engine::builder().workers(2).pools(1).build();
    let loop_ = doacross_victim();
    let prepared = engine.prepare(&loop_).unwrap();
    let mut y = fresh_y(loop_.data_len());
    prepared.execute(&loop_, &mut y).unwrap();

    // An injected save fault surfaces as the typed persist error before
    // any bytes touch the filesystem — no store, no torn temp file.
    failpoint::arm(PERSIST_SAVE, FailAction::Saturate { times: 1 });
    let err = within(HANG_BOUND, {
        let engine = engine.clone();
        let path = path.clone();
        move || engine.save_plans(&path).unwrap_err()
    });
    assert!(
        matches!(err, EngineError::Persist(PersistError::Io(ref msg)) if msg.contains("failpoint")),
        "{err:?}"
    );
    assert!(!path.exists(), "a failed save leaves nothing behind");

    // The countdown is spent: the very next save succeeds.
    let saved = engine.save_plans(&path).expect("disarmed save");
    assert_eq!(saved, 1);

    // Same containment for load: injected fault first, honest load after.
    failpoint::arm(PERSIST_LOAD, FailAction::Saturate { times: 1 });
    let err = within(HANG_BOUND, {
        let engine = engine.clone();
        let path = path.clone();
        move || engine.load_plans(&path).unwrap_err()
    });
    assert!(
        matches!(err, EngineError::Persist(PersistError::Io(ref msg)) if msg.contains("failpoint")),
        "{err:?}"
    );
    let restored = engine.load_plans(&path).expect("disarmed load");
    assert_eq!(restored, 1, "the store on disk was never corrupted");

    let _ = std::fs::remove_file(&path);
    failpoint::disarm_all();
}

#[test]
fn injected_trial_fault_keeps_the_incumbent_plan_running() {
    let _serial = chaos_lock();
    // The adaptive suite's mispriced setup: busy-wait polls priced
    // absurdly high and barriers nearly free, so the narrow-deep grid
    // statically plans as a wavefront that measurement would normally
    // demote via a trial. With the trial failpoint saturated, every
    // proposal is absorbed as a failed challenger build.
    let mispriced = CostModel {
        wait_poll: 500.0,
        barrier: 0.001,
        post_per_iter: 0.01,
        region_dispatch: 1.0,
        ..CostModel::multimax()
    };
    let engine = Engine::builder()
        .workers(2)
        .pools(1)
        .planner(Planner::with_costs(mispriced))
        .adaptive_config(AdaptiveConfig {
            min_samples: 4,
            eval_interval: 5,
            divergence: 1.3,
            hysteresis: 1.05,
            max_trials: 3,
            confidence: 4,
        })
        .build();
    let loop_ = doacross_plan::testgrid::deep_grid(2, 300, 1, 1);
    let prepared = engine.prepare(&loop_).unwrap();
    assert_eq!(prepared.variant(), PlanVariant::Wavefront);
    let y0 = fresh_y(loop_.data_len());
    let oracle = oracle_of(&loop_, &y0);

    failpoint::arm(ADAPTIVE_TRIAL, FailAction::Saturate { times: u64::MAX });
    within(HANG_BOUND, {
        let (engine, loop_, y0, oracle) = (engine.clone(), loop_.clone(), y0.clone(), oracle);
        move || {
            for round in 0..40 {
                let mut y = y0.clone();
                engine.run(&loop_, &mut y).expect("solvable");
                assert_eq!(y, oracle, "round {round} diverged under trial faults");
            }
        }
    });
    failpoint::disarm(ADAPTIVE_TRIAL);

    // Evaluation kept running (repricing happened), but no trial ever
    // started and the statically selected plan is still the one cached —
    // an injected trial fault degrades to "no adaptation", never to a
    // broken or swapped plan.
    let stats = engine.adaptive_stats().expect("adaptive engine");
    assert!(stats.repricings >= 1, "{stats:?}");
    assert_eq!(stats.trials, 0, "saturated trials never start: {stats:?}");
    assert_eq!(stats.promotions, 0, "{stats:?}");
    let still = engine.prepare(&loop_).unwrap();
    assert_eq!(
        still.variant(),
        PlanVariant::Wavefront,
        "incumbent retained"
    );
    failpoint::disarm_all();
}

#[test]
fn consecutive_panics_do_not_wedge_the_pool() {
    let _serial = chaos_lock();
    let engine = victim_engine()
        .pools(1)
        .fallback(FallbackPolicy::Disabled)
        .build();
    let loop_ = doacross_victim();
    let prepared = engine.prepare(&loop_).unwrap();
    let y0 = fresh_y(loop_.data_len());
    let oracle = oracle_of(&loop_, &y0);

    failpoint::arm(EXECUTOR_ITER, FailAction::PanicAt { iteration: 3_900 });
    for round in 0..3 {
        let err = {
            let (prepared, loop_, mut y) = (prepared.clone(), loop_.clone(), y0.clone());
            within(HANG_BOUND, move || {
                prepared.execute(&loop_, &mut y).unwrap_err()
            })
        };
        assert!(
            matches!(err, EngineError::SolvePanicked { .. }),
            "round {round}: {err:?}"
        );
    }
    failpoint::disarm(EXECUTOR_ITER);

    let mut y = y0;
    let stats = prepared.execute(&loop_, &mut y).unwrap();
    assert_eq!(y, oracle, "pool recovered after repeated poisonings");
    assert_eq!(stats.workers, 4, "still running the full parallel width");
}

/// The profiler arena is not reset before every solve: a harvest drains
/// it, so only an attempt that never reaches the harvest can leave spans
/// behind. A worker panic is one (its workers deposited, then unwound —
/// `recover` drops what they left); a typed rejection is refused before
/// any span is deposited. Either way the next clean solve's profile holds
/// that solve's spans and nothing else: the same per-kind counts as the
/// same solve on a fresh engine, nothing dropped — except the work spans,
/// one per worker that joined the region (worker 0 always, a helper when
/// it joined in time), which attendance decides.
#[test]
fn a_fault_leaves_no_spans_in_the_next_profile() {
    let _serial = chaos_lock();
    for policy in [FallbackPolicy::SequentialRetry, FallbackPolicy::Disabled] {
        let profiled = || {
            victim_engine()
                .pools(1)
                .fallback(policy)
                .profiling_default()
                .build()
        };
        // A dependence-free doall: one work span per joined worker and
        // the dispatch wait, never a stall — span counts scheduling can
        // not move, bar attendance.
        let loop_ = doacross_victim();
        let y0 = fresh_y(loop_.data_len());
        let oracle = oracle_of(&loop_, &y0);
        let clean_profile = |engine: &Engine| {
            let prepared = engine.prepare(&loop_).unwrap();
            assert_eq!(prepared.variant(), PlanVariant::Doacross);
            let mut y = y0.clone();
            prepared.execute(&loop_, &mut y).unwrap();
            assert_eq!(y, oracle);
            engine
                .recent_profiles()
                .pop()
                .expect("clean solve profiled")
        };
        let fresh = clean_profile(&profiled());

        let engine = profiled();
        let prepared = engine.prepare(&loop_).unwrap();
        failpoint::arm(EXECUTOR_ITER, FailAction::PanicAt { iteration: 3_900 });
        let faulted = {
            let (prepared, loop_, mut y) = (prepared.clone(), loop_.clone(), y0.clone());
            within(HANG_BOUND, move || prepared.execute(&loop_, &mut y))
        };
        failpoint::disarm(EXECUTOR_ITER);
        match policy {
            FallbackPolicy::SequentialRetry => assert_eq!(faulted.unwrap().attempts, 2),
            FallbackPolicy::Disabled => assert!(
                matches!(faulted, Err(EngineError::SolvePanicked { .. })),
                "{faulted:?}"
            ),
        }
        let mut short = vec![1.0; loop_.data_len() - 1];
        let rejected = prepared.execute(&loop_, &mut short).unwrap_err();
        assert!(
            matches!(
                rejected,
                EngineError::Doacross(DoacrossError::DataLenMismatch { .. })
            ),
            "{rejected:?}"
        );
        assert!(
            engine.recent_profiles().is_empty(),
            "{policy:?}: neither attempt was harvested"
        );

        let clean = clean_profile(&engine);
        assert_eq!(engine.recent_profiles().len(), 1, "{policy:?}");
        let work = SpanKind::Work.index();
        for profile in [&clean, &fresh] {
            let mut joined: Vec<u32> = profile
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Work)
                .map(|s| s.worker)
                .collect();
            joined.sort_unstable();
            joined.dedup();
            assert_eq!(
                joined.first(),
                Some(&0),
                "{policy:?}: worker 0 always joins"
            );
            assert!(joined.len() <= 4, "{policy:?}: {joined:?}");
            assert_eq!(profile.kind_spans[work], joined.len() as u64, "{policy:?}");
        }
        let others = |p: &SolveProfile| {
            let mut kinds = p.kind_spans;
            kinds[work] = 0;
            kinds
        };
        assert_eq!(others(&clean), others(&fresh), "{policy:?}");
        assert_eq!(clean.dropped, 0, "{policy:?}");
        assert_eq!(
            clean.spans.len() as u64,
            clean.kind_spans.iter().sum::<u64>()
        );
    }
    failpoint::disarm_all();
}
