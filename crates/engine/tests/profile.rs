//! End-to-end tests of the solve profiler: per-worker span timelines
//! harvested from real solves must reconcile *exactly* with the
//! executor's own [`RunStats`] accounting (stalls, wait polls, barrier
//! crossings, iterations), the exported Chrome trace must validate
//! structurally with one track per worker, and the span arenas must be
//! lossless under concurrent deposits (property-tested).

use doacross_core::{seq::run_sequential, AccessPattern, IndirectLoop};
use doacross_engine::{
    validate_chrome_trace, Engine, ObsVariant, ProfSpan, SolveProfile, SpanKind, TraceEvent,
};
use doacross_obs::profile::{ProfArena, NO_LEVEL};
use doacross_plan::Planner;
use proptest::prelude::*;

/// Priced by the paper's Multimax preset, which gives every victim below
/// the parallel variant whose spans its test reconciles; the default
/// engine prices with this host's costs and may run them sequentially.
fn profiled_engine(workers: usize) -> Engine {
    Engine::builder()
        .workers(workers)
        .pools(1)
        .planner(Planner::new())
        .profiling_default()
        .build()
}

fn fresh_y(len: usize) -> Vec<f64> {
    (0..len).map(|e| 1.0 + (e % 10) as f64 / 10.0).collect()
}

/// Dependence-free, non-linear (reversed) subscript: the flat inspected
/// doacross.
fn flat_victim() -> IndirectLoop {
    let n = 4_000;
    let a: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
    IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap()
}

/// Interleaved distance-1 chains: flat executor with real cross-worker
/// flag waits (claim-ordered).
fn chained_victim() -> IndirectLoop {
    let (chains, len) = (32, 16);
    let n = chains * len;
    let a: Vec<usize> = (0..n).collect();
    let rhs: Vec<Vec<usize>> = (0..n)
        .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
        .collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
    IndirectLoop::new(n, a, rhs, coeff).unwrap()
}

/// Wide dependence grid: level-scheduled wavefront, one barrier per level.
fn wavefront_victim() -> IndirectLoop {
    doacross_plan::testgrid::deep_grid(64, 20, 3, 7)
}

/// The workers that joined the profiled region: the tracks carrying a
/// [`SpanKind::Work`] span, which every joined worker records and no
/// absent one does (see `SpanKind::Work`). Worker 0 — the dispatching
/// thread — always joins, so `1 ≤ joined ≤ workers`.
fn joined(profile: &SolveProfile, workers: usize) -> Vec<u32> {
    let mut joined: Vec<u32> = profile
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Work)
        .map(|s| s.worker)
        .collect();
    joined.sort_unstable();
    joined.dedup();
    assert_eq!(joined.first(), Some(&0), "worker 0 always joins");
    assert!(joined.len() <= workers, "{joined:?} of {workers}");
    joined
}

fn solve_profiled(
    engine: &Engine,
    loop_: &IndirectLoop,
) -> (doacross_core::RunStats, SolveProfile) {
    let prepared = engine.prepare(loop_).unwrap();
    let y0 = fresh_y(loop_.data_len());
    let mut oracle = y0.clone();
    run_sequential(loop_, &mut oracle);
    let mut y = y0;
    let stats = prepared.execute(loop_, &mut y).unwrap();
    assert_eq!(y, oracle, "profiling never changes the answer");
    let profile = engine
        .recent_profiles()
        .pop()
        .expect("profiled solve landed in the ring");
    (stats, profile)
}

#[test]
fn flat_executor_spans_reconcile_with_run_stats() {
    for loop_ in [flat_victim(), chained_victim()] {
        let engine = profiled_engine(4);
        let (stats, profile) = solve_profiled(&engine, &loop_);
        assert!(
            matches!(profile.variant.as_str(), "doacross" | "reordered"),
            "{:?}",
            profile.variant
        );
        assert_eq!(profile.dropped, 0);

        // One Work span per joined worker per region; their payloads sum
        // to the iterations actually executed.
        let work: Vec<_> = profile
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Work)
            .collect();
        assert_eq!(work.len(), joined(&profile, stats.workers).len());
        assert_eq!(
            work.iter().map(|s| s.aux).sum::<u64>(),
            stats.iterations as u64
        );
        // The flag gate runs one level, and its spans carry no level label.
        assert!(
            work.iter().all(|s| s.level == NO_LEVEL),
            "{:?}",
            work.iter().map(|s| s.level).collect::<Vec<_>>()
        );

        // One FlagWait span per counted stall, and the poll payloads sum
        // to the executor's own wait-poll counter — wait attribution is
        // the same bookkeeping the stats already kept, with timestamps.
        let waits: Vec<_> = profile
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::FlagWait)
            .collect();
        assert_eq!(waits.len() as u64, stats.stalls);
        assert_eq!(waits.iter().map(|s| s.aux).sum::<u64>(), stats.wait_polls);

        // No barriers in the flat executor; the dispatcher track carries
        // the admission wait.
        assert_eq!(profile.kind_spans[SpanKind::BarrierWait.index()], 0);
        assert_eq!(profile.kind_spans[SpanKind::DispatchWait.index()], 1);
    }
}

#[test]
fn wavefront_spans_reconcile_with_barrier_crossings() {
    let engine = profiled_engine(4);
    let loop_ = wavefront_victim();
    let (stats, profile) = solve_profiled(&engine, &loop_);
    assert_eq!(profile.variant.as_str(), "wavefront");
    assert_eq!(profile.dropped, 0);
    assert!(stats.barrier_crossings > 0);

    // Every joined worker records one BarrierWait per crossing — the
    // per-worker count *is* the stats counter — and an absent one records
    // nothing.
    let joined = joined(&profile, stats.workers);
    for worker in 0..stats.workers as u32 {
        let crossings = profile
            .spans
            .iter()
            .filter(|s| s.worker == worker && s.kind == SpanKind::BarrierWait)
            .count() as u64;
        let expect = if joined.contains(&worker) {
            stats.barrier_crossings
        } else {
            0
        };
        assert_eq!(crossings, expect, "worker {worker}");
    }
    assert_eq!(
        profile.kind_spans[SpanKind::BarrierWait.index()],
        joined.len() as u64 * stats.barrier_crossings
    );

    // Per worker per level at most one Work span; the payloads sum to
    // the full iteration space.
    let nlevels = stats.barrier_crossings + 1;
    for worker in 0..stats.workers as u32 {
        let per_level = profile
            .spans
            .iter()
            .filter(|s| s.worker == worker && s.kind == SpanKind::Work)
            .count() as u64;
        assert!(per_level <= nlevels, "worker {worker}: {per_level} levels");
    }

    // The `level` labels the per-level histograms are built from: a joined
    // worker's Work spans name distinct levels of the structure, and its
    // BarrierWait spans name exactly the levels it waited out.
    let levels_of = |worker: u32, kind: SpanKind| -> Vec<u64> {
        let mut levels: Vec<u64> = profile
            .spans
            .iter()
            .filter(|s| s.worker == worker && s.kind == kind)
            .map(|s| u64::from(s.level))
            .collect();
        levels.sort_unstable();
        levels
    };
    for &worker in &joined {
        let mut work = levels_of(worker, SpanKind::Work);
        let before = work.len();
        work.dedup();
        assert_eq!(work.len(), before, "worker {worker}: a level twice");
        assert!(
            work.iter().all(|&l| l < nlevels),
            "worker {worker}: {work:?} against {nlevels} levels"
        );
        assert_eq!(
            levels_of(worker, SpanKind::BarrierWait),
            (0..stats.barrier_crossings).collect::<Vec<_>>(),
            "worker {worker}"
        );
    }
    assert_eq!(
        profile
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Work)
            .map(|s| s.aux)
            .sum::<u64>(),
        stats.iterations as u64
    );

    // The realized critical path is at least the longest single span and
    // at most the whole solve's span budget.
    let kind_total: u64 = profile.kind_ns.iter().sum();
    assert!(profile.realized_critical_ns <= kind_total);
    assert!(profile.realized_critical_ns >= profile.spans.iter().map(|s| s.dur_ns).max().unwrap());
}

#[test]
fn chrome_trace_exports_one_track_per_worker() {
    let engine = profiled_engine(4);
    let loop_ = wavefront_victim();
    let (stats, profile) = solve_profiled(&engine, &loop_);

    let trace = engine.profile_chrome_trace();
    let summary = validate_chrome_trace(&trace).expect("structurally valid trace");
    assert_eq!(summary.events as u64, profile.spans.len() as u64);

    // One track per joined worker (plus the dispatcher track), all under
    // the solve's pid, and each track carries exactly that worker's spans.
    let pid = profile.seq;
    let tids: Vec<u64> = summary
        .tracks
        .keys()
        .filter(|(p, _)| *p == pid)
        .map(|(_, t)| *t)
        .collect();
    let mut expect: Vec<u64> = joined(&profile, stats.workers)
        .into_iter()
        .map(u64::from)
        .collect();
    expect.push(stats.workers as u64);
    assert_eq!(tids, expect, "joined worker tracks plus dispatcher");
    for ((_, tid), count) in summary.tracks.iter().filter(|((p, _), _)| *p == pid) {
        let expect = profile
            .spans
            .iter()
            .filter(|s| u64::from(s.worker) == *tid)
            .count();
        assert_eq!(*count, expect, "track {tid}");
    }

    // A disarmed engine exports the empty document, not an error.
    let off = Engine::builder().workers(2).build();
    assert!(!off.profiling_enabled());
    let empty = validate_chrome_trace(&off.profile_chrome_trace()).unwrap();
    assert_eq!(empty.events, 0);
}

/// A profiled, traced sequential solve reads the clock once per stage
/// boundary and shares each reading: the one pair around the run is both
/// `RunStats::total` and the work span, and the record stage's one
/// reading stamps both of its events. Pinned by equality, so the test
/// never reads a clock itself.
#[test]
fn a_sequential_solve_shares_its_clock_readings() {
    // A serial chain is sequential under any cost model.
    let n = 400usize;
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let chain = IndirectLoop::new(n + 1, (1..=n).collect(), rhs, vec![vec![0.5]; n]).unwrap();
    let engine = Engine::builder()
        .workers(2)
        .pools(1)
        .planner(Planner::new())
        .observability_default()
        .profiling_default()
        .build();
    for _ in 0..3 {
        let (stats, profile) = solve_profiled(&engine, &chain);
        assert_eq!(profile.variant.as_str(), "sequential");
        let work: Vec<_> = profile
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Work)
            .collect();
        assert_eq!(work.len(), 1);
        assert_eq!(u128::from(work[0].dur_ns), stats.total.as_nanos());

        let events = engine.trace_events();
        let stamp_of = |kind: &str| {
            events
                .iter()
                .rev()
                .find(|e| e.event.kind() == kind)
                .map(|e| e.at_ns)
                .expect("traced")
        };
        assert_eq!(stamp_of("solve_finished"), stamp_of("solve_profiled"));
    }
}

/// A profiled sequential solve runs on the caller's thread and holds no
/// sub-pool, so no arena: its profile is made from its stats — exactly one
/// work span on worker 0, starting at 0, lasting `RunStats::total`, its
/// payload the iteration count, and no dispatch wait — and the
/// `SolveProfiled` event it traces says exactly the same.
#[test]
fn a_profiled_sequential_solve_is_one_work_span_made_from_its_stats() {
    // A serial chain is sequential under any cost model.
    let n = 300usize;
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let chain = IndirectLoop::new(n + 1, (1..=n).collect(), rhs, vec![vec![0.5]; n]).unwrap();
    let engine = Engine::builder()
        .workers(2)
        .pools(2)
        .planner(Planner::new())
        .observability_default()
        .profiling_default()
        .build();
    for _ in 0..3 {
        let (stats, profile) = solve_profiled(&engine, &chain);
        let total_ns = u64::try_from(stats.total.as_nanos()).unwrap();
        let work = ProfSpan {
            worker: 0,
            kind: SpanKind::Work,
            level: NO_LEVEL,
            start_ns: 0,
            dur_ns: total_ns,
            aux: stats.iterations as u64,
        };
        assert_eq!(profile.variant, ObsVariant::Sequential);
        assert_eq!(profile.spans, [work]);
        assert_eq!(profile.kind_spans, [1, 0, 0, 0]);
        assert_eq!(profile.pool, None, "the solve held no sub-pool");
        assert_eq!(profile.workers, 1);
        assert_eq!(
            (profile.total_ns, profile.realized_critical_ns),
            (total_ns, total_ns)
        );
        assert_eq!(profile.dropped, 0);

        let traced = engine
            .trace_events()
            .into_iter()
            .rev()
            .find(|e| e.event.kind() == "solve_profiled")
            .expect("traced");
        assert_eq!(
            traced.event,
            TraceEvent::SolveProfiled {
                fp: profile.fp,
                variant: ObsVariant::Sequential,
                realized_critical_ns: total_ns,
                work_ns: total_ns,
                flag_wait_ns: 0,
                barrier_wait_ns: 0,
                dispatch_wait_ns: 0,
                spans: 1,
            }
        );
    }
    for pool in engine.pool_stats() {
        assert_eq!(pool.dispatches, 0, "{pool:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Concurrent deposits are lossless: for arbitrary per-worker span
    /// loads under the arena cap, every span deposited from its worker's
    /// own thread is harvested — none lost, none duplicated, per-kind
    /// payload totals intact, and the harvest sorted by (worker, start).
    #[test]
    fn concurrent_arena_deposits_lose_no_spans(
        loads in proptest::collection::vec(1usize..120, 1..6),
        cap_slack in 0usize..64,
    ) {
        let workers = loads.len();
        let cap = loads.iter().copied().max().unwrap() + cap_slack;
        let arena = ProfArena::new(workers, cap);
        std::thread::scope(|scope| {
            for (worker, &n) in loads.iter().enumerate() {
                let arena = &arena;
                scope.spawn(move || {
                    for i in 0..n {
                        let kind = SpanKind::ALL[i % SpanKind::ALL.len()];
                        arena.record(worker, kind, i as u32, i as u64 * 10, 5, i as u64);
                    }
                });
            }
        });
        let (spans, dropped) = arena.take();
        prop_assert_eq!(dropped, 0);
        prop_assert_eq!(spans.len(), loads.iter().sum::<usize>());
        for (worker, &n) in loads.iter().enumerate() {
            let mine: Vec<_> = spans.iter().filter(|s| s.worker == worker as u32).collect();
            prop_assert_eq!(mine.len(), n, "worker {}", worker);
            // Payloads survive verbatim: aux was the deposit index.
            let aux_sum: u64 = mine.iter().map(|s| s.aux).sum();
            prop_assert_eq!(aux_sum, (n as u64 * (n as u64 - 1)) / 2);
        }
        prop_assert!(spans.windows(2).all(|w| (w[0].worker, w[0].start_ns) <= (w[1].worker, w[1].start_ns)));
    }

    /// Over-cap deposits drop oldest-first and are *counted*: the arena
    /// never lies about truncation.
    #[test]
    fn overfull_arena_counts_every_dropped_span(extra in 1usize..40) {
        let cap = 8usize;
        let arena = ProfArena::new(1, cap);
        let total = cap + extra;
        for i in 0..total {
            arena.record(0, SpanKind::Work, 0, i as u64, 1, i as u64);
        }
        let (spans, dropped) = arena.take();
        prop_assert_eq!(spans.len(), cap);
        prop_assert_eq!(dropped, extra as u64);
        // Drop-oldest: the retained spans are the newest `cap` deposits.
        prop_assert!(spans.iter().all(|s| s.aux >= extra as u64));
    }
}
