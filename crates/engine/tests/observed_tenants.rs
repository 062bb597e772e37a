//! The observability layer's solve ledger under load: one thread keeps
//! the whole trace ring, and concurrent observed, profiled tenants
//! whose every delivered solve is counted once in every series that
//! counts solves.

use doacross_core::{seq::run_sequential, AccessPattern, IndirectLoop};
use doacross_engine::Engine;
use doacross_plan::{testgrid::deep_grid, PlanVariant, Planner};

/// The sum of every sample of the series `name` (label sets summed) in a
/// Prometheus scrape; panics if the series is absent.
fn series_sum(text: &str, name: &str) -> u64 {
    let values: Vec<u64> = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let series = series.split_once('{').map_or(series, |(s, _)| s);
            (series == name).then(|| value.parse().expect("an integer sample"))
        })
        .collect();
    assert!(!values.is_empty(), "{name} missing from the scrape");
    values.iter().sum()
}

/// A serial chain of `n` iterations: sequential under any cost model.
fn chain(n: usize) -> IndirectLoop {
    let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    IndirectLoop::new(n + 1, (1..=n).collect(), rhs, vec![vec![0.5]; n]).unwrap()
}

/// A loop with its input and the sequential oracle's answer.
struct Case {
    loop_: IndirectLoop,
    y0: Vec<f64>,
    expected: Vec<f64>,
}

impl Case {
    fn new(loop_: IndirectLoop) -> Self {
        let y0: Vec<f64> = (0..loop_.data_len())
            .map(|e| 1.0 + (e % 7) as f64)
            .collect();
        let mut expected = y0.clone();
        run_sequential(&loop_, &mut expected);
        Self {
            loop_,
            y0,
            expected,
        }
    }

    /// One solve into `y`, checked against the oracle.
    fn solve(&self, engine: &Engine, y: &mut Vec<f64>) {
        y.clear();
        y.extend_from_slice(&self.y0);
        engine.run(&self.loop_, y).unwrap();
        assert_eq!(*y, self.expected);
    }
}

/// One thread keeps the whole 4096-event trace ring, its newest events
/// without a hole, and every older event it emitted is counted dropped.
#[test]
fn one_thread_keeps_the_whole_trace_ring() {
    let engine = Engine::builder()
        .workers(1)
        .pools(1)
        .observability_default()
        .build();
    let (case, mut y) = (Case::new(chain(40)), Vec::new());
    for _ in 0..5_000 {
        case.solve(&engine, &mut y);
    }
    let events = engine.trace_events();
    assert_eq!(events.len(), 4096);
    let text = engine.metrics_text();
    let pushed = series_sum(&text, "doacross_trace_events_total");
    assert!(pushed >= 5_000, "{pushed}");
    assert!(events.iter().map(|e| e.seq).eq(pushed - 4096..pushed));
    assert_eq!(
        series_sum(&text, "doacross_trace_dropped_total"),
        pushed - 4096
    );
}

/// `nproc + 1` threads on one observed, profiled two-pool engine, each
/// mixing two tiny sequential structures with a wavefront one: every
/// series that counts delivered solves counts each exactly once, the
/// flight ring holds the last 128 records, and no two trace events share
/// a sequence number. The ledger's plain updates are only correct while
/// every writer holds its lock; this is the test that says so, and the
/// tiny solves keep that lock contended.
#[test]
fn concurrent_observed_tenants_lose_no_count() {
    let engine = Engine::builder()
        .workers(2)
        .pools(2)
        .planner(Planner::new())
        .observability_default()
        .profiling_default()
        .build();
    let (short, long, grid) = (
        Case::new(chain(2)),
        Case::new(chain(3)),
        Case::new(deep_grid(64, 6, 3, 7)),
    );
    for (case, variant) in [
        (&short, PlanVariant::Sequential),
        (&long, PlanVariant::Sequential),
        (&grid, PlanVariant::Wavefront),
    ] {
        assert_eq!(engine.prepare(&case.loop_).unwrap().variant(), variant);
    }
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get()) + 1;
    let per_thread = 3_000u64;
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let (engine, short, long, grid) = (&engine, &short, &long, &grid);
            s.spawn(move || {
                let mut y = Vec::new();
                for i in 0..per_thread {
                    let case = match (i + t) % 16 {
                        0 => grid,
                        k if k % 2 == 0 => short,
                        _ => long,
                    };
                    case.solve(engine, &mut y);
                }
            });
        }
    });
    // The last three records are the main thread's, in order.
    let mut y = Vec::new();
    for case in [&short, &grid, &long] {
        case.solve(&engine, &mut y);
    }
    let solves = threads as u64 * per_thread + 3;

    let text = engine.metrics_text();
    assert_eq!(series_sum(&text, "doacross_solves_total"), solves);
    assert_eq!(series_sum(&text, "doacross_solve_ns_count"), solves);
    assert_eq!(series_sum(&text, "doacross_structure_solves_total"), solves);
    assert_eq!(series_sum(&text, "doacross_profile_solves_total"), solves);

    let recent = engine.recent_solves();
    assert_eq!(recent.len(), 128);
    let tail: Vec<_> = recent[125..]
        .iter()
        .map(|r| (r.variant.as_str(), r.iterations))
        .collect();
    assert_eq!(
        tail,
        [
            ("sequential", 2),
            ("wavefront", grid.loop_.iterations() as u64),
            ("sequential", 3)
        ]
    );

    let events = engine.trace_events();
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    let pushed = series_sum(&text, "doacross_trace_events_total");
    let dropped = series_sum(&text, "doacross_trace_dropped_total");
    assert_eq!(pushed - dropped, events.len() as u64);
}
