//! Flag-synchronized vs. level-scheduled steady state: the wavefront
//! variant's crossover experiment.
//!
//! [`crate::amortize`] showed that caching preprocessing makes the
//! *per-solve* cost the whole bill; this experiment asks what the cheapest
//! per-solve executor actually is once the plan is cached. Two candidates
//! run the same Table 1 triangular structure from prebuilt artifacts:
//!
//! * **cached doacross** — the flat executor against a prebuilt writer
//!   map: no inspector, but every true dependency still checks (and
//!   possibly polls) a `ready` flag, and every iteration publishes one —
//!   `RunStats.wait_polls` is the busy-wait bill.
//! * **wavefront** — the level-scheduled executor against a prebuilt
//!   [`LevelSchedule`]: one completion counter per level, zero flag traffic,
//!   `wait_polls == 0` by construction.
//!
//! Both produce bit-identical results (asserted on every measurement), so
//! the difference is pure synchronization strategy: per-element flags vs.
//! `levels × barrier`. The module also records which variant the engine's
//! cost model picks for each structure — the planner's rule should land on
//! the measured winner — and [`chunking_comparison`] isolates the chunked
//! self-scheduling satellite (one-iteration grabs vs. width-adaptive
//! chunks on the shared per-level counters).

use doacross_core::{Doacross, DoacrossConfig, LevelSchedule, PreparedInspection, RunStats};
use doacross_engine::Engine;
use doacross_par::{Schedule, ThreadPool};
use doacross_plan::{PlanCensus, PlanVariant, Planner};
use doacross_sparse::{Problem, ProblemKind, TriSystem};
use doacross_trisolve::TriSolveLoop;
use std::time::{Duration, Instant};

/// Steady-state comparison for one Table 1 structure.
#[derive(Debug, Clone)]
pub struct WavefrontPoint {
    /// Which Table 1 problem the structure came from.
    pub kind: ProblemKind,
    /// Rows (= iterations) in the triangular system.
    pub rows: usize,
    /// Wavefront levels (dependence critical path).
    pub levels: usize,
    /// Per-solve wall time of the cached flat doacross (prebuilt writer
    /// map, no inspector), min over reps.
    pub doacross: Duration,
    /// Per-solve wall time of the wavefront executor (prebuilt level
    /// schedule), min over reps.
    pub wavefront: Duration,
    /// Failed `ready` polls per doacross solve (the busy-wait bill the
    /// wavefront eliminates) — from the rep with the minimal time.
    pub doacross_polls: u64,
    /// True-dependency resolutions per solve (identical for both).
    pub true_deps: u64,
    /// What the engine's cost model selects for this structure at the
    /// measured worker count — the planner's automatic call.
    pub selected: PlanVariant,
    /// What the planner selects for the same structure priced at 4
    /// workers — the multicore decision, independent of this host's core
    /// count (a 1-core CI runner prices everything sequential, which says
    /// nothing about the variants).
    pub selected_at_4: PlanVariant,
}

impl WavefrontPoint {
    /// How much faster the wavefront steady state is (> 1 = wavefront
    /// wins).
    pub fn speedup(&self) -> f64 {
        self.doacross.as_secs_f64() / self.wavefront.as_secs_f64().max(1e-12)
    }
}

fn per_solve<F: FnMut() -> RunStats>(solves: usize, mut f: F) -> (Duration, RunStats) {
    let start = Instant::now();
    let mut last = RunStats::default();
    for _ in 0..solves {
        last = f();
    }
    (start.elapsed() / solves as u32, last)
}

/// Measures the steady-state per-solve time of both executors on each
/// problem: `solves` solves per repetition, minimum over `reps`
/// repetitions, results asserted bit-identical to the sequential
/// forward-solve on every rep.
pub fn wavefront_comparison(
    workers: usize,
    kinds: &[ProblemKind],
    solves: usize,
    reps: usize,
) -> Vec<WavefrontPoint> {
    let pool = ThreadPool::new(workers);
    let engine = Engine::builder().workers(workers).build();
    let four = ThreadPool::new(4);
    kinds
        .iter()
        .map(|&kind| {
            let sys: TriSystem = Problem::build(kind).triangular_system();
            let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
            let expect = sys.l.forward_solve(&sys.rhs);
            let config = DoacrossConfig {
                validate_terms: false,
                ..DoacrossConfig::default()
            };

            // Prebuilt artifacts — the cached-plan steady state for each
            // executor, without the planner in the timed path.
            let prepared = PreparedInspection::inspect(&pool, Schedule::multimax(), &loop_, true)
                .expect("triangular structure is injective");
            let (census, schedule) = PlanCensus::of_with_schedule(&loop_);
            let schedule: LevelSchedule = schedule.expect("injective in-bounds");
            assert_eq!(schedule.level_count(), census.critical_path);

            // One runtime, one scratch, both executors.
            let mut rt = Doacross::with_config(sys.n(), config);

            let mut point = WavefrontPoint {
                kind,
                rows: sys.n(),
                levels: schedule.level_count(),
                doacross: Duration::MAX,
                wavefront: Duration::MAX,
                doacross_polls: 0,
                true_deps: census.true_deps,
                selected: engine.prepare(&loop_).expect("plannable").variant(),
                selected_at_4: Planner::new()
                    .plan(&four, &loop_)
                    .expect("plannable")
                    .variant(),
            };
            for _ in 0..reps.max(1) {
                let (flat_time, flat_stats) = per_solve(solves, || {
                    let mut y = vec![0.0; sys.n()];
                    let stats = rt
                        .run_planned(&pool, &loop_, &mut y, &prepared, None, None)
                        .expect("valid");
                    assert_eq!(y, expect, "{}: doacross result", kind.name());
                    stats
                });
                let (wave_time, wave_stats) = per_solve(solves, || {
                    let mut y = vec![0.0; sys.n()];
                    let stats = rt
                        .run_wavefront(&pool, &loop_, &mut y, &schedule, None, None)
                        .expect("valid");
                    assert_eq!(y, expect, "{}: wavefront result", kind.name());
                    stats
                });
                assert_eq!(wave_stats.wait_polls, 0, "{}", kind.name());
                assert_eq!(
                    wave_stats.deps.true_deps, flat_stats.deps.true_deps,
                    "same dependence structure"
                );
                if flat_time < point.doacross {
                    point.doacross = flat_time;
                    point.doacross_polls = flat_stats.wait_polls;
                }
                point.wavefront = point.wavefront.min(wave_time);
            }
            point
        })
        .collect()
}

/// The chunked self-scheduling ablation: per-solve wavefront time with
/// one-iteration counter grabs (the Multimax policy — maximal shared-
/// counter contention) vs. width-adaptive chunks
/// ([`doacross_core::wavefront::level_chunk`]). Returns `(chunk1,
/// adaptive)` per-solve times, min over `reps`.
pub fn chunking_comparison(
    workers: usize,
    kind: ProblemKind,
    solves: usize,
    reps: usize,
) -> (Duration, Duration) {
    let pool = ThreadPool::new(workers);
    let sys = Problem::build(kind).triangular_system();
    let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
    let expect = sys.l.forward_solve(&sys.rhs);
    let (_, schedule) = PlanCensus::of_with_schedule(&loop_);
    let schedule = schedule.expect("injective in-bounds");
    let config = DoacrossConfig {
        validate_terms: false,
        ..DoacrossConfig::default()
    };
    let mut rt = Doacross::with_config(sys.n(), config);

    let mut measure = |chunk: Option<usize>| {
        let mut best = Duration::MAX;
        for _ in 0..reps.max(1) {
            let (time, _) = per_solve(solves, || {
                let mut y = vec![0.0; sys.n()];
                let stats = rt
                    .run_wavefront(&pool, &loop_, &mut y, &schedule, chunk, None)
                    .expect("valid");
                assert_eq!(y, expect);
                stats
            });
            best = best.min(time);
        }
        best
    };
    let unit = measure(Some(1));
    let adaptive = measure(None);
    (unit, adaptive)
}

/// Renders the comparison as the machine-readable JSON the perf
/// trajectory is tracked with across PRs (`BENCH_wavefront.json`):
/// `{structure: {doacross_ns, wavefront_ns, wait_polls, levels, ...}}`.
pub fn to_json(points: &[WavefrontPoint]) -> String {
    let mut out = String::from("{\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "  \"{}\": {{\"doacross_ns\": {}, \"wavefront_ns\": {}, \"wait_polls\": {}, \
             \"levels\": {}, \"rows\": {}, \"true_deps\": {}, \"selected\": \"{}\", \
             \"selected_at_4\": \"{}\"}}{}\n",
            p.kind.name(),
            p.doacross.as_nanos(),
            p.wavefront.as_nanos(),
            p.doacross_polls,
            p.levels,
            p.rows,
            p.true_deps,
            p.selected,
            p.selected_at_4,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push('}');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_is_bit_identical_and_poll_free() {
        // Result equality and the wait_polls == 0 invariant are asserted
        // inside the measurement; timings are reported, not asserted (CI
        // noise).
        let points = wavefront_comparison(2, &[ProblemKind::FivePt], 2, 1);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!(p.levels > 1 && p.levels < p.rows);
        assert!(p.doacross > Duration::ZERO && p.wavefront > Duration::ZERO);
        assert!(p.true_deps > 0);
        assert!(p.speedup() > 0.0);
    }

    #[test]
    fn planner_auto_selects_wavefront_for_deep_table1_structures() {
        // The acceptance anchor: at a multicore worker count the cost
        // model picks the wavefront on its own for the deep Table 1
        // structures (no forcing anywhere in the solve path).
        let four = ThreadPool::new(4);
        let planner = Planner::new();
        for kind in [ProblemKind::Spe2, ProblemKind::SevenPt] {
            let sys = Problem::build(kind).triangular_system();
            let loop_ = TriSolveLoop::new(&sys.l, &sys.rhs);
            let plan = planner.plan(&four, &loop_).expect("plannable");
            assert_eq!(
                plan.variant(),
                PlanVariant::Wavefront,
                "{}: {:?}",
                kind.name(),
                plan.costs()
            );
        }
    }

    #[test]
    fn chunking_comparison_measures_both_policies() {
        let (unit, adaptive) = chunking_comparison(2, ProblemKind::FivePt, 2, 1);
        assert!(unit > Duration::ZERO && adaptive > Duration::ZERO);
    }

    #[test]
    fn json_is_well_formed_enough_to_track() {
        let points = wavefront_comparison(2, &[ProblemKind::FivePt], 1, 1);
        let json = to_json(&points);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"5-PT\""));
        assert!(json.contains("doacross_ns"));
        assert!(json.contains("wavefront_ns"));
        assert!(json.contains("wait_polls"));
        assert!(json.contains("levels"));
        assert!(!json.contains(",\n}"), "no trailing comma");
    }
}
