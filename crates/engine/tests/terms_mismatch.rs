//! A loop whose per-row reference counts disagree with its plan, across
//! the engine: every stream-backed variant, either claim source, either
//! fallback policy, with and without a solve deadline, and the mismatch in
//! the first, a middle and the last claim slot.
//!
//! A planned solve sweeps nothing before dispatch; the region checks each
//! row's count as it reads the row and is rejected at the first mismatch
//! a worker meets. The caller must still see the same typed error the old
//! sweep gave — `ScheduleTermsMismatch` naming the first mismatching slot
//! in claim order — with `y` byte-identical, and the rejection is no
//! fault: no fault counter moves, no `SolvePoisoned` event is traced, no
//! flight record is left, no span reaches the next profile, and the next
//! good solve delivers on its first attempt.

use doacross_core::{AccessPattern, DoacrossError, IndirectLoop};
use doacross_engine::{Engine, EngineError, FallbackPolicy, SolveOutcome, SpanKind, TraceEvent};
use doacross_plan::{PlanVariant, Planner};
use doacross_sim::CostModel;
use std::time::Duration;

const WORKERS: usize = 2;

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

/// Prices under which the wavefront wins: the sequential loop and every
/// flag poll cost a fortune, barriers nothing.
fn wavefront_prices() -> Planner {
    Planner::with_costs(CostModel {
        seq_iter: 1e6,
        seq_term: 1e6,
        wait_poll: 1e6,
        barrier: 0.0,
        ..CostModel::multimax()
    })
}

/// A loop structure: who each iteration writes and which elements its row
/// reads. Element `data_len − 1` is written by nobody.
struct Shape {
    data_len: usize,
    lhs: Vec<usize>,
    rows: Vec<Vec<usize>>,
}

impl Shape {
    /// Distance-8 dependences under a reversed subscript: iteration `i`
    /// writes `n − 1 − i` and reads what iteration `i − 8` wrote. Both
    /// claim orders are stall-free on two workers and the subscript is not
    /// linear, so flag prices pick the natural-order doacross.
    fn distance_eight() -> Self {
        let n = 1024;
        let lhs: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
        let rows = (0..n)
            .map(|i| if i < 8 { vec![] } else { vec![lhs[i - 8]] })
            .collect();
        Self {
            data_len: n + 1,
            lhs,
            rows,
        }
    }

    /// The lower factor pattern of Table 1's 5-PT operator on a 63×63
    /// grid: row `i` reads its west and south neighbours. Flag prices pick
    /// the doconsider-reordered doacross, wavefront prices the wavefront.
    fn five_point() -> Self {
        let (side, n) = (63, 63 * 63);
        let rows = (0..n)
            .map(|i| {
                let west = (i % side != 0).then(|| i - 1);
                let south = (i >= side).then(|| i - side);
                west.into_iter().chain(south).collect()
            })
            .collect();
        Self {
            data_len: n + 1,
            lhs: (0..n).collect(),
            rows,
        }
    }

    /// The loop: with `mixed`, every row also reads the unwritten element
    /// (an old-value reference, so the plan's stream keeps its class
    /// bytes); with `longer`, that iteration's row reads it once more.
    fn loop_(&self, mixed: bool, longer: Option<usize>) -> IndirectLoop {
        let unwritten = self.data_len - 1;
        let rhs: Vec<Vec<usize>> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut row = row.clone();
                row.extend(mixed.then_some(unwritten));
                row.extend((longer == Some(i)).then_some(unwritten));
                row
            })
            .collect();
        let coeff = rhs
            .iter()
            .enumerate()
            .map(|(i, r)| vec![0.25 + (i % 3) as f64 * 0.125; r.len()])
            .collect();
        IndirectLoop::new(self.data_len, self.lhs.clone(), rhs, coeff).unwrap()
    }
}

/// A structure, the planner that prices it and the variant it must pick.
type Case = (Shape, fn() -> Planner, PlanVariant);

fn bits(y: &[f64]) -> Vec<u64> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// Every case on one engine: prepares each (shape, prices) pair in both
/// claim-source forms, and for each mismatch slot proves the typed error
/// with `y` untouched, then a good solve.
fn assert_rejections_are_typed(policy: FallbackPolicy, deadline: Option<Duration>) {
    let cases: [Case; 3] = [
        (Shape::distance_eight(), flag_prices, PlanVariant::Doacross),
        (Shape::five_point(), flag_prices, PlanVariant::Reordered),
        (
            Shape::five_point(),
            wavefront_prices,
            PlanVariant::Wavefront,
        ),
    ];
    let context = format!("{policy:?}, deadline {deadline:?}");
    for (shape, prices, variant) in cases {
        let mut builder = Engine::builder()
            .workers(WORKERS)
            .pools(1)
            .planner(prices())
            .fallback(policy)
            .observability_default()
            .profiling_default();
        if let Some(deadline) = deadline {
            builder = builder.solve_deadline(deadline);
        }
        let engine = builder.build();
        let mut good_solves = 0;
        for mixed in [false, true] {
            let context = format!("{context}, {variant}, mixed {mixed}");
            let planned = shape.loop_(mixed, None);
            let prepared = engine.prepare(&planned).unwrap();
            assert_eq!(prepared.variant(), variant, "{context}");
            let stream = prepared.plan().stream().expect("a stream-backed plan");
            assert_eq!(stream.classes().is_some(), mixed, "{context}");
            let n = planned.iterations();
            let y0: Vec<f64> = (0..shape.data_len)
                .map(|e| 1.0 + (e % 7) as f64 * 0.25)
                .collect();
            let mut expect = y0.clone();
            doacross_core::seq::run_sequential(&planned, &mut expect);

            for slot in [0, n / 2, n - 1] {
                // The iteration the old sweep named: the one this claim
                // slot runs.
                let iteration = stream.order().map_or(slot, |order| order[slot] as usize);
                let terms = shape.rows[iteration].len() + usize::from(mixed);
                let longer = shape.loop_(mixed, Some(iteration));
                let mut y = y0.clone();
                let err = prepared.execute(&longer, &mut y).unwrap_err();
                assert!(
                    matches!(
                        err,
                        EngineError::Doacross(DoacrossError::ScheduleTermsMismatch {
                            iteration: named,
                            schedule_terms,
                            loop_terms,
                        }) if named == iteration
                            && schedule_terms == terms
                            && loop_terms == terms + 1
                    ),
                    "{context}, slot {slot} (iteration {iteration}): {err:?}"
                );
                assert_eq!(bits(&y), bits(&y0), "{context}, slot {slot}: y torn");

                let mut y = y0.clone();
                let stats = prepared.execute(&planned, &mut y).unwrap();
                good_solves += 1;
                assert_eq!(y, expect, "{context}, slot {slot}: the next solve");
                assert_eq!(stats.attempts, 1, "{context}, slot {slot}: no replay");

                // The good solve's profile holds its own spans only: each
                // iteration in exactly one work span.
                let profile = engine.recent_profiles().pop().expect("profiled");
                assert_eq!(profile.dropped, 0, "{context}");
                let executed: u64 = profile
                    .spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Work)
                    .map(|s| s.aux)
                    .sum();
                assert_eq!(
                    executed, n as u64,
                    "{context}, slot {slot}: a rejected solve's spans leaked"
                );
            }
        }

        // A rejection is no fault and no solve: nothing recorded it.
        let solves = engine.recent_solves();
        assert_eq!(solves.len(), good_solves, "{context}: only good solves");
        assert!(
            solves.iter().all(|r| r.outcome == SolveOutcome::Ok),
            "{context}"
        );
        assert!(
            !engine
                .trace_events()
                .iter()
                .any(|e| matches!(e.event, TraceEvent::SolvePoisoned { .. })),
            "{context}: a rejection was traced as a fault"
        );
        let text = engine.metrics_text();
        let faults: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("doacross_fault_"))
            .collect();
        assert!(!faults.is_empty(), "{context}: fault counters are exported");
        assert!(
            faults.iter().all(|l| l.ends_with(" 0")),
            "{context}: {faults:?}"
        );
    }
}

#[test]
fn a_loop_disagreeing_with_its_plan_is_rejected_typed_by_the_region() {
    for policy in [FallbackPolicy::Disabled, FallbackPolicy::SequentialRetry] {
        for deadline in [None, Some(Duration::from_secs(30))] {
            assert_rejections_are_typed(policy, deadline);
        }
    }
}
