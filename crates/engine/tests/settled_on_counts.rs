//! Plans the reference counts settle: the planner's stage 0 returns
//! `Sequential` before any census pass when a linear left-hand side and
//! the reference total already put `T_seq` under the parallel floor.
//!
//! Skipping the pass must cost neither legality nor honesty:
//! - an out-of-bounds subscript is the same typed `SubscriptOutOfBounds`
//!   the census pass names, wherever it sits, and nothing is cached;
//! - a left-hand side that is injective but not linear still gets a
//!   classified census;
//! - a settled plan says it counted no dependence (`is_classified()` and
//!   `is_doall()` are false, the build event carries no dependence
//!   figures) and survives a store round trip as it is.

use doacross_core::{AccessPattern, DoacrossError, IndirectLoop};
use doacross_engine::{Engine, EngineError, PlanStore, TraceEvent};
use doacross_plan::{CensusPass, PlanCensus, PlanVariant, Planner};
use doacross_sim::CostModel;

/// Prices under which every parallel candidate pays a region dispatch far
/// above any loop here run sequentially: the counts alone settle a linear
/// loop, and stage 1 gates any other injective one.
fn settling_prices() -> Planner {
    Planner::with_costs(CostModel {
        region_dispatch: 1e9,
        ..CostModel::multimax()
    })
}

fn engine() -> Engine {
    Engine::builder()
        .workers(2)
        .pools(1)
        .planner(settling_prices())
        .build()
}

/// Raw index arrays, unvalidated, so subscripts may leave the data space.
struct Raw {
    data_len: usize,
    lhs: Vec<usize>,
    rows: Vec<Vec<usize>>,
}

impl AccessPattern for Raw {
    fn iterations(&self) -> usize {
        self.lhs.len()
    }
    fn data_len(&self) -> usize {
        self.data_len
    }
    fn lhs(&self, i: usize) -> usize {
        self.lhs[i]
    }
    fn terms(&self, i: usize) -> usize {
        self.rows[i].len()
    }
    fn term_element(&self, i: usize, j: usize) -> usize {
        self.rows[i][j]
    }
}

/// A serial chain over `a(i) = i + 1`: row `i` reads element `i`.
fn chain(n: usize) -> Raw {
    Raw {
        data_len: n + 1,
        lhs: (1..=n).collect(),
        rows: (0..n).map(|i| vec![i]).collect(),
    }
}

#[test]
fn out_of_bounds_subscripts_are_the_census_passs_error_and_nothing_is_cached() {
    let n = 64;
    let in_bounds = chain(n);
    let past = n + 1 + 5; // an element past the data space
    let mut cases = Vec::new();
    for row in [0, n / 2, n - 1] {
        let mut raw = chain(n);
        raw.rows[row].push(past);
        cases.push((format!("reference in row {row}"), raw, (row, past)));
    }
    // A linear left-hand side one element short of its data space; the
    // census pass names the left-hand side before any reference, so an
    // earlier out-of-bounds reference does not change the answer.
    let mut raw = chain(n);
    raw.data_len = n;
    raw.rows[0] = vec![past];
    cases.push(("left-hand side".to_string(), raw, (n - 1, n)));

    // A stride past half the address space: the linearity check runs
    // before any bounds check and must not overflow on it.
    let huge = usize::MAX / 2 + 1;
    let raw = Raw {
        data_len: 8,
        lhs: vec![0, huge, 5],
        rows: vec![vec![]; 3],
    };
    cases.push(("overflowing stride".to_string(), raw, (1, huge)));

    for (what, raw, (iteration, element)) in cases {
        let expected = DoacrossError::SubscriptOutOfBounds {
            iteration,
            element,
            data_len: raw.data_len,
        };
        assert_eq!(
            CensusPass::of(&raw).first_out_of_bounds,
            Some((iteration, element)),
            "{what}: the census pass names it"
        );
        let engine = engine();
        match engine.prepare(&raw) {
            Err(EngineError::Doacross(err)) => assert_eq!(err, expected, "{what}"),
            other => panic!("{what}: {other:?}"),
        }
        assert_eq!(engine.cache_len(), 0, "{what}: nothing cached");
    }

    // The same chain in bounds is one the counts settle: the error above
    // came from falling through stage 0, not from never reaching it.
    let engine = engine();
    let settled = engine.prepare(&in_bounds).expect("plannable");
    assert!(!settled.plan().census().is_classified());
    assert_eq!(engine.cache_len(), 1);
}

#[test]
fn an_injective_left_hand_side_that_is_not_linear_is_classified() {
    // The chain's reads under a permuted (multiplicative) left-hand side:
    // injective, not linear, so stage 0 never applies.
    let n = 61; // prime, so `i ↦ 7i mod n` is a permutation
    let raw = Raw {
        data_len: n,
        lhs: (0..n).map(|i| 7 * i % n).collect(),
        rows: (0..n)
            .map(|i| {
                if i == 0 {
                    vec![]
                } else {
                    vec![7 * (i - 1) % n]
                }
            })
            .collect(),
    };
    let prepared = engine().prepare(&raw).expect("plannable");
    let plan = prepared.plan();
    assert!(plan.is_gated() && plan.variant() == PlanVariant::Sequential);
    assert!(plan.census().is_classified());
    assert_eq!(plan.census(), &PlanCensus::of(&raw));
    assert_eq!(plan.census().critical_path, n);
}

#[test]
fn a_plan_settled_on_counts_claims_no_dependence_and_round_trips() {
    // A doall: every read hits the unwritten upper half of the data space.
    let n = 200;
    let rows: Vec<Vec<usize>> = (0..n).map(|i| vec![n + i, n + (i + 3) % n]).collect();
    let coeff = rows.iter().map(|r| vec![0.5; r.len()]).collect();
    let doall = IndirectLoop::new(2 * n, (0..n).collect(), rows, coeff).unwrap();
    let measured = PlanCensus::of(&doall);
    assert!(measured.is_doall() && measured.is_classified());

    let first = Engine::builder()
        .workers(2)
        .pools(1)
        .planner(settling_prices())
        .observability_default()
        .build();
    let prepared = first.prepare(&doall).expect("plannable");
    let plan = prepared.plan();
    let census = plan.census();
    assert!(plan.is_gated() && plan.variant() == PlanVariant::Sequential);
    assert!(!census.is_classified(), "{plan}");
    assert!(
        !census.is_doall(),
        "nothing was counted, so nothing is known"
    );
    assert_eq!(
        (census.iterations, census.data_len, census.total_terms),
        (measured.iterations, measured.data_len, measured.total_terms),
        "the shape totals are measured"
    );
    assert_eq!(census.critical_path, 0);
    assert!(!census.facts().classified);
    assert!(plan.to_string().contains("settled on its reference counts"));
    plan.verify_artifacts()
        .expect("a sequential plan needs no class");
    plan.verify_against(&doall).expect("sound");

    let built = first
        .trace_events()
        .into_iter()
        .find_map(|e| match e.event {
            TraceEvent::PlanBuilt {
                true_deps,
                critical_path,
                ..
            } => Some((true_deps, critical_path)),
            _ => None,
        })
        .expect("a build event");
    assert_eq!(
        built,
        (None, None),
        "no dependence figure it did not measure"
    );

    let store = PlanStore::from_bytes(&first.snapshot().to_bytes()).expect("own bytes decode");
    let decoded = store.plans().next().expect("one plan");
    assert_eq!(decoded.census(), census);
    assert!(!decoded.census().is_classified() && decoded.is_gated());
    assert_eq!(decoded.costs(), plan.costs());
    decoded.verify_artifacts().expect("nothing to disprove");

    let second = engine();
    assert_eq!(second.warm_from(&store), 1);
    let served = second.prepare(&doall).expect("plannable");
    assert!(served.from_cache(), "the restored settled plan hits");
    let mut y: Vec<f64> = (0..2 * n).map(|e| 1.0 + e as f64).collect();
    let mut oracle = y.clone();
    doacross_core::seq::run_sequential(&doall, &mut oracle);
    served.execute(&doall, &mut y).expect("valid");
    assert_eq!(y, oracle);
}
