//! The proof the staged planner rests on: stopping at the stage-1 gate
//! changes no decision and no price.
//!
//! `Planner::plan` returns `Sequential` straight from the census whenever
//! `T_seq ≤ parallel_floor`, without pricing anything else. That is only
//! sound if the floor really is a lower bound on every parallel price *as
//! computed* (floating point included), so that pricing everything would
//! have selected `Sequential` too. Here stage 2 (`Planner::price`) is
//! called directly, gate or no gate, and compared with what the planner
//! did — across random injective patterns, cost models whose constants
//! span six decades, and every worker count the engine prices for.
//!
//! The same check proves the plan's features are model-free: priced under
//! the build model they reproduce the plan's prices, and priced under any
//! other model they reproduce what stage 2 computes from the pattern under
//! that model — bit for bit, so re-pricing a plan needs no inversion.

use doacross_core::IndirectLoop;
use doacross_obs::ObsVariant;
use doacross_par::ThreadPool;
use doacross_plan::{
    detect_linear, gated, parallel_floor, price_features, testgrid::deep_grid, CensusPass,
    PlanCensus, PlanVariant, Planner, VariantCosts,
};
use doacross_sim::CostModel;
use doacross_sparse::table1_problems;
use proptest::prelude::*;

const WORKERS: [usize; 5] = [1, 2, 4, 8, 16];

/// Coefficients are irrelevant to planning; any value will do.
fn loop_of(data_len: usize, lhs: Vec<usize>, rhs: Vec<Vec<usize>>) -> IndirectLoop {
    let coeff = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
    IndirectLoop::new(data_len, lhs, rhs, coeff).expect("valid structure")
}

/// Doalls with a scattered (shuffled, hence non-linear) left-hand side:
/// every read hits the unwritten upper half of the data space.
fn arb_doall() -> impl Strategy<Value = IndirectLoop> {
    (1..200usize)
        .prop_flat_map(|n| {
            let lhs = Just((0..n).collect::<Vec<usize>>()).prop_shuffle();
            let rhs = proptest::collection::vec(proptest::collection::vec(n..2 * n, 0..4), n..=n);
            (lhs, rhs, Just(n))
        })
        .prop_map(|(lhs, rhs, n)| loop_of(2 * n, lhs, rhs))
}

/// `chains` interleaved serial chains of `len` links: link `j` of a chain
/// reads link `j − 1`, `chains` iterations back (1 = one serial chain).
fn arb_chains() -> impl Strategy<Value = IndirectLoop> {
    (1..24usize, 1..24usize).prop_map(|(chains, len)| {
        let n = chains * len;
        let rhs = (0..n)
            .map(|i| if i < chains { vec![] } else { vec![i - chains] })
            .collect();
        loop_of(n, (0..n).collect(), rhs)
    })
}

/// Stall-free grids — level widths that are multiples of the small worker
/// counts are exactly where the wavefront's `rounds·chain` and the flag
/// variants' `W/p` coincide on paper and differ only in rounding.
fn arb_grid() -> impl Strategy<Value = IndirectLoop> {
    (1..9usize, 2..12usize, 1..4usize, 1..8usize)
        .prop_map(|(w, depth, reads, stride)| deep_grid(8 * w, depth, reads, stride))
}

/// Anything injective: a shuffled prefix of the data space as the
/// left-hand side, arbitrary reads (true, anti, intra, unwritten).
fn arb_scattered() -> impl Strategy<Value = IndirectLoop> {
    (1..60usize, 1..10usize)
        .prop_flat_map(|(n, spread)| {
            let data_len = spread * n + 1;
            let lhs = Just((0..data_len).collect::<Vec<usize>>())
                .prop_shuffle()
                .prop_map(move |perm| perm[..n].to_vec());
            let rhs =
                proptest::collection::vec(proptest::collection::vec(0..data_len, 0..5), n..=n);
            (lhs, rhs, Just(data_len))
        })
        .prop_map(|(lhs, rhs, data_len)| loop_of(data_len, lhs, rhs))
}

fn arb_pattern() -> impl Strategy<Value = IndirectLoop> {
    prop_oneof![arb_doall(), arb_chains(), arb_grid(), arb_scattered()]
}

/// Every constant drawn independently from `10^-3 ..= 10^3`.
fn arb_model() -> impl Strategy<Value = CostModel> {
    proptest::collection::vec(-3.0..3.0f64, 12..=12).prop_map(|exp| {
        let c = |i: usize| 10f64.powf(exp[i]);
        CostModel {
            schedule_grab: c(0),
            iteration_setup: c(1),
            check: c(2),
            term: c(3),
            wait_poll: c(4),
            publish: c(5),
            inspect_per_iter: c(6),
            post_per_iter: c(7),
            region_dispatch: c(8),
            barrier: c(9),
            seq_iter: c(10),
            seq_term: c(11),
        }
    })
}

/// The candidates the floor bounds: every parallel one.
fn bounded_prices(costs: &VariantCosts) -> [(&'static str, Option<f64>); 4] {
    [
        ("doacross", costs.doacross),
        ("linear", costs.linear),
        ("reordered", costs.reordered),
        ("wavefront", costs.wavefront),
    ]
}

/// Asserts the staged-planner properties for one (pattern, model, p): the
/// floor bounds stage 2's prices, the gate agrees with stage 2's
/// selection, and the planner's own output is stage 2's (or, gated, its
/// sequential price alone) — and that a non-gated plan's features, priced
/// under `model` and under `other`, are stage 2's selection and prices
/// under each.
fn check(
    pattern: &IndirectLoop,
    model: CostModel,
    other: CostModel,
    pool: &ThreadPool,
) -> Result<(), String> {
    let p = pool.threads();
    let planner = Planner::with_costs(model);
    let pass = CensusPass::of(pattern);
    let full = planner.price(pattern, &pass, detect_linear(pattern), p);

    let floor = parallel_floor(&model, &pass.census, p);
    for (name, price) in bounded_prices(&full.costs) {
        if price.is_some_and(|price| floor > price) {
            return Err(format!("p={p}: floor {floor} above {name} {price:?}"));
        }
    }
    let gate = gated(&model, &pass.census, p);
    if gate && full.variant != PlanVariant::Sequential {
        return Err(format!(
            "p={p}: gate fired but pricing selects {}: {:?}",
            full.variant, full.costs
        ));
    }

    let plan = planner.plan(pool, pattern).map_err(|e| e.to_string())?;
    if plan.variant() != full.variant {
        return Err(format!(
            "p={p}: planned {} but stage 2 selects {}",
            plan.variant(),
            full.variant
        ));
    }
    let expected = if gate {
        VariantCosts {
            sequential: full.costs.sequential,
            ..Default::default()
        }
    } else {
        full.costs
    };
    if plan.is_gated() != gate || *plan.costs() != expected {
        return Err(format!(
            "p={p}: gate {gate}, plan carries {:?}, stage 2 priced {:?}",
            plan.costs(),
            full.costs
        ));
    }
    if gate && plan.memory_bytes() != 0 {
        return Err(format!("p={p}: gated plan carries an artifact"));
    }

    let Some(features) = plan.features() else {
        return if gate {
            Ok(())
        } else {
            Err(format!("p={p}: a priced plan keeps no features"))
        };
    };
    let priced = |m: &CostModel| {
        price_features(m, plan.census(), Some(features), plan.linear_subscript(), p)
    };
    if priced(&model) != (plan.variant(), *plan.costs()) {
        return Err(format!(
            "p={p}: features under the build model price {:?}, the plan carries {:?}",
            priced(&model),
            plan.costs()
        ));
    }
    let fresh = Planner::with_costs(other).price(pattern, &pass, detect_linear(pattern), p);
    if fresh.features.as_ref() != Some(features) {
        return Err(format!(
            "p={p}: features moved with the model: {features:?} vs {:?}",
            fresh.features
        ));
    }
    if priced(&other) != (fresh.variant, fresh.costs) {
        return Err(format!(
            "p={p}: features under another model price {:?}, stage 2 {:?}",
            priced(&other),
            (fresh.variant, fresh.costs)
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn the_gate_changes_no_decision_and_no_price(
        pattern in arb_pattern(),
        model in arb_model(),
        other in arb_model(),
    ) {
        for p in WORKERS {
            let pool = ThreadPool::new(p);
            if let Err(why) = check(&pattern, model, other, &pool) {
                prop_assert!(false, "{}", why);
            }
        }
    }

    #[test]
    fn both_sides_of_the_gate_are_exercised_near_the_crossover(
        pattern in arb_pattern(),
        p in 0..WORKERS.len(),
    ) {
        // Random constants mostly land far from `T_seq = floor`. Pin the
        // sequential constants so `T_seq` sits within a tenth of a percent
        // of the preset's floor, on either side: the gate has to hold
        // exactly where it is closest to being wrong (on a doall the floor
        // *is* the flat-doacross price).
        let pool = ThreadPool::new(WORKERS[p]);
        let census = CensusPass::of(&pattern).census;
        let preset = CostModel::multimax();
        let floor = parallel_floor(&preset, &census, pool.threads());
        let references = (census.iterations as f64 + census.total_terms as f64).max(1.0);
        for nudge in [0.999, 1.0, 1.001] {
            let per_reference = floor * nudge / references;
            let model = CostModel {
                seq_iter: per_reference,
                seq_term: per_reference,
                ..preset
            };
            if let Err(why) = check(&pattern, model, preset, &pool) {
                prop_assert!(false, "nudge {}: {}", nudge, why);
            }
        }
    }
}

#[test]
fn the_floor_survives_rounding_when_wavefront_rounds_equal_work_over_p() {
    // Level widths that are multiples of p with free barriers: on paper
    // the wavefront's `rounds·chain` *equals* `W/p`, so only rounding
    // separates the wavefront price from the flag variants' bound. The
    // floor must not sit an ulp above either.
    let free_barriers = CostModel {
        barrier: 0.0,
        wait_poll: 0.0,
        ..CostModel::multimax()
    };
    for p in WORKERS {
        let pool = ThreadPool::new(p);
        for (width, depth, reads) in [(16, 2, 1), (48, 7, 3), (80, 11, 2), (16, 31, 3)] {
            let grid = deep_grid(width, depth, reads, 5);
            for scale in [1.0, 1.0 / 3.0, 0.7, 1e-3, 1e3] {
                let mut model = free_barriers;
                model.term *= scale;
                model.check *= scale;
                model.publish *= scale;
                check(&grid, model, free_barriers, &pool).unwrap();
            }
        }
    }
}

#[test]
fn table1_plans_under_the_preset_carry_exactly_stage_two_prices() {
    // The five structures the paper (and `repro table1`) reports, planned
    // by `Planner::new()`: whatever `plan` returns is bit for bit what
    // pricing every candidate returns.
    for p in [2usize, 4, 16] {
        let pool = ThreadPool::new(p);
        for problem in table1_problems() {
            let l = problem.triangular_system().l;
            let rhs: Vec<Vec<usize>> = (0..l.n()).map(|i| l.row_cols(i).to_vec()).collect();
            let pattern = loop_of(l.n(), (0..l.n()).collect(), rhs);
            let refined = CostModel {
                wait_poll: 2.0,
                barrier: 40.0,
                ..CostModel::multimax()
            };
            check(&pattern, CostModel::multimax(), refined, &pool)
                .unwrap_or_else(|why| panic!("{}: {why}", problem.kind.name()));
            let plan = Planner::new().plan(&pool, &pattern).unwrap();
            assert!(
                !plan.is_gated(),
                "{} at p={p}: the preset's dispatch is cheap enough to price everything",
                problem.kind.name()
            );
        }
    }
}

#[test]
fn a_flag_price_clamped_at_the_critical_path_reprices_exactly() {
    // Four interleaved chains of 32 links on 8 workers: `(W + flags +
    // stalls)/p` stays below `CP·chain`, so every flag price is the
    // critical-path clamp, 50 + 32·3.9609375 + 40 = 216.75. A poll eight
    // times dearer moves the unclamped sum but not past the clamp, so the
    // fresh price does not move. Inverting the stored price instead read
    // the clamp's slack as stalls and re-priced the flag variants at
    // 243.875 under the dearer poll.
    let (chains, len, p) = (4usize, 32usize, 8usize);
    let n = chains * len;
    let rhs = (0..n)
        .map(|i| if i < chains { vec![] } else { vec![i - chains] })
        .collect();
    let pattern = loop_of(n, (0..n).collect(), rhs);
    let model = CostModel::multimax();
    let dear_polls = CostModel {
        wait_poll: 2.0,
        ..model
    };
    let pool = ThreadPool::new(p);
    check(&pattern, model, dear_polls, &pool).unwrap();

    let plan = Planner::with_costs(model).plan(&pool, &pattern).unwrap();
    assert!(matches!(plan.variant(), PlanVariant::Linear(_)), "{plan}");
    let clamp = Some(216.75);
    assert_eq!(plan.costs().doacross, clamp, "{:?}", plan.costs());
    let (_, repriced) = price_features(
        &dear_polls,
        plan.census(),
        plan.features(),
        plan.linear_subscript(),
        p,
    );
    for price in [repriced.doacross, repriced.linear, repriced.reordered] {
        assert_eq!(price, clamp, "{repriced:?}");
    }
}

/// The reference stall weight of a claim order, over the doconsider
/// crate's `DependenceDag` (its own writer map, deduplicated edges): for
/// each edge with claim gap `g`, `max(0, p − g)`, summed as integers and
/// divided once by `p`. `pos` is each iteration's claim slot (`None` =
/// natural order).
fn dag_stall_weight(
    dag: &doacross_doconsider::DependenceDag,
    pos: Option<&[usize]>,
    p: usize,
) -> f64 {
    let mut slots = 0u64;
    for i in 0..dag.len() {
        for &w in dag.predecessors(i) {
            let gap = match pos {
                Some(pos) => pos[i] - pos[w],
                None => i - w,
            };
            slots += p.saturating_sub(gap) as u64;
        }
    }
    slots as f64 / p as f64
}

/// Stage 2 against the doconsider crate on one injective pattern at `p`:
/// the census pass's level sort is the level histogram's prefix sums and
/// `doconsider_order`, and `Planner::price` keeps exactly the features the
/// dependence DAG gives — stall weights bit for bit, rounds from the
/// histogram.
fn check_doconsider(pattern: &IndirectLoop, p: usize) -> Result<(), String> {
    use doacross_doconsider::{doconsider_order, level_histogram, DependenceDag, LevelAssignment};
    let pass = CensusPass::of(pattern);
    let (offsets, order) = pass.sorted_levels();
    let dag = DependenceDag::build(pattern);
    let widths = level_histogram(&LevelAssignment::compute(&dag));
    let prefix: Vec<usize> = std::iter::once(0)
        .chain(widths.iter().scan(0, |sum, w| {
            *sum += w;
            Some(*sum)
        }))
        .collect();
    if offsets != prefix {
        return Err(format!(
            "level offsets {offsets:?}, histogram prefix sums {prefix:?}"
        ));
    }
    let reference = doconsider_order(pattern);
    if order != reference {
        return Err(format!(
            "level-sorted order {order:?}, doconsider {reference:?}"
        ));
    }
    let features = Planner::new()
        .price(pattern, &pass, detect_linear(pattern), p)
        .features
        .ok_or("stage 2 keeps its features")?;
    let mut pos = vec![0; reference.len()];
    for (k, &i) in reference.iter().enumerate() {
        pos[i] = k;
    }
    let expected = [
        dag_stall_weight(&dag, None, p),
        dag_stall_weight(&dag, Some(&pos), p),
    ];
    let rounds: usize = widths.iter().map(|w| w.div_ceil(p)).sum();
    let got = [features.stall_natural, features.stall_reordered];
    if got.map(f64::to_bits) != expected.map(f64::to_bits) || features.rounds != rounds {
        return Err(format!(
            "p={p}: stage 2 keeps {features:?}, the DAG gives stalls {expected:?} and {rounds} rounds"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn stage_two_is_the_doconsider_reference_on_random_patterns(pattern in arb_pattern()) {
        for p in WORKERS {
            if let Err(why) = check_doconsider(&pattern, p) {
                prop_assert!(false, "{}", why);
            }
        }
    }
}

#[test]
fn stage_two_is_the_doconsider_reference_on_table1() {
    for problem in table1_problems() {
        let l = problem.triangular_system().l;
        let rhs: Vec<Vec<usize>> = (0..l.n()).map(|i| l.row_cols(i).to_vec()).collect();
        let pattern = loop_of(l.n(), (0..l.n()).collect(), rhs);
        for p in WORKERS {
            check_doconsider(&pattern, p)
                .unwrap_or_else(|why| panic!("{}: {why}", problem.kind.name()));
        }
    }
}

// ---------------------------------------------------------------------
// Stage 0: a plan the reference counts settle, before any census pass.
//
// Stage 0 gates on a census that carries only `n`, the data length and
// the reference total (`critical_path = 0`). That is sound only if the
// floor never decreases as the critical path grows — so the counts floor
// bounds the real one from below, in floating point too — and if pricing
// from the census alone reads nothing the census pass measures, so the
// settled plan carries stage 1's variant and prices bit for bit.

/// Linear left-hand sides `c·i + d` that end inside the data space, reads
/// anywhere in it: the loops stage 0 may settle.
fn arb_linear() -> impl Strategy<Value = IndirectLoop> {
    (1..120usize, 1..4usize, 0..6usize, 0..8usize)
        .prop_flat_map(|(n, c, d, slack)| {
            let data_len = c * (n - 1) + d + 1 + slack;
            let rhs =
                proptest::collection::vec(proptest::collection::vec(0..data_len, 0..5), n..=n);
            (Just((n, c, d, data_len)), rhs)
        })
        .prop_map(|((n, c, d, data_len), rhs)| {
            loop_of(data_len, (0..n).map(|i| c * i + d).collect(), rhs)
        })
}

/// The census stage 0 prices from: the shape totals, nothing measured.
fn counts_of(census: &PlanCensus) -> PlanCensus {
    PlanCensus {
        iterations: census.iterations,
        data_len: census.data_len,
        total_terms: census.total_terms,
        injective: true,
        ..PlanCensus::default()
    }
}

fn bits(costs: &VariantCosts) -> [Option<u64>; ObsVariant::ALL.len()] {
    costs
        .as_candidate_prices()
        .map(|price| price.map(f64::to_bits))
}

/// Stage 0 for one (pattern, model, p): the planner settles the plan on
/// its counts exactly when the left-hand side is linear and the counts
/// floor gates it; a settled plan is gated at stage 1 too, with the same
/// variant and the same price bits, and carries the counts census (not a
/// doall, no artifact); any other plan carries the measured census.
/// Returns whether the plan was settled.
fn check_counts(
    pattern: &IndirectLoop,
    model: CostModel,
    pool: &ThreadPool,
) -> Result<bool, String> {
    let p = pool.threads();
    let measured = PlanCensus::of(pattern);
    let counts = counts_of(&measured);
    let linear = detect_linear(pattern);
    let settles = linear.is_some() && gated(&model, &counts, p);
    let plan = Planner::with_costs(model)
        .plan(pool, pattern)
        .map_err(|e| e.to_string())?;
    if plan.census().is_classified() == settles {
        return Err(format!(
            "p={p}: counts settle it: {settles}, but the plan carries {:?}",
            plan.census()
        ));
    }
    if !settles {
        return if *plan.census() == measured {
            Ok(false)
        } else {
            Err(format!(
                "p={p}: an unsettled plan carries {:?}",
                plan.census()
            ))
        };
    }
    if !gated(&model, &measured, p) {
        return Err(format!(
            "p={p}: the counts floor gates, the measured floor {} does not",
            parallel_floor(&model, &measured, p)
        ));
    }
    let (stage_one, stage_one_costs) = price_features(&model, &measured, None, linear, p);
    let (stage_zero, stage_zero_costs) = price_features(&model, &counts, None, linear, p);
    if stage_zero != stage_one || bits(&stage_zero_costs) != bits(&stage_one_costs) {
        return Err(format!(
            "p={p}: counts price {stage_zero} {stage_zero_costs:?}, \
             stage 1 {stage_one} {stage_one_costs:?}"
        ));
    }
    if plan.variant() != stage_one
        || bits(plan.costs()) != bits(&stage_one_costs)
        || !plan.is_gated()
        || plan.features().is_some()
        || plan.memory_bytes() != 0
    {
        return Err(format!(
            "p={p}: settled plan {plan} carries {:?}, stage 1 {stage_one} {stage_one_costs:?}",
            plan.costs()
        ));
    }
    if *plan.census() != counts || plan.census().is_doall() {
        return Err(format!("p={p}: settled plan census {:?}", plan.census()));
    }
    Ok(true)
}

#[test]
fn the_parallel_floor_never_decreases_as_the_critical_path_grows() {
    // Models with every constant drawn from `10^-3 ..= 10^3` (a fixed
    // generator), the preset, and shapes from one iteration to thousands:
    // raising the critical path one level at a time never lowers the floor.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut draw = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        10f64.powf(((state >> 11) as f64 / (1u64 << 53) as f64) * 6.0 - 3.0)
    };
    let mut models = vec![CostModel::multimax()];
    for _ in 0..40 {
        models.push(CostModel {
            schedule_grab: draw(),
            iteration_setup: draw(),
            check: draw(),
            term: draw(),
            wait_poll: draw(),
            publish: draw(),
            inspect_per_iter: draw(),
            post_per_iter: draw(),
            region_dispatch: draw(),
            barrier: draw(),
            seq_iter: draw(),
            seq_term: draw(),
        });
    }
    for model in &models {
        for p in WORKERS {
            for (n, terms) in [(1usize, 0u64), (7, 3), (64, 200), (333, 1), (1000, 5000)] {
                let mut census = PlanCensus {
                    iterations: n,
                    data_len: n,
                    total_terms: terms,
                    injective: true,
                    ..PlanCensus::default()
                };
                let mut last = parallel_floor(model, &census, p);
                for critical_path in 1..=n + 2 {
                    census.critical_path = critical_path;
                    let floor = parallel_floor(model, &census, p);
                    assert!(
                        floor >= last,
                        "{model:?} p={p} n={n} T={terms}: CP {critical_path} floor {floor} \
                         below {last}"
                    );
                    last = floor;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn a_plan_the_counts_settle_is_gated_at_stage_one_with_the_same_bits(
        pattern in prop_oneof![arb_linear(), arb_pattern()],
        model in arb_model(),
    ) {
        for p in WORKERS {
            let pool = ThreadPool::new(p);
            if let Err(why) = check_counts(&pattern, model, &pool) {
                prop_assert!(false, "{}", why);
            }
        }
    }

    #[test]
    fn stage_zero_settles_exactly_below_the_counts_floor(
        pattern in arb_linear(),
        p in 0..WORKERS.len(),
    ) {
        // Pin the sequential constants so `T_seq` sits a tenth of a percent
        // on either side of the preset's counts floor: below it the counts
        // settle the plan, above it the census pass runs.
        let pool = ThreadPool::new(WORKERS[p]);
        let counts = counts_of(&PlanCensus::of(&pattern));
        let preset = CostModel::multimax();
        let floor = parallel_floor(&preset, &counts, pool.threads());
        let references = counts.iterations as f64 + counts.total_terms as f64;
        for (nudge, settles) in [(0.999, true), (1.001, false)] {
            let per_reference = floor * nudge / references;
            let model = CostModel {
                seq_iter: per_reference,
                seq_term: per_reference,
                ..preset
            };
            match check_counts(&pattern, model, &pool) {
                Ok(settled) => prop_assert_eq!(settled, settles, "nudge {}", nudge),
                Err(why) => prop_assert!(false, "nudge {}: {}", nudge, why),
            }
        }
    }
}
