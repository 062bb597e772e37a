//! Cheap re-pricing of a plan's candidates under a refined cost model.
//!
//! The planner's candidate prices (see `doacross_plan::planner`) are
//! functions of the census, the worker count, and the model constants —
//! plus two structure quantities that are expensive to recompute (the
//! stall sums, which need the dependence DAG, and the wavefront round
//! count, which needs the level widths). Both are *recoverable from the
//! static prices* the plan already carries: the pricing formulas are
//! invertible in them. This module does exactly that inversion, so the
//! adaptive policy can ask "what would selection look like under the
//! constants the machine actually measured" with pure arithmetic — no
//! DAG rebuild, no census pass, no allocation — and reserve the one real
//! replan for the moment a promotion is actually attempted.

use crate::telemetry::VariantKind;
use doacross_plan::{ExecutionPlan, PlanCensus, PlanVariant, VariantCosts};
use doacross_sim::CostModel;

fn exec_per_iter(m: &CostModel) -> f64 {
    m.schedule_grab + m.iteration_setup + m.publish
}

fn per_term(m: &CostModel) -> f64 {
    m.term + m.check
}

/// Serial cost of one average iteration (the planner's `chain`).
pub fn chain(m: &CostModel, census: &PlanCensus) -> f64 {
    exec_per_iter(m) + census.terms_per_iteration() * per_term(m)
}

fn dispatch(m: &CostModel) -> f64 {
    m.region_dispatch
}

fn post(m: &CostModel, census: &PlanCensus, p: usize) -> f64 {
    census.iterations as f64 * m.post_per_iter / p as f64
}

/// Raw executor work `W = n·e + T·r`.
fn raw_work(m: &CostModel, census: &PlanCensus) -> f64 {
    census.iterations as f64 * exec_per_iter(m) + census.total_terms as f64 * per_term(m)
}

fn flag_checks(m: &CostModel, census: &PlanCensus) -> f64 {
    census.true_deps as f64 * m.wait_poll
}

/// Strip-mined per-run work (inspector re-runs per block, §2.3).
fn blocked_work(m: &CostModel, census: &PlanCensus) -> f64 {
    census.iterations as f64 * (exec_per_iter(m) + m.inspect_per_iter + m.post_per_iter)
        + census.total_terms as f64 * per_term(m)
}

/// The two halves of one candidate's predicted price: the full prediction
/// and its synchronization-free part (no flag checks, no stalls, no
/// barriers — the cost the variant would have on a machine where
/// synchronization were free). The gap between an *observed* solve and
/// `work_units` is the measured synchronization bill the refinement layer
/// attributes to the model's sync constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Full predicted per-solve cost, model units.
    pub pred_units: f64,
    /// Synchronization-free part, model units.
    pub work_units: f64,
}

/// Prices the plan's *own* variant under `model` (normally the model it
/// was planned with), split per [`Breakdown`]. Uses the plan's captured
/// artifacts (level widths, block size) where the formula needs them.
pub fn breakdown(plan: &ExecutionPlan, model: &CostModel) -> Breakdown {
    let census = plan.census();
    let p = plan.processors().max(1);
    match plan.variant() {
        PlanVariant::Sequential => {
            let units = model.sequential_time(census.iterations, census.total_terms as usize);
            Breakdown {
                pred_units: units,
                work_units: units,
            }
        }
        PlanVariant::Doacross | PlanVariant::Reordered | PlanVariant::Linear(_) => {
            let work =
                dispatch(model) + raw_work(model, census) / p as f64 + post(model, census, p);
            let pred = plan
                .costs()
                .of(plan.variant())
                .unwrap_or(work + flag_checks(model, census) / p as f64);
            Breakdown {
                pred_units: pred,
                work_units: work,
            }
        }
        PlanVariant::Wavefront => {
            let rounds: usize = plan
                .stream()
                .and_then(|stream| stream.level_offsets())
                .map(|offsets| {
                    offsets
                        .windows(2)
                        .map(|w| ((w[1] - w[0]) as usize).div_ceil(p))
                        .sum()
                })
                .unwrap_or(census.iterations.div_ceil(p));
            let work =
                dispatch(model) + rounds as f64 * chain(model, census) + post(model, census, p);
            let barriers = census.critical_path.saturating_sub(1) as f64 * model.barrier;
            let pred = plan.costs().wavefront.unwrap_or(work + barriers);
            Breakdown {
                pred_units: pred,
                work_units: work,
            }
        }
        PlanVariant::Blocked { block_size } => {
            let nblocks = if block_size == 0 {
                1.0
            } else {
                census.iterations.div_ceil(block_size).max(1) as f64
            };
            let units =
                nblocks * 2.0 * model.region_dispatch + blocked_work(model, census) / p as f64;
            let pred = plan.costs().blocked.unwrap_or(units);
            // Blocked runs synchronize only at block boundaries, already
            // counted in the dispatches: work and prediction coincide.
            Breakdown {
                pred_units: pred,
                work_units: units,
            }
        }
    }
}

/// Re-prices every candidate the plan carries a static price for, under
/// `refined` — recovering the stall sums and wavefront rounds from the
/// static prices by inverting the planner's formulas (see module docs).
/// Candidates the planner never priced stay `None`.
pub fn reprice(plan: &ExecutionPlan, statics: &CostModel, refined: &CostModel) -> VariantCosts {
    let census = plan.census();
    let p = plan.processors().max(1);
    let pf = p as f64;
    let costs = plan.costs();

    let chain_s = chain(statics, census);
    let chain_r = chain(refined, census);
    let stall_scale = if chain_s > 0.0 {
        chain_r / chain_s
    } else {
        1.0
    };
    let cp_bound_r = census.critical_path as f64 * chain_r;
    let work_r = raw_work(refined, census);
    let flags_r = flag_checks(refined, census);

    // Inverts `t = dispatch + max((W + flags + stalls)/p, cp·chain) + post`
    // for the stall sum; when the static price was clamped at the critical
    // path the stalls are unobservable and recover as 0 — conservative
    // (re-pricing then under-charges the flag variant, which only makes
    // demotion *away* from it harder, never a wrong promotion toward it:
    // the trial still has to win on measurement).
    let flagged = |static_total: Option<f64>| -> Option<f64> {
        let ts = static_total?;
        let inner_s = ts - dispatch(statics) - post(statics, census, p);
        let stalls_s =
            (inner_s * pf - raw_work(statics, census) - flag_checks(statics, census)).max(0.0);
        let stalls_r = stalls_s * stall_scale;
        Some(
            dispatch(refined)
                + ((work_r + flags_r + stalls_r) / pf).max(cp_bound_r)
                + post(refined, census, p),
        )
    };

    let wavefront = costs.wavefront.map(|ts| {
        let barriers = census.critical_path.saturating_sub(1) as f64;
        let rounds_s = if chain_s > 0.0 {
            ((ts - dispatch(statics) - post(statics, census, p) - barriers * statics.barrier)
                / chain_s)
                .max(0.0)
        } else {
            0.0
        };
        dispatch(refined)
            + rounds_s * chain_r
            + barriers * refined.barrier
            + post(refined, census, p)
    });

    let blocked = costs.blocked.map(|ts| {
        let fixed = ts - blocked_work(statics, census) / pf;
        fixed + blocked_work(refined, census) / pf
    });

    VariantCosts {
        sequential: refined.sequential_time(census.iterations, census.total_terms as usize),
        doacross: flagged(costs.doacross),
        linear: flagged(costs.linear),
        reordered: flagged(costs.reordered),
        blocked,
        wavefront,
    }
}

/// The adaptive re-check of a gated plan (one the planner settled at its
/// stage-1 floor, so [`reprice`] has only `sequential` to re-price):
/// whether the same gate, asked of the `refined` constants, no longer
/// holds — some parallel candidate *might* now beat sequential, and only a
/// replan past the gate can say which. Pure arithmetic on the stored
/// census; `false` for plans that were never gated.
pub fn gate_reopens(plan: &ExecutionPlan, refined: &CostModel) -> bool {
    plan.is_gated() && !doacross_plan::gated(refined, plan.census(), plan.processors().max(1))
}

/// The candidate price for a variant family.
pub fn price_of(costs: &VariantCosts, kind: VariantKind) -> Option<f64> {
    match kind {
        VariantKind::Sequential => Some(costs.sequential),
        VariantKind::Doacross => costs.doacross,
        VariantKind::Linear => costs.linear,
        VariantKind::Reordered => costs.reordered,
        VariantKind::Blocked => costs.blocked,
        VariantKind::Wavefront => costs.wavefront,
    }
}

/// The cheapest admitted candidate from an arbitrary price source,
/// visiting kinds in the planner's tie-breaking preference order
/// ([`VariantKind::all`]) so equal prices resolve exactly as a fresh
/// plan would (fewest resources win). Non-finite and `None` prices are
/// not candidates.
pub fn cheapest_by(
    mut prices: impl FnMut(VariantKind) -> Option<f64>,
    mut admit: impl FnMut(VariantKind) -> bool,
) -> Option<(VariantKind, f64)> {
    let mut best: Option<(VariantKind, f64)> = None;
    for kind in VariantKind::all() {
        if !admit(kind) {
            continue;
        }
        let Some(price) = prices(kind) else {
            continue;
        };
        if !price.is_finite() {
            continue;
        }
        match best {
            Some((_, incumbent)) if price >= incumbent => {}
            _ => best = Some((kind, price)),
        }
    }
    best
}

/// [`cheapest_by`] over a candidate table.
pub fn cheapest(
    costs: &VariantCosts,
    admit: impl FnMut(VariantKind) -> bool,
) -> Option<(VariantKind, f64)> {
    cheapest_by(|kind| price_of(costs, kind), admit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_par::ThreadPool;
    use doacross_plan::Planner;

    fn plans() -> Vec<ExecutionPlan> {
        let pool = ThreadPool::new(4);
        let planner = Planner::new();
        let mut out = Vec::new();
        // A wide doall with a non-linear lhs (doacross), interleaved
        // chains (reordered), and a deep grid (wavefront).
        let n = 4_000;
        let a: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
        let scatter =
            doacross_core::IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
        out.push(planner.plan(&pool, &scatter).unwrap());
        let (chains, len) = (32usize, 16usize);
        let n = chains * len;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
        out.push(
            planner
                .plan(
                    &pool,
                    &doacross_core::IndirectLoop::new(n, a, rhs, coeff).unwrap(),
                )
                .unwrap(),
        );
        out.push(
            planner
                .plan(&pool, &doacross_plan::testgrid::deep_grid(64, 20, 3, 7))
                .unwrap(),
        );
        out
    }

    #[test]
    fn reprice_with_the_same_model_is_the_identity() {
        let statics = CostModel::multimax();
        for plan in plans() {
            let repriced = reprice(&plan, &statics, &statics);
            let original = plan.costs();
            let close = |a: Option<f64>, b: Option<f64>, what: &str| match (a, b) {
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                    "{what}: {a} vs {b} ({plan})"
                ),
                (None, None) => {}
                other => panic!("{what}: {other:?} ({plan})"),
            };
            assert!((repriced.sequential - original.sequential).abs() < 1e-9);
            close(repriced.doacross, original.doacross, "doacross");
            close(repriced.linear, original.linear, "linear");
            close(repriced.reordered, original.reordered, "reordered");
            close(repriced.wavefront, original.wavefront, "wavefront");
        }
    }

    #[test]
    fn reprice_responds_to_refined_sync_constants() {
        let statics = CostModel::multimax();
        let plan = plans().pop().unwrap(); // the wavefront-selected grid
        assert_eq!(plan.variant(), PlanVariant::Wavefront);

        // An enormous measured barrier makes the wavefront candidate
        // expensive and leaves the flag candidates nearly untouched.
        let mut pricey_barrier = statics;
        pricey_barrier.barrier = 5_000.0;
        let repriced = reprice(&plan, &statics, &pricey_barrier);
        assert!(repriced.wavefront.unwrap() > plan.costs().wavefront.unwrap() * 10.0);
        let drift = (repriced.doacross.unwrap() - plan.costs().doacross.unwrap()).abs();
        assert!(drift < 1e-6, "flag candidates unaffected ({drift})");
        let (winner, _) = cheapest(&repriced, |_| true).unwrap();
        assert_ne!(winner, VariantKind::Wavefront);

        // And measured-free flags pull selection back the other way.
        let mut free_flags = statics;
        free_flags.wait_poll = 1e-6;
        let repriced = reprice(&plan, &statics, &free_flags);
        assert!(repriced.doacross.unwrap() < plan.costs().doacross.unwrap());
    }

    #[test]
    fn gated_plans_reprice_to_sequential_alone_and_reopen_on_a_lower_floor() {
        // A serial chain under the preset: the floor settles it.
        let n = 500usize;
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let chain = doacross_core::IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
        let statics = CostModel::multimax();
        let pool = ThreadPool::new(4);
        let plan = Planner::with_costs(statics).plan(&pool, &chain).unwrap();
        assert!(plan.is_gated(), "{plan}");

        // Nothing but sequential was priced, so nothing else re-prices.
        let repriced = reprice(&plan, &statics, &statics);
        assert_eq!(
            repriced,
            VariantCosts {
                sequential: plan.costs().sequential,
                ..Default::default()
            }
        );

        // Refined == statics: the gate that held at build time holds.
        assert!(!gate_reopens(&plan, &statics), "keep");
        // A refined model whose executor work is nearly free pulls the
        // floor (dispatch + CP·chain + post) under T_seq: rebuild.
        let mut refined = statics;
        for c in [
            &mut refined.schedule_grab,
            &mut refined.iteration_setup,
            &mut refined.publish,
            &mut refined.term,
            &mut refined.check,
            &mut refined.post_per_iter,
        ] {
            *c *= 1e-3;
        }
        refined.region_dispatch = 1.0;
        assert!(gate_reopens(&plan, &refined), "rebuild");
        // And the rebuild it asks for gets past the gate and prices
        // everything.
        let rebuilt = Planner::with_costs(refined).plan(&pool, &chain).unwrap();
        assert!(!rebuilt.is_gated());
        assert!(rebuilt.costs().doacross.is_some() && rebuilt.costs().wavefront.is_some());

        // A plan that priced its candidates is not the re-check's business.
        for priced in plans() {
            assert!(!gate_reopens(&priced, &refined), "{priced}");
        }
    }

    #[test]
    fn breakdown_work_never_exceeds_prediction() {
        let statics = CostModel::multimax();
        for plan in plans() {
            let b = breakdown(&plan, &statics);
            assert!(
                b.work_units <= b.pred_units + 1e-6 * b.pred_units.abs().max(1.0),
                "{}: {b:?}",
                plan
            );
            assert!(b.work_units > 0.0);
        }
    }

    #[test]
    fn cheapest_respects_preference_order_and_admission() {
        let costs = VariantCosts {
            sequential: 100.0,
            doacross: Some(100.0),
            linear: Some(100.0),
            reordered: Some(90.0),
            blocked: None,
            wavefront: Some(90.0),
        };
        // Equal cheapest prices: reordered precedes wavefront in the
        // preference order.
        let (winner, price) = cheapest(&costs, |_| true).unwrap();
        assert_eq!((winner, price), (VariantKind::Reordered, 90.0));
        // Excluding it hands the tie to the next preferred kind.
        let (winner, _) = cheapest(&costs, |k| k != VariantKind::Reordered).unwrap();
        assert_eq!(winner, VariantKind::Wavefront);
        // Excluding every candidate yields nothing.
        assert_eq!(cheapest(&costs, |_| false), None);
    }
}
