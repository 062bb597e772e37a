//! A plan's prices as the adaptive layer reads them.
//!
//! Every price here comes from the planner's one pricing function,
//! [`doacross_plan::price_features`], applied to the structure features
//! the plan keeps: re-pricing under a refined model is the same arithmetic
//! the planner ran under its own — no DAG rebuild, no census pass, no
//! allocation — and exact, so the one real replan is reserved for the
//! moment a promotion is actually attempted. This module adds the two
//! things the policy needs on top: the split of a prediction into work and
//! synchronization ([`breakdown`]), and the cheapest admitted candidate in
//! the planner's tie-breaking order ([`cheapest_by`]).

use doacross_obs::ObsVariant;
use doacross_plan::{price_features, ExecutionPlan, PlanFeatures, VariantCosts};
use doacross_sim::CostModel;

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

/// Prices the plan's *own* variant under `model`, split per
/// [`Breakdown`]: the prediction is [`price_features`] under `model`, the
/// work part the same under `model` with free polls and barriers and no
/// stalls. When `model` prices no candidate of the plan's variant (a plan
/// built under another model whose selection `model` would not reach),
/// the recorded price stands for both halves.
pub fn breakdown(plan: &ExecutionPlan, model: &CostModel) -> Breakdown {
    let own = |model: &CostModel, features: Option<PlanFeatures>| {
        let (_, costs) = price_features(
            model,
            plan.census(),
            features.as_ref(),
            plan.linear_subscript(),
            plan.processors(),
        );
        costs.of(plan.variant())
    };
    let free = CostModel {
        wait_poll: 0.0,
        barrier: 0.0,
        ..*model
    };
    let unstalled = plan.features().map(|f| PlanFeatures {
        stall_natural: 0.0,
        stall_reordered: 0.0,
        ..*f
    });
    match (own(model, plan.features().copied()), own(&free, unstalled)) {
        (Some(pred_units), Some(work_units)) => Breakdown {
            pred_units,
            work_units,
        },
        _ => {
            let costs = plan.costs();
            let units = costs.of(plan.variant()).unwrap_or(costs.sequential);
            Breakdown {
                pred_units: units,
                work_units: units,
            }
        }
    }
}

/// The candidate price for a variant family.
pub fn price_of(costs: &VariantCosts, kind: ObsVariant) -> Option<f64> {
    match kind {
        ObsVariant::Sequential => Some(costs.sequential),
        ObsVariant::Doacross => costs.doacross,
        ObsVariant::Linear => costs.linear,
        ObsVariant::Reordered => costs.reordered,
        ObsVariant::Blocked => costs.blocked,
        ObsVariant::Wavefront => costs.wavefront,
    }
}

/// The planner's tie-breaking preference order: fewest resources first, so
/// a cheaper-or-equal earlier family wins ties.
pub const PREFERENCE: [ObsVariant; 6] = [
    ObsVariant::Sequential,
    ObsVariant::Linear,
    ObsVariant::Doacross,
    ObsVariant::Reordered,
    ObsVariant::Wavefront,
    ObsVariant::Blocked,
];

/// The cheapest admitted candidate from an arbitrary price source,
/// visiting families in [`PREFERENCE`] order so equal prices resolve
/// exactly as a fresh plan would. Non-finite and `None` prices are not
/// candidates.
pub fn cheapest_by(
    mut prices: impl FnMut(ObsVariant) -> Option<f64>,
    mut admit: impl FnMut(ObsVariant) -> bool,
) -> Option<(ObsVariant, f64)> {
    let mut best: Option<(ObsVariant, f64)> = None;
    for kind in PREFERENCE {
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
    admit: impl FnMut(ObsVariant) -> bool,
) -> Option<(ObsVariant, f64)> {
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
    fn breakdown_work_never_exceeds_prediction() {
        let statics = CostModel::multimax();
        for plan in plans() {
            let b = breakdown(&plan, &statics);
            assert_eq!(Some(b.pred_units), plan.costs().of(plan.variant()));
            assert!(b.work_units <= b.pred_units, "{}: {b:?}", plan);
            assert!(b.work_units > 0.0);
        }
    }

    #[test]
    fn reprice_with_the_same_model_is_the_identity() {
        let statics = CostModel::multimax();
        for plan in plans() {
            let (variant, repriced) = price_features(
                &statics,
                plan.census(),
                plan.features(),
                plan.linear_subscript(),
                plan.processors(),
            );
            assert_eq!(variant, plan.variant(), "{plan}");
            assert_eq!(&repriced, plan.costs(), "{plan}");
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
        assert_eq!((winner, price), (ObsVariant::Reordered, 90.0));
        // Excluding it hands the tie to the next preferred kind.
        let (winner, _) = cheapest(&costs, |k| k != ObsVariant::Reordered).unwrap();
        assert_eq!(winner, ObsVariant::Wavefront);
        // Excluding every candidate yields nothing.
        assert_eq!(cheapest(&costs, |_| false), None);
    }
}
