//! The promotion/demotion policy: when to re-price, when to trial a
//! different variant, and when to commit or roll back — with hysteresis.
//!
//! ## The loop, per structure
//!
//! 1. **Observe.** Solves accumulate telemetry under the running variant.
//!    Nothing else happens until the variant has
//!    [`AdaptiveConfig::min_samples`] observations *and*
//!    [`AdaptiveConfig::eval_interval`] solves have passed since the last
//!    evaluation — evaluation is off the per-solve hot path by
//!    construction.
//! 2. **Re-price on divergence.** At an evaluation point the engine
//!    refines the cost model from telemetry ([`crate::refine()`]) and asks
//!    [`PromotionPolicy::challenger`] what the planner would choose under
//!    it: [`doacross_plan::price_features`] over the plan's features. The
//!    **divergence threshold** ([`AdaptiveConfig::divergence`], default
//!    1.5) gates everything: only when the refined price of the *running*
//!    variant differs from its static price by more than the factor —
//!    i.e. the machine measurably disagrees with the model that chose the
//!    variant — is a change even considered. Within the band, prediction
//!    noise is tolerated and the plan is left alone.
//! 3. **Trial.** If that choice is not the running variant, has not been
//!    rejected, and beats the running variant's refined price by the
//!    [`AdaptiveConfig::hysteresis`] margin, the engine builds it and
//!    swaps it in (generation bump — stale handles fail typed). The
//!    previous plan is retained.
//! 4. **Commit or demote on measurement.** Once the trialed variant has
//!    `min_samples` of its own, the fastest observed solve of each side
//!    decides: the trial **commits** if its minimum beats the incumbent's
//!    minimum by the hysteresis margin, else it **demotes** — the
//!    incumbent plan is swapped back (another generation bump).
//!
//! ## Why it cannot flip-flop
//!
//! Every trial *consumes* a variant: a committed trial rejects the
//! incumbent, a demoted trial rejects the challenger — rejected variants
//! are never trialed again for that structure (until an explicit
//! invalidation resets the slate). With at most six variant families and
//! [`AdaptiveConfig::max_trials`] trials (after which the structure is
//! **pinned**), the per-structure swap count is bounded no matter how the
//! workload oscillates; an adversarial phase change can waste at most
//! `max_trials` round trips, ever, and each leg of a round trip must win
//! a measured comparison by the margin to happen at all.
//!
//! ## Why it cannot replan forever either
//!
//! A priced plan's decision is arithmetic: the planner's own choice under
//! the refined model, priced from the features the plan keeps, is exactly
//! what a replan under that model builds (`doacross-plan`'s
//! `tests/staged_equivalence.rs`). So an evaluation builds only to trial:
//! when the choice is the running variant, a rejected one, or no margin
//! winner, nothing is built, however often the same refined constants
//! come round. A gated plan keeps no features, just a floor, so when the
//! floor no longer holds under the refined model
//! ([`doacross_plan::gated`]) only a replan can name the challenger. That
//! replan runs once per reopening of the floor: unless it starts a trial
//! (it agreed with sequential, landed on a rejected variant, or failed),
//! the floor stays settled until an invalidation resets the slate, and
//! the trials that do start are bounded by the budget above.

use crate::telemetry::TelemetryEntry;
use doacross_obs::ObsVariant;
use doacross_plan::{gated, price_features, ExecutionPlan};
use doacross_sim::CostModel;

/// Knobs of the adaptive policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Observations a variant needs before any decision uses it — both to
    /// consider evaluation and to end a trial.
    pub min_samples: u64,
    /// Solves between evaluation points (re-pricing cadence).
    pub eval_interval: u64,
    /// Divergence factor: re-pricing can only displace the running
    /// variant when its refined price leaves `[static/d, static·d]`.
    pub divergence: f64,
    /// Multiplicative margin a challenger must win by — at trial start
    /// (refined prices) and at commit (measured minimums).
    pub hysteresis: f64,
    /// Trials per structure before it is pinned to its current variant.
    pub max_trials: u32,
    /// Confidence threshold handed to [`crate::refine()`].
    pub confidence: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            min_samples: 6,
            eval_interval: 12,
            divergence: 1.5,
            hysteresis: 1.05,
            max_trials: 3,
            confidence: 6,
        }
    }
}

/// An in-flight trial: `target` is executing, `incumbent` is retained for
/// rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// The variant under trial (currently cached and executing).
    pub target: ObsVariant,
    /// The variant it is trying to displace.
    pub incumbent: ObsVariant,
}

/// Per-structure policy state. Owned by the engine, advanced by
/// [`PromotionPolicy`]; deliberately value-only (no plan references) so it
/// is unit-testable without an engine.
#[derive(Debug, Clone, Default)]
pub struct StructureState {
    solves_since_eval: u64,
    trial: Option<Trial>,
    rejected: Vec<ObsVariant>,
    /// A gated plan's floor reopened and got its one replan; a trial that
    /// replan starts clears it (see module docs).
    floor_settled: bool,
    trials_started: u32,
    pinned: bool,
}

impl StructureState {
    /// The in-flight trial, if any.
    pub fn trial(&self) -> Option<&Trial> {
        self.trial.as_ref()
    }

    /// Variants that lost a measured comparison here and are out of the
    /// running.
    pub fn rejected(&self) -> &[ObsVariant] {
        &self.rejected
    }
}

/// What an evaluation point asks the engine to build and trial
/// ([`PromotionPolicy::challenger`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Challenger {
    /// A priced plan's: the variant the planner selects under the refined
    /// model, which is what the replan builds, with the running variant's
    /// static and refined prices that let it through.
    Priced {
        /// The planner's choice under the refined model.
        kind: ObsVariant,
        /// The running variant's price under the model it was built with.
        static_price: f64,
        /// The running variant's price under the refined model.
        refined_price: f64,
    },
    /// A gated plan's: its parallel floor no longer holds under the
    /// refined model, and only the replan can say what passes it.
    PastFloor,
}

/// What the engine should do after a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Nothing — keep executing the cached plan.
    Keep,
    /// An evaluation point: refine the model and re-price.
    /// `probe_baseline` asks the engine to time one sequential pass of the
    /// structure first, so refinement has its anchor (see
    /// [`crate::refine()`]) and a measured sequential baseline exists before
    /// any promotion decision.
    Evaluate {
        /// Whether a sequential baseline observation is still missing.
        probe_baseline: bool,
    },
    /// The trial won on measurement: drop the retained incumbent plan.
    Commit(Trial),
    /// The trial lost on measurement: swap the retained incumbent back.
    Demote(Trial),
}

/// The decision maker (see module docs). Stateless apart from its
/// configuration; all mutable state lives in [`StructureState`].
#[derive(Debug, Clone)]
pub struct PromotionPolicy {
    cfg: AdaptiveConfig,
}

impl PromotionPolicy {
    /// Policy with the given knobs.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        Self { cfg }
    }

    /// The knobs in force.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// Advances `state` by one observed solve of `current`.
    ///
    /// `current_entry` is the telemetry for `(structure, current)`;
    /// `incumbent_entry` the incumbent's during a trial; `has_baseline`
    /// whether a sequential observation of the structure exists.
    pub fn on_solve(
        &self,
        state: &mut StructureState,
        current: ObsVariant,
        current_entry: &TelemetryEntry,
        incumbent_entry: Option<&TelemetryEntry>,
        has_baseline: bool,
    ) -> Action {
        if state.pinned {
            return Action::Keep;
        }
        if let Some(trial) = state.trial {
            if current == trial.incumbent {
                // A solve that was already in flight through an old
                // handle when the swap landed (handles check staleness at
                // entry, so a concurrent executor legitimately finishes
                // one last incumbent solve). It is extra incumbent
                // evidence, not a plan change — the trial stands.
                return Action::Keep;
            }
            if current != trial.target {
                // The cached plan changed under us to something that is
                // neither side of the trial (an external replan): the
                // trial is moot. Forget it without judging.
                state.trial = None;
                state.solves_since_eval = 0;
                return Action::Keep;
            }
            if current_entry.samples < self.cfg.min_samples {
                return Action::Keep;
            }
            let Some(incumbent) = incumbent_entry else {
                // No measured incumbent to compare against (its telemetry
                // was cleared): keep the trial variant by default.
                return Action::Commit(trial);
            };
            return if (current_entry.min_ns as f64) * self.cfg.hysteresis <= incumbent.min_ns as f64
            {
                Action::Commit(trial)
            } else {
                Action::Demote(trial)
            };
        }
        state.solves_since_eval += 1;
        if current_entry.samples < self.cfg.min_samples
            || state.solves_since_eval < self.cfg.eval_interval
        {
            return Action::Keep;
        }
        state.solves_since_eval = 0;
        Action::Evaluate {
            probe_baseline: !has_baseline && current != ObsVariant::Sequential,
        }
    }

    /// Judges an evaluation point of `plan` under the `refined` model: the
    /// challenger to build and trial, or `None` to keep the plan. A priced
    /// plan's is the variant [`price_features`] selects under `refined`,
    /// named only when the running variant's refined price has left the
    /// divergence band, the choice is neither running nor rejected, and it
    /// wins by the hysteresis margin; a gated plan's is
    /// [`Challenger::PastFloor`], once per reopening of its floor.
    pub fn challenger(
        &self,
        state: &mut StructureState,
        plan: &ExecutionPlan,
        refined: &CostModel,
    ) -> Option<Challenger> {
        // No trial in flight: a spent budget has pinned the structure.
        if state.pinned || state.trial.is_some() {
            return None;
        }
        let (census, p) = (plan.census(), plan.processors());
        if plan.is_gated() {
            if state.floor_settled || gated(refined, census, p) {
                return None;
            }
            // Settled now; the trial the replan may start re-arms it.
            state.floor_settled = true;
            return Some(Challenger::PastFloor);
        }
        let (choice, refined_costs) =
            price_features(refined, census, plan.features(), plan.linear_subscript(), p);
        let static_price = plan.costs().of(plan.variant())?;
        let refined_price = refined_costs.of(plan.variant())?;
        if !(static_price.is_finite() && refined_price.is_finite()) || static_price <= 0.0 {
            return None;
        }
        let ratio = refined_price / static_price;
        if ratio <= self.cfg.divergence && ratio >= 1.0 / self.cfg.divergence {
            return None; // prediction still trusted
        }
        let kind = ObsVariant::from(choice);
        let price = refined_costs.of(choice)?;
        (kind != ObsVariant::from(plan.variant())
            && !state.rejected.contains(&kind)
            && price * self.cfg.hysteresis < refined_price)
            .then_some(Challenger::Priced {
                kind,
                static_price,
                refined_price,
            })
    }

    /// Records that the engine swapped `target` in over `incumbent`.
    /// Returns `false` (and pins) when the trial budget is exhausted.
    pub fn begin_trial(
        &self,
        state: &mut StructureState,
        target: ObsVariant,
        incumbent: ObsVariant,
    ) -> bool {
        if state.pinned || state.trials_started >= self.cfg.max_trials {
            state.pinned = true;
            return false;
        }
        state.trials_started += 1;
        state.trial = Some(Trial { target, incumbent });
        state.solves_since_eval = 0;
        state.floor_settled = false;
        true
    }

    /// Finishes a trial: the losing side is rejected (never trialed again
    /// for this structure) and the structure pins once the budget is
    /// spent.
    pub fn complete_trial(&self, state: &mut StructureState, trial: Trial, committed: bool) {
        let loser = if committed {
            trial.incumbent
        } else {
            trial.target
        };
        if !state.rejected.contains(&loser) {
            state.rejected.push(loser);
        }
        state.trial = None;
        state.solves_since_eval = 0;
        if state.trials_started >= self.cfg.max_trials {
            state.pinned = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_par::ThreadPool;
    use doacross_plan::{testgrid::deep_grid, PlanVariant, Planner};

    fn entry(samples: u64, min_ns: u64) -> TelemetryEntry {
        TelemetryEntry {
            samples,
            ewma_ns: min_ns as f64,
            min_ns,
            last_ns: min_ns,
            wait_polls: 0,
            barriers: 0,
            terms: 100,
            pred_units: 1_000.0,
            work_units: 900.0,
            sum_polls: 0.0,
            sum_polls_sq: 0.0,
            sum_ns: 0.0,
            sum_polls_ns: 0.0,
        }
    }

    fn policy() -> PromotionPolicy {
        PromotionPolicy::new(AdaptiveConfig {
            min_samples: 3,
            eval_interval: 4,
            divergence: 1.5,
            hysteresis: 1.05,
            max_trials: 3,
            confidence: 3,
        })
    }

    #[test]
    fn evaluation_waits_for_samples_and_interval() {
        let p = policy();
        let mut st = StructureState::default();
        // Too few samples: never evaluates, however many solves pass.
        for _ in 0..10 {
            assert_eq!(
                p.on_solve(&mut st, ObsVariant::Doacross, &entry(2, 100), None, true),
                Action::Keep
            );
        }
        // Enough samples: evaluates every `eval_interval` solves.
        let mut evals = 0;
        for _ in 0..12 {
            if let Action::Evaluate { probe_baseline } =
                p.on_solve(&mut st, ObsVariant::Doacross, &entry(9, 100), None, true)
            {
                assert!(!probe_baseline, "baseline present");
                evals += 1;
            }
        }
        assert_eq!(evals, 3, "12 solves / interval 4");
    }

    #[test]
    fn missing_baseline_requests_a_probe_except_for_sequential() {
        let p = policy();
        let mut st = StructureState::default();
        let mut action = Action::Keep;
        for _ in 0..4 {
            action = p.on_solve(&mut st, ObsVariant::Wavefront, &entry(9, 100), None, false);
        }
        assert_eq!(
            action,
            Action::Evaluate {
                probe_baseline: true
            }
        );
        // A sequential current variant IS the baseline.
        let mut st = StructureState::default();
        let mut action = Action::Keep;
        for _ in 0..4 {
            action = p.on_solve(&mut st, ObsVariant::Sequential, &entry(9, 100), None, false);
        }
        assert_eq!(
            action,
            Action::Evaluate {
                probe_baseline: false
            }
        );
    }

    /// The engine suite's mispriced model with its two synchronization
    /// constants replaced; `model(500.0, 0.001)` is that model, under which
    /// the narrow-deep grid plans as a wavefront.
    fn model(wait_poll: f64, barrier: f64) -> CostModel {
        CostModel {
            wait_poll,
            barrier,
            post_per_iter: 0.01,
            region_dispatch: 1.0,
            ..CostModel::multimax()
        }
    }

    /// Refined models an evaluation could produce: polls and barriers
    /// measured anywhere from free to ruinous. Between them they select
    /// sequential, linear and the wavefront.
    fn refined_models() -> impl Iterator<Item = CostModel> {
        [0.0, 1.0, 5.0, 500.0]
            .into_iter()
            .flat_map(|w| [0.001, 1.0, 10.0, 1_000.0].map(|b| model(w, b)))
    }

    /// The full replan an evaluation point builds under `model`.
    fn replan(model: CostModel) -> ExecutionPlan {
        Planner::with_costs(model)
            .plan(&ThreadPool::new(2), &deep_grid(2, 300, 1, 1))
            .unwrap()
    }

    /// A wide doall with a non-linear lhs (doacross) and interleaved
    /// chains (reordered), planned under the Multimax preset.
    fn preset_plans() -> Vec<ExecutionPlan> {
        let (pool, planner) = (ThreadPool::new(4), Planner::new());
        let n = 4_000;
        let a: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
        let scatter =
            doacross_core::IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
        let (chains, len) = (32usize, 16usize);
        let n = chains * len;
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
        let chained = doacross_core::IndirectLoop::new(n, (0..n).collect(), rhs, coeff).unwrap();
        [scatter, chained]
            .iter()
            .map(|l| planner.plan(&pool, l).unwrap())
            .collect()
    }

    #[test]
    fn the_plan_is_its_own_challenger_under_its_build_model() {
        let p = policy();
        let plans = preset_plans()
            .into_iter()
            .map(|plan| (plan, CostModel::multimax()))
            .chain(refined_models().map(|m| (replan(m), m)));
        for (plan, built_with) in plans {
            // Re-pricing the stored features under the build model is the
            // identity: the same variant at the same prices.
            let (variant, repriced) = price_features(
                &built_with,
                plan.census(),
                plan.features(),
                plan.linear_subscript(),
                plan.processors(),
            );
            assert_eq!(variant, plan.variant(), "{plan}");
            assert_eq!(&repriced, plan.costs(), "{plan}");
            let mut st = StructureState::default();
            assert_eq!(p.challenger(&mut st, &plan, &built_with), None, "{plan}");
        }
    }

    #[test]
    fn the_challenger_is_the_planners_own_choice_under_the_refined_model() {
        let p = policy();
        let plan = replan(model(500.0, 0.001));
        assert_eq!(plan.variant(), PlanVariant::Wavefront);
        let mut named = 0;
        for refined in refined_models() {
            let choice = ObsVariant::from(replan(refined).variant());
            // A named challenger is what the replan builds.
            let mut st = StructureState::default();
            if let Some(challenger) = p.challenger(&mut st, &plan, &refined) {
                assert!(
                    matches!(challenger, Challenger::Priced { kind, .. } if kind == choice),
                    "{refined:?}: {challenger:?} but the replan builds {choice}"
                );
                named += 1;
            }
        }
        assert!(named > 0, "no refined model named a challenger");
    }

    #[test]
    fn propose_requires_divergence_and_a_margin_winner() {
        let plan = replan(model(500.0, 0.001));
        let names = |p: &PromotionPolicy| {
            refined_models()
                .filter(|m| {
                    p.challenger(&mut StructureState::default(), &plan, m)
                        .is_some()
                })
                .count()
        };
        assert!(names(&policy()) > 0);
        // A band no refined price can leave: nothing diverges, nothing is
        // named.
        let mut cfg = *policy().config();
        cfg.divergence = f64::INFINITY;
        assert_eq!(names(&PromotionPolicy::new(cfg)), 0);
        // A margin no choice can win by: divergence alone names nothing.
        let mut cfg = *policy().config();
        cfg.hysteresis = f64::INFINITY;
        assert_eq!(names(&PromotionPolicy::new(cfg)), 0);
        // Every named challenger diverged and won by the margin.
        let p = policy();
        for refined in refined_models() {
            let mut st = StructureState::default();
            if let Some(Challenger::Priced {
                kind,
                static_price,
                refined_price,
            }) = p.challenger(&mut st, &plan, &refined)
            {
                let ratio = refined_price / static_price;
                assert!(ratio > p.config().divergence || ratio < 1.0 / p.config().divergence);
                let built = replan(refined);
                let price = built.costs().of(built.variant()).unwrap();
                assert_eq!(ObsVariant::from(built.variant()), kind);
                assert!(price * p.config().hysteresis < refined_price, "{refined:?}");
            }
        }
    }

    #[test]
    fn a_settled_proposal_is_not_raised_again() {
        let p = policy();
        let plan = replan(model(500.0, 0.001));
        let running = ObsVariant::Wavefront;
        let mut cleared = 0;
        for refined in refined_models() {
            let built = replan(refined);
            let choice = ObsVariant::from(built.variant());
            if choice == running {
                continue;
            }
            // A rejected choice names nothing, even when the third kind
            // clears the margin over the running variant's refined price.
            let mut st = StructureState::default();
            assert!(p.begin_trial(&mut st, choice, running));
            let trial = *st.trial().unwrap();
            p.complete_trial(&mut st, trial, false);
            assert_eq!(p.challenger(&mut st, &plan, &refined), None, "{refined:?}");
            let costs = built.costs();
            let third = match choice {
                ObsVariant::Sequential => costs.linear.unwrap(),
                _ => costs.sequential,
            };
            cleared += u32::from(third * p.config().hysteresis < costs.wavefront.unwrap());
        }
        assert!(cleared > 0, "no third kind cleared the margin");

        // A gated plan: each reopening of its floor costs one replan,
        // whatever that replan returns.
        let gating = CostModel {
            region_dispatch: 1_000.0,
            ..model(500.0, 0.001)
        };
        let gated_plan = replan(gating);
        assert!(gated_plan.is_gated());
        let (agrees, passes) = (model(500.0, 1_000.0), model(500.0, 0.001));
        assert_eq!(replan(agrees).variant(), PlanVariant::Sequential);
        assert_eq!(replan(passes).variant(), PlanVariant::Wavefront);
        // Evaluation points as the engine runs them, counting replans:
        // what a replan built starts a trial unless it is the running
        // variant or rejected.
        let replans = |st: &mut StructureState, refined: CostModel| {
            let mut replans = 0;
            for _ in 0..5 {
                if p.challenger(st, &gated_plan, &refined) == Some(Challenger::PastFloor) {
                    replans += 1;
                    let built = ObsVariant::from(replan(refined).variant());
                    if built != ObsVariant::Sequential && !st.rejected().contains(&built) {
                        assert!(p.begin_trial(st, built, ObsVariant::Sequential));
                    }
                }
            }
            replans
        };
        let mut st = StructureState::default();
        assert_eq!(replans(&mut st, gating), 0, "the floor still holds");
        assert_eq!(replans(&mut st, agrees), 1, "agreed: settled");
        st = StructureState::default(); // an invalidation
        assert_eq!(replans(&mut st, passes), 1, "a trial started");
        let trial = *st.trial().unwrap();
        p.complete_trial(&mut st, trial, false);
        assert_eq!(replans(&mut st, passes), 1, "landed on a rejected kind");
        assert_eq!(replans(&mut st, agrees), 0, "settled until invalidated");
    }

    #[test]
    fn trial_commits_on_measured_win_and_demotes_on_regression() {
        let p = policy();
        // Commit: the trial's measured minimum beats the incumbent's by
        // more than the 5% margin.
        let mut st = StructureState::default();
        assert!(p.begin_trial(&mut st, ObsVariant::Sequential, ObsVariant::Wavefront));
        let action = p.on_solve(
            &mut st,
            ObsVariant::Sequential,
            &entry(3, 100),
            Some(&entry(5, 500)),
            true,
        );
        let trial = Trial {
            target: ObsVariant::Sequential,
            incumbent: ObsVariant::Wavefront,
        };
        assert_eq!(action, Action::Commit(trial));
        p.complete_trial(&mut st, trial, true);
        assert_eq!(st.rejected(), &[ObsVariant::Wavefront]);
        assert!(st.trial().is_none());

        // Demote: marginal improvement below the margin is a regression
        // by policy (hysteresis), and the challenger is rejected.
        let mut st = StructureState::default();
        assert!(p.begin_trial(&mut st, ObsVariant::Sequential, ObsVariant::Wavefront));
        let action = p.on_solve(
            &mut st,
            ObsVariant::Sequential,
            &entry(3, 490),
            Some(&entry(5, 500)),
            true,
        );
        assert_eq!(action, Action::Demote(trial));
        p.complete_trial(&mut st, trial, false);
        assert_eq!(st.rejected(), &[ObsVariant::Sequential]);
    }

    #[test]
    fn in_flight_incumbent_solves_do_not_cancel_a_trial() {
        // Regression: with many executors, a solve that entered through
        // an old handle before the swap finishes *after* it and reports
        // the incumbent variant. That is extra incumbent evidence — the
        // trial must survive it (and its budget slot must not be burned
        // on a phantom cancellation).
        let p = policy();
        let mut st = StructureState::default();
        assert!(p.begin_trial(&mut st, ObsVariant::Sequential, ObsVariant::Wavefront));
        let started = st.trials_started;
        for _ in 0..5 {
            let action = p.on_solve(
                &mut st,
                ObsVariant::Wavefront, // the in-flight incumbent solve
                &entry(9, 500),
                Some(&entry(9, 500)),
                true,
            );
            assert_eq!(action, Action::Keep);
        }
        assert!(st.trial().is_some(), "trial survives straggler solves");
        assert_eq!(st.trials_started, started, "no budget burned");

        // A solve of something that is NEITHER side means the plan
        // changed externally: the trial is abandoned without judgment.
        let action = p.on_solve(&mut st, ObsVariant::Doacross, &entry(9, 100), None, true);
        assert_eq!(action, Action::Keep);
        assert!(st.trial().is_none(), "external replan cancels");
        assert!(st.rejected().is_empty(), "cancellation judges nobody");
    }

    #[test]
    fn rejected_variants_never_trial_again_so_oscillation_terminates() {
        // A synthetically oscillating workload: whichever variant runs,
        // some refined model names another, and the measured comparison
        // flips every time. The policy must converge, not chase it forever.
        let p = policy();
        let mut current = replan(model(500.0, 0.001));
        let mut st = StructureState::default();
        let mut swaps = 0;
        for round in 0..50 {
            // Adversarial refinement: the first model that asks for a
            // change.
            let Some((refined, Some(Challenger::Priced { kind, .. }))) = refined_models()
                .map(|m| (m, p.challenger(&mut st, &current, &m)))
                .find(|(_, challenger)| challenger.is_some())
            else {
                break;
            };
            assert!(p.begin_trial(&mut st, kind, current.variant().into()));
            swaps += 1;
            // Commit on even rounds, demote on odd — worst case for
            // stability.
            let trial = *st.trial().unwrap();
            p.complete_trial(&mut st, trial, round % 2 == 0);
            if round % 2 == 0 {
                current = replan(refined);
            }
        }
        // Every trial consumed a kind: of the three ever chosen here, two
        // trials end it, inside the budget.
        assert_eq!((swaps, st.rejected().len(), st.pinned), (2, 2, false));
        // Terminal state: the challenger stream has gone quiet for good,
        // however the refined constants keep moving.
        assert!(refined_models().all(|m| p.challenger(&mut st, &current, &m).is_none()));
    }

    #[test]
    fn pinning_exhausts_the_trial_budget() {
        let p = policy();
        let mut st = StructureState::default();
        for _ in 0..3 {
            assert!(!st.pinned);
            assert!(p.begin_trial(&mut st, ObsVariant::Sequential, ObsVariant::Doacross));
            let trial = *st.trial().unwrap();
            p.complete_trial(&mut st, trial, false);
            st.rejected.clear(); // re-arm the oscillation adversarially
        }
        assert!(st.pinned);
        assert!(!p.begin_trial(&mut st, ObsVariant::Sequential, ObsVariant::Doacross));
        assert_eq!(
            p.on_solve(&mut st, ObsVariant::Doacross, &entry(99, 1), None, true),
            Action::Keep
        );
    }
}
