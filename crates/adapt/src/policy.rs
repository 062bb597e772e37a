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
//!    refines the cost model from telemetry ([`crate::refine`]) and
//!    re-prices the plan's candidates under it
//!    ([`doacross_plan::price_features`] over the plan's features). The
//!    **divergence threshold** ([`AdaptiveConfig::divergence`], default
//!    1.5) gates everything: only when the refined price of the *running*
//!    variant differs from its static price by more than the factor —
//!    i.e. the machine measurably disagrees with the model that chose the
//!    variant — is a change even considered. Within the band, prediction
//!    noise is tolerated and the plan is left alone.
//! 3. **Trial.** If, under refined prices, a non-rejected candidate beats
//!    the running variant by the [`AdaptiveConfig::hysteresis`] margin,
//!    the engine builds that variant and swaps it in (generation bump —
//!    stale handles fail typed). The previous plan is retained.
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
//! A proposal is arithmetic on the plan's features (a gated plan has just
//! a floor), and the challenger it names is not built yet, so the engine
//! answers it with one full replan under the refined constants. When that
//! replan *agrees with the running variant*, the proposal is **settled**
//! ([`PromotionPolicy::settle`]):
//! the proposed kind — or, for a gated plan, the floor re-check itself —
//! lost an exact pricing and is not raised again for this structure. The
//! replan runs on the solving thread under the engine-wide structure
//! lock, so a contradicted proposal costs one build, not one every
//! `eval_interval` solves for as long as the refined constants stand still.

use crate::telemetry::TelemetryEntry;
use doacross_obs::ObsVariant;

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
    /// Confidence threshold handed to [`crate::refine`].
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
    /// Proposed kinds an exact replan contradicted (see module docs).
    settled: Vec<ObsVariant>,
    /// Same, for the floor re-check of a gated plan (which names no kind).
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

    /// Proposals an exact replan under refined constants contradicted;
    /// they are not raised again.
    pub fn settled(&self) -> &[ObsVariant] {
        &self.settled
    }

    /// Whether this structure stopped adapting (trial budget exhausted).
    pub fn is_pinned(&self) -> bool {
        self.pinned
    }

    /// Trials started so far.
    pub fn trials_started(&self) -> u32 {
        self.trials_started
    }
}

/// What the engine should do after a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Nothing — keep executing the cached plan.
    Keep,
    /// An evaluation point: refine the model and re-price.
    /// `probe_baseline` asks the engine to time one sequential pass of the
    /// structure first, so refinement has its anchor (see
    /// [`crate::refine`]) and a measured sequential baseline exists before
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

    /// Judges an evaluation: given the running variant's static and
    /// refined prices and the full refined candidate table, proposes a
    /// challenger — or `None` to keep the plan. See the module docs for
    /// the divergence/hysteresis semantics. `refined_prices` must yield
    /// the refined price of any candidate (`None` = not legal here).
    pub fn propose(
        &self,
        state: &mut StructureState,
        current: ObsVariant,
        static_price: f64,
        refined_price: f64,
        mut refined_prices: impl FnMut(ObsVariant) -> Option<f64>,
    ) -> Option<ObsVariant> {
        if state.pinned || state.trial.is_some() {
            return None;
        }
        if !(static_price.is_finite() && refined_price.is_finite()) || static_price <= 0.0 {
            return None;
        }
        let ratio = refined_price / static_price;
        if ratio <= self.cfg.divergence && ratio >= 1.0 / self.cfg.divergence {
            return None; // prediction still trusted
        }
        let (winner, price) = crate::pricing::cheapest_by(&mut refined_prices, |kind| {
            kind != current && !state.rejected.contains(&kind) && !state.settled.contains(&kind)
        })?;
        (price * self.cfg.hysteresis < refined_price).then_some(winner)
    }

    /// Judges the evaluation of a *gated* plan — one whose build stopped
    /// at the planner's parallel floor, so there are no candidate prices
    /// to re-price. `reopens` is the floor re-checked under the refined
    /// model (`!`[`doacross_plan::gated`]); the answer is whether to
    /// replan past the gate.
    pub fn propose_past_gate(&self, state: &StructureState, reopens: bool) -> bool {
        reopens && !state.pinned && state.trial.is_none() && !state.floor_settled
    }

    /// Records that the exact replan a proposal asked for agreed with the
    /// running variant: `proposed` (`None` = the floor re-check of a gated
    /// plan) is not raised again for this structure.
    pub fn settle(&self, state: &mut StructureState, proposed: Option<ObsVariant>) {
        match proposed {
            Some(kind) if !state.settled.contains(&kind) => state.settled.push(kind),
            Some(_) => {}
            None => state.floor_settled = true,
        }
    }

    /// Records that the engine swapped `target` in over `incumbent`.
    /// Returns `false` (and pins) when the trial budget is exhausted —
    /// the engine must check *before* building; this is the bookkeeping
    /// half.
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
        true
    }

    /// Whether a new trial may start (budget not exhausted).
    pub fn may_trial(&self, state: &StructureState) -> bool {
        !state.pinned && state.trials_started < self.cfg.max_trials
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

    /// Forgets everything about a structure (used on invalidation: a new
    /// structure generation starts with a clean slate).
    pub fn reset(&self, state: &mut StructureState) {
        *state = StructureState::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn propose_requires_divergence_and_a_margin_winner() {
        let p = policy();
        let mut st = StructureState::default();
        let prices = |k: ObsVariant| match k {
            ObsVariant::Sequential => Some(500.0),
            ObsVariant::Wavefront => Some(2_000.0),
            _ => None,
        };
        // Within the divergence band: no proposal even with a cheaper
        // candidate on the table.
        assert_eq!(
            p.propose(&mut st, ObsVariant::Wavefront, 1_000.0, 1_400.0, prices),
            None
        );
        // Diverged: the cheapest non-rejected candidate that clears the
        // hysteresis margin wins.
        assert_eq!(
            p.propose(&mut st, ObsVariant::Wavefront, 1_000.0, 2_000.0, prices),
            Some(ObsVariant::Sequential)
        );
        // Divergence can fire downward too (the model *over*-priced us) —
        // but a candidate must still beat the refined price by the margin.
        assert_eq!(
            p.propose(&mut st, ObsVariant::Wavefront, 10_000.0, 600.0, prices),
            Some(ObsVariant::Sequential)
        );
        assert_eq!(
            p.propose(&mut st, ObsVariant::Wavefront, 10_000.0, 520.0, prices),
            None,
            "within the hysteresis margin of the best candidate"
        );
        // A rejected candidate is invisible.
        st.rejected.push(ObsVariant::Sequential);
        assert_eq!(
            p.propose(&mut st, ObsVariant::Wavefront, 1_000.0, 2_000.0, prices),
            None
        );
    }

    #[test]
    fn a_settled_proposal_is_not_raised_again() {
        // The engine answers a proposal with a full replan; when that
        // agrees with the running variant the same refined prices must not
        // ask for a second build at the next evaluation point.
        let p = policy();
        let mut st = StructureState::default();
        let prices = |k: ObsVariant| match k {
            ObsVariant::Wavefront => Some(2_000.0),
            ObsVariant::Sequential => Some(500.0),
            ObsVariant::Doacross => Some(1_950.0), // inside the margin
            _ => None,
        };
        let mut builds = 0;
        for _ in 0..2 {
            if let Some(kind) = p.propose(&mut st, ObsVariant::Wavefront, 1_000.0, 2_000.0, prices)
            {
                builds += 1;
                p.settle(&mut st, Some(kind)); // the replan kept the wavefront
            }
        }
        assert_eq!(builds, 1, "unchanged prices, one build");
        assert_eq!(st.settled(), &[ObsVariant::Sequential]);
        assert!(st.rejected().is_empty(), "nothing was measured");
        // A different candidate clearing the margin is still heard.
        let moved = |k: ObsVariant| match k {
            ObsVariant::Doacross => Some(900.0),
            other => prices(other),
        };
        assert_eq!(
            p.propose(&mut st, ObsVariant::Wavefront, 1_000.0, 2_000.0, moved),
            Some(ObsVariant::Doacross)
        );

        // The floor re-check of a gated plan settles the same way.
        let mut st = StructureState::default();
        assert!(!p.propose_past_gate(&st, false), "floor still holds");
        assert!(p.propose_past_gate(&st, true));
        p.settle(&mut st, None);
        assert!(!p.propose_past_gate(&st, true), "one build, not two");
        // Invalidation resets the slate.
        p.reset(&mut st);
        assert!(p.propose_past_gate(&st, true));
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
        let started = st.trials_started();
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
        assert_eq!(st.trials_started(), started, "no budget burned");

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
        // the "measurement" says the other was faster. The policy must
        // converge (bounded swaps), not chase it forever.
        let p = policy();
        let mut st = StructureState::default();
        let mut current = ObsVariant::Wavefront;
        let mut swaps = 0;
        for round in 0..50 {
            // Adversarial refinement: every candidate always looks 20x
            // cheaper than whatever is running.
            let proposal = p.propose(&mut st, current, 1_000.0, 2_000.0, |_| Some(100.0));
            if let Some(target) = proposal {
                if !p.may_trial(&st) {
                    break;
                }
                assert!(p.begin_trial(&mut st, target, current));
                swaps += 1;
                // The measured comparison flips every time: commit on even
                // rounds, demote on odd — worst case for stability.
                let committed = round % 2 == 0;
                let trial = *st.trial().unwrap();
                p.complete_trial(&mut st, trial, committed);
                if committed {
                    current = target;
                }
            }
        }
        assert_eq!(swaps, 3, "swap budget respected exactly");
        assert!(st.is_pinned());
        // Terminal state: the proposal stream has gone quiet for good,
        // however loudly the refined table keeps oscillating.
        let quiet = p.propose(&mut st, current, 1_000.0, 2_000.0, |_| Some(1.0));
        assert_eq!(quiet, None);
    }

    #[test]
    fn pinning_exhausts_the_trial_budget() {
        let p = policy();
        let mut st = StructureState::default();
        for _ in 0..3 {
            assert!(p.may_trial(&st));
            assert!(p.begin_trial(&mut st, ObsVariant::Sequential, ObsVariant::Doacross));
            let trial = *st.trial().unwrap();
            p.complete_trial(&mut st, trial, false);
            st.rejected.clear(); // re-arm the oscillation adversarially
        }
        assert!(st.is_pinned());
        assert!(!p.may_trial(&st));
        assert!(!p.begin_trial(&mut st, ObsVariant::Sequential, ObsVariant::Doacross));
        assert_eq!(
            p.on_solve(&mut st, ObsVariant::Doacross, &entry(99, 1), None, true),
            Action::Keep
        );
        // Invalidation resets the slate.
        p.reset(&mut st);
        assert!(!st.is_pinned());
        assert!(p.may_trial(&st));
    }
}
