//! The adaptive feedback loop behind [`crate::EngineBuilder::adaptive`].
//!
//! The planner selects variants with an *a-priori* cost model: the
//! Multimax preset, or a one-shot host calibration. Both are guesses about
//! the future frozen at build time — and both the symbolic
//! loop-compilation and speculative-taskloop literatures report the same
//! thing this workspace's own benches show: when runtime behavior diverges
//! from the model (oversubscription, contention, cache effects, a
//! structure whose stall pattern the formulas only approximate), static
//! selection leaves measured wins on the table. This module closes the
//! loop in three layers, each unit-tested without an engine:
//!
//! * [`telemetry`] — per structure, one entry per executed variant family
//!   (a `doacross_obs::ObsVariant`): the fastest observed solve, exact
//!   counts, poll and barrier counters, and the running sums of a
//!   polls-vs-time regression.
//! * [`refine()`] — turns telemetry into measured cost-model constants
//!   (`wait_poll`, `barrier`, per-reference `chain` cost), anchored by host
//!   calibration or a sequential baseline observation, and blended into
//!   the static model via [`doacross_sim::CostModel::refined_from`] with a
//!   weight that grows with the evidence.
//! * [`policy`] — [`PromotionPolicy`]: *when the running variant's price
//!   under the refined model diverges from its static price by more than
//!   a factor of 1.5, ask what the planner would choose under that model
//!   ([`doacross_plan::selection`]: the features the plan keeps, re-priced —
//!   arithmetic, and exactly what a replan builds); if that choice wins by
//!   the 5 % hysteresis margin, trial it; commit or demote on the measured
//!   comparison.* Every trial rejects its loser permanently, so the policy
//!   provably cannot flip-flop, and an evaluation builds only to trial, so
//!   it cannot replan forever either — see [`policy`]'s module docs for the
//!   full argument. Its thresholds are constants
//!   ([`PromotionPolicy::ENGINE`]).
//!
//! What needs an engine lives here, in [`AdaptiveRuntime`]: recording each
//! execute, timing the one-off sequential baseline that anchors
//! refinement, rebuilding a plan with the refined cost model via the
//! existing census path, and swapping the cached plan under the cache lock
//! with a generation bump so outstanding handles fail typed
//! ([`crate::EngineError::StalePlan`]) instead of executing a superseded
//! plan.
//!
//! ## One map under one lock
//!
//! Every structure's state — its policy state, its retained incumbent
//! plan, and its telemetry entries — is one slot of one engine-wide map
//! behind one mutex. A delivered solve builds its sample outside the lock,
//! then takes the lock once to record the sample, read the incumbent's and
//! the sequential anchor's entries, and run the policy step. The policy
//! step needs that lock anyway, so keeping the evidence beside it costs a
//! solve nothing; a separate recorder, however finely split, could only
//! add locks to the path, never remove one. An evaluation refines from the
//! entries of the map it already holds, so nothing is copied out for it.
//!
//! Adaptation is re-planning. What an evaluation trials is the planner's
//! own choice under the refined model, priced from the plan's features
//! ([`PromotionPolicy::challenger`]), so the rebuild is that choice — in
//! debug builds asserted so — and runs only to start a trial. A gated
//! plan, which keeps no features, pays one rebuild per reopening of its
//! floor instead.
//!
//! Everything here runs *after* a solve returns, off the result path: a
//! solve's correctness never depends on adaptation (every variant is
//! bit-identical to the sequential oracle by construction), and a failed
//! rebuild simply leaves the current plan in place.

mod policy;
mod refine;
mod telemetry;

use crate::engine::{lock, EngineInner};
use crate::solve::clamp_ns;
use doacross_core::{seq::run_sequential, DoacrossLoop, RunStats};
use doacross_obs::{FpMap, ObsVariant, TraceEvent};
use doacross_plan::{price_features, ExecutionPlan, PatternFingerprint, PlanFeatures, Planner};
use doacross_sim::CostModel;
use policy::{Action, Challenger, PromotionPolicy, StructureState};
use refine::refine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
pub use telemetry::TelemetryTotals;
use telemetry::{SolveSample, Telemetry};

/// Failpoint site consulted just before an adaptive trial builds its
/// challenger plan: a `Saturate` action is absorbed as a failed
/// challenger build (incumbent retained, no trial), a `DelayNs` action
/// stretches the evaluation.
const FAILPOINT_TRIAL: &str = "engine::adaptive::trial";

/// Counters of the adaptive feedback loop, engine-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Evaluation points reached, re-priced or not.
    pub repricings: u64,
    /// Trials started (plans swapped in on refined evidence).
    pub trials: u64,
    /// Trials committed — the measured-cheaper variant was promoted.
    pub promotions: u64,
    /// Trials rolled back — the incumbent returned on measured regression.
    pub demotions: u64,
    /// Sequential baseline probes run to anchor refinement.
    pub baseline_probes: u64,
    /// Faulted parallel solves replayed on the sequential variant
    /// (graceful degradation). Each also feeds a sequential telemetry
    /// sample, so repeated demotions re-price the structure toward the
    /// variant that actually delivers.
    pub fallbacks: u64,
}

/// Per-structure engine-side state: the policy's value state, the
/// retained incumbent plan a demotion swaps back, and the structure's
/// telemetry.
#[derive(Default)]
struct Structure {
    policy: StructureState,
    incumbent: Option<Arc<ExecutionPlan>>,
    telemetry: Telemetry,
}

/// The trace events one evaluation decides under the structure lock, in
/// emission order: a divergence, a challenger's verdict, a trial start.
type Decided = [Option<TraceEvent>; 3];

/// The adaptive half of an engine (present when built with
/// [`crate::EngineBuilder::adaptive`]).
pub(crate) struct AdaptiveRuntime {
    /// ns-per-model-unit from host calibration, when the engine prices
    /// with it — the preferred refinement anchor.
    unit_ns_hint: Option<f64>,
    /// Every structure's state (see the module docs: one map, one lock).
    structures: Mutex<FpMap<PatternFingerprint, Structure>>,
    repricings: AtomicU64,
    trials: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
    baseline_probes: AtomicU64,
    fallbacks: AtomicU64,
}

impl AdaptiveRuntime {
    pub(crate) fn new(unit_ns_hint: Option<f64>) -> Self {
        Self {
            unit_ns_hint,
            structures: Mutex::default(),
            repricings: AtomicU64::new(0),
            trials: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            baseline_probes: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> AdaptiveStats {
        AdaptiveStats {
            repricings: self.repricings.load(Ordering::Relaxed),
            trials: self.trials.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            baseline_probes: self.baseline_probes.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn telemetry_totals(&self) -> TelemetryTotals {
        let mut totals = TelemetryTotals::default();
        for structure in lock(&self.structures).values() {
            let entries = totals.entries;
            for (_, entry) in structure.telemetry.iter() {
                totals.samples += entry.samples;
                totals.entries += 1;
            }
            totals.structures += usize::from(totals.entries > entries);
        }
        totals
    }

    /// Drops adaptive state for an invalidated structure: its new
    /// generation starts with a clean slate (no observations, fresh trial
    /// budget, no rejections) because invalidation means the *caller*
    /// asserts the old observations no longer describe the structure.
    pub(crate) fn forget(&self, fingerprint: &PatternFingerprint) {
        lock(&self.structures).remove(fingerprint);
    }

    /// The post-execute hook (see module docs). `y` is the solved output
    /// — used only as value material for the baseline probe's scratch
    /// copy; the probe's timing is value-independent.
    pub(crate) fn after_solve<L: DoacrossLoop + ?Sized>(
        &self,
        inner: &EngineInner,
        loop_: &L,
        y: &[f64],
        plan: &Arc<ExecutionPlan>,
        stats: &RunStats,
    ) {
        let fingerprint = *plan.fingerprint();
        let kind = ObsVariant::from(plan.variant());
        let sample = executed_sample(plan, inner.planner.costs(), stats);

        // Record the solve and let the policy look at the updated entries,
        // under the one lock. The common path holds it for a lookup, a
        // handful of adds and a counter bump; the rare trial-start
        // additionally holds it across one plan build, which is the same
        // order of work a cache miss performs under the cache lock. The
        // sequential baseline probe — a full solve — is deliberately run
        // with the lock RELEASED, so a large structure's probe never
        // stalls other tenants' bookkeeping; the policy re-checks its
        // state when the lock is re-taken, so a racing evaluation degrades
        // to a no-op. Trace events decided under the structure lock are
        // emitted after it is released; only the cache's own swap events
        // (`ConcurrentPlanCache::swap_plan`) are emitted under it.
        let mut decision_event: Option<TraceEvent> = None;
        let wants_evaluation = {
            let mut structures = lock(&self.structures);
            let structure = structures.entry(fingerprint).or_default();
            let current = structure.telemetry.record(kind, &sample);
            let incumbent = structure
                .policy
                .trial()
                .and_then(|t| structure.telemetry.get(t.incumbent))
                .copied();
            let has_baseline = structure.telemetry.get(ObsVariant::Sequential).is_some();

            match PromotionPolicy::ENGINE.on_solve(
                &mut structure.policy,
                kind,
                &current,
                incumbent.as_ref(),
                has_baseline,
            ) {
                Action::Keep => None,
                Action::Commit(trial) => {
                    structure.incumbent = None;
                    PromotionPolicy::ENGINE.complete_trial(&mut structure.policy, trial, true);
                    self.promotions.fetch_add(1, Ordering::Relaxed);
                    if inner.obs.enabled() {
                        decision_event = Some(TraceEvent::TrialCommitted {
                            fp: plan.fingerprint().into(),
                            variant: kind,
                        });
                    }
                    None
                }
                Action::Demote(trial) => {
                    if let Some(incumbent) = structure.incumbent.take() {
                        inner.cache.swap_plan(incumbent);
                    }
                    PromotionPolicy::ENGINE.complete_trial(&mut structure.policy, trial, false);
                    self.demotions.fetch_add(1, Ordering::Relaxed);
                    if inner.obs.enabled() {
                        decision_event = Some(TraceEvent::TrialDemoted {
                            fp: plan.fingerprint().into(),
                            variant: kind,
                        });
                    }
                    None
                }
                Action::Evaluate { probe_baseline } => Some(probe_baseline),
            }
        };
        if let Some(event) = decision_event {
            inner.obs.emit(event);
        }
        if let Some(probe_baseline) = wants_evaluation {
            if probe_baseline {
                self.probe_baseline(inner, loop_, y, plan);
            }
            let decided = self.evaluate(inner, loop_, plan, kind, &mut lock(&self.structures));
            for event in decided.into_iter().flatten() {
                inner.obs.emit(event);
            }
        }
    }

    /// Times one sequential pass of the structure on a scratch copy of
    /// `y` and records it as a `Sequential` observation — the anchor that
    /// lets refinement convert nanoseconds to model units honestly (the
    /// sequential loop performs zero synchronization). This is the
    /// paper's own `T_seq` measurement, taken live.
    fn probe_baseline<L: DoacrossLoop + ?Sized>(
        &self,
        inner: &EngineInner,
        loop_: &L,
        y: &[f64],
        plan: &Arc<ExecutionPlan>,
    ) {
        let mut scratch = y.to_vec();
        let start = Instant::now();
        run_sequential(loop_, &mut scratch);
        let ns = clamp_ns(start.elapsed());
        std::hint::black_box(&scratch);
        self.record_anchor(inner, plan, ns);
        self.baseline_probes.fetch_add(1, Ordering::Relaxed);
        if inner.obs.enabled() {
            inner.obs.emit(TraceEvent::BaselineProbed {
                fp: plan.fingerprint().into(),
                ns,
            });
        }
    }

    /// Feeds the sequential telemetry sample from a fault-driven
    /// sequential fallback ([`crate::FallbackPolicy::SequentialRetry`]).
    /// The demoted parallel attempt produced no completed-solve sample,
    /// but the replay is a genuine sequential measurement — recording it
    /// anchors refinement exactly like a baseline probe, so a structure
    /// that keeps faulting re-prices toward the variant that actually
    /// delivers answers.
    pub(crate) fn record_fallback(&self, inner: &EngineInner, plan: &Arc<ExecutionPlan>, ns: u64) {
        self.record_anchor(inner, plan, ns);
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one sequential pass over `plan`'s structure that took `ns`
    /// as a `Sequential` observation, whatever variant the plan itself
    /// selects: zero synchronization by construction, priced at the
    /// model's own `T_seq`.
    fn record_anchor(&self, inner: &EngineInner, plan: &ExecutionPlan, ns: u64) {
        let census = plan.census();
        let units = inner
            .planner
            .costs()
            .sequential_time(census.iterations, census.total_terms as usize);
        let sample = SolveSample {
            ns,
            wait_polls: 0,
            barriers: 0,
            terms: census.total_terms,
            pred_units: units,
            work_units: units,
        };
        lock(&self.structures)
            .entry(*plan.fingerprint())
            .or_default()
            .telemetry
            .record(ObsVariant::Sequential, &sample);
    }

    /// One evaluation point: refine from every structure's telemetry and —
    /// if the policy names a challenger under the refined model — build it
    /// with that model and swap it in as a trial. Runs under the structure
    /// lock (`structures` is its guard); returns the trace events it
    /// decided, for the caller to emit after release.
    fn evaluate<L: DoacrossLoop + ?Sized>(
        &self,
        inner: &EngineInner,
        loop_: &L,
        plan: &Arc<ExecutionPlan>,
        kind: ObsVariant,
        structures: &mut FpMap<PatternFingerprint, Structure>,
    ) -> Decided {
        let mut decided: Decided = [None; 3];
        let statics = inner.planner.costs();
        self.repricings.fetch_add(1, Ordering::Relaxed);
        let observed = refine(
            statics,
            structures.values().flat_map(|s| s.telemetry.iter()),
            plan.processors(),
            PromotionPolicy::ENGINE.t.confidence,
            self.unit_ns_hint,
        );
        if !observed.has_evidence() {
            return decided;
        }
        let refined_model = CostModel::refined_from(statics, &observed);
        let structure = structures.entry(*plan.fingerprint()).or_default();
        let Some(challenger) =
            PromotionPolicy::ENGINE.challenger(&mut structure.policy, plan, &refined_model)
        else {
            return decided;
        };
        // A priced challenger means the refined price left the divergence
        // band and the planner's refined choice clears the margin: the
        // divergence event, whether or not the trial then starts.
        if let Challenger::Priced {
            static_price,
            refined_price,
            ..
        } = challenger
        {
            if inner.obs.enabled() {
                decided[0] = Some(TraceEvent::Divergence {
                    fp: plan.fingerprint().into(),
                    variant: kind,
                    static_price,
                    refined_price,
                });
            }
        }
        // Failpoint: an injected trial fault behaves exactly like a
        // failed challenger build — the incumbent keeps running and the
        // trial is simply not started.
        if failpoint::enabled() {
            failpoint::maybe_delay(FAILPOINT_TRIAL);
            if failpoint::fire_saturate(FAILPOINT_TRIAL) {
                return decided;
            }
        }
        // Build the challenger with the refined model: same census path,
        // same validation, same artifacts as any cold plan build.
        let built = match Planner::with_costs(refined_model).plan_with_fingerprint(
            inner.pools.primary(),
            loop_,
            *plan.fingerprint(),
        ) {
            Ok(built) => built,
            Err(_) => return decided, // never trade a working plan for a failed build
        };
        let built_kind = ObsVariant::from(built.variant());
        if let Challenger::Priced { kind: chosen, .. } = challenger {
            debug_assert_eq!(built_kind, chosen, "the replan builds the refined choice");
        }
        // A priced challenger is neither; a gated plan's replan may be
        // either, and then starts no trial — its floor stays settled.
        if built_kind == kind || structure.policy.rejected().contains(&built_kind) {
            return decided;
        }
        // Promotion gate: a challenger must prove its synchronization
        // schedule sound against the live pattern before it can replace a
        // working plan. Release builds skip the planner's debug_assert, so
        // this is the production-path check — an unsound challenger is
        // dropped (and the failure traced), never trialed.
        let verdict = built.verify_against(loop_);
        if inner.obs.enabled() {
            decided[1] = Some(TraceEvent::PlanVerified {
                fp: built.fingerprint().into(),
                variant: built.variant().into(),
                sound: verdict.is_ok(),
            });
        }
        if verdict.is_err() {
            return decided;
        }
        if PromotionPolicy::ENGINE.begin_trial(&mut structure.policy, built_kind, kind) {
            structure.incumbent = Some(Arc::clone(plan));
            inner.cache.swap_plan(Arc::new(built));
            self.trials.fetch_add(1, Ordering::Relaxed);
            if inner.obs.enabled() {
                decided[2] = Some(TraceEvent::TrialStarted {
                    fp: plan.fingerprint().into(),
                    challenger: built_kind,
                    incumbent: kind,
                });
            }
        }
        decided
    }
}

/// The telemetry sample of a completed solve that ran `plan`'s own
/// variant: [`RunStats`] projected for the adaptive layer. Barrier
/// crossings come straight from the run's own count (the wavefront
/// executor reports `levels − 1`; every other variant reports 0). The
/// prediction is the variant's price under `statics` ([`price_features`]);
/// its work part is the same price with free polls and barriers and no
/// stalls, and the gap between an *observed* solve and it is the measured
/// synchronization bill refinement attributes to the model's sync
/// constants. When `statics` prices no candidate of the plan's variant (a
/// plan built under a refined model whose selection `statics` would not
/// reach), the recorded price stands for both.
fn executed_sample(plan: &ExecutionPlan, statics: &CostModel, stats: &RunStats) -> SolveSample {
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
        ..*statics
    };
    let unstalled = plan.features().map(|f| PlanFeatures {
        stall_natural: 0.0,
        stall_reordered: 0.0,
        ..*f
    });
    let (pred_units, work_units) = match (
        own(statics, plan.features().copied()),
        own(&free, unstalled),
    ) {
        (Some(pred), Some(work)) => (pred, work),
        _ => {
            let costs = plan.costs();
            let units = costs.of(plan.variant()).unwrap_or(costs.sequential);
            (units, units)
        }
    };
    SolveSample {
        ns: clamp_ns(stats.total),
        wait_polls: stats.wait_polls,
        barriers: stats.barrier_crossings,
        terms: plan.census().total_terms,
        pred_units,
        work_units,
    }
}

impl std::fmt::Debug for AdaptiveRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveRuntime")
            .field("stats", &self.stats())
            .field("telemetry", &self.telemetry_totals())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::IndirectLoop;
    use doacross_par::ThreadPool;

    #[test]
    fn breakdown_work_never_exceeds_prediction() {
        let planner = Planner::new();
        // A wide doall with a non-linear lhs (doacross), interleaved
        // chains (reordered), and a deep grid (wavefront).
        let n = 4_000;
        let scatter =
            IndirectLoop::new(n, (0..n).rev().collect(), vec![vec![]; n], vec![vec![]; n]);
        let n = 32 * 16;
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i % 16 == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let coeff = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
        let chains = IndirectLoop::new(n, (0..n).collect(), rhs, coeff);
        let grid = doacross_plan::testgrid::deep_grid(64, 20, 3, 7);
        for loop_ in [scatter.unwrap(), chains.unwrap(), grid] {
            let plan = planner.plan(&ThreadPool::new(4), &loop_).unwrap();
            let s = executed_sample(&plan, planner.costs(), &RunStats::default());
            assert_eq!(Some(s.pred_units), plan.costs().of(plan.variant()));
            assert!(s.work_units <= s.pred_units, "{plan}: {s:?}");
            assert!(s.work_units > 0.0);
        }
    }
}
