//! Engine wiring for `doacross-adapt`: telemetry feeding, the sequential
//! baseline probe, refinement, and the plan swap itself.
//!
//! The division of labor: `doacross_adapt` owns the *decisions* (when to
//! evaluate, what to trial, commit vs. demote — all value-level and
//! unit-tested there); this module owns the *mechanics* that need an
//! engine — recording each execute into the shared recorder, timing the
//! one-off sequential baseline that anchors refinement, rebuilding a plan
//! with the refined cost model via the existing census path, and swapping
//! the cached plan under its shard lock with a generation bump so
//! outstanding handles fail typed ([`crate::EngineError::StalePlan`])
//! instead of executing a superseded plan.
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

use crate::engine::EngineInner;
use crate::solve::clamp_ns;
use doacross_adapt::telemetry::TelemetryRow;
use doacross_adapt::{
    policy::Action, refine, AdaptiveConfig, Challenger, PromotionPolicy, RefinementConfig,
    SolveSample, StructureState, TelemetryEntry, TelemetryTotals, VariantTelemetry,
};
use doacross_core::{seq::run_sequential, DoacrossLoop, RunStats};
use doacross_obs::{FpMap, ObsVariant, TraceEvent};
use doacross_plan::{
    price_features, ExecutionPlan, PatternFingerprint, PlanFeatures, Planner, StoredCalibration,
};
use doacross_sim::CostModel;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Failpoint site consulted just before an adaptive trial builds its
/// challenger plan: a `Saturate` action is absorbed as a failed
/// challenger build (incumbent retained, no trial), a `DelayNs` action
/// stretches the evaluation.
pub const FAILPOINT_TRIAL: &str = "engine::adaptive::trial";

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

/// Per-structure engine-side state: the policy's value state plus the
/// retained incumbent plan a demotion swaps back.
#[derive(Default)]
struct Structure {
    policy: StructureState,
    incumbent: Option<Arc<ExecutionPlan>>,
}

/// What the engine-wide structure lock guards: every structure's state,
/// and the telemetry snapshot an evaluation refines from — a buffer kept
/// across evaluations, so after the first one a snapshot allocates
/// nothing.
#[derive(Default)]
struct Structures {
    map: FpMap<PatternFingerprint, Structure>,
    snapshot: Vec<TelemetryRow>,
}

/// The adaptive half of an engine (present when built with
/// [`crate::EngineBuilder::adaptive`]).
pub(crate) struct AdaptiveRuntime {
    policy: PromotionPolicy,
    telemetry: VariantTelemetry,
    /// ns-per-model-unit from host calibration, when the engine measured
    /// (or restored) one — the preferred refinement anchor.
    unit_ns_hint: Option<f64>,
    structures: Mutex<Structures>,
    repricings: AtomicU64,
    trials: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
    baseline_probes: AtomicU64,
    fallbacks: AtomicU64,
}

impl AdaptiveRuntime {
    pub(crate) fn new(
        config: AdaptiveConfig,
        shards: usize,
        calibration: Option<&StoredCalibration>,
    ) -> Self {
        Self {
            policy: PromotionPolicy::new(config),
            telemetry: VariantTelemetry::new(shards),
            unit_ns_hint: calibration.map(|c| c.unit_ns),
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
        self.telemetry.totals()
    }

    /// Restores persisted telemetry (warm start). Returns records taken.
    pub(crate) fn restore_telemetry(&self, records: &[doacross_plan::StoredTelemetry]) -> usize {
        records
            .iter()
            .filter_map(TelemetryEntry::from_stored)
            .filter(|(fp, kind, entry)| self.telemetry.restore(*fp, *kind, *entry))
            .count()
    }

    /// Captures telemetry into a store snapshot.
    pub(crate) fn snapshot_telemetry(&self, store: &mut doacross_plan::PlanStore) {
        for (fp, kind, entry) in self.telemetry.entries() {
            store.push_telemetry(entry.to_stored(fp, kind));
        }
    }

    /// Drops adaptive state for an invalidated structure: its new
    /// generation starts with a clean slate (fresh trial budget, no
    /// rejections) because invalidation means the *caller* asserts the
    /// old observations no longer describe the structure.
    pub(crate) fn forget(&self, fingerprint: &PatternFingerprint) {
        self.structures.lock().map.remove(fingerprint);
        self.telemetry.forget(fingerprint);
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
        let statics = inner.planner.costs();

        // 1. Record the solve.
        let current_entry =
            self.telemetry
                .record(&fingerprint, kind, executed_sample(plan, statics, stats));

        // 2. Let the policy look at the updated ledger. The structure map
        // is one engine-wide mutex: the common path holds it for a lookup
        // and a counter bump; the rare trial-start additionally holds it
        // across one plan build, which is the same order of work a cache
        // miss performs under its shard lock. The sequential baseline
        // probe — a full solve — is deliberately run with the lock
        // RELEASED, so a large structure's probe never stalls other
        // tenants' bookkeeping; the policy re-checks its state when the
        // lock is re-taken, so a racing evaluation degrades to a no-op.
        // Trace events decided under the structure lock are emitted after
        // it is released, so the engine-wide lock is never held across the
        // trace ring's own locks.
        let mut decision_event: Option<TraceEvent> = None;
        let wants_evaluation = {
            let mut structures = self.structures.lock();
            let structure = structures.map.entry(fingerprint).or_default();
            let incumbent_entry = structure
                .policy
                .trial()
                .and_then(|t| self.telemetry.get(&fingerprint, t.incumbent));
            let has_baseline = kind == ObsVariant::Sequential
                || self
                    .telemetry
                    .get(&fingerprint, ObsVariant::Sequential)
                    .is_some();

            match self.policy.on_solve(
                &mut structure.policy,
                kind,
                &current_entry,
                incumbent_entry.as_ref(),
                has_baseline,
            ) {
                Action::Keep => None,
                Action::Commit(trial) => {
                    structure.incumbent = None;
                    self.policy
                        .complete_trial(&mut structure.policy, trial, true);
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
                    self.policy
                        .complete_trial(&mut structure.policy, trial, false);
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
            let mut events = Vec::new();
            self.evaluate(
                inner,
                loop_,
                plan,
                kind,
                &mut self.structures.lock(),
                &mut events,
            );
            for event in events {
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
        self.telemetry.record(
            plan.fingerprint(),
            ObsVariant::Sequential,
            SolveSample {
                ns,
                wait_polls: 0,
                barriers: 0,
                terms: census.total_terms,
                pred_units: units,
                work_units: units,
            },
        );
    }

    /// One evaluation point: refine from a snapshot of every structure's
    /// telemetry and — if the policy names a challenger under the refined
    /// model — build it with that model and swap it in as a trial. Runs
    /// under the structure lock (`structures` is its guard); trace events
    /// go into `events` for the caller to emit after release.
    fn evaluate<L: DoacrossLoop + ?Sized>(
        &self,
        inner: &EngineInner,
        loop_: &L,
        plan: &Arc<ExecutionPlan>,
        kind: ObsVariant,
        structures: &mut Structures,
        events: &mut Vec<TraceEvent>,
    ) {
        let Structures { map, snapshot } = structures;
        let structure = map.entry(*plan.fingerprint()).or_default();
        self.telemetry.entries_into(snapshot);
        let statics = inner.planner.costs();
        self.repricings.fetch_add(1, Ordering::Relaxed);
        let refinement = refine(
            statics,
            snapshot,
            plan.processors(),
            &RefinementConfig {
                confidence: self.policy.config().confidence,
                unit_ns_hint: self.unit_ns_hint,
            },
        );
        if !refinement.constants.has_evidence() {
            return;
        }
        let refined_model = refinement.model(statics);
        let Some(challenger) = self
            .policy
            .challenger(&mut structure.policy, plan, &refined_model)
        else {
            return;
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
                events.push(TraceEvent::Divergence {
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
                return;
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
            Err(_) => return, // never trade a working plan for a failed build
        };
        let built_kind = ObsVariant::from(built.variant());
        if let Challenger::Priced { kind: chosen, .. } = challenger {
            debug_assert_eq!(built_kind, chosen, "the replan builds the refined choice");
        }
        // A priced challenger is neither; a gated plan's replan may be
        // either, and then starts no trial — its floor stays settled.
        if built_kind == kind || structure.policy.rejected().contains(&built_kind) {
            return;
        }
        // Promotion gate: a challenger must prove its synchronization
        // schedule sound against the live pattern before it can replace a
        // working plan. Release builds skip the planner's debug_assert, so
        // this is the production-path check — an unsound challenger is
        // dropped (and the failure traced), never trialed.
        let verdict = built.verify_against(loop_);
        if inner.obs.enabled() {
            events.push(TraceEvent::PlanVerified {
                fp: built.fingerprint().into(),
                variant: built.variant().into(),
                sound: verdict.is_ok(),
            });
        }
        if verdict.is_err() {
            return;
        }
        if self
            .policy
            .begin_trial(&mut structure.policy, built_kind, kind)
        {
            structure.incumbent = Some(Arc::clone(plan));
            inner.cache.swap_plan(Arc::new(built));
            self.trials.fetch_add(1, Ordering::Relaxed);
            if inner.obs.enabled() {
                events.push(TraceEvent::TrialStarted {
                    fp: plan.fingerprint().into(),
                    challenger: built_kind,
                    incumbent: kind,
                });
            }
        }
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
            .field("telemetry", &self.telemetry)
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
