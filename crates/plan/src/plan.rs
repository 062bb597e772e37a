//! The execution plan: captured preprocessing products plus the chosen
//! variant.

use crate::census::PlanCensus;
use crate::fingerprint::PatternFingerprint;
use doacross_core::{AccessPattern, ClaimStream, LinearSubscript};
use doacross_verify::{SoundnessReport, SoundnessViolation, SyncSchedule};
use std::sync::Arc;
use std::time::Duration;

/// Which runtime the planner selected for the pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanVariant {
    /// Run the source loop sequentially: the dependence structure (or loop
    /// size) leaves no profitable parallelism.
    Sequential,
    /// The flat preprocessed doacross in natural claim order, every operand
    /// class read from the plan's [`ClaimStream`] (no inspector and no
    /// writer map at run time).
    Doacross,
    /// The §2.3 linear-subscript executor `a(i) = c·i + d`: no inspector
    /// *and* no writer map at all.
    Linear(LinearSubscript),
    /// The flat doacross claiming iterations in the doconsider
    /// (wavefront-sorted) order its [`ClaimStream`] carries — the same
    /// executor as [`PlanVariant::Doacross`]; the two differ only by that
    /// optional order.
    Reordered,
    /// Level-scheduled wavefront execution: every dependence level runs as
    /// a doall behind the previous level's completion count, over the
    /// level offsets of the plan's [`ClaimStream`] — no ready-flag polling.
    /// Selected when the predicted poll/stall bill of the flag-based
    /// variants exceeds the predicted `levels × barrier` cost.
    Wavefront,
}

/// Collapses a variant to its observability family (payloads dropped:
/// candidates are priced and counted per family).
impl From<PlanVariant> for doacross_obs::ObsVariant {
    fn from(v: PlanVariant) -> Self {
        match v {
            PlanVariant::Sequential => doacross_obs::ObsVariant::Sequential,
            PlanVariant::Doacross => doacross_obs::ObsVariant::Doacross,
            PlanVariant::Linear(_) => doacross_obs::ObsVariant::Linear,
            PlanVariant::Reordered => doacross_obs::ObsVariant::Reordered,
            PlanVariant::Wavefront => doacross_obs::ObsVariant::Wavefront,
        }
    }
}

impl std::fmt::Display for PlanVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanVariant::Sequential => write!(f, "sequential"),
            PlanVariant::Doacross => write!(f, "doacross"),
            PlanVariant::Linear(s) => write!(f, "linear(a(i) = {}*i + {})", s.c, s.d),
            PlanVariant::Reordered => write!(f, "reordered"),
            PlanVariant::Wavefront => write!(f, "wavefront"),
        }
    }
}

/// Predicted per-run cost (abstract cost-model cycles) of every candidate
/// the planner evaluated; `None` means the variant was not legal or not
/// applicable for the pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VariantCosts {
    pub sequential: f64,
    pub doacross: Option<f64>,
    pub linear: Option<f64>,
    pub reordered: Option<f64>,
    pub wavefront: Option<f64>,
}

impl VariantCosts {
    /// The predicted price of `variant`'s candidate (`None` when the
    /// planner never priced it — illegal or inapplicable for the pattern).
    /// `Linear`'s subscript is ignored: candidates are priced per variant
    /// family.
    pub fn of(&self, variant: PlanVariant) -> Option<f64> {
        match variant {
            PlanVariant::Sequential => Some(self.sequential),
            PlanVariant::Doacross => self.doacross,
            PlanVariant::Linear(_) => self.linear,
            PlanVariant::Reordered => self.reordered,
            PlanVariant::Wavefront => self.wavefront,
        }
    }

    /// All candidate prices in `doacross_obs::ObsVariant::index` order —
    /// the shape the tracing layer records with each plan build.
    pub fn as_candidate_prices(&self) -> doacross_obs::CandidatePrices {
        [
            Some(self.sequential),
            self.doacross,
            self.linear,
            self.reordered,
            self.wavefront,
        ]
    }
}

/// The model-free structure quantities stage 2 of the planner prices from
/// (see [`crate::planner`]): everything a price needs beyond the census,
/// the processor count and the linear subscript. Pricing them under any
/// [`doacross_sim::CostModel`] is arithmetic
/// ([`crate::planner::price_features`]); computing them needs the
/// dependence edges and the level widths, which is why they are kept.
/// Both depend on the processor count `p` the plan was priced for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanFeatures {
    /// Stall weight of the natural claim order: over every true-dependence
    /// edge with claim gap `g`, `Σ max(0, p − g)/p` — the stall sum in
    /// units of one serial iteration.
    pub stall_natural: f64,
    /// The same weight for the doconsider (level-sorted) claim order.
    pub stall_reordered: f64,
    /// Wavefront claim rounds `Σ⌈width/p⌉` over the dependence levels.
    pub rounds: usize,
}

/// A reusable, cached execution recipe for one access pattern: the
/// preprocessing products the paper computes per run, captured once.
///
/// Everything in here is a pure function of the pattern's *structure*
/// (which the [`PatternFingerprint`] key guards), so one plan serves every
/// execution of every loop sharing that structure — different coefficient
/// values, different right-hand sides, different `y` contents.
#[derive(Debug)]
pub struct ExecutionPlan {
    pub(crate) fingerprint: PatternFingerprint,
    /// Worker count the cost model priced the variants for.
    pub(crate) processors: usize,
    pub(crate) variant: PlanVariant,
    pub(crate) census: PlanCensus,
    /// The one artifact of the stream-backed variants
    /// ([`PlanVariant::Doacross`], [`PlanVariant::Reordered`],
    /// [`PlanVariant::Wavefront`]): claim order, per-claim operand classes
    /// and — for the wavefront — level offsets.
    pub(crate) stream: Option<ClaimStream>,
    /// Detected linear subscript (kept even when another variant won, for
    /// introspection).
    pub(crate) linear: Option<LinearSubscript>,
    pub(crate) costs: VariantCosts,
    /// What `costs` was priced from; `None` for a gated or stream-less
    /// plan, whose prices need the census alone.
    pub(crate) features: Option<PlanFeatures>,
    /// Wall time spent building this plan — the cost a cache hit saves.
    pub(crate) build_time: Duration,
}

impl ExecutionPlan {
    /// The fingerprint of the pattern this plan was built for.
    pub fn fingerprint(&self) -> &PatternFingerprint {
        &self.fingerprint
    }

    /// The selected variant.
    pub fn variant(&self) -> PlanVariant {
        self.variant
    }

    /// The worker count the cost model priced the variants for, and the
    /// one its features were measured for. A plan run under a different
    /// pool size still computes correct results, but its variant may no
    /// longer be the cheapest: an engine builds every plan for its own
    /// worker count and restores a stored plan only when this equals it.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// The dependence census the selection was based on: the shape totals
    /// alone when the reference counts settled the plan
    /// ([`PlanCensus::is_classified`]).
    pub fn census(&self) -> &PlanCensus {
        &self.census
    }

    /// The claim stream, when the variant executes from one.
    pub fn stream(&self) -> Option<&ClaimStream> {
        self.stream.as_ref()
    }

    /// The detected linear left-hand-side subscript, if any.
    pub fn linear_subscript(&self) -> Option<LinearSubscript> {
        self.linear
    }

    /// Predicted per-run costs of all evaluated candidates: the planner's
    /// model applied to [`ExecutionPlan::features`] — the recorded decision
    /// (for a plan an engine restored from a store, that engine's model;
    /// see [`ExecutionPlan::repriced`]).
    pub fn costs(&self) -> &VariantCosts {
        &self.costs
    }

    /// The model-free structure quantities `costs` was priced from, for
    /// re-pricing under another model; `None` for a gated plan (nothing
    /// but sequential was priced) and a stream-less one (non-injective, or
    /// too large for a claim stream), whose prices follow from the census.
    pub fn features(&self) -> Option<&PlanFeatures> {
        self.features.as_ref()
    }

    /// Whether the build stopped at the planner's stage-0 or stage-1 gate
    /// (see [`crate::planner`]): sequential was settled by the parallel
    /// floor, so no parallel candidate was priced and no artifact built; a
    /// stage-0 plan's census is unclassified
    /// ([`PlanCensus::is_classified`]). Derived,
    /// not stored — every injective plan that got as far as pricing carries
    /// a flat-doacross price.
    pub fn is_gated(&self) -> bool {
        self.variant == PlanVariant::Sequential
            && self.census.injective
            && self.costs.doacross.is_none()
    }

    /// Wall time spent building the plan.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// This plan with `costs` for its prices — how an engine restores a
    /// stored plan its own model selects, with that model's prices
    /// ([`crate::planner::selection`]). The same `Arc` when the prices
    /// already are `costs`, so a warm start under the writing model copies
    /// nothing.
    pub fn repriced(self: &Arc<Self>, costs: VariantCosts) -> Arc<Self> {
        if self.costs == costs {
            return Arc::clone(self);
        }
        Arc::new(Self {
            census: self.census.clone(),
            stream: self.stream.clone(),
            costs,
            ..**self
        })
    }

    /// Projects the plan onto its synchronization schedule — the lossless
    /// view `doacross-verify` checks. Fails (as an artifact mismatch) only
    /// when the plan carries a claim stream exactly where its variant does
    /// not run one — missing under doacross, reordered and wavefront,
    /// present under sequential and linear — which no planner build
    /// produces; the projection exists so persisted or hand-built plans
    /// cannot dodge verification by dropping or smuggling an artifact.
    pub fn sync_schedule(&self) -> Result<SyncSchedule<'_>, SoundnessViolation> {
        let schedule = match (self.variant, &self.stream) {
            (PlanVariant::Sequential, None) => SyncSchedule::Sequential,
            (PlanVariant::Linear(subscript), None) => SyncSchedule::FlagsLinear { subscript },
            (PlanVariant::Doacross, Some(stream)) => SyncSchedule::FlagsNatural { stream },
            (PlanVariant::Reordered, Some(stream)) => SyncSchedule::FlagsOrdered { stream },
            (PlanVariant::Wavefront, Some(stream)) => SyncSchedule::Wavefront { stream },
            (_, stream) => {
                return Err(SoundnessViolation::ArtifactMismatch {
                    what: "claim stream",
                    expected: stream.is_none() as u64,
                    got: stream.is_some() as u64,
                })
            }
        };
        Ok(schedule)
    }

    /// Full soundness verification against the pattern the plan claims to
    /// serve: statically proves the synchronization schedule covers every
    /// flow/anti/output dependence the index arrays imply. This is
    /// translation validation — the verifier re-derives the dependence
    /// structure itself, sharing no code with the census or the planner.
    pub fn verify_against<P: AccessPattern + ?Sized>(
        &self,
        pattern: &P,
    ) -> Result<SoundnessReport, SoundnessViolation> {
        doacross_verify::verify_pattern(pattern, &self.sync_schedule()?)
    }

    /// Pattern-free soundness verification: everything provable from the
    /// plan's artifacts and census alone. This is what persisted-plan
    /// loading runs (the index arrays are not in the store).
    pub fn verify_artifacts(&self) -> Result<(), SoundnessViolation> {
        doacross_verify::verify_artifacts(&self.census.facts(), &self.sync_schedule()?)
    }

    /// Heap footprint in bytes — the claim stream's, the plan's only heap
    /// artifact — for cache sizing decisions.
    pub fn memory_bytes(&self) -> usize {
        self.stream.as_ref().map_or(0, ClaimStream::memory_bytes)
    }
}

impl std::fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let census = &self.census;
        write!(f, "plan {} for {} ", self.variant, self.fingerprint)?;
        if census.is_classified() {
            write!(
                f,
                "({} true deps, critical path {})",
                census.true_deps, census.critical_path
            )
        } else {
            write!(f, "(settled on its reference counts)")
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{testgrid::deep_grid, PlanVariant, Planner};
    use doacross_core::LinearSubscript;
    use doacross_par::ThreadPool;
    use doacross_verify::SoundnessViolation;

    /// A claim stream exactly where the variant runs none — present under
    /// sequential and linear, missing under a stream-backed variant — has
    /// no schedule, so neither verifier mode accepts the plan.
    #[test]
    fn sync_schedule_refuses_a_stream_where_the_variant_runs_none() {
        let (pool, planner) = (ThreadPool::new(4), Planner::new());
        let mut plan = planner.plan(&pool, &deep_grid(64, 20, 3, 7)).unwrap();
        assert_eq!(plan.variant, PlanVariant::Wavefront);
        let claim_stream = |expected, got| SoundnessViolation::ArtifactMismatch {
            what: "claim stream",
            expected,
            got,
        };
        for variant in [
            PlanVariant::Sequential,
            PlanVariant::Linear(LinearSubscript::new(1, 0)),
        ] {
            plan.variant = variant;
            assert_eq!(plan.sync_schedule().unwrap_err(), claim_stream(0, 1));
            assert_eq!(plan.verify_artifacts(), Err(claim_stream(0, 1)));
        }
        plan.variant = PlanVariant::Wavefront;
        plan.verify_artifacts().expect("the built plan");
        plan.stream = None;
        assert_eq!(plan.sync_schedule().unwrap_err(), claim_stream(1, 0));
        assert_eq!(plan.verify_artifacts(), Err(claim_stream(1, 0)));
    }

    #[test]
    fn display_is_the_same_for_every_build_of_a_pattern() {
        // The build time differs build to build; what a plan prints does
        // not (`build_time()` and `Debug` keep the measurement).
        let (pool, planner, grid) = (ThreadPool::new(2), Planner::new(), deep_grid(8, 6, 2, 3));
        let first = planner.plan(&pool, &grid).unwrap();
        let second = planner.plan(&pool, &grid).unwrap();
        assert_eq!(first.to_string(), second.to_string());
        assert!(format!("{first:?}").contains("build_time"));
    }
}
