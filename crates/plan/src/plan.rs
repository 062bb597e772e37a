//! The execution plan: captured preprocessing products plus the chosen
//! variant.

use crate::census::PlanCensus;
use crate::fingerprint::PatternFingerprint;
use doacross_core::{AccessPattern, ClaimStream, LinearSubscript};
use doacross_verify::{SoundnessReport, SoundnessViolation, SyncSchedule};
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
    /// The §2.3 strip-mined doacross — the legal fallback for loops whose
    /// left-hand side repeats elements at iteration gaps ≥ `block_size`.
    Blocked {
        /// Iterations per `L_outer` step.
        block_size: usize,
    },
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
            PlanVariant::Blocked { .. } => doacross_obs::ObsVariant::Blocked,
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
            PlanVariant::Blocked { block_size } => write!(f, "blocked({block_size})"),
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
    pub blocked: Option<f64>,
    pub wavefront: Option<f64>,
}

impl VariantCosts {
    /// The predicted price of `variant`'s candidate (`None` when the
    /// planner never priced it — illegal or inapplicable for the pattern).
    /// Payloads (`Linear`'s subscript, `Blocked`'s block size) are ignored:
    /// candidates are priced per variant family.
    pub fn of(&self, variant: PlanVariant) -> Option<f64> {
        match variant {
            PlanVariant::Sequential => Some(self.sequential),
            PlanVariant::Doacross => self.doacross,
            PlanVariant::Linear(_) => self.linear,
            PlanVariant::Reordered => self.reordered,
            PlanVariant::Blocked { .. } => self.blocked,
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
            self.blocked,
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

    /// The worker count the cost model priced the variants for. A plan
    /// applied under a different pool size still computes correct results,
    /// but its variant choice may no longer be the cheapest — the engine
    /// treats such a cache entry as a miss and replans
    /// ([`crate::ConcurrentPlanCache::get_or_build`]'s `matches`).
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// The dependence census the selection was based on.
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
    /// model applied to [`ExecutionPlan::features`] — the recorded decision.
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

    /// Whether the build stopped at the planner's stage-1 gate (see
    /// [`crate::planner`]): sequential was settled by the parallel floor,
    /// so no parallel candidate was priced and no artifact built. Derived,
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

    /// Projects the plan onto its synchronization schedule — the lossless
    /// view `doacross-verify` checks. Fails (as an artifact mismatch) only
    /// when the variant's required artifact is missing, which no planner
    /// build produces; the projection exists so persisted or hand-built
    /// plans cannot dodge verification by dropping an artifact.
    pub fn sync_schedule(&self) -> Result<SyncSchedule<'_>, SoundnessViolation> {
        let stream = || {
            self.stream
                .as_ref()
                .ok_or(SoundnessViolation::ArtifactMismatch {
                    what: "claim stream",
                    expected: 1,
                    got: 0,
                })
        };
        Ok(match self.variant {
            PlanVariant::Sequential => SyncSchedule::Sequential,
            PlanVariant::Doacross => SyncSchedule::FlagsNatural { stream: stream()? },
            PlanVariant::Linear(subscript) => SyncSchedule::FlagsLinear { subscript },
            PlanVariant::Reordered => SyncSchedule::FlagsOrdered { stream: stream()? },
            PlanVariant::Blocked { block_size } => SyncSchedule::Blocked { block_size },
            PlanVariant::Wavefront => SyncSchedule::Wavefront { stream: stream()? },
        })
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
        write!(
            f,
            "plan {} for {} ({} true deps, critical path {}, built in {:?})",
            self.variant,
            self.fingerprint,
            self.census.true_deps,
            self.census.critical_path,
            self.build_time,
        )
    }
}
