//! The trace vocabulary: every structured event the engine can emit.
//!
//! The observability layer sits *below* every other crate in the
//! dependency graph so all of them can emit into it. So it defines the
//! small enums its records carry: [`PlanProvenance`], which
//! `doacross-core` re-exports as its own, and [`ObsVariant`], which
//! mirrors the planner's variant kinds.

/// A pattern fingerprint reduced to its two independent 64-bit hash
/// streams — enough to identify a structure in traces and metric labels
/// without depending on the planner's full fingerprint type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FpId(pub u64, pub u64);

impl std::fmt::Display for FpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// Executor variant families, mirroring the planner's `PlanVariant`
/// without its payloads — also the adaptive layer's telemetry key, whose
/// stored tag is [`ObsVariant::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObsVariant {
    Sequential,
    Doacross,
    Linear,
    Reordered,
    Blocked,
    Wavefront,
}

impl ObsVariant {
    /// All variants, in [`ObsVariant::index`] order.
    pub const ALL: [ObsVariant; 6] = [
        ObsVariant::Sequential,
        ObsVariant::Doacross,
        ObsVariant::Linear,
        ObsVariant::Reordered,
        ObsVariant::Blocked,
        ObsVariant::Wavefront,
    ];

    /// Dense index (0..6) for per-variant metric arrays.
    pub fn index(self) -> usize {
        match self {
            ObsVariant::Sequential => 0,
            ObsVariant::Doacross => 1,
            ObsVariant::Linear => 2,
            ObsVariant::Reordered => 3,
            ObsVariant::Blocked => 4,
            ObsVariant::Wavefront => 5,
        }
    }

    /// Whether this family synchronizes through per-element `ready` flags
    /// (and therefore produces wait-poll evidence).
    pub fn uses_flags(self) -> bool {
        matches!(
            self,
            ObsVariant::Doacross | ObsVariant::Linear | ObsVariant::Reordered
        )
    }

    /// The `variant` metric-label value.
    pub fn as_str(self) -> &'static str {
        match self {
            ObsVariant::Sequential => "sequential",
            ObsVariant::Doacross => "doacross",
            ObsVariant::Linear => "linear",
            ObsVariant::Reordered => "reordered",
            ObsVariant::Blocked => "blocked",
            ObsVariant::Wavefront => "wavefront",
        }
    }
}

impl std::fmt::Display for ObsVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a run's preprocessing came from — how the executor learned the
/// writer of every element. `RunStats` carries it, and so does every
/// solve the observability layer records, under this one definition.
///
/// The paper's amortization argument (§2.1: inspect once, execute many
/// times) is only real if callers can *observe* that a given run skipped
/// the inspector. This enum is that observation: plan-driven runs report
/// whether their preprocessing products were built for this call or served
/// from a cache, and a planned run's `inspector` duration is exactly zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PlanProvenance {
    /// Preprocessing (if any) ran inside this call — the classic
    /// inspector-per-run construct.
    #[default]
    Inline,
    /// A prebuilt execution plan was supplied and its preprocessing was
    /// performed for this call (a cache miss or an explicit plan).
    PlanCold,
    /// The execution plan was served from a plan cache: no planning work
    /// (fingerprint census, dependence analysis, variant selection,
    /// inspection capture) happened in this call. Whatever preprocessing is
    /// *inherent to the selected variant* still runs — notably the
    /// strip-mined variant re-inspects per block, because its windowed
    /// scratch arrays cannot outlive a block; check `inspector` for the
    /// per-run bill. The flat planned variants report `inspector == 0`.
    PlanCached,
}

impl PlanProvenance {
    /// All provenances, in [`PlanProvenance::index`] order.
    pub const ALL: [PlanProvenance; 3] = [
        PlanProvenance::Inline,
        PlanProvenance::PlanCold,
        PlanProvenance::PlanCached,
    ];

    /// Dense index (0..3) for per-provenance metric arrays.
    pub fn index(self) -> usize {
        match self {
            PlanProvenance::Inline => 0,
            PlanProvenance::PlanCold => 1,
            PlanProvenance::PlanCached => 2,
        }
    }

    /// The `provenance` metric-label value.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanProvenance::Inline => "inline",
            PlanProvenance::PlanCold => "plan_cold",
            PlanProvenance::PlanCached => "plan_cached",
        }
    }

    /// How much per-call preprocessing work the provenance implies:
    /// `Inline` (2) ran the inspector in this call, `PlanCold` (1) built a
    /// plan for this call, `PlanCached` (0) reused one. Aggregation keeps
    /// the *coldest* constituent (`RunStats::absorb`) so a merged stat
    /// never claims more amortization than its worst block had.
    pub fn coldness(self) -> u8 {
        match self {
            PlanProvenance::Inline => 2,
            PlanProvenance::PlanCold => 1,
            PlanProvenance::PlanCached => 0,
        }
    }
}

/// The human-readable form (`inline`, `plan:cold`, `plan:cached`) that
/// run summaries print; metric labels use [`PlanProvenance::as_str`].
impl std::fmt::Display for PlanProvenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlanProvenance::Inline => "inline",
            PlanProvenance::PlanCold => "plan:cold",
            PlanProvenance::PlanCached => "plan:cached",
        })
    }
}

/// Why the engine started with an empty cache despite a configured
/// warm-start store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdStartReason {
    /// The store file did not exist yet (first run).
    NotFound,
    /// The store file was written by an incompatible format version.
    VersionMismatch,
    /// The store file failed to parse (truncated or corrupted); it was
    /// quarantined (renamed aside) so the next boot does not retry it.
    Corrupt,
}

/// Why a parallel solve attempt was abandoned mid-region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsFault {
    /// A pool worker panicked; siblings drained via the poison protocol.
    WorkerPanic {
        /// Worker index within the sub-pool (first cause wins).
        worker: u64,
    },
    /// The solve deadline expired before the region completed.
    DeadlineExpired,
}

/// How a solve attempt ended, as kept by the flight recorder.
///
/// `Ok` and `FellBack` delivered a correct answer (the latter on the
/// sequential retry after a contained fault); the others are failures
/// whose records carry partial stats for the attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveOutcome {
    /// The solve completed normally.
    #[default]
    Ok,
    /// A worker panicked mid-region; the attempt was abandoned.
    Panicked,
    /// The solve deadline expired; the attempt was abandoned.
    TimedOut,
    /// A faulted parallel attempt was retried sequentially and succeeded.
    FellBack,
    /// Admission control rejected the solve (every sub-pool busy).
    Saturated,
}

impl SolveOutcome {
    /// Whether the record carries a correct completed solve (its stats
    /// belong in the latency histograms and throughput counters).
    pub fn delivered(self) -> bool {
        matches!(self, SolveOutcome::Ok | SolveOutcome::FellBack)
    }
}

/// One completed solve, as kept by the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveRecord {
    /// Fingerprint of the solved structure.
    pub fp: FpId,
    /// Variant that executed.
    pub variant: ObsVariant,
    /// Where the plan came from.
    pub provenance: PlanProvenance,
    /// Cache generation of the plan at execute time.
    pub generation: u64,
    /// Wall time of the whole solve.
    pub total_ns: u64,
    /// Inspector (preprocessing) share.
    pub inspector_ns: u64,
    /// Executor share.
    pub executor_ns: u64,
    /// Post-processing (gather/reduce) share.
    pub post_ns: u64,
    /// Iterations executed.
    pub iterations: u64,
    /// Workers the solve ran on.
    pub workers: u64,
    /// Busy-wait stall events (flag-based variants).
    pub stalls: u64,
    /// Busy-wait poll loops (flag-based variants).
    pub wait_polls: u64,
    /// Barrier crossings (wavefront variant; 0 elsewhere).
    pub barrier_crossings: u64,
    /// Scheduler sub-pool the solve held (0 on a single-pool engine), or
    /// `None` when it held none: a sequential plan runs on the caller's
    /// thread without admission, and a refused attempt was never granted
    /// one.
    pub pool: Option<u64>,
    /// How the attempt ended. Non-[`SolveOutcome::Ok`] records carry
    /// partial stats (`total_ns` of the failed attempt; zeros elsewhere).
    pub outcome: SolveOutcome,
}

/// Per-candidate predicted prices recorded with a plan build, indexed by
/// [`ObsVariant::index`]; `None` = the planner never priced that family.
pub type CandidatePrices = [Option<f64>; 6];

/// A structured event. Everything the engine does that changes plan or
/// policy state emits exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// The planner built a plan: the full decision record, including the
    /// losing candidates' prices.
    PlanBuilt {
        fp: FpId,
        variant: ObsVariant,
        build_ns: u64,
        iterations: u64,
        true_deps: u64,
        critical_path: u64,
        chosen_price: f64,
        candidate_prices: CandidatePrices,
    },
    /// A plan's synchronization schedule was run through the soundness
    /// verifier (`doacross-verify`) gating an adaptive promotion: the
    /// challenger plan is proved against the live pattern before it may
    /// replace a working one.
    PlanVerified {
        fp: FpId,
        variant: ObsVariant,
        /// Whether the schedule proved sound; an unsound verdict carries
        /// the structured violation on the erroring path, not here.
        sound: bool,
    },
    /// Plan cache served an existing plan.
    CacheHit { fp: FpId },
    /// Plan cache had no usable plan; a build followed.
    CacheMiss { fp: FpId },
    /// LRU capacity pushed a plan out.
    CacheEvicted { fp: FpId },
    /// A plan was explicitly invalidated; `dropped` is false when the
    /// fingerprint was not resident (generation still advances).
    CacheInvalidated {
        fp: FpId,
        generation: u64,
        dropped: bool,
    },
    /// The adaptive layer atomically replaced a plan (same fingerprint,
    /// new variant, bumped generation).
    PlanSwapped {
        fp: FpId,
        variant: ObsVariant,
        generation: u64,
    },
    /// Cache contents persisted to a store.
    StoreSaved { plans: u64 },
    /// A store was read and its plans offered to the cache; `restored`
    /// counts those actually admitted.
    StoreLoaded { plans: u64, restored: u64 },
    /// A warm-start store was configured but unusable; the engine started
    /// cold.
    ColdStart { reason: ColdStartReason },
    /// Adaptive: measured cost diverged from the static model's
    /// prediction for the committed variant.
    Divergence {
        fp: FpId,
        variant: ObsVariant,
        static_price: f64,
        refined_price: f64,
    },
    /// Adaptive: a challenger variant entered trial.
    TrialStarted {
        fp: FpId,
        challenger: ObsVariant,
        incumbent: ObsVariant,
    },
    /// Adaptive: the trial variant won and was committed.
    TrialCommitted { fp: FpId, variant: ObsVariant },
    /// Adaptive: the trial variant lost and the incumbent was restored.
    TrialDemoted { fp: FpId, variant: ObsVariant },
    /// Adaptive: a deliberate baseline re-measurement ran.
    BaselineProbed { fp: FpId, ns: u64 },
    /// A solve finished; also feeds the flight recorder and the
    /// latency/counter metrics.
    SolveFinished { record: SolveRecord },
    /// The multi-pool scheduler routed a solve to a sub-pool. Emitted
    /// once per admitted solve, from the engine's admission stage, on
    /// multi-pool engines only: a single-pool engine has no routing
    /// decision to report and its trace stays silent.
    PoolDispatched {
        /// Sub-pool index the work landed on.
        pool: u64,
        /// Whether the work-stealing fallback redirected it there (the
        /// preferred sub-pool was busy).
        stolen: bool,
        /// Nanoseconds spent waiting for a free sub-pool (0 on the
        /// lock-free fast path).
        wait_ns: u64,
    },
    /// A parallel solve attempt was abandoned: a worker panicked or the
    /// solve deadline expired, and the poison protocol drained the region
    /// into a typed error.
    SolvePoisoned {
        fp: FpId,
        variant: ObsVariant,
        /// Sub-pool the faulted attempt ran on.
        pool: u64,
        fault: ObsFault,
    },
    /// A faulted parallel attempt was re-run on the sequential variant
    /// against a fresh output buffer (graceful degradation).
    SolveFellBack {
        fp: FpId,
        /// The parallel variant that faulted.
        from: ObsVariant,
    },
    /// A warm-start store failed to parse and was renamed aside
    /// (`<path>.corrupt-<index>`) so the next boot starts clean; a
    /// [`TraceEvent::ColdStart`] with [`ColdStartReason::Corrupt`]
    /// accompanies it.
    StoreQuarantined {
        /// Suffix index of the quarantine file.
        index: u64,
    },
    /// The profiler harvested a solve's span arena: the per-kind time
    /// attribution and realized critical path, as a summary event so the
    /// trace carries profiles without holding the full span vector.
    /// Only emitted by engines built with `profiling_default()`, so
    /// traces from unprofiled engines read exactly as before.
    SolveProfiled {
        fp: FpId,
        variant: ObsVariant,
        /// Longest realized per-worker chain of work + barrier waits,
        /// plus the dispatch wait.
        realized_critical_ns: u64,
        /// Total time across workers attributed to executing iterations.
        work_ns: u64,
        /// Total time across workers stalled on ready flags.
        flag_wait_ns: u64,
        /// Total time across workers stalled at wavefront barriers.
        barrier_wait_ns: u64,
        /// Time the solve waited for a free sub-pool before running.
        dispatch_wait_ns: u64,
        /// Spans harvested into the profile (after drop-oldest bounding).
        spans: u64,
    },
}

/// A trace-ring entry: the event plus its global sequence number and
/// time offset (nanoseconds since the `Obs` handle was created).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedEvent {
    /// Global, strictly increasing sequence number (gaps mean drops).
    pub seq: u64,
    /// Nanoseconds since observability started.
    pub at_ns: u64,
    /// The event payload.
    pub event: TraceEvent,
}

impl TraceEvent {
    /// Short lowercase tag naming the event kind (for logs).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PlanBuilt { .. } => "plan_built",
            TraceEvent::PlanVerified { .. } => "plan_verified",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::CacheEvicted { .. } => "cache_evicted",
            TraceEvent::CacheInvalidated { .. } => "cache_invalidated",
            TraceEvent::PlanSwapped { .. } => "plan_swapped",
            TraceEvent::StoreSaved { .. } => "store_saved",
            TraceEvent::StoreLoaded { .. } => "store_loaded",
            TraceEvent::ColdStart { .. } => "cold_start",
            TraceEvent::Divergence { .. } => "divergence",
            TraceEvent::TrialStarted { .. } => "trial_started",
            TraceEvent::TrialCommitted { .. } => "trial_committed",
            TraceEvent::TrialDemoted { .. } => "trial_demoted",
            TraceEvent::BaselineProbed { .. } => "baseline_probed",
            TraceEvent::SolveFinished { .. } => "solve_finished",
            TraceEvent::PoolDispatched { .. } => "pool_dispatched",
            TraceEvent::SolvePoisoned { .. } => "solve_poisoned",
            TraceEvent::SolveFellBack { .. } => "solve_fell_back",
            TraceEvent::StoreQuarantined { .. } => "store_quarantined",
            TraceEvent::SolveProfiled { .. } => "solve_profiled",
        }
    }
}
