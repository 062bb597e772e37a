//! # doacross-plan — execution plans for preprocessed doacross loops
//!
//! The paper's construct (Saltz & Mirchandaney, *The Preprocessed Doacross
//! Loop*, ICPP 1991) earns its keep through amortization: "the
//! preprocessing phase needs to be performed just once, while the doacross
//! loop may be executed many times" (§2.1). This crate makes that economy
//! a first-class subsystem — preprocessing becomes a reusable, cached,
//! cost-model-selected **artifact** instead of a per-call phase:
//!
//! * [`PatternFingerprint`] — a one-scan 128-bit structural hash (plus
//!   exact shape totals) of an access pattern's index arrays. Two loops
//!   with equal fingerprints share their entire dependence structure, so
//!   they can share a plan; coefficient values are excluded on purpose
//!   (one triangular structure, many right-hand sides → one plan).
//! * [`PlanCensus`] — the classified dependence structure: true/anti/
//!   intra/unwritten reference counts, dependence distances, wavefront
//!   critical path, average parallelism, and whether the left-hand side is
//!   injective (a loop whose left-hand side is not plans sequential).
//!   [`CensusPass`] is the pass itself, split along the planner's stages
//!   (counters, level sort, claim stream) so each product is built only
//!   once a decision needs it.
//! * [`Planner`] — prices every legal variant (sequential, flat
//!   doacross, §2.3 linear-subscript, doconsider-reordered,
//!   level-scheduled wavefront) with the calibrated
//!   [`doacross_sim::CostModel`] and picks the cheapest; see [`planner`]
//!   for the formulas, including the flag-bill vs. `levels × barrier`
//!   crossover that converts a doacross into barrier-separated doalls,
//!   and the stage-1 floor that settles `sequential` from the census
//!   alone without pricing anything else.
//! * [`ExecutionPlan`] — the captured products the chosen variant needs:
//!   the one claim stream of the doacross / reordered / wavefront variants
//!   (claim order, per-claim operand classes, level offsets), detected
//!   linear subscript, plus the census and candidate prices.
//! * [`ConcurrentPlanCache`] — the plan cache: mutex-guarded LRU shards
//!   (routed by fingerprint high bits, merged stats, per-key invalidation
//!   generations), servable through `&self` from many threads — the
//!   storage behind `doacross_engine::Engine`. Repeated structures
//!   (solver iterations, repeated service traffic) skip inspection
//!   entirely. A shard is a slab LRU over fingerprints with
//!   hit/miss/eviction counters, private to this crate.
//! * [`PlanExecutor`] — variant dispatch for prebuilt plans over one
//!   [`doacross_core::Doacross`] runtime and its one scratch.
//! * [`persist`] — durable plans: a versioned, checksummed binary codec
//!   for [`ExecutionPlan`] and the [`PlanStore`] snapshot format, so the
//!   cache can [`ConcurrentPlanCache::snapshot`] /
//!   [`ConcurrentPlanCache::warm_from`] across process restarts —
//!   recency-preserving and invalidation-generation-aware. Loads parse
//!   every record and judge every plan with
//!   [`ExecutionPlan::verify_artifacts`] instead of trusting the bytes,
//!   and a restore keeps only what its caller maps to a plan — the
//!   engine, a plan its own model still selects ([`selection`]), at that
//!   model's prices.
//!
//! There is one planned path: `doacross_engine::Engine` fingerprints a
//! loop, serves or builds its plan through the concurrent cache, and runs
//! a parallel plan on the [`PlanExecutor`] of the scheduler sub-pool the
//! solve leased (one executor per sub-pool, owned by the engine) and a
//! sequential one through [`execute_sequential`] on the caller's thread
//! (timed only when the engine's observability, profiler or adaptive
//! layer consumes the time), with the skip observable via
//! [`doacross_core::PlanProvenance`] in the returned stats. The pieces compose by hand too:
//!
//! ```
//! use doacross_par::ThreadPool;
//! use doacross_plan::{PlanExecutor, Planner};
//! use doacross_core::{seq::run_sequential, TestLoop};
//!
//! let pool = ThreadPool::new(2);
//! let loop_ = TestLoop::new(1_000, 1, 8);
//! let plan = Planner::new().plan(&pool, &loop_).unwrap();
//!
//! // One plan, any number of executions; no inspector after the first.
//! let mut executor = PlanExecutor::new();
//! let mut oracle = loop_.initial_y();
//! run_sequential(&loop_, &mut oracle);
//! for _ in 0..2 {
//!     let mut y = loop_.initial_y();
//!     let stats = executor.execute(&pool, &loop_, &mut y, &plan, None).unwrap();
//!     assert_eq!(y, oracle);
//!     assert_eq!(stats.inspector, std::time::Duration::ZERO);
//! }
//! ```

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
pub mod cache;
pub mod census;
pub mod concurrent;
pub mod fingerprint;
mod fnv;
pub mod persist;
pub mod plan;
pub mod planner;
pub mod runtime;

pub use cache::CacheStats;
pub use census::{CensusPass, PlanCensus};
pub use concurrent::{default_shard_count, ConcurrentPlanCache};
pub use fingerprint::PatternFingerprint;
pub use persist::{PersistError, PlanStore};
pub use plan::{ExecutionPlan, PlanFeatures, PlanVariant, VariantCosts};
pub use planner::{
    detect_linear, gated, parallel_floor, price_features, selection, Planner, Pricing,
};
pub use runtime::{execute_sequential, PlanExecutor};
// The verifier's verdict vocabulary, re-exported so plan consumers can
// match on violations without depending on `doacross-verify` directly.
pub use doacross_verify::{
    CensusFacts, DependenceEdge, SoundnessReport, SoundnessViolation, SyncSchedule,
};

/// Shared test fixture: the wavefront-friendly dependence grid. Not
/// API — exposed (hidden) so the workspace's integration and engine
/// tests exercise the same structure the unit tests assert on, instead
/// of drifting copies.
#[doc(hidden)]
pub mod testgrid {
    use doacross_core::IndirectLoop;

    /// A deep dependence grid: `depth` levels of `width` mutually
    /// independent iterations, each (beyond level 0) reading `reads`
    /// elements written one level earlier at `stride`-spaced columns.
    /// Stall-free for every claim order once `width ≥ p`, so the selection
    /// pressure is purely flag traffic vs. barrier bill — with `width ≥
    /// 64` and `reads = 3` the planner picks the wavefront at any `p ≤ 8`
    /// (every test using this asserts that loudly, so cost-model drift
    /// cannot silently stop exercising the wavefront path).
    pub fn deep_grid(width: usize, depth: usize, reads: usize, stride: usize) -> IndirectLoop {
        let n = width * depth;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let (l, c) = (i / width, i % width);
                if l == 0 {
                    vec![]
                } else {
                    (0..reads)
                        .map(|r| (l - 1) * width + (c + stride * r) % width)
                        .collect()
                }
            })
            .collect();
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.25; r.len()]).collect();
        IndirectLoop::new(n, a, rhs, coeff).expect("valid grid")
    }
}
