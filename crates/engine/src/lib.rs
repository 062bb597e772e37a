//! # doacross-engine — the thread-safe session API
//!
//! The paper's economics — preprocessing "performed just once, while the
//! doacross loop may be executed many times" (§2.1) — only pay off at
//! service scale if *many concurrent callers* can share the amortized
//! artifacts. This crate is that session layer:
//!
//! * [`Engine`] — a cheaply-cloneable (`Arc`-backed), `Send + Sync`
//!   session object owning the worker [`ThreadPool`](doacross_par::ThreadPool),
//!   a cost-model [`Planner`](doacross_plan::Planner), and a **sharded,
//!   internally-synchronized plan cache**
//!   ([`ConcurrentPlanCache`](doacross_plan::ConcurrentPlanCache)).
//!   Every method takes `&self`; concurrent callers hit the cache without
//!   external locking.
//! * [`EngineBuilder`] — worker count, cache capacity, shard count and
//!   planner. Unless [`EngineBuilder::planner`] names a model, variant
//!   selection prices with the *host's* cost ratios, measured once per
//!   process (`doacross_sim::host_calibration`), not the paper's Multimax
//!   preset.
//! * [`PreparedLoop`] — the compiled-loop artifact as a first-class
//!   value: a cheap cloneable handle (an `Arc`'d
//!   [`ExecutionPlan`](doacross_plan::ExecutionPlan) plus the generation
//!   it was prepared under) that can be built once and executed from many
//!   threads via [`PreparedLoop::execute`].
//! * **Observability** — [`EngineBuilder::observability_default`] turns on
//!   the `doacross-obs` layer: structured trace events from plan build,
//!   cache, persistence, adaptive policy, and execute
//!   ([`Engine::trace_events`]); Prometheus text metrics via
//!   [`Engine::metrics_text`]; and a flight recorder of recent solves via
//!   [`Engine::recent_solves`].
//! * [`EngineError`] — the typed failure surface, including
//!   [`EngineError::StalePlan`] for handles outlived by
//!   [`Engine::invalidate`] and [`EngineError::Persist`] for plan stores
//!   that cannot be trusted.
//!
//! There is one way a solve crosses the engine —
//! [`PreparedLoop::execute`] ([`Engine::run`] prepares and then calls it)
//! — and its whole life is written down in one private module, `solve`:
//! a sequential plan runs on the caller's thread and is recorded; a
//! parallel one crosses admit → arm → run → recover → record, five stages
//! over the scratch the leased sub-pool owns. Many solves are a `for` loop
//! over that call.
//!
//! Plans are also **durable**: [`Engine::save_plans`] checkpoints the
//! cache to a versioned, checksummed store
//! ([`doacross_plan::persist`]), and [`EngineBuilder::warm_start`] /
//! [`Engine::load_plans`] restore it — recency-preserving,
//! invalidation-generation-aware, and only where this engine's own model
//! selects the stored plan ([`Engine::warm_from`]) — so a restarted
//! service's first solve of a known structure is a cache hit, not a
//! preprocessing pass.
//!
//! ## Quickstart
//!
//! ```
//! use doacross_core::{seq::run_sequential, PlanProvenance, TestLoop};
//! use doacross_engine::Engine;
//!
//! let engine = Engine::builder().workers(2).build();
//! let loop_ = TestLoop::new(1_000, 1, 8);
//!
//! // One-shot: plan on first sight, serve from cache thereafter.
//! let mut y = loop_.initial_y();
//! let cold = engine.run(&loop_, &mut y).unwrap();
//! assert_eq!(cold.provenance, PlanProvenance::PlanCold);
//!
//! // Prepared handle: plan resolved once, executable from any thread.
//! let prepared = engine.prepare(&loop_).unwrap();
//! let mut y2 = loop_.initial_y();
//! prepared.execute(&loop_, &mut y2).unwrap();
//!
//! let mut oracle = loop_.initial_y();
//! run_sequential(&loop_, &mut oracle);
//! assert_eq!(y, oracle);
//! assert_eq!(y2, oracle);
//! assert_eq!(engine.cache_stats().hits, 1);
//! ```

// Audit posture: nothing here steps outside the borrow checker (the last
// site went with batched submission); keep it that way.
#![forbid(unsafe_code)]
mod adaptive;
pub mod builder;
pub mod engine;
pub mod error;
pub mod fault;
pub mod prepared;
mod solve;

pub use adaptive::{AdaptiveStats, TelemetryTotals};
pub use builder::EngineBuilder;
pub use engine::Engine;
pub use error::EngineError;
pub use fault::FallbackPolicy;
pub use prepared::PreparedLoop;
// The scheduler vocabulary ([`EngineBuilder::pools`], the admission
// bound [`Engine::max_pending`] reports, per-pool accounting behind
// [`Engine::pool_stats`]), re-exported likewise.
pub use doacross_sched::{PoolStats, DEFAULT_MAX_PENDING, MAX_POOLS};
// The persistence vocabulary engine callers need, re-exported so they can
// save/restore plans without naming doacross-plan directly.
pub use doacross_plan::{PersistError, PlanStore};
// The observability vocabulary (the trace/flight types behind
// [`Engine::trace_events`] / [`Engine::recent_solves`]). Metric names are
// documented at [`doacross_obs`]'s crate root.
pub use doacross_obs::{
    ObsFault, ObsVariant, PlanProvenance, SolveOutcome, SolveRecord, TraceEvent, TracedEvent,
};
// The deep-profiling vocabulary (the profile ring behind
// [`Engine::recent_profiles`], which keeps the last 32 profiles,
// and the Chrome-trace exporter behind [`Engine::profile_chrome_trace`]
// with its structural validator).
pub use doacross_obs::profile::{
    validate_chrome_trace, ChromeTraceStats, ProfSpan, SolveProfile, SpanKind,
};
