//! # preprocessed-doacross
//!
//! A production-quality Rust reproduction of
//!
//! > Joel H. Saltz and Ravi Mirchandaney, *The Preprocessed Doacross
//! > Loop*, ICASE Interim Report 11 / NASA CR-182056 (May 1990); ICPP
//! > 1991.
//!
//! The front door is [`Engine`]: a thread-safe, `Arc`-shareable session
//! that owns the worker pool, the cost-model planner, and a **concurrent
//! plan cache**. It turns the paper's central economy —
//! preprocessing "performed just once, while the doacross loop may be
//! executed many times" (§2.1) — into a serving primitive: the first
//! encounter with a loop *structure* pays fingerprinting, dependence
//! analysis, variant selection, and inspection capture; every later
//! encounter, from any thread, reuses the cached [`PreparedLoop`].
//!
//! ## Quickstart
//!
//! ```
//! use preprocessed_doacross::core::IndirectLoop;
//! use preprocessed_doacross::Engine;
//!
//! // A loop whose dependencies exist only at run time:
//! //   y[a[i]] += 0.5 * y[b[i]]
//! let a = vec![1, 2, 3, 4];
//! let b = vec![0, 1, 2, 3];
//! let rhs: Vec<Vec<usize>> = b.iter().map(|&e| vec![e]).collect();
//! let loop_ = IndirectLoop::new(5, a, rhs, vec![vec![0.5]; 4]).unwrap();
//!
//! let engine = Engine::builder().workers(2).build();
//!
//! // One-shot: plans on first sight, caches the plan.
//! let mut y = vec![1.0, 0.0, 0.0, 0.0, 0.0];
//! engine.run(&loop_, &mut y).unwrap();
//! assert_eq!(y, vec![1.0, 0.5, 0.25, 0.125, 0.0625]);
//!
//! // Prepared handle: a first-class, cloneable value — build once,
//! // execute from many threads, any coefficient values or y contents.
//! let prepared = engine.prepare(&loop_).unwrap();
//! let mut y2 = vec![1.0, 0.0, 0.0, 0.0, 0.0];
//! prepared.execute(&loop_, &mut y2).unwrap();
//! assert_eq!(y2, y);
//! assert_eq!(engine.cache_stats().hits, 1);
//! ```
//!
//! The engine prices variants with cost ratios measured on *this* host,
//! once per process ([`sim::host_calibration`]);
//! `.planner(Planner::new())` asks for the paper's Encore Multimax preset
//! instead. `Engine::invalidate` retires the plans (and outstanding
//! handles) of a structure about to be mutated in place.
//!
//! ## Plan persistence
//!
//! Plans are durable: the amortized artifact survives the process that
//! built it. `Engine::save_plans` checkpoints the cache to a versioned,
//! checksummed binary store ([`plan::persist`]), and
//! `EngineBuilder::warm_start` (or `Engine::load_plans`) restores it —
//! recency-preserving, and invalidation-generation-aware, so plans
//! retired before the snapshot stay retired after the restart. A store
//! carries structure, not decisions: no cost model travels with it, and
//! a plan is restored only when the loading engine's own model selects
//! its variant at its worker count ([`plan::selection`]); any other is
//! rebuilt by its first solve. A restarted service's first solve of a
//! known structure is then a cache hit, not a preprocessing pass:
//!
//! ```no_run
//! use preprocessed_doacross::Engine;
//!
//! let engine = Engine::builder()
//!     .workers(4)
//!     .warm_start("plans.bin")   // missing = cold start; corrupt =
//!     .build();                  //   quarantined aside + cold start
//! // ... serve traffic; first solves of persisted structures hit ...
//! engine.save_plans("plans.bin")?;
//! # Ok::<(), preprocessed_doacross::EngineError>(())
//! ```
//!
//! Stores are never trusted blindly: loading verifies a whole-file
//! checksum, parses every record and checks that its own fields agree (a
//! claim stream's order must be a permutation and its reference ends must
//! cover its class bytes, the census must agree with the fingerprint),
//! then judges every plan with `ExecutionPlan::verify_artifacts`, the
//! rules a freshly built plan answers to, before anything reaches the
//! cache — never a panic, never a silently wrong plan. A restored plan
//! carries the loading engine's prices, not the writer's. The boot-path load
//! (`EngineBuilder::warm_start`) treats a damaged store as a fault to
//! recover from, not an error to die on: the file is renamed
//! aside to `<path>.corrupt-<n>` (the two newest corpses are kept for
//! forensics) and the engine boots cold, so a service caught in a
//! crash-restart loop self-heals instead of crashing on the same bytes
//! forever. The explicit [`Engine::load_plans`] stays strict and fails
//! typed with [`EngineError::Persist`]. `examples/warm_start.rs`
//! demonstrates the restart round trip; the benchmark's `cold-plan`
//! workload (`BENCHMARK.json`: `setup_s`, and `solve_p01_over_bare` as the
//! break-even in bare solves) measures the first-solve gap it closes.
//!
//! ## Observability
//!
//! `Engine::builder().observability_default()` turns on the [`obs`]
//! layer: every plan build, cache operation, persistence operation,
//! adaptive decision, and completed solve emits a structured
//! [`TraceEvent`] into a bounded in-memory ring; `Engine::metrics_text()`
//! renders the whole registry — cache traffic, per-variant solve-latency
//! histograms, adaptive decision counts, per-structure series — in
//! Prometheus text-exposition format; and `Engine::recent_solves()` is a
//! flight recorder of the last N solves with variant, provenance, and
//! timing split. Disabled (the default), the whole layer is one branch per
//! would-be event. `examples/observe.rs` walks the surface.
//!
//! ## Profiling
//!
//! Where observability answers *what happened*, the profiler answers
//! *where the nanoseconds went*. `Engine::builder().profiling_default()`
//! arms per-worker span recording:
//! every profiled solve deposits timestamped [`SpanKind`] spans — work,
//! ready-flag stalls, barrier waits per wavefront level, and the
//! dispatcher's admission wait — into bounded per-solve arenas, harvested
//! into a [`SolveProfile`] ring ([`engine::Engine::recent_profiles`]).
//! The harvest computes the **realized critical path** (longest
//! per-worker work + barrier-wait chain, plus the dispatch wait) and
//! pairs it with the plan's *priced* cost on calibrated engines, so the
//! cost model's prediction can be audited against measured truth per
//! variant; with observability on, each harvest's summary is also traced
//! as a `solve_profiled` event.
//!
//! The timelines export: `Engine::profile_chrome_trace()` renders the
//! ring as Chrome trace-event JSON (load it in `chrome://tracing` or
//! Perfetto; one process per solve, one track per worker —
//! [`validate_chrome_trace`] checks the structure), and the scrape gains
//! `doacross_profile_*` families including per-level barrier-wait
//! histograms (bounded cardinality: deep levels collapse under
//! `level="other"`). Off (the default), every deposit site is one branch
//! on a stack-local `Option` — the zero-alloc warm path is unchanged,
//! and `obs.profiled_over_off` in `BENCHMARK.json` measures the armed bill.
//! `examples/profile.rs` walks the surface.
//!
//! ## Multi-tenant throughput
//!
//! One engine serving many concurrent callers partitions its workers into
//! **sub-pools** ([`sched`]): `Engine::builder().pools(4).workers(2)`
//! builds 4 independent 2-worker pools, and each solve is dispatched to a
//! free pool (stealing a busy one only when all are taken), so tenants
//! stop serializing on one worker set. Admission is bounded —
//! `engine::DEFAULT_MAX_PENDING` callers may wait for a pool before the
//! engine fails fast with typed [`EngineError::Saturated`]. By default
//! `pools` is derived from host parallelism, so a plain
//! `Engine::builder().build()` already scales out.
//!
//! Every solve is one [`PreparedLoop::execute`] — one admission, one
//! sub-pool lease, one [`core::RunStats`] — so `Engine::pool_stats`'
//! dispatch ledger *is* the solve count, and many solves are a `for`
//! loop. `examples/throughput.rs` walks the surface; the benchmark's
//! `tiny-tenants` workload and `sched.acquire_ns` (`BENCHMARK.json`)
//! measure it.
//!
//! ## Fault tolerance
//!
//! A multi-tenant engine must contain one tenant's disaster, not share
//! it. The synchronization protocols ([`par`]) are **poison-aware**: when
//! a worker panics mid-region, the pool publishes the fault into a
//! per-region poison word, and every busy-wait — on a ready flag or on a
//! wavefront level's completion count — polls it, so the survivors unwind
//! cooperatively instead of spinning forever on a ready flag their dead
//! peer will never raise. The engine catches
//! the fault at the dispatch boundary and surfaces it as typed
//! [`EngineError::SolvePanicked`]; the sub-pool is immediately reusable
//! and co-tenants never notice.
//!
//! `Engine::builder().solve_deadline(..)` arms a per-solve wall-clock
//! budget through the same poll sites, so a wedged solve resolves as
//! typed [`EngineError::SolveTimeout`] instead of hanging its caller.
//! By default the engine then **degrades gracefully**
//! ([`FallbackPolicy::SequentialRetry`]): a faulted parallel solve is
//! replayed once on the sequential variant against the caller's pristine
//! input, delivering the correct answer at reduced speed —
//! `RunStats::attempts` records the demotion, and the trace, flight
//! recorder ([`SolveOutcome`]), and `doacross_fault_*` metrics make every
//! fault visible. A refused admission ([`EngineError::Saturated`]) is
//! returned at once and leaves the engine untouched, so whether to shed
//! the request or try again is the caller's decision.
//!
//! All of it is proven by deterministic fault injection: the `failpoint`
//! shim compiles to a no-op branch when disarmed, and the chaos suite
//! (`crates/engine/tests/chaos.rs`, plus `examples/chaos.rs`) injects
//! worker panics, wedges, and saturation into every parallel variant to
//! show each failure mode resolves typed and recoverable.
//!
//! ## The workspace underneath
//!
//! * [`engine`] — the session layer re-exported above: [`Engine`],
//!   [`EngineBuilder`], [`PreparedLoop`], [`EngineError`]. It also holds
//!   the adaptive planning behind `Engine::builder().adaptive()`, in one
//!   private module: per-`(structure, variant)` runtime telemetry, online
//!   cost-model refinement (measured `wait_poll` / `barrier` /
//!   per-reference costs blended into the static model), and the
//!   promotion/demotion policy that re-prices a cached plan when its
//!   observed cost diverges from prediction, trials the measured-cheaper
//!   variant, and commits or rolls back on measurement — with hysteresis,
//!   so it can never flip-flop. Its counters are `Engine::adaptive_stats`
//!   and `Engine::telemetry_totals`; the telemetry lives in memory only.
//! * [`core`] — the preprocessed doacross runtime itself: one
//!   [`core::Doacross`] struct, one reusable scratch, one entry point per
//!   way of running (inspector / executor / postprocessor inline, a
//!   prebuilt claim stream under flags or under level counters, the §2.3
//!   linear-subscript variant, and the §2.3 strip-mined run, which no plan
//!   selects).
//! * [`par`] — the parallel substrate (thread pool, self-scheduled
//!   `parallel do`, busy-wait primitives).
//! * [`sparse`] — sparse-matrix substrate: stencil operators, ILU(0), and
//!   the five Table 1 triangular systems.
//! * [`doconsider`] — the iteration-reordering transformation of §3.2.
//! * [`trisolve`] — the evaluation's loops and the preconditioner:
//!   Figure 7's forward solve and the backward solve, which an engine
//!   runs as they are, and the ILU(0) preconditioner that runs both on a
//!   shared engine.
//! * [`sim`] — the 16-processor Encore Multimax discrete-event model used
//!   to regenerate Figure 6 and Table 1, plus host calibration.
//! * [`plan`] — the execution-plan subsystem the engine is built on:
//!   pattern fingerprinting, cost-model variant selection (sequential /
//!   doacross / linear / reordered / wavefront), the
//!   [`plan::ConcurrentPlanCache`] (one LRU of exact capacity under one
//!   mutex),
//!   [`plan::PlanExecutor`] dispatching a plan onto one `core::Doacross`,
//!   and the [`plan::persist`] codec behind warm starts. [`Engine`] is the
//!   only planned path through it. The wavefront variant converts the doacross into
//!   a sequence of level doalls, each complete when its iterations are
//!   counted — zero busy-wait polls, zero barriers — whenever the cost
//!   model predicts the flag bill exceeds the level-boundary bill.
//! * [`obs`] — the observability layer: the trace-event vocabulary, the
//!   metrics registry and its Prometheus text renderer, and the flight
//!   recorder. Zero dependencies; every other crate emits into it.
//! * [`sched`] — the multi-pool scheduler behind
//!   `Engine::builder().pools(n)`: worker partitioning, the lock-light
//!   free-pool dispatcher (CAS on a bitmask, work-stealing fallback), and
//!   bounded admission with per-pool dispatch/steal accounting
//!   ([`PoolStats`]).

// Audit posture: this facade re-exports the engine; it needs no unsafe code.
#![forbid(unsafe_code)]

pub use doacross_core as core;
pub use doacross_doconsider as doconsider;
pub use doacross_engine as engine;
pub use doacross_obs as obs;
pub use doacross_par as par;
pub use doacross_plan as plan;
pub use doacross_sched as sched;
pub use doacross_sim as sim;
pub use doacross_sparse as sparse;
pub use doacross_trisolve as trisolve;

pub use doacross_engine::{
    validate_chrome_trace, ChromeTraceStats, Engine, EngineBuilder, EngineError, FallbackPolicy,
    PreparedLoop, SolveProfile, SpanKind,
};
pub use doacross_obs::{SolveOutcome, SolveRecord, TraceEvent};
pub use doacross_plan::{PersistError, PlanStore};
pub use doacross_sched::PoolStats;
