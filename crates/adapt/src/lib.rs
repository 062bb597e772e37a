//! # doacross-adapt — feedback-driven planning
//!
//! The planner (`doacross-plan`) selects variants with an *a-priori* cost
//! model: the Multimax preset, or a one-shot host calibration. Both are
//! guesses about the future frozen at build time — and both the symbolic
//! loop-compilation and speculative-taskloop literatures report the same
//! thing this workspace's own benches show: when runtime behavior
//! diverges from the model (oversubscription, contention, cache effects,
//! a structure whose stall pattern the formulas only approximate), static
//! selection leaves measured wins on the table. This crate closes the
//! loop. Three layers, consumed by `doacross_engine::EngineBuilder::adaptive`:
//!
//! * [`telemetry`] — [`VariantTelemetry`], a lock-light (sharded,
//!   short-critical-section) recorder keyed by `(structure fingerprint,
//!   variant family)`, the family a `doacross_obs::ObsVariant`: per-solve
//!   wall time EWMA + minimum + exact counts, poll and barrier counters,
//!   and the running sums of a polls-vs-time regression. Fed by the engine after every execute; aggregated
//!   engine-wide; persisted in v3 plan stores so a warm start resumes
//!   mid-confidence.
//! * [`refine`] — turns telemetry into measured cost-model constants
//!   (`wait_poll`, `barrier`, per-reference `chain` cost), anchored by
//!   host calibration or a sequential baseline observation, and blends
//!   them into the static model via
//!   [`doacross_sim::CostModel::refined_from`] with a weight that grows
//!   with the evidence.
//! * [`policy`] — [`PromotionPolicy`]: *when the running variant's price
//!   under the refined model diverges from its static price by more than
//!   the configured factor, ask what the planner would choose under that
//!   model ([`doacross_plan::price_features`] over the features the plan
//!   keeps — arithmetic, and exactly what a replan builds); if that
//!   choice wins by the hysteresis margin, trial it (the engine swaps the
//!   cached plan under the shard lock with a generation bump — stale
//!   handles fail typed); commit or demote on the measured comparison.*
//!   Every trial rejects its loser permanently, so the policy provably
//!   cannot flip-flop, and an evaluation builds only to trial, so it
//!   cannot replan forever either — see [`policy`]'s module docs for the
//!   full argument.
//!
//! The engine-side wiring (what feeds the recorder, runs the baseline
//! probe, builds promoted plans via the existing census, and performs the
//! swap) lives in `doacross_engine::adaptive`; this crate is the part
//! with no locks held across solves and no engine in sight, which is why
//! all three layers are unit-testable without one.

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
pub mod policy;
pub mod refine;
pub mod telemetry;

pub use policy::{Action, AdaptiveConfig, Challenger, PromotionPolicy, StructureState, Trial};
pub use refine::{refine, Refinement, RefinementConfig};
pub use telemetry::{SolveSample, TelemetryEntry, TelemetryTotals, VariantTelemetry, EWMA_ALPHA};
