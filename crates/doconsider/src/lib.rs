//! # doacross-doconsider — iteration reordering for doacross loops
//!
//! Implements the *doconsider* transformation the paper applies in §3.2
//! (their reference \[4\]: Saltz, Mirchandaney & Crowley, "The doconsider
//! loop", ICS 1989): reorder a doacross loop's iterations so that
//! dependent iterations are claimed far apart, which "leaves the
//! inter-iteration dependencies unchanged but reduces the effects of these
//! dependencies on performance". Table 1's "Preprocessed Doacross
//! Iterations Rearranged" column is the preprocessed doacross executed in
//! a doconsider order.
//!
//! The pipeline:
//!
//! 1. [`dag::DependenceDag`] — the runtime true-dependence DAG extracted
//!    from an [`AccessPattern`] (the same information the inspector
//!    gathers, in graph form).
//! 2. [`levels`] — wavefront assignment: `level(i) = 1 + max(level of
//!    predecessors)`. All iterations of one level are mutually
//!    independent; the number of levels is the dependence-critical path.
//! 3. [`reorder::doconsider_order`] — the level-sorted permutation (stable
//!    within a level to preserve locality), a valid topological claim
//!    order. It runs as a claim stream: `doacross_plan::CensusPass::stream`
//!    lays the loop's resolved references out in it, and a `Reordered`
//!    plan carries that stream to `doacross_core::Doacross::run_planned`.
//!
//! Like the paper's inspector, all of this is execution-time preprocessing:
//! it is computed from index arrays that only exist at run time, and its
//! cost is part of the method's overhead (the benches report it).
//!
//! [`AccessPattern`]: doacross_core::AccessPattern

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
pub mod dag;
pub mod levels;
pub mod reorder;

pub use dag::DependenceDag;
pub use levels::{level_histogram, LevelAssignment};
pub use reorder::{doconsider_order, is_topological_order};
