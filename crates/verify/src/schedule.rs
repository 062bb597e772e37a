//! The verifier's view of a plan: the synchronization schedule alone.
//!
//! This crate sits *below* `doacross-plan` in the dependency graph (the
//! plan layer calls into it from plan build, persistence load, and
//! adaptive promotion), so it cannot name `ExecutionPlan` or
//! `PlanVariant`. Instead it verifies a [`SyncSchedule`] — the
//! synchronization-relevant artifact of each variant (for the three
//! stream-backed ones, the plan's one [`ClaimStream`]), all of which are
//! `doacross-core` types. `doacross-plan` provides the lossless
//! `ExecutionPlan → SyncSchedule` projection on its side (the same
//! arrangement `doacross-obs` uses for its event vocabulary).

use doacross_core::{ClaimStream, LinearSubscript};

/// The synchronization schedule of one executor variant, borrowed from a
/// plan's artifacts.
#[derive(Debug, Clone, Copy)]
pub enum SyncSchedule<'a> {
    /// Source order on one worker: every dependence is covered by program
    /// order.
    Sequential,
    /// The flat preprocessed doacross: per-element ready flags, natural
    /// (increasing) claim order, every operand class read from the plan's
    /// stream (which must carry no claim order).
    FlagsNatural {
        /// The prebuilt claim stream (classes in iteration order).
        stream: &'a ClaimStream,
    },
    /// §2.3's linear-subscript doacross: per-element ready flags, natural
    /// claim order, writer queries answered arithmetically from
    /// `a(i) = c·i + d`.
    FlagsLinear {
        /// The declared left-hand-side subscript.
        subscript: LinearSubscript,
    },
    /// The flat doacross claiming iterations in a doconsider order: the
    /// flags and the class rule are the same, but progress additionally
    /// requires the stream's claim order to be topological over the flow
    /// dependences.
    FlagsOrdered {
        /// The prebuilt claim stream (its order a permutation of the
        /// iteration space, its classes laid out in that order).
        stream: &'a ClaimStream,
    },
    /// §2.3's strip-mined doacross: blocks of `block_size` contiguous
    /// iterations run as flat doacrosses with a per-block inspector;
    /// blocks execute sequentially with a copy-back in between, which
    /// covers every cross-block dependence.
    Blocked {
        /// Iterations per `L_outer` step.
        block_size: usize,
    },
    /// Level-scheduled wavefront: each level is a doall behind the previous
    /// level's completion count; flow dependences are covered iff the
    /// writer's level is strictly earlier, and every reference's operand
    /// class routes it to the right array (shadow / old / accumulator).
    Wavefront {
        /// The prebuilt claim stream with its CSR level offsets.
        stream: &'a ClaimStream,
    },
}

impl<'a> SyncSchedule<'a> {
    /// The claim stream the schedule's executor reads its operand classes
    /// from — `None` for the variants that re-derive them at run time.
    pub fn stream(&self) -> Option<&'a ClaimStream> {
        match *self {
            SyncSchedule::FlagsNatural { stream }
            | SyncSchedule::FlagsOrdered { stream }
            | SyncSchedule::Wavefront { stream } => Some(stream),
            _ => None,
        }
    }

    /// Short lowercase name of the schedule's variant family (matches the
    /// planner's `PlanVariant` display names).
    pub fn variant_name(&self) -> &'static str {
        match self {
            SyncSchedule::Sequential => "sequential",
            SyncSchedule::FlagsNatural { .. } => "doacross",
            SyncSchedule::FlagsLinear { .. } => "linear",
            SyncSchedule::FlagsOrdered { .. } => "reordered",
            SyncSchedule::Blocked { .. } => "blocked",
            SyncSchedule::Wavefront { .. } => "wavefront",
        }
    }

    /// Whether this schedule's executor presumes an injective left-hand
    /// side (every flat flag-based variant and the wavefront; the blocked
    /// variant tolerates duplicates across block boundaries, and the
    /// sequential loop tolerates anything).
    pub fn requires_injective(&self) -> bool {
        !matches!(
            self,
            SyncSchedule::Sequential | SyncSchedule::Blocked { .. }
        )
    }
}

/// The census facts artifact-mode verification runs on — a value-level
/// mirror of `doacross_plan::PlanCensus`'s schedule-relevant fields, owned
/// here for the same layering reason as [`SyncSchedule`]. The plan layer
/// converts on its side.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CensusFacts {
    /// Outer-loop iterations.
    pub iterations: usize,
    /// Data-space size.
    pub data_len: usize,
    /// Total right-hand-side references.
    pub total_terms: u64,
    /// References to elements written by an earlier iteration.
    pub true_deps: u64,
    /// References to elements written by a later iteration.
    pub anti_deps: u64,
    /// References to the iteration's own output element.
    pub intra: u64,
    /// References to elements no iteration writes.
    pub unwritten: u64,
    /// Whether the left-hand side is injective.
    pub injective: bool,
    /// For non-injective patterns: the smallest iteration gap between two
    /// writes to the same element.
    pub min_duplicate_write_gap: Option<usize>,
}
