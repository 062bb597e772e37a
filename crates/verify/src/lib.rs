//! # doacross-verify — static plan-soundness verification
//!
//! The paper's premise is that preprocessing extracts a dependence
//! structure making the parallel execution *provably* equivalent to the
//! sequential loop. This crate supplies the proof checker: given a
//! pattern's index arrays and a plan's synchronization schedule, it
//! re-derives every flow, anti, output, and intra-iteration dependence and
//! statically shows the schedule covers each one — or reports the first
//! uncovered [`DependenceEdge`] as a structured [`SoundnessViolation`].
//!
//! It is *translation validation*, not trusted-builder reasoning: the
//! verifier shares no code with the planner's census/schedule construction
//! (it re-derives the writer map itself from the `AccessPattern`), so a
//! bug, a corrupted persisted store, or a bad adaptive promotion each get
//! caught by an independent check.
//!
//! ## Dependence-coverage rules per variant
//!
//! The executor resolves each right-hand-side reference `y[e]` in
//! iteration `i` three ways (paper Figure 5): *new value* → check
//! `ready[e]`, wait if it is down, read the shadow array; *accumulator* →
//! read the iteration's own partial result; *old value* → read `y[e]`. The
//! three stream-backed variants (`FlagsNatural`, `FlagsOrdered`,
//! `Wavefront`) act on the class byte the plan's one `ClaimStream` holds
//! for that reference — slot `k = pos[i]`, term `j` — and the linear
//! variant on the comparison `w(e) − i` its arithmetic oracle yields.
//! Flags are indexed by *element*, so a schedule is sound exactly when
//! every reference's claimed class matches the class the true last-writer
//! map implies (`w < i` new, `w == i` accumulator, `w > i` or unwritten
//! old), plus each variant's ordering obligation:
//!
//! | Variant (`SyncSchedule`) | Claimed class comes from | Flow (true) deps | Anti deps | Output deps | Ordering obligation |
//! |---|---|---|---|---|---|
//! | `Sequential` | — (program order) | program order | program order | program order | — |
//! | `FlagsNatural` (doacross) | stream byte `(i, j)`; the stream carries no order and no level offsets | per-element flag: byte must be *new value* | byte must be *old value* | inexpressible — lhs must be injective | natural claim order covers `w < i` by construction; each row as long as the pattern's |
//! | `FlagsLinear` (linear) | `a(i) = c·i + d`, arithmetically | as doacross | as doacross | lhs injective (`c ≥ 1` ⇒ automatic) | `lhs(i) ≡ c·i + d` must hold exactly |
//! | `FlagsOrdered` (reordered) | stream byte `(pos[i], j)`; the stream carries an order and no level offsets | as doacross | as doacross | lhs must be injective | the stream's order must be a permutation *and* topological: `pos[w] < pos[i]` for every flow edge, else livelock — at any claim grain, since a worker walks its chunk in slot order |
//! | `Wavefront` | stream byte `(pos[i], j)` | completion count: `level(w) < level(i)` strictly, and the byte must be *new value* | byte must be *old value* | inexpressible — lhs must be injective | the stream carries an order and level offsets; each row as long as the pattern's |
//!
//! A reference to an element no iteration writes must be classified *old
//! value* everywhere; claiming it *new* is a [`SoundnessViolation::PhantomWait`]
//! (the flag can never fire — guaranteed deadlock).
//!
//! ## Two modes
//!
//! * [`verify_pattern`] — the full check, used when the index arrays are
//!   in hand: plan build (`debug_assert!`-gated), adaptive promotion
//!   (a trial plan must verify before it is swapped in), and any caller
//!   holding a plan and its pattern (`ExecutionPlan::verify_against`).
//! * [`verify_artifacts`] — the pattern-free check, and the one judge of
//!   a persisted plan (the store's codec only parses a record and checks
//!   that its own fields agree). Its obligations, everything provable
//!   from the artifacts and the census alone: a classified census under
//!   any stream, an injective one under every parallel variant, no more
//!   classified references than exist (and exactly as many under a
//!   parallel variant); the stream's shape for its variant (natural flags
//!   no order, ordered flags and the wavefront an order, only the
//!   wavefront level offsets), as many iterations as the census, a
//!   wavefront's level count equal to [`CensusFacts::critical_path`],
//!   claim-order permutation, reference total and per-class counts vs the
//!   census; a nonzero linear stride whose last subscript is in bounds.
//!   The plan layer's projection adds one more: a stream exactly where
//!   the variant runs one.
//!
//! The crate deliberately depends only on `doacross-core`:
//! `doacross-plan` sits *above* it and projects `ExecutionPlan` into
//! [`SyncSchedule`] on its side, the same layering `doacross-obs` uses.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod schedule;
mod verifier;
mod violation;

pub use schedule::{CensusFacts, SyncSchedule};
pub use verifier::{verify_artifacts, verify_pattern};
pub use violation::{DependenceEdge, SoundnessReport, SoundnessViolation};
