//! # doacross-trisolve — sparse triangular solves (paper §3.2)
//!
//! The paper's application workload: solving unit lower-triangular systems
//! from incomplete factorizations, whose row-to-row dependencies are
//! "determined by the values assigned to the data structure column during
//! program execution" (Figure 7) and therefore invisible to a compiler.
//!
//! Two loops, each a [`DoacrossLoop`] any runtime entry point or engine
//! can plan and run:
//!
//! * [`TriSolveLoop`] — Figure 7: forward substitution with a unit
//!   diagonal. Its output subscript is the identity, so the §2.3
//!   linear-subscript variant applies ([`TriSolveLoop::subscript`]).
//!   [`seq::solve_sequential`] is the paper's `T_seq`.
//! * [`UpperSolveLoop`] — backward substitution over reversed rows, the
//!   diagonal division in the `finish` hook.
//!
//! Both run on a shared `doacross_engine::Engine` as they are: `Engine::run`
//! for a one-off solve, `Engine::prepare` once and `PreparedLoop::execute`
//! per right-hand side for a fixed structure (fingerprints are
//! value-blind, so one handle serves every rhs). On top of them,
//! [`IluPreconditioner`] — ILU(0) application `z = U⁻¹ L⁻¹ r`, both
//! halves prepared once and run per application through
//! [`IluPreconditioner::apply_into`] over owned scratch: the Krylov
//! workload the paper's amortization argument is about.
//!
//! Every path is bit-identical to the scalar kernels (same per-row
//! reduction order), which the test suites exploit.
//!
//! [`DoacrossLoop`]: doacross_core::DoacrossLoop

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
pub mod fig7;
pub mod precond;
pub mod seq;
pub mod upper;
pub mod verify;

pub use fig7::TriSolveLoop;
pub use precond::IluPreconditioner;
pub use upper::UpperSolveLoop;
