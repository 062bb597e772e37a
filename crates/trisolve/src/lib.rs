//! # doacross-trisolve — sparse triangular solvers (paper §3.2)
//!
//! The paper's application workload: solving unit lower-triangular systems
//! from incomplete factorizations, whose row-to-row dependencies are
//! "determined by the values assigned to the data structure column during
//! program execution" (Figure 7) and therefore invisible to a compiler.
//!
//! Three solvers over the same [`TriangularMatrix`], the parallel ones each
//! a thin wrapper over one `doacross_core::Doacross` runtime:
//!
//! * [`seq::solve_sequential`] — Figure 7 verbatim; the paper's `T_seq`.
//! * [`solver::DoacrossSolver`] — the preprocessed doacross solve
//!   (Table 1 column "Preprocessed Doacross"). Because the output subscript
//!   is the identity (`y(i)` ← row `i`), the §2.3 linear-subscript variant
//!   applies: no inspector, no `iter` array.
//! * [`reordered::ReorderedSolver`] — the same executor claiming rows in
//!   the doconsider (wavefront-sorted) order (Table 1 column "Preprocessed
//!   Doacross Iterations Rearranged").
//!
//! On top of these, [`cached::EngineSolver`] routes solves through a
//! shared `doacross_engine::Engine`: per-structure execution plans
//! (cost-model selected variant + captured preprocessing) held in a
//! sharded concurrent LRU cache, so repeated solves — the
//! Krylov-iteration workload — skip preprocessing entirely, and one
//! solver instance serves concurrent solve threads through `&self`. It
//! is the only planned path; the solvers above pin one strategy each for
//! the Table 1 / Figure 6 comparisons.
//!
//! All three produce bit-identical results (same per-row reduction order),
//! which the test suites exploit.
//!
//! [`TriangularMatrix`]: doacross_sparse::TriangularMatrix

// Audit posture: every dereference inside an `unsafe fn` must name its
// own justification in an explicit `unsafe {}` block.
#![deny(unsafe_op_in_unsafe_fn)]
pub mod blocked_solver;
pub mod cached;
pub mod fig7;
pub mod plan;
pub mod precond;
pub mod reordered;
pub mod seq;
pub mod solver;
pub mod upper;
pub mod verify;

pub use blocked_solver::BlockedSolver;
pub use cached::EngineSolver;
pub use fig7::TriSolveLoop;
pub use plan::SolvePlan;
pub use precond::IluPreconditioner;
pub use reordered::ReorderedSolver;
pub use solver::DoacrossSolver;
pub use upper::{UpperSolveLoop, UpperSolver};
