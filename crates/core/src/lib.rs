//! # doacross-core — the preprocessed doacross loop
//!
//! A faithful, production-grade Rust implementation of
//!
//! > Joel H. Saltz and Ravi Mirchandaney, *The Preprocessed Doacross Loop*,
//! > ICASE Interim Report 11 / NASA CR-182056 (May 1990); ICPP 1991.
//!
//! ## The problem
//!
//! A loop such as (paper Figure 1)
//!
//! ```fortran
//! do i = 1, N
//!     y(a(i)) = ... y(b(i)) ...
//! end do
//! ```
//!
//! has cross-iteration dependencies determined by the *runtime contents* of
//! the index arrays `a` and `b`. A compiler cannot emit an ordinary doacross
//! (which needs dependence distances at compile time), and a conservative
//! sequential execution wastes all available parallelism.
//!
//! ## The preprocessed doacross
//!
//! The paper's answer is an inspector/executor construct with three fully
//! parallel phases, all implemented here:
//!
//! 1. **Inspector** ([`inspector`]): `iter(a(i)) = i` for every iteration,
//!    every other element `MAXINT` (paper Figure 3, left).
//! 2. **Executor** ([`executor`]): a doacross in which iteration `i` writes
//!    the shadow array `ynew(a(i))` and resolves every right-hand-side
//!    reference `y(off)` with the three-way check of Figure 5:
//!    `iter(off) < i` → busy-wait on `ready(off)` then read `ynew(off)`
//!    (true dependency, statements S3–S5); `iter(off) > i` → read the old
//!    `y(off)` (antidependency or never written, S6–S7); `iter(off) == i` →
//!    read the iteration's own accumulator (intra-iteration, S8).
//! 3. **Postprocessor** ([`post`]): resets `iter`/`ready` and copies
//!    `ynew(a(i))` back into `y(a(i))` (Figure 3, right), so one set of
//!    scratch arrays serves arbitrarily many loop instances.
//!
//! The §2.3 variants are implemented as well: the strip-mined / blocked
//! doacross ([`blocked`]) and the linear-subscript executor that eliminates
//! the inspector when `a(i) = c·i + d` ([`linear`]).
//!
//! ## One runtime
//!
//! [`Doacross`] is the only runtime struct. It owns one grow-don't-shrink
//! scratch — `iter`, `ready`, `ynew`, the level cells, the per-worker
//! counters — and has one entry point per way of running a loop:
//! [`Doacross::run`] / [`Doacross::run_with_order`] (inspector inline),
//! [`Doacross::run_planned`] (a prebuilt [`ClaimStream`]),
//! [`Doacross::run_linear`] and [`Doacross::run_blocked`]. Every one of
//! them copies its results back into `y` before it returns; after warm-up
//! none allocates. That is §2.1's "we reuse the same arrays iter and ready
//! for multiple preprocessed doacross loops", extended across the
//! variants.
//!
//! ## One driver, two gates: per-element flags vs. per-level counts
//!
//! Every entry point runs its iterations through one region driver
//! ([`executor`]): one claim loop, one reference loop, one fault poll,
//! one copy-back. What differs is the *gate* a true dependence meets, a
//! type parameter that brackets the synchronization design space:
//!
//! * **flags** synchronize per element — a reader busy-waits on
//!   `ready(off)` exactly where a true dependency bites, and independent
//!   iterations never wait. Best when dependencies are sparse or the
//!   wavefronts are narrow (few iterations per level): the only overhead
//!   is where the structure demands it. The flat doacross is the one-level
//!   case.
//! * **levels** synchronize per *level* — iterations are grouped by
//!   dependence level at preprocessing time and each level runs as a doall
//!   that is complete when its iterations are counted (no barrier: nobody
//!   waits for a worker that holds no work), with **zero** ready-flag
//!   traffic inside a level. Best when the poll/stall bill dominates (many
//!   true dependencies, deep structures, contended flags): the per-element
//!   cost disappears and the price is one counter hand-off per level. A
//!   planned run takes this gate when its stream carries level offsets
//!   ([`wavefront`]).
//!
//! Either way a solve is one pool region, which the solving thread runs as
//! worker 0 and helpers join while it does (`ThreadPool::run_joinable`).
//! Every worker present claims iterations off a shared counter, one per
//! claim on the inspected entry points and the plan's claim grain on a
//! planned one, and the postprocessor's copy-back runs behind the last
//! level's count, claimed in chunks by whoever is present. And
//! either way a *planned* solve reads where each operand comes from off
//! one artifact, the plan's [`ClaimStream`] — claim order, per-claim
//! reference ends and one [`OperandClass`] byte per reference, laid out in
//! claim order (plus level offsets for the wavefront) — instead of
//! re-deriving Figure 5's `iter(off) − i` from a writer map per run.
//!
//! The `doacross-plan` cost model prices both and picks the crossover
//! automatically ([`stats::RunStats::wait_polls`] makes the trade
//! observable: level-gated runs report exactly zero).
//!
//! ## Quick start
//!
//! ```
//! use doacross_core::{Doacross, IndirectLoop};
//! use doacross_par::ThreadPool;
//!
//! // y[a[i]] = y[a[i]] + 0.5 * y[b[i]]  with runtime-determined a, b.
//! let a = vec![2, 0, 3, 1, 4];
//! let b = vec![0, 3, 1, 4, 2];
//! let coeff = vec![vec![0.5]; 5];
//! let rhs: Vec<Vec<usize>> = b.iter().map(|&e| vec![e]).collect();
//! let loop_ = IndirectLoop::new(5, a, rhs, coeff).unwrap();
//!
//! let pool = ThreadPool::new(2);
//! let mut y: Vec<f64> = (0..5).map(|i| i as f64).collect();
//! let mut oracle = y.clone();
//!
//! let mut runtime = Doacross::for_loop(&loop_);
//! let stats = runtime.run(&pool, &loop_, &mut y).unwrap();
//! doacross_core::seq::run_sequential(&loop_, &mut oracle);
//!
//! assert_eq!(y, oracle);
//! assert_eq!(stats.iterations, 5);
//! ```

// Audit posture: every dereference inside an `unsafe fn` must name its
// own justification in an explicit `unsafe {}` block.
#![deny(unsafe_op_in_unsafe_fn)]
pub mod alloc;
pub mod blocked;
mod completion;
pub mod error;
pub mod executor;
pub mod flags;
pub mod inspector;
pub mod linear;
pub mod oracle;
pub mod pattern;
pub mod post;
pub mod runtime;
pub mod seq;
pub mod stats;
pub mod testloop;
pub mod wavefront;

pub use error::DoacrossError;
pub use flags::{IterMap, ReadyFlags, MAXINT};
pub use linear::LinearSubscript;
pub use oracle::{ByWriter, Claims, InspectedWriter, LinearWriter, WriterOracle};
pub use pattern::{AccessPattern, DoacrossLoop, IndirectLoop};
pub use runtime::{Doacross, DoacrossConfig};
pub use stats::{DepCounts, PlanProvenance, RunStats};
pub use testloop::{DependencyCensus, TestLoop};
pub use wavefront::{claim_grain, ClaimStream, OperandClass};
