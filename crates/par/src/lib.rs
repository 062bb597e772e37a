//! # doacross-par — parallel runtime substrate
//!
//! The building blocks underneath the preprocessed doacross runtime
//! (`doacross-core`): a fixed-size [`ThreadPool`] whose workers model the
//! paper's "processors", self-scheduled [`parallel_for`] loops in the style
//! of the Encore Multimax `parallel do`, the one busy-wait
//! ([`wait_until_guarded`]) for the executor's `while (ready(..) != DONE)`
//! loops, and [`SharedSlice`], the single audited `unsafe` abstraction
//! through which concurrently-executing loop iterations touch shared
//! arrays.
//!
//! The thread that encounters a region is processor 0 of it, as in
//! OpenMP's `taskloop`: a pool of `p` workers is the calling thread plus
//! `p − 1` helpers, and a one-worker region never leaves the caller's
//! thread. Every region of the runtime is *joinable*
//! ([`ThreadPool::run_joinable`]): helpers join while the caller's own
//! share runs, and nobody waits for a helper that was not there. Full
//! attendance ([`ThreadPool::run`], every worker id once) is kept for the
//! callers that need every worker present, such as a [`SpinBarrier`].
//!
//! The paper (Saltz & Mirchandaney, *The Preprocessed Doacross Loop*, ICPP
//! 1991) ran its `parallel do` loops on a 16-processor Encore Multimax/320
//! with self-scheduling: each processor repeatedly grabs the next unclaimed
//! iteration (or chunk of iterations) from a shared counter. That is the
//! one way work is claimed here ([`claim_chunks`]); only the chunk size
//! varies.
//!
//! ## Deadlock-freedom contract
//!
//! A doacross executor busy-waits for *earlier* iterations only (true
//! dependencies always point backwards in the iteration space — see
//! `doacross-core`). [`claim_chunks`] hands each worker its iterations in
//! increasing global order, whatever the chunk size, which makes any
//! backward-waiting loop deadlock-free: the lowest-numbered unexecuted
//! iteration is always at the front of some worker's remaining work, and by
//! definition none of its dependencies are pending. When the machine is
//! oversubscribed (more workers than hardware threads) the waiting side must
//! yield the CPU so the writer can run, which the one wait does every 128
//! polls.
//!
//! That contract holds only while every iteration runs to completion. A
//! worker that *panics* mid-region never publishes the flags (or never
//! counts the iterations) its siblings wait on — so every wait site goes
//! through the fault-aware [`wait_until_guarded`], which polls the
//! region's [`RegionPoison`] word and unwinds cooperatively, turning a
//! would-be deadlock into a finite drain and a typed [`RegionFault`] panic
//! from the region's dispatcher.
//! The same poll sites enforce an optional region deadline
//! ([`ThreadPool::set_deadline`]). See [`poison`] for the full protocol.

// Audit posture: every dereference inside an `unsafe fn` must name its
// own justification in an explicit `unsafe {}` block.
#![deny(unsafe_op_in_unsafe_fn)]
pub mod parallel;
pub mod poison;
pub mod pool;
pub mod schedule;
pub mod shared;
pub mod sync;
pub mod wait;

pub use parallel::parallel_for;
pub use poison::{abort_region, RegionFault, RegionPoison, WaitAbort};
pub use pool::ThreadPool;
pub use schedule::claim_chunks;
pub use shared::SharedSlice;
pub use sync::{CachePadded, SpinBarrier};
pub use wait::{wait_until_guarded, wait_until_guarded_timed};
