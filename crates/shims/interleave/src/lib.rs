//! Offline loom-style interleaving checker for the workspace's
//! synchronization primitives.
//!
//! The doacross executor's correctness hangs on a handful of hand-rolled
//! release/acquire protocols: the per-element ready flags (`par::wait`),
//! the sense-reversing wavefront barrier (`par::sync::SpinBarrier`), and
//! the scheduler's CAS free-pool bitmask (`doacross-sched`). Ordinary unit
//! tests only ever see the interleavings the host happens to produce; this
//! crate model-checks the *algorithms* across schedules.
//!
//! A model is a setup closure (builds the shared state from this crate's
//! shim types) plus one closure per thread. [`check`] runs the model under
//! a cooperative scheduler — real OS threads, but only one runs at a time,
//! and every shim operation is a decision point — and explores schedules by
//! exhaustive depth-first replay; [`check_random`] explores a seeded sample
//! instead, for models whose state space is too large to exhaust.
//!
//! The shim types ([`AtomicU64`], [`AtomicUsize`], [`AtomicBool`],
//! [`Shared`], [`spin_until`]) mirror the `std::sync::atomic` API but
//! track vector clocks: release stores publish the writer's clock, acquire
//! loads join it, and every [`Shared`] access is checked for ordering
//! against prior accesses — an unordered pair is reported as
//! [`FailureKind::Race`]. Blocking polls ([`spin_until`]) park the thread
//! until some atomic write lands, which lets the scheduler prove
//! [`FailureKind::Deadlock`] instead of hanging. Model assertion failures
//! surface as [`FailureKind::Panic`]; runaway models as
//! [`FailureKind::StepLimit`]. Every failure carries the granted-thread
//! schedule that produced it as a replayable counterexample.
//!
//! ```
//! use interleave::{check, Config, AtomicU64, Ordering, Shared, spin_until};
//!
//! struct Model {
//!     data: Shared<u64>,
//!     flag: AtomicU64,
//! }
//!
//! let report = check(
//!     &Config::default(),
//!     || Model { data: Shared::named("data", 0), flag: AtomicU64::new(0) },
//!     &[
//!         &|m: &Model| {
//!             m.data.write(42);
//!             m.flag.store(1, Ordering::Release);
//!         },
//!         &|m: &Model| {
//!             spin_until(|| m.flag.load(Ordering::Acquire) == 1);
//!             assert_eq!(m.data.read(), 42);
//!         },
//!     ],
//! )
//! .expect("the release/acquire handoff is sound");
//! assert!(report.exhaustive);
//! ```
//!
//! This is an offline shim: no external dependency, `std` only. It checks
//! models of the primitives (the algorithms restated in shim types), not
//! the primitives' production code itself — the model tests under
//! `crates/par/tests` and `crates/sched/tests` keep the two in sync.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod exec;
mod sync;

pub use std::sync::atomic::Ordering;
pub use sync::{spin_until, AtomicBool, AtomicU64, AtomicUsize, Shared};

use exec::{Abort, Drive, Exec};
use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

thread_local! {
    static CTX: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
}

/// The checked-execution context of the calling thread, if it is a model
/// thread inside [`check`] / [`check_random`].
pub(crate) fn with_ctx() -> Option<(Arc<Exec>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// Exploration limits and the random seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// Abort an execution (as [`FailureKind::StepLimit`]) after this many
    /// decision points — a backstop against unbounded models.
    pub max_steps: u64,
    /// Stop DFS exploration (non-exhaustively) after this many executions.
    pub max_executions: u64,
    /// Number of executions [`check_random`] samples.
    pub random_iterations: u64,
    /// Seed for the random exploration; a fixed seed keeps CI
    /// deterministic.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_steps: 20_000,
            max_executions: 50_000,
            random_iterations: 2_000,
            seed: 0x5EED_CAFE,
        }
    }
}

/// Why a model failed under some schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// A model thread panicked (an assertion in the model fired).
    Panic {
        /// Index of the panicking thread.
        thread: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// Every live thread was blocked with nothing left to wake it.
    Deadlock {
        /// Indices of the threads parked in [`spin_until`].
        blocked: Vec<usize>,
    },
    /// Two accesses to a [`Shared`] cell were not ordered by
    /// happens-before.
    Race {
        /// Human-readable description naming the cell and the threads.
        what: String,
    },
    /// The execution exceeded [`Config::max_steps`] decision points.
    StepLimit {
        /// Steps taken when the limit tripped.
        steps: u64,
    },
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic { thread, message } => {
                write!(f, "thread {thread} panicked: {message}")
            }
            FailureKind::Deadlock { blocked } => {
                write!(
                    f,
                    "deadlock: threads {blocked:?} blocked with no possible wakeup"
                )
            }
            FailureKind::Race { what } => write!(f, "data race: {what}"),
            FailureKind::StepLimit { steps } => {
                write!(f, "step limit exceeded after {steps} decision points")
            }
        }
    }
}

/// A failing schedule: the kind of failure plus the counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// What went wrong.
    pub kind: FailureKind,
    /// The granted-thread schedule that produced the failure, in order —
    /// a replayable counterexample (model code must be deterministic).
    pub schedule: Vec<usize>,
    /// How many executions ran before the failure was found.
    pub executions: u64,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (execution {}, schedule {:?})",
            self.kind, self.executions, self.schedule
        )
    }
}

impl std::error::Error for Failure {}

/// A clean exploration: how much of the schedule space was covered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Report {
    /// Executions explored.
    pub executions: u64,
    /// `true` when the DFS exhausted every schedule (within
    /// [`Config::max_executions`]); random exploration never sets this.
    pub exhaustive: bool,
}

/// Runs one controlled execution with the given decision function.
fn run_once<S: Sync>(
    max_steps: u64,
    setup: &mut dyn FnMut() -> S,
    threads: &[&(dyn Fn(&S) + Sync)],
    decide: &mut dyn FnMut(usize, usize) -> usize,
) -> Drive {
    let state = setup();
    let exec = Exec::new(threads.len());
    std::thread::scope(|scope| {
        for (tid, body) in threads.iter().enumerate() {
            let exec = Arc::clone(&exec);
            let state = &state;
            scope.spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
                let result = catch_unwind(AssertUnwindSafe(|| body(state)));
                CTX.with(|c| *c.borrow_mut() = None);
                match result {
                    Ok(()) => exec.finish(tid, None),
                    Err(payload) => {
                        if payload.downcast_ref::<Abort>().is_some() {
                            exec.finish(tid, None);
                        } else {
                            let message = payload
                                .downcast_ref::<&'static str>()
                                .map(|s| (*s).to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".to_string());
                            exec.finish(tid, Some(message));
                        }
                    }
                }
            });
        }
        exec.drive(max_steps, decide)
    })
}

/// Exhaustively explores every schedule of the model by depth-first
/// replay, up to [`Config::max_executions`].
///
/// `setup` builds fresh shared state for each execution; `threads` holds
/// one closure per model thread. Returns the first failing schedule found,
/// or a [`Report`] saying whether the space was exhausted. Model closures
/// must be deterministic given the schedule (no wall clock, no OS
/// randomness) — replay depends on it.
pub fn check<S: Sync>(
    cfg: &Config,
    mut setup: impl FnMut() -> S,
    threads: &[&(dyn Fn(&S) + Sync)],
) -> Result<Report, Failure> {
    assert!(!threads.is_empty(), "a model needs at least one thread");
    let mut prefix: Vec<usize> = Vec::new();
    let mut executions: u64 = 0;
    loop {
        executions += 1;
        let drive = run_once(cfg.max_steps, &mut setup, threads, &mut |k, _width| {
            prefix.get(k).copied().unwrap_or(0)
        });
        if let Some(kind) = drive.failure {
            return Err(Failure {
                kind,
                schedule: drive.granted,
                executions,
            });
        }
        // Backtrack: bump the deepest decision that still has an untried
        // branch; exploration is exhausted when none remains.
        let mut depth = drive.choices.len();
        let next = loop {
            if depth == 0 {
                break None;
            }
            depth -= 1;
            if drive.choices[depth] + 1 < drive.widths[depth] {
                let mut p = drive.choices[..depth].to_vec();
                p.push(drive.choices[depth] + 1);
                break Some(p);
            }
        };
        match next {
            None => {
                return Ok(Report {
                    executions,
                    exhaustive: true,
                })
            }
            Some(p) => prefix = p,
        }
        if executions >= cfg.max_executions {
            return Ok(Report {
                executions,
                exhaustive: false,
            });
        }
    }
}

/// Explores [`Config::random_iterations`] schedules drawn from a seeded
/// generator — for models whose schedule space is too large for [`check`].
///
/// Deterministic for a fixed [`Config::seed`].
pub fn check_random<S: Sync>(
    cfg: &Config,
    mut setup: impl FnMut() -> S,
    threads: &[&(dyn Fn(&S) + Sync)],
) -> Result<Report, Failure> {
    assert!(!threads.is_empty(), "a model needs at least one thread");
    for iteration in 0..cfg.random_iterations {
        let mut rng =
            splitmix(cfg.seed ^ (iteration.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let drive = run_once(cfg.max_steps, &mut setup, threads, &mut |_k, width| {
            (xorshift(&mut rng) % width as u64) as usize
        });
        if let Some(kind) = drive.failure {
            return Err(Failure {
                kind,
                schedule: drive.granted,
                executions: iteration + 1,
            });
        }
    }
    Ok(Report {
        executions: cfg.random_iterations,
        exhaustive: false,
    })
}

/// One splitmix64 round, used to whiten the per-iteration seed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) | 1
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Handoff {
        data: Shared<u64>,
        flag: AtomicU64,
    }

    fn handoff() -> Handoff {
        Handoff {
            data: Shared::named("payload", 0),
            flag: AtomicU64::new(0),
        }
    }

    #[test]
    fn release_acquire_handoff_is_exhaustively_sound() {
        let report = check(
            &Config::default(),
            handoff,
            &[
                &|m: &Handoff| {
                    m.data.write(7);
                    m.flag.store(1, Ordering::Release);
                },
                &|m: &Handoff| {
                    spin_until(|| m.flag.load(Ordering::Acquire) == 1);
                    assert_eq!(m.data.read(), 7);
                },
            ],
        )
        .expect("sound protocol");
        assert!(report.exhaustive);
        assert!(report.executions > 1, "must have explored real branching");
    }

    #[test]
    fn relaxed_publish_is_reported_as_a_race() {
        let failure = check(
            &Config::default(),
            handoff,
            &[
                &|m: &Handoff| {
                    m.data.write(7);
                    m.flag.store(1, Ordering::Relaxed);
                },
                &|m: &Handoff| {
                    spin_until(|| m.flag.load(Ordering::Acquire) == 1);
                    let _ = m.data.read();
                },
            ],
        )
        .expect_err("relaxed publication must race");
        assert!(
            matches!(&failure.kind, FailureKind::Race { what } if what.contains("payload")),
            "{failure}"
        );
        assert!(!failure.schedule.is_empty());
    }

    #[test]
    fn dropped_store_is_reported_as_deadlock() {
        let failure = check(
            &Config::default(),
            handoff,
            &[
                &|m: &Handoff| {
                    m.data.write(7);
                    // Flag store dropped: the reader can never proceed.
                },
                &|m: &Handoff| {
                    spin_until(|| m.flag.load(Ordering::Acquire) == 1);
                },
            ],
        )
        .expect_err("a waiter with no signaller must deadlock");
        assert!(
            matches!(&failure.kind, FailureKind::Deadlock { blocked } if blocked == &[1]),
            "{failure}"
        );
    }

    #[test]
    fn model_assertions_surface_as_panic_failures() {
        let failure = check(
            &Config::default(),
            || AtomicU64::new(0),
            &[&|a: &AtomicU64| {
                a.store(3, Ordering::Release);
                assert_eq!(a.load(Ordering::Acquire), 4, "deliberate model bug");
            }],
        )
        .expect_err("the assertion must fire");
        assert!(
            matches!(&failure.kind, FailureKind::Panic { thread: 0, message } if message.contains("deliberate model bug")),
            "{failure}"
        );
    }

    #[test]
    fn unbounded_models_hit_the_step_limit() {
        let cfg = Config {
            max_steps: 64,
            ..Config::default()
        };
        let failure = check(
            &cfg,
            || AtomicU64::new(0),
            &[&|a: &AtomicU64| loop {
                a.fetch_add(1, Ordering::Relaxed);
            }],
        )
        .expect_err("an infinite model must trip the backstop");
        assert!(
            matches!(failure.kind, FailureKind::StepLimit { steps } if steps >= 64),
            "{failure}"
        );
    }

    #[test]
    fn random_exploration_finds_the_same_race() {
        let failure = check_random(
            &Config::default(),
            handoff,
            &[
                &|m: &Handoff| {
                    m.data.write(7);
                    m.flag.store(1, Ordering::Relaxed);
                },
                &|m: &Handoff| {
                    spin_until(|| m.flag.load(Ordering::Acquire) == 1);
                    let _ = m.data.read();
                },
            ],
        )
        .expect_err("random exploration must find the race");
        assert!(
            matches!(failure.kind, FailureKind::Race { .. }),
            "{failure}"
        );
    }

    #[test]
    fn cas_loop_claims_exclusively() {
        // Two threads CAS-claim the same bit; the loser must observe the
        // claim and not touch the slot. Exhaustive over all schedules.
        struct M {
            mask: AtomicU64,
            slot: Shared<u64>,
        }
        let claim = |m: &M| {
            if m.mask
                .compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                m.slot.with_mut(|v| *v += 1);
                m.mask.fetch_or(1, Ordering::Release);
            }
        };
        let report = check(
            &Config::default(),
            || M {
                mask: AtomicU64::new(1),
                slot: Shared::named("slot", 0),
            },
            &[&claim, &claim],
        )
        .expect("CAS claim is exclusive");
        assert!(report.exhaustive);
    }

    #[test]
    fn shims_degrade_to_plain_operations_outside_a_checked_execution() {
        let a = AtomicU64::new(1);
        assert_eq!(a.fetch_add(2, Ordering::SeqCst), 1);
        assert_eq!(a.load(Ordering::SeqCst), 3);
        assert_eq!(
            a.compare_exchange(3, 9, Ordering::SeqCst, Ordering::SeqCst),
            Ok(3)
        );
        let b = AtomicBool::new(false);
        b.store(true, Ordering::Release);
        assert!(b.load(Ordering::Acquire));
        let u = AtomicUsize::new(5);
        assert_eq!(u.fetch_add(1, Ordering::Relaxed), 5);
        let s = Shared::named("shared", 10u64);
        s.write(11);
        assert_eq!(s.read(), 11);
        let mut polled = false;
        spin_until(|| {
            polled = true;
            true
        });
        assert!(polled);
    }

    #[test]
    fn failure_display_names_the_schedule() {
        let failure = Failure {
            kind: FailureKind::Deadlock { blocked: vec![1] },
            schedule: vec![0, 0, 1],
            executions: 3,
        };
        let text = failure.to_string();
        assert!(text.contains("deadlock"), "{text}");
        assert!(text.contains("[0, 0, 1]"), "{text}");
    }
}
