//! # doacross-sim — deterministic multiprocessor simulator
//!
//! The paper's measurements were taken on a 16-processor Encore
//! Multimax/320 (13 MHz APC/02 boards). This workspace runs on whatever
//! host executes the tests — typically with far fewer cores — so absolute
//! 16-way timings cannot be measured directly. This crate substitutes a
//! **discrete-event model of the machine**: `p` equal-speed processors
//! self-scheduling a doacross loop's iterations, with a calibrated
//! [`CostModel`] for every runtime action the construct performs
//! (claiming an iteration, the per-reference dependency check, busy-wait
//! stalls, flag publication, inspector/postprocessor sweeps).
//!
//! Why the substitution preserves the paper's claims: every Figure 6 /
//! Table 1 number is a *schedule* property — who waits for whom, for how
//! long, and how much bookkeeping surrounds the real work. The simulator
//! executes the exact iteration-level schedule the real runtime produces
//! (same self-scheduled claim order, same true-dependency stalls) and
//! derives time from it deterministically; the host-thread runtime
//! (`doacross-core`) validates functional correctness and qualitative
//! behaviour at host scale, while the simulator extrapolates to the
//! paper's 16 processors.
//!
//! ```
//! use doacross_core::TestLoop;
//! use doacross_sim::Machine;
//!
//! let machine = Machine::multimax(); // 16 processors, calibrated costs
//! let loop_ = TestLoop::new(10_000, 1, 7); // odd L: no dependencies
//! let result = machine.simulate_doacross(&loop_, None, Default::default());
//! // The paper's odd-L, M=1 efficiency plateau is ≈ 0.33.
//! assert!((result.efficiency - 0.33).abs() < 0.05);
//! ```

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
pub mod calib;
pub mod cost;
pub mod machine;
pub mod result;

pub use calib::{calibrate, host_calibration, CalibratedModel};
pub use cost::{CostModel, ObservedConstants};
pub use machine::{Machine, SimOptions};
pub use result::SimResult;
