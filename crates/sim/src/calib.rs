//! Host calibration of the cost model.
//!
//! The [`CostModel::multimax`] preset encodes the paper's Encore
//! Multimax/320 overhead ratios. This module measures the *host's* actual
//! ratios — sequential per-term and per-iteration costs, the doacross
//! executor's per-term and per-iteration overheads, and the pool's region
//! dispatch latency — and assembles a [`CostModel`] in the same normalized
//! units (`seq_term = 1`). Simulating with a calibrated model answers
//! "what would this host look like with `p` processors", while the preset
//! answers "what did the paper's machine look like".
//!
//! Methodology: the dependence-free (odd-`L`) Figure 4 loop at two values
//! of `M` gives two linear equations in (per-iteration, per-term) costs
//! for both the sequential loop and the single-worker doacross; a
//! difference quotient separates the coefficients. All measurements are
//! best-of-`reps` to suppress scheduler noise.

use crate::cost::CostModel;
use doacross_core::{
    seq::run_sequential, Doacross, IndirectLoop, LevelSchedule, OperandClass, TestLoop,
};
use doacross_par::ThreadPool;
use std::time::{Duration, Instant};

/// A host-derived cost model plus the physical meaning of its unit.
#[derive(Debug, Clone)]
pub struct CalibratedModel {
    /// Costs normalized so `seq_term == 1.0`.
    pub model: CostModel,
    /// Nanoseconds per cost unit on the measured host.
    pub unit_ns: f64,
}

fn best_of<F: FnMut() -> Duration>(reps: usize, mut f: F) -> Duration {
    (0..reps.max(1)).map(|_| f()).min().expect("reps >= 1")
}

/// Per-iteration nanoseconds of the sequential Figure 4 loop at inner trip
/// count `m` (odd `L` so the loop is dependence-free).
fn seq_ns_per_iter(n: usize, m: usize, reps: usize) -> f64 {
    let loop_ = TestLoop::new(n, m, 7);
    let y0 = loop_.initial_y();
    let t = best_of(reps, || {
        let mut y = y0.clone();
        let start = Instant::now();
        run_sequential(&loop_, &mut y);
        let e = start.elapsed();
        std::hint::black_box(&y);
        e
    });
    t.as_nanos() as f64 / n as f64
}

/// Per-iteration nanoseconds of the full single-worker preprocessed
/// doacross (inspector + executor + postprocessor) at inner trip count `m`.
fn doacross_ns_per_iter(pool: &ThreadPool, n: usize, m: usize, reps: usize) -> f64 {
    let loop_ = TestLoop::new(n, m, 7);
    let y0 = loop_.initial_y();
    let mut rt = Doacross::for_loop(&loop_);
    rt.config_mut().validate_terms = false;
    let t = best_of(reps, || {
        let mut y = y0.clone();
        let start = Instant::now();
        rt.run(pool, &loop_, &mut y).expect("doall test loop");
        let e = start.elapsed();
        std::hint::black_box(&y);
        e
    });
    t.as_nanos() as f64 / n as f64
}

/// Measures the host and assembles a normalized [`CostModel`].
///
/// `reps` trades calibration time against noise (5–10 is plenty). The
/// per-action split of the measured aggregate overhead reuses the Multimax
/// preset's proportions — the aggregates are what the measurements can
/// actually separate; the split only affects how the simulator attributes
/// (not how much it charges).
pub fn calibrate(reps: usize) -> CalibratedModel {
    let n = 20_000;
    let (m_lo, m_hi) = (1usize, 5usize);
    let dm = (m_hi - m_lo) as f64;

    let seq_lo = seq_ns_per_iter(n, m_lo, reps);
    let seq_hi = seq_ns_per_iter(n, m_hi, reps);
    let seq_term_ns = ((seq_hi - seq_lo) / dm).max(0.1);
    let seq_iter_ns = (seq_lo - seq_term_ns * m_lo as f64).max(0.1);

    let pool = ThreadPool::new(1);
    let par_lo = doacross_ns_per_iter(&pool, n, m_lo, reps);
    let par_hi = doacross_ns_per_iter(&pool, n, m_hi, reps);
    let par_term_ns = ((par_hi - par_lo) / dm).max(seq_term_ns);
    let overhead_ns = (par_lo - par_term_ns * m_lo as f64).max(0.1);

    let dispatch_ns = {
        let t = best_of(reps, || {
            let start = Instant::now();
            pool.run(|_| {});
            start.elapsed()
        });
        t.as_nanos() as f64
    };

    // Level hand-off, measured on the executor that performs it: a chain
    // (one iteration per level) run by `Doacross::run_wavefront` on two
    // workers, minus the same loop's sequential time, per level boundary. Nothing
    // forces the workers to alternate, exactly as nothing does in a real
    // solve: where they run side by side the count's cache line changes
    // hands between levels, where they are time-sliced on one CPU whoever
    // is running streams through alone, and each host prices the boundary
    // it will actually pay. Long enough that the region's dispatch
    // disappears in the quotient.
    let barrier_ns = {
        const LEVELS: usize = 16_384;
        let a: Vec<usize> = (1..=LEVELS).collect();
        let rhs: Vec<Vec<usize>> = (0..LEVELS).map(|i| vec![i]).collect();
        let chain = IndirectLoop::new(LEVELS + 1, a, rhs, vec![vec![1.0]; LEVELS])
            .expect("a chain is a valid loop");
        // level(i) = i + 1; every reference is a true dependency except
        // iteration 0's read of the never-written y[0].
        let levels: Vec<usize> = (1..=LEVELS).collect();
        let mut classes = vec![OperandClass::NewValue as u8; LEVELS];
        classes[0] = OperandClass::OldValue as u8;
        let schedule = LevelSchedule::from_levels(&levels, LEVELS, (0..=LEVELS).collect(), classes);
        let y0 = vec![1.0; LEVELS + 1];
        let body = best_of(reps, || {
            let mut y = y0.clone();
            let start = Instant::now();
            run_sequential(&chain, &mut y);
            let e = start.elapsed();
            std::hint::black_box(&y);
            e
        });
        let two = ThreadPool::new(2);
        let mut rt = Doacross::new(LEVELS + 1);
        let t = best_of(reps, || {
            let mut y = y0.clone();
            let start = Instant::now();
            rt.run_wavefront(&two, &chain, &mut y, &schedule, None, None)
                .expect("chain schedule");
            let e = start.elapsed();
            std::hint::black_box(&y);
            e
        });
        (t.saturating_sub(body).as_nanos() as f64 / (LEVELS - 1) as f64).max(0.1)
    };

    // Normalize: one unit = one sequential term.
    let unit_ns = seq_term_ns;
    let seq_iter = seq_iter_ns / unit_ns;
    let per_term = par_term_ns / unit_ns; // term + check combined
    let overhead = overhead_ns / unit_ns; // grab+setup+publish+pre+post

    // Attribute aggregates using the preset's proportions.
    let preset = CostModel::multimax();
    let preset_term_total = preset.term + preset.check;
    let preset_overhead = preset.overhead_per_iteration();
    CalibratedModel {
        model: CostModel {
            schedule_grab: overhead * preset.schedule_grab / preset_overhead,
            iteration_setup: overhead * preset.iteration_setup / preset_overhead,
            check: per_term * preset.check / preset_term_total,
            term: per_term * preset.term / preset_term_total,
            wait_poll: per_term * 0.2,
            publish: overhead * preset.publish / preset_overhead,
            inspect_per_iter: overhead * preset.inspect_per_iter / preset_overhead,
            post_per_iter: overhead * preset.post_per_iter / preset_overhead,
            region_dispatch: dispatch_ns / unit_ns,
            barrier: barrier_ns / unit_ns,
            seq_iter,
            seq_term: 1.0,
        },
        unit_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_a_physical_model() {
        let c = calibrate(3);
        let m = &c.model;
        assert!(c.unit_ns > 0.0);
        for (name, v) in [
            ("schedule_grab", m.schedule_grab),
            ("iteration_setup", m.iteration_setup),
            ("check", m.check),
            ("term", m.term),
            ("publish", m.publish),
            ("inspect_per_iter", m.inspect_per_iter),
            ("post_per_iter", m.post_per_iter),
            ("region_dispatch", m.region_dispatch),
            ("barrier", m.barrier),
            ("seq_iter", m.seq_iter),
        ] {
            assert!(v > 0.0, "{name} = {v}");
        }
        assert_eq!(m.seq_term, 1.0, "normalization anchor");
        // The doacross must cost at least as much per term as the plain
        // loop (it adds the dependency check).
        assert!(m.term + m.check >= 1.0 - 1e-9);
        // Dependence-free efficiency is a proper fraction.
        let eff = m.doall_efficiency(1);
        assert!(eff > 0.0 && eff < 1.0, "eff = {eff}");
    }

    #[test]
    fn calibrated_machine_simulates() {
        use crate::machine::{Machine, SimOptions};
        use doacross_core::TestLoop;
        let c = calibrate(2);
        let machine = Machine {
            processors: 16,
            costs: c.model,
        };
        let r = machine.simulate_doacross(&TestLoop::new(2_000, 1, 7), None, SimOptions::default());
        assert!(r.efficiency > 0.0 && r.efficiency <= 1.0);
    }
}
