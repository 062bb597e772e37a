//! Host calibration of the cost model.
//!
//! The [`CostModel::multimax`] preset encodes the paper's Encore
//! Multimax/320 overhead ratios. This module measures the *host's* actual
//! ratios — sequential per-term and per-iteration costs, the doacross
//! executor's per-term and per-iteration overheads, and the latency of the
//! joinable region a planned parallel solve opens — and assembles a [`CostModel`] in the same normalized
//! units (`seq_term = 1`). Simulating with a calibrated model answers
//! "what would this host look like with `p` processors", while the preset
//! answers "what did the paper's machine look like".
//!
//! Methodology: the dependence-free (odd-`L`) Figure 4 loop at two values
//! of `M` gives two linear equations in (per-iteration, per-term) costs
//! for both the sequential loop and the single-worker doacross; a
//! difference quotient separates the coefficients. All measurements are
//! best-of-`reps` to suppress scheduler noise.
//!
//! [`calibrate`] takes the timings and [`assemble`] turns them into the
//! model; [`host_calibration`] runs the pair once per process and is what
//! a default `Engine` plans with.

use crate::cost::CostModel;
use doacross_core::{
    seq::run_sequential, ClaimStream, Doacross, IndirectLoop, OperandClass, TestLoop,
};
use doacross_par::ThreadPool;
use std::sync::OnceLock;
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

/// Inner trip counts of the two Figure 4 loops every per-iteration
/// measurement is taken at; their difference quotient is the per-term cost.
const M_LO: usize = 1;
const M_HI: usize = 5;

/// Repetitions behind [`host_calibration`] — enough to suppress scheduler
/// noise without a perceptible pause.
pub const CALIBRATION_REPS: usize = 3;

/// The process-wide host calibration: [`calibrate`] run once, on first
/// use, and shared by every caller after that — the one place the host is
/// measured for planning. The first caller pays the measurement (about
/// ten milliseconds in a release build); concurrent first callers block
/// on the same run rather than starting their own.
pub fn host_calibration() -> &'static CalibratedModel {
    static HOST: OnceLock<CalibratedModel> = OnceLock::new();
    HOST.get_or_init(|| calibrate(CALIBRATION_REPS))
}

/// Measures the host and assembles a normalized [`CostModel`]: the timing
/// half; [`assemble`] is the arithmetic.
///
/// `reps` trades calibration time against noise (5–10 is plenty).
pub fn calibrate(reps: usize) -> CalibratedModel {
    let n = 20_000;
    let seq_lo = seq_ns_per_iter(n, M_LO, reps);
    let seq_hi = seq_ns_per_iter(n, M_HI, reps);

    let pool = ThreadPool::new(1);
    let par_lo = doacross_ns_per_iter(&pool, n, M_LO, reps);
    let par_hi = doacross_ns_per_iter(&pool, n, M_HI, reps);

    // The region a planned parallel solve pays: dynamic claims make it
    // joinable, so the dispatching thread runs worker 0's share itself and
    // waits only for helpers that joined in time. Timed on the two-worker
    // pool the level hand-off below runs on — a one-worker pool opens no
    // region worth the name.
    let two = ThreadPool::new(2);
    let dispatch_ns = {
        let t = best_of(reps, || {
            let start = Instant::now();
            two.run_joinable(|_| {});
            start.elapsed()
        });
        t.as_nanos() as f64
    };

    // Level hand-off, measured on the driver that performs it: a chain
    // (one iteration per level) run level-gated by `Doacross::run_planned`
    // on two workers, minus the same loop's sequential time, per level
    // boundary. Nothing forces the workers to alternate, exactly as
    // nothing does in a real solve: where they run side by side the
    // count's cache line changes hands between levels, where they are
    // time-sliced on one CPU whoever is running streams through alone, and
    // each host prices the boundary it will actually pay. Long enough that
    // the region's dispatch disappears in the quotient.
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
        let term_offsets: Vec<usize> = (0..=LEVELS).collect();
        let schedule = ClaimStream::from_levels(&levels, LEVELS, &term_offsets, classes)
            .expect("a chain's stream");
        let y0 = vec![1.0; LEVELS + 1];
        let body = best_of(reps, || {
            let mut y = y0.clone();
            let start = Instant::now();
            run_sequential(&chain, &mut y);
            let e = start.elapsed();
            std::hint::black_box(&y);
            e
        });
        let mut rt = Doacross::new(LEVELS + 1);
        let t = best_of(reps, || {
            let mut y = y0.clone();
            let start = Instant::now();
            rt.run_planned(&two, &chain, &mut y, &schedule, None, None)
                .expect("chain schedule");
            let e = start.elapsed();
            std::hint::black_box(&y);
            e
        });
        t.saturating_sub(body).as_nanos() as f64 / (LEVELS - 1) as f64
    };

    assemble(seq_lo, seq_hi, par_lo, par_hi, dispatch_ns, barrier_ns)
}

/// Smallest cost, in nanoseconds, any measured quantity is allowed to
/// assemble to: keeps every constant of the model positive when a
/// difference of two timings comes out zero or negative.
const FLOOR_NS: f64 = 0.1;

/// Turns [`calibrate`]'s raw timings into a normalized model. Pure: the
/// same six numbers give the same model, and whatever the numbers every
/// constant comes out finite and positive.
///
/// `seq_lo`/`seq_hi` are nanoseconds per iteration of the sequential
/// Figure 4 loop at `M = 1` and `M = 5`, `par_lo`/`par_hi` the same for
/// the single-worker doacross, `dispatch_ns` one empty joinable region on
/// two workers and
/// `barrier_ns` one wavefront level boundary.
///
/// Two floors tie the parallel costs to the sequential ones, because a
/// doacross iteration does everything a sequential one does and more: its
/// per-term cost is at least the sequential per-term cost (it adds the
/// dependency check), and its per-iteration overhead at least the
/// sequential per-iteration cost (it adds a claim and a publish). Without
/// the second, one inflated `par_hi` sample would push the whole
/// overhead into the per-term quotient and leave every parallel candidate
/// under-priced for as long as the model lives — the life of the process
/// behind [`host_calibration`].
///
/// The per-action split of the measured aggregates reuses the Multimax
/// preset's proportions — the aggregates are what the measurements can
/// actually separate; the split only affects how the simulator attributes
/// (not how much it charges).
pub fn assemble(
    seq_lo: f64,
    seq_hi: f64,
    par_lo: f64,
    par_hi: f64,
    dispatch_ns: f64,
    barrier_ns: f64,
) -> CalibratedModel {
    let (m_lo, dm) = (M_LO as f64, (M_HI - M_LO) as f64);
    let seq_term_ns = ((seq_hi - seq_lo) / dm).max(FLOOR_NS);
    let seq_iter_ns = (seq_lo - seq_term_ns * m_lo).max(FLOOR_NS);
    let par_term_ns = ((par_hi - par_lo) / dm).max(seq_term_ns);
    let overhead_ns = (par_lo - par_term_ns * m_lo).max(seq_iter_ns);

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
            region_dispatch: dispatch_ns.max(FLOOR_NS) / unit_ns,
            barrier: barrier_ns.max(FLOOR_NS) / unit_ns,
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
    fn assemble_floors_hostile_timings_into_a_valid_model() {
        // (seq_lo, seq_hi, par_lo, par_hi, dispatch_ns, barrier_ns): no
        // clock is read, so every case is exact and repeats.
        let hostile = [
            // One inflated `par_hi` sample: the quotient swallows the
            // whole overhead.
            (3.0, 7.0, 20.0, 4_000.0, 9_000.0, 70.0),
            // The doacross timed faster than the plain loop.
            (3.0, 7.0, 1.0, 2.0, 9_000.0, 70.0),
            // Nothing resolved by the clock at all.
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            // More terms timed faster than fewer, on both loops, and a
            // region dispatched in no time.
            (7.0, 3.0, 40.0, 20.0, 0.0, 70.0),
            // A level hand-off no dearer than the sequential chain.
            (3.0, 7.0, 20.0, 40.0, 9_000.0, 0.0),
        ];
        for case in hostile {
            let (seq_lo, seq_hi, par_lo, par_hi, dispatch_ns, barrier_ns) = case;
            let c = assemble(seq_lo, seq_hi, par_lo, par_hi, dispatch_ns, barrier_ns);
            let m = &c.model;
            // `StoredCalibration::is_valid`'s rule (that type lives in
            // `doacross-plan`, which depends on this crate).
            for v in [
                m.schedule_grab,
                m.iteration_setup,
                m.check,
                m.term,
                m.wait_poll,
                m.publish,
                m.inspect_per_iter,
                m.post_per_iter,
                m.region_dispatch,
                m.barrier,
                m.seq_iter,
                m.seq_term,
                c.unit_ns,
            ] {
                assert!(v.is_finite() && v > 0.0, "{case:?} -> {c:?}");
            }
            assert!(m.term + m.check >= 1.0 - 1e-9, "{case:?} -> {c:?}");
            assert!(
                m.overhead_per_iteration() >= m.seq_iter - 1e-9,
                "{case:?} -> {c:?}"
            );
            assert!(m.doall_efficiency(1) <= 1.0 + 1e-9, "{case:?} -> {c:?}");
        }
        // A well-behaved measurement passes through unfloored.
        let c = assemble(3.0, 7.0, 20.0, 31.0, 9_000.0, 70.0);
        assert_eq!(c.unit_ns, 1.0);
        assert_eq!(c.model.seq_iter, 2.0);
        assert!((c.model.term + c.model.check - 2.75).abs() < 1e-12);
        assert!((c.model.overhead_per_iteration() - 17.25).abs() < 1e-12);
        assert_eq!(c.model.region_dispatch, 9_000.0);
        assert_eq!(c.model.barrier, 70.0);
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
