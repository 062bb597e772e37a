//! [`PlanExecutor`] — variant dispatch for prebuilt plans.
//!
//! [`PlanExecutor`] owns one [`Doacross`] runtime — one scratch for every
//! variant — and executes any [`ExecutionPlan`] against a loop: sequential,
//! flat doacross (natural or doconsider-reordered claims) and
//! level-scheduled off the plan's one claim stream, linear-subscript, or
//! strip-mined. It is the
//! execution half of the thread-safe `doacross_engine::Engine`, which
//! keeps one executor per scheduler sub-pool so concurrent callers each
//! run on private scratch. The flat variants report `inspector == 0`; a
//! [`PlanVariant::Blocked`] plan is the one exception — strip-mined
//! execution re-inspects per block by construction (§2.3 reuses one
//! windowed scratch allocation across blocks), so a cached blocked plan
//! skips the planning but keeps its per-block inspector time.
//!
//! Plan-driven runs skip per-run validation (the plan already proved the
//! structure in-bounds, injective where required, and its order
//! topological; the fingerprint key guarantees the structure has not
//! changed) — the executor's release-mode bounds asserts remain as the
//! final defense, and a loop whose reference counts differ from the
//! stream's is a typed error before dispatch.
//!
//! ## Claim grain
//!
//! How many claim slots a worker takes per grab of the shared counter is
//! derived here, per solve, from what the plan knows and the pool it runs
//! on — [`claim_grain`]`(hint, pool.threads())` — stored nowhere and
//! settable nowhere. The hint is how many consecutive slots are expected
//! to be independent: the level-sorted order's average parallelism for
//! `Reordered`, the minimum true-dependence distance for the natural order
//! (so a distance-1 loop keeps the paper's one-iteration claims). The
//! wavefront passes no grain, and [`Doacross::run_planned`] takes each
//! level's own width as its hint.

use crate::plan::{ExecutionPlan, PlanVariant};
use doacross_core::{
    claim_grain, seq::run_sequential, Doacross, DoacrossConfig, DoacrossError, DoacrossLoop,
    PlanProvenance, RunStats,
};
use doacross_obs::profile::{ProfArena, SpanKind, NO_LEVEL};
use doacross_par::ThreadPool;
use std::time::Instant;

/// Executes prebuilt [`ExecutionPlan`]s on one reusable [`Doacross`]
/// runtime (see module docs). The runtime's scratch grows to the largest
/// structure seen and is then reused, so a workload alternating variants or
/// structures (e.g. an L and a U factor with different depths or block
/// sizes) does not churn allocations, and — executing plans only — never
/// carries a writer map unless a blocked plan runs.
///
/// The runtime's `validate_terms` is off: validation happened at plan
/// time.
#[derive(Debug)]
pub struct PlanExecutor {
    runtime: Doacross,
}

impl Default for PlanExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanExecutor {
    /// Executor with the default wait strategy and `validate_terms` off
    /// (see type docs).
    pub fn new() -> Self {
        let config = DoacrossConfig {
            validate_terms: false,
            ..DoacrossConfig::default()
        };
        Self {
            runtime: Doacross::with_config(0, config),
        }
    }

    /// Runs `loop_` under `plan`, dispatching to the plan's variant.
    ///
    /// Results are bit-identical to [`run_sequential`] for every variant a
    /// planner can select. The returned stats report
    /// [`PlanProvenance::PlanCold`]; callers that know the plan came from
    /// a cache overwrite the provenance.
    ///
    /// With `prof` set, per-worker profiling spans are deposited there
    /// (`None` costs one branch per would-be span). Span fidelity varies by
    /// variant. The flat doacross variants (`Doacross`/`Reordered`) record
    /// fine-grained work spans and per-stall flag waits; `Wavefront`
    /// records per-level work and barrier-wait spans. `Linear` and
    /// `Blocked` record one coarse whole-run work span on worker 0 —
    /// enough for the critical-path and wait-fraction accounting to stay
    /// total-correct, without threading timers through their inner loops.
    /// `Sequential` is [`execute_sequential`], which opens no region and
    /// records no span: its one span is made from its stats by whoever
    /// profiles it.
    pub fn execute<L: DoacrossLoop + ?Sized>(
        &mut self,
        pool: &ThreadPool,
        loop_: &L,
        y: &mut [f64],
        plan: &ExecutionPlan,
        prof: Option<&ProfArena>,
    ) -> Result<RunStats, DoacrossError> {
        if plan.variant() == PlanVariant::Sequential {
            return execute_sequential(loop_, y, plan);
        }
        check_shape(loop_, y, plan)?;
        let span_start = prof.map(|arena| arena.now_ns());
        let mut stats = match plan.variant() {
            PlanVariant::Linear(subscript) => {
                self.runtime.run_linear(pool, loop_, y, subscript, None)?
            }
            PlanVariant::Blocked { block_size } => {
                self.runtime.run_blocked(pool, loop_, y, block_size)?
            }
            // `Doacross`, `Reordered`, `Wavefront`: the stream-backed variants.
            _ => return self.execute_stream(pool, loop_, y, plan, prof),
        };
        stats.provenance = PlanProvenance::PlanCold;
        // No span sites of their own: one whole-run work span on worker 0,
        // `aux` = iterations.
        if let (Some(arena), Some(started)) = (prof, span_start) {
            let dur_ns = arena.now_ns().saturating_sub(started);
            arena.record(
                0,
                SpanKind::Work,
                NO_LEVEL,
                started,
                dur_ns,
                loop_.iterations() as u64,
            );
        }
        Ok(stats)
    }

    /// The three stream-backed variants through the one planned entry, with
    /// the claim grain derived (see the module docs); the stream's level
    /// offsets pick the gate. Out of line, so [`Self::execute`]'s own arms
    /// carry none of their code.
    #[inline(never)]
    fn execute_stream<L: DoacrossLoop + ?Sized>(
        &mut self,
        pool: &ThreadPool,
        loop_: &L,
        y: &mut [f64],
        plan: &ExecutionPlan,
        prof: Option<&ProfArena>,
    ) -> Result<RunStats, DoacrossError> {
        let stream = plan
            .stream()
            .expect("a stream-backed plan carries its stream");
        let census = plan.census();
        let hint = match plan.variant() {
            PlanVariant::Wavefront => None,
            PlanVariant::Reordered => Some(census.average_parallelism() as usize),
            _ => Some(census.min_true_distance.unwrap_or(census.iterations)),
        };
        let grain = hint.map(|hint| claim_grain(hint, pool.threads()));
        self.runtime
            .run_planned(pool, loop_, y, stream, grain, prof)
    }
}

/// Runs `loop_` under a [`PlanVariant::Sequential`] `plan` on the calling
/// thread: the plan's shape checks, then [`run_sequential`] timed by one
/// clock pair, reported as [`RunStats::sequential`] with
/// [`PlanProvenance::PlanCold`]. No pool, no scratch, no region: the
/// engine calls it directly for a sequential plan, and
/// [`PlanExecutor::execute`] hands such a plan here. Inlined: it is the
/// whole of a sequential solve's work beyond the loop itself.
#[inline]
pub fn execute_sequential<L: DoacrossLoop + ?Sized>(
    loop_: &L,
    y: &mut [f64],
    plan: &ExecutionPlan,
) -> Result<RunStats, DoacrossError> {
    debug_assert_eq!(plan.variant(), PlanVariant::Sequential);
    check_shape(loop_, y, plan)?;
    let started = Instant::now();
    run_sequential(loop_, y);
    let mut stats = RunStats::sequential(loop_.iterations(), started.elapsed());
    stats.provenance = PlanProvenance::PlanCold;
    Ok(stats)
}

/// The typed refusals every plan-driven run starts with: a loop whose
/// iteration or data space is not the plan's, or a `y` of the wrong
/// length.
fn check_shape<L: DoacrossLoop + ?Sized>(
    loop_: &L,
    y: &[f64],
    plan: &ExecutionPlan,
) -> Result<(), DoacrossError> {
    let data_len = loop_.data_len();
    if plan.census().iterations != loop_.iterations() || plan.census().data_len != data_len {
        return Err(DoacrossError::PlanMismatch {
            plan_iterations: plan.census().iterations,
            plan_data_len: plan.census().data_len,
            loop_iterations: loop_.iterations(),
            loop_data_len: data_len,
        });
    }
    if y.len() != data_len {
        return Err(DoacrossError::DataLenMismatch {
            got: y.len(),
            expected: data_len,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use doacross_core::{IndirectLoop, TestLoop};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn oracle<L: DoacrossLoop + ?Sized>(loop_: &L, y0: &[f64]) -> Vec<f64> {
        let mut y = y0.to_vec();
        run_sequential(loop_, &mut y);
        y
    }

    #[test]
    fn every_variant_matches_the_oracle() {
        let p = pool();
        let planner = Planner::new();
        let mut rt = PlanExecutor::new();

        // Sequential (serial chain).
        let n = 60;
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let chain = IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
        let y0 = vec![1.0; n + 1];
        let mut y = y0.clone();
        let plan = planner.plan(&p, &chain).unwrap();
        rt.execute(&p, &chain, &mut y, &plan, None).unwrap();
        assert_eq!(y, oracle(&chain, &y0));

        // Blocked (non-injective, wide write gap, real work per term).
        let n2 = 2_048usize;
        let period = 256usize;
        let a2: Vec<usize> = (0..n2).map(|i| i % period).collect();
        let rhs2: Vec<Vec<usize>> = (0..n2).map(|i| vec![(i + 3) % period]).collect();
        let dup = IndirectLoop::new(period, a2, rhs2, vec![vec![0.5]; n2]).unwrap();
        let y0 = vec![1.0; period];
        let mut y = y0.clone();
        let plan = planner.plan(&p, &dup).unwrap();
        let stats = rt.execute(&p, &dup, &mut y, &plan, None).unwrap();
        assert_eq!(y, oracle(&dup, &y0));
        assert!(stats.blocks >= 2, "blocked plan executes in blocks");

        // Reordered (interleaved tight chains).
        let chains = 16usize;
        let len = 12usize;
        let n3 = chains * len;
        let a3: Vec<usize> = (0..n3).collect();
        let rhs3: Vec<Vec<usize>> = (0..n3)
            .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let coeff3: Vec<Vec<f64>> = rhs3.iter().map(|r| vec![0.5; r.len()]).collect();
        let braided = IndirectLoop::new(n3, a3, rhs3, coeff3).unwrap();
        let y0 = vec![1.0; n3];
        let mut y = y0.clone();
        let plan = planner.plan(&p, &braided).unwrap();
        rt.execute(&p, &braided, &mut y, &plan, None).unwrap();
        assert_eq!(y, oracle(&braided, &y0));
    }

    #[test]
    fn explicit_plan_executes_cold() {
        let p = pool();
        let loop_ = TestLoop::new(200, 1, 7);
        let plan = Planner::new().plan(&p, &loop_).unwrap();
        let mut rt = PlanExecutor::new();
        let y0 = loop_.initial_y();
        let mut y = y0.clone();
        let stats = rt.execute(&p, &loop_, &mut y, &plan, None).unwrap();
        assert_eq!(y, oracle(&loop_, &y0));
        assert_eq!(stats.provenance, PlanProvenance::PlanCold);
    }

    #[test]
    fn mismatched_plan_is_rejected() {
        let p = pool();
        let small = TestLoop::new(50, 1, 7);
        let big = TestLoop::new(60, 1, 7);
        let plan = Planner::new().plan(&p, &small).unwrap();
        let mut rt = PlanExecutor::new();
        let mut y = big.initial_y();
        let err = rt.execute(&p, &big, &mut y, &plan, None).unwrap_err();
        assert!(matches!(err, DoacrossError::PlanMismatch { .. }));
    }
}
