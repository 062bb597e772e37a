//! ILU(0) preconditioner application `z = U⁻¹ L⁻¹ r` with both halves run
//! as preprocessed doacross loops — the paper's motivating context:
//! "The solution of these sparse triangular systems accounts for a large
//! fraction of the sequential execution time of linear solvers that use
//! Krylov methods" (§3.2, citing Baxter et al. 1988).
//!
//! The preconditioner holds both halves as [`PreparedLoop`]s of one
//! [`Engine`]: each structure is planned once, by the same cost model as
//! every other loop, and every application is two `execute` calls over
//! owned scratch — the amortization the paper's postprocessing phase is
//! designed around.

use crate::fig7::TriSolveLoop;
use crate::upper::UpperSolveLoop;
use doacross_core::DoacrossLoop;
use doacross_engine::{Engine, EngineError, PreparedLoop};
use doacross_sparse::{ilu0, CsrMatrix, TriangularMatrix, UpperTriangularMatrix};

/// An ILU(0) preconditioner whose forward and backward solves are two
/// prepared loops on an [`Engine`].
///
/// ```
/// use doacross_engine::Engine;
/// use doacross_sparse::stencil::five_point;
/// use doacross_trisolve::IluPreconditioner;
///
/// let engine = Engine::builder().workers(2).build();
/// let mut m = IluPreconditioner::new(&engine, &five_point(6, 6, 11)).unwrap();
/// let r = vec![1.0; m.n()];
/// let mut z = vec![0.0; m.n()];
/// m.apply_into(&r, &mut z).unwrap();      // U^-1 L^-1 r, both planned
/// assert_eq!(z, m.apply_sequential(&r));  // bit-identical
/// ```
#[derive(Debug)]
pub struct IluPreconditioner {
    engine: Engine,
    l: TriangularMatrix,
    u: UpperTriangularMatrix,
    lower: PreparedLoop,
    upper: PreparedLoop,
    /// `L⁻¹ r`, the intermediate both halves share.
    w: Vec<f64>,
}

impl IluPreconditioner {
    /// Factors `a` with ILU(0) and prepares both halves on `engine`.
    pub fn new(engine: &Engine, a: &CsrMatrix) -> Result<Self, EngineError> {
        let factors = ilu0(a);
        let l = TriangularMatrix::from_strict_lower(&factors.l);
        let u = UpperTriangularMatrix::from_upper(&factors.u);
        // Plans are value-blind: a zero right-hand side carries the
        // structure.
        let w = vec![0.0; l.n()];
        let lower = engine.prepare(&TriSolveLoop::new(&l, &w))?;
        let upper = engine.prepare(&UpperSolveLoop::new(&u, &w))?;
        Ok(Self {
            engine: engine.clone(),
            l,
            u,
            lower,
            upper,
            w,
        })
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.l.n()
    }

    /// The unit lower-triangular factor.
    pub fn l(&self) -> &TriangularMatrix {
        &self.l
    }

    /// The upper-triangular factor.
    pub fn u(&self) -> &UpperTriangularMatrix {
        &self.u
    }

    /// Applies the preconditioner: writes `z = U⁻¹ L⁻¹ r`, bit-identical to
    /// [`IluPreconditioner::apply_sequential`]. A half whose handle was
    /// retired ([`Engine::invalidate`], or an adaptive promotion) is
    /// prepared again and run once more.
    ///
    /// # Panics
    /// Panics if `r.len() != self.n()`.
    pub fn apply_into(&mut self, r: &[f64], z: &mut [f64]) -> Result<(), EngineError> {
        let Self {
            engine,
            l,
            u,
            lower,
            upper,
            w,
        } = self;
        execute(engine, lower, &TriSolveLoop::new(l, r), w)?;
        execute(engine, upper, &UpperSolveLoop::new(u, w), z)
    }

    /// Sequential reference application (for validation): same two solves
    /// with the scalar kernels.
    pub fn apply_sequential(&self, r: &[f64]) -> Vec<f64> {
        let w = self.l.forward_solve(r);
        self.u.backward_solve(&w)
    }
}

/// Runs `loop_` through `handle`, re-preparing a stale handle and retrying
/// once — the engine's re-prepare protocol. A refused handle never touches
/// `y`, so the retry starts from the same input.
fn execute<L: DoacrossLoop>(
    engine: &Engine,
    handle: &mut PreparedLoop,
    loop_: &L,
    y: &mut [f64],
) -> Result<(), EngineError> {
    match handle.execute(loop_, y) {
        Err(EngineError::StalePlan { .. }) => {
            *handle = engine.prepare(loop_)?;
            handle.execute(loop_, y)
        }
        done => done,
    }
    .map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_plan::{PlanVariant, Planner};
    use doacross_sparse::spmv::csr_matvec;
    use doacross_sparse::stencil::five_point;
    use doacross_sparse::table1_problems;
    use doacross_sparse::vec_ops::max_abs_diff;

    /// Four workers in one sub-pool priced by the paper's Multimax preset,
    /// which plans both halves of a grid factor parallel; the default
    /// engine prices with this host's costs and may keep them sequential.
    fn preset_engine() -> Engine {
        Engine::builder()
            .workers(4)
            .pools(1)
            .planner(Planner::new())
            .build()
    }

    fn apply(p: &mut IluPreconditioner, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; p.n()];
        p.apply_into(r, &mut z).unwrap();
        z
    }

    #[test]
    fn parallel_apply_matches_sequential_bitwise() {
        let a = five_point(10, 9, 101);
        let mut p = IluPreconditioner::new(&preset_engine(), &a).unwrap();
        for half in [&p.lower, &p.upper] {
            assert_ne!(half.variant(), PlanVariant::Sequential);
        }
        let r: Vec<f64> = (0..p.n()).map(|i| (i % 5) as f64 - 2.0).collect();
        assert_eq!(apply(&mut p, &r), p.apply_sequential(&r));
    }

    /// Both halves of every Table-1 operator plan parallel under the
    /// preset (the backward half's diagonal division running as `finish`
    /// inside the stream executors) and agree with the scalar kernels bit
    /// for bit.
    #[test]
    fn table1_halves_plan_parallel_on_the_preset_engine_and_match_bitwise() {
        let engine = preset_engine();
        for problem in table1_problems() {
            let name = problem.kind.name();
            let mut p = IluPreconditioner::new(&engine, &problem.a).unwrap();
            for half in [&p.lower, &p.upper] {
                assert_ne!(half.variant(), PlanVariant::Sequential, "{name}");
            }
            let r: Vec<f64> = (0..p.n()).map(|i| 0.5 + (i % 11) as f64).collect();
            assert_eq!(apply(&mut p, &r), p.apply_sequential(&r), "{name}");
        }
    }

    #[test]
    fn an_invalidated_half_is_prepared_again_and_still_matches() {
        let engine = preset_engine();
        let a = five_point(9, 9, 113);
        let mut p = IluPreconditioner::new(&engine, &a).unwrap();
        let r = vec![1.0; p.n()];
        let expect = p.apply_sequential(&r);
        assert_eq!(apply(&mut p, &r), expect);

        assert!(engine.invalidate(p.lower.fingerprint()));
        assert!(p.lower.is_stale());
        assert_eq!(apply(&mut p, &r), expect);
        assert!(!p.lower.is_stale());
        assert_eq!(p.lower.generation(), 1, "the L half was re-prepared");
        assert_eq!(p.upper.generation(), 0, "the U half kept its handle");
    }

    #[test]
    fn preconditioner_approximates_inverse() {
        // For a diagonally dominant A, M = (LU)^{-1} should reduce the
        // residual substantially in one Richardson step:
        //   x1 = M^{-1} b  =>  ||b - A x1|| << ||b||.
        let a = five_point(12, 12, 103);
        let mut p = IluPreconditioner::new(&Engine::builder().workers(2).build(), &a).unwrap();
        let b = vec![1.0; p.n()];
        let x1 = apply(&mut p, &b);
        let ax1 = csr_matvec(&a, &x1);
        let res = max_abs_diff(&ax1, &b);
        assert!(
            res < 0.5,
            "one preconditioned step should cut the residual: {res}"
        );
    }

    #[test]
    fn apply_is_repeatable() {
        let a = five_point(6, 6, 107);
        let mut p = IluPreconditioner::new(&preset_engine(), &a).unwrap();
        let r = vec![1.0; p.n()];
        let z1 = apply(&mut p, &r);
        let z2 = apply(&mut p, &r);
        assert_eq!(z1, z2, "scratch reuse must be clean across applications");
    }
}
