//! The five Table 1 test problems, generated end to end.
//!
//! Each [`Problem`] builds the appendix's discretization, runs ILU(0), and
//! exposes the unit lower-triangular factor as a [`TriSystem`] with a
//! manufactured right-hand side whose exact solution is known — the same
//! pipeline the paper used (incomplete factorizations for preconditioned
//! Krylov solvers, where the `L` and `U` solves dominate sequential time).

use crate::block::block_seven_point;
use crate::csr::CsrMatrix;
use crate::ilu::ilu0;
use crate::stencil::{five_point, nine_point, seven_point};
use crate::tri::TriangularMatrix;

/// Which Table 1 problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProblemKind {
    /// Thermal steam-injection simulation: block 7-point, 6×6×5 grid,
    /// 6×6 blocks, 1080 equations.
    Spe2,
    /// Black-oil model: block 7-point, 16×23×3 grid, 3×3 blocks,
    /// 3312 equations.
    Spe5,
    /// 5-point central difference on 63×63, 3969 equations.
    FivePt,
    /// 7-point central difference on 20×20×20, 8000 equations.
    SevenPt,
    /// 9-point box scheme on 63×63, 3969 equations.
    NinePt,
}

impl ProblemKind {
    /// The paper's name for the problem.
    pub fn name(&self) -> &'static str {
        match self {
            ProblemKind::Spe2 => "SPE2",
            ProblemKind::Spe5 => "SPE5",
            ProblemKind::FivePt => "5-PT",
            ProblemKind::SevenPt => "7-PT",
            ProblemKind::NinePt => "9-PT",
        }
    }

    /// Number of equations the appendix specifies.
    pub(crate) fn equations(&self) -> usize {
        match self {
            ProblemKind::Spe2 => 1080,
            ProblemKind::Spe5 => 3312,
            ProblemKind::FivePt => 3969,
            ProblemKind::SevenPt => 8000,
            ProblemKind::NinePt => 3969,
        }
    }

    /// All five, in Table 1 order.
    pub fn all() -> [ProblemKind; 5] {
        [
            ProblemKind::Spe2,
            ProblemKind::Spe5,
            ProblemKind::FivePt,
            ProblemKind::SevenPt,
            ProblemKind::NinePt,
        ]
    }

    /// Builds the discretized operator (deterministic for a given seed).
    pub(crate) fn matrix(&self, seed: u64) -> CsrMatrix {
        match self {
            ProblemKind::Spe2 => block_seven_point(6, 6, 5, 6, seed),
            ProblemKind::Spe5 => block_seven_point(16, 23, 3, 3, seed),
            ProblemKind::FivePt => five_point(63, 63, seed),
            ProblemKind::SevenPt => seven_point(20, 20, 20, seed),
            ProblemKind::NinePt => nine_point(63, 63, seed),
        }
    }
}

/// A fully assembled Table 1 problem: the PDE operator plus its name.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Which appendix entry this is.
    pub kind: ProblemKind,
    /// The discretized operator `A`.
    pub a: CsrMatrix,
}

impl Problem {
    /// Builds the problem with the workspace's default seed (fixed so every
    /// experiment and test sees identical systems).
    pub fn build(kind: ProblemKind) -> Self {
        Self::build_seeded(kind, 0x5EED + kind.equations() as u64)
    }

    /// Builds with an explicit seed.
    pub fn build_seeded(kind: ProblemKind, seed: u64) -> Self {
        Self {
            kind,
            a: kind.matrix(seed),
        }
    }

    /// ILU(0)-factors the operator and packages the unit lower-triangular
    /// solve with a manufactured exact solution.
    pub fn triangular_system(&self) -> TriSystem {
        let factors = ilu0(&self.a);
        let l = TriangularMatrix::from_strict_lower(&factors.l);
        let n = l.n();
        let solution: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
        let rhs = l.matvec(&solution);
        TriSystem {
            kind: self.kind,
            l,
            rhs,
            solution,
        }
    }
}

/// A unit lower-triangular system `L y = rhs` with known solution — the
/// workload of the paper's Figure 7 loop and Table 1.
#[derive(Debug, Clone)]
pub struct TriSystem {
    /// Which Table 1 problem this came from.
    pub kind: ProblemKind,
    /// The unit lower-triangular factor.
    pub l: TriangularMatrix,
    /// Manufactured right-hand side.
    pub rhs: Vec<f64>,
    /// The exact solution `L⁻¹ rhs` (by construction).
    pub solution: Vec<f64>,
}

impl TriSystem {
    /// Dimension of the system.
    pub fn n(&self) -> usize {
        self.l.n()
    }
}

/// Builds all five Table 1 problems (deterministic).
pub fn table1_problems() -> Vec<Problem> {
    ProblemKind::all()
        .iter()
        .map(|&k| Problem::build(k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec_ops::max_abs_diff;

    #[test]
    fn sizes_match_the_appendix() {
        for kind in ProblemKind::all() {
            let p = Problem::build(kind);
            assert_eq!(
                p.a.nrows(),
                kind.equations(),
                "{} size mismatch",
                kind.name()
            );
        }
    }

    #[test]
    fn names_match_table1() {
        let names: Vec<&str> = ProblemKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["SPE2", "SPE5", "5-PT", "7-PT", "9-PT"]);
    }

    #[test]
    fn triangular_systems_solve_to_manufactured_solution() {
        // Use the two small problems to keep test time modest; the large
        // ones are covered by integration tests.
        for kind in [ProblemKind::Spe2, ProblemKind::FivePt] {
            let sys = Problem::build(kind).triangular_system();
            let y = sys.l.forward_solve(&sys.rhs);
            let err = max_abs_diff(&y, &sys.solution);
            assert!(err < 1e-8, "{}: err {err}", kind.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Problem::build(ProblemKind::Spe2);
        let b = Problem::build(ProblemKind::Spe2);
        assert_eq!(a.a, b.a);
    }

    #[test]
    fn triangular_structure_is_nontrivial() {
        let sys = Problem::build(ProblemKind::Spe2).triangular_system();
        assert!(sys.l.nnz() > 0);
        let cp = sys.l.critical_path_len();
        assert!(cp > 1, "must have cross-row dependencies");
        assert!(cp <= sys.n(), "critical path bounded by n");
    }
}
