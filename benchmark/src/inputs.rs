//! Inputs, all derived from `--seed`. The engine never sees the seed,
//! only the matrices built here.

use crate::bare::BareCsr;
use doacross_sparse::{ilu0, stencil, Problem, ProblemKind, TriangularMatrix};
use doacross_trisolve::TriSolveLoop;

/// SplitMix64: the benchmark's own generator, so the input stream does not
/// depend on any crate of the repo.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// One triangular system with its bare copy and the bare kernel's answer.
pub struct System {
    pub name: String,
    pub l: TriangularMatrix,
    pub rhs: Vec<f64>,
    pub bare: BareCsr,
    pub oracle: Vec<f64>,
}

impl System {
    fn new(name: String, l: TriangularMatrix, rhs: Vec<f64>) -> Self {
        let bare = BareCsr::copy_of(&l, &rhs);
        let mut oracle = vec![f64::NAN; l.n()];
        bare.solve(&mut oracle);
        Self {
            name,
            l,
            rhs,
            bare,
            oracle,
        }
    }

    pub fn loop_(&self) -> TriSolveLoop<'_> {
        TriSolveLoop::new(&self.l, &self.rhs)
    }
}

/// The five Table-1 systems; the seed sets the coefficients.
pub fn table1(seed: u64) -> Vec<System> {
    let mut rng = SplitMix::new(seed ^ 0x7AB1_E001);
    ProblemKind::all()
        .into_iter()
        .map(|kind| {
            let sys = Problem::build_seeded(kind, rng.next_u64()).triangular_system();
            System::new(kind.name().to_string(), sys.l, sys.rhs)
        })
        .collect()
}

/// Side lengths of the tiny 5-point grids (1–2 µs per solve).
pub const TINY_SIDES: [usize; 5] = [12, 14, 16, 18, 20];

/// Tenant `tenant`'s tiny systems: `side × (side + tenant)` grids, so
/// every tenant's fingerprints are its own while every seed yields the
/// same set of shapes. The seed sets coefficients and the order in which
/// the tenant cycles through its systems.
pub fn tiny(seed: u64, tenant: usize) -> Vec<System> {
    let mut rng = SplitMix::new(seed ^ 0x0071_4E00 ^ ((tenant as u64) << 32));
    let mut sides = TINY_SIDES;
    rng.shuffle(&mut sides);
    sides
        .into_iter()
        .map(|nx| {
            let ny = nx + tenant;
            let a = stencil::five_point(nx, ny, rng.next_u64());
            let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
            let rhs: Vec<f64> = (0..l.n())
                .map(|_| 1.0 + (rng.next_u64() % 8) as f64 * 0.125)
                .collect();
            System::new(format!("5pt-{nx}x{ny}"), l, rhs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_plan::PatternFingerprint;

    #[test]
    fn same_seed_same_inputs_other_seed_other_coefficients() {
        let (a, b, c) = (table1(3), table1(3), table1(4));
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.l, y.l);
            assert_eq!(x.l.column(), z.l.column(), "structure is seed-free");
            assert_ne!(x.l.coeff(), z.l.coeff());
        }
    }

    #[test]
    fn tenants_have_distinct_fingerprints() {
        let mut seen = std::collections::BTreeSet::new();
        for tenant in 0..4 {
            for sys in tiny(11, tenant) {
                assert!(seen.insert(PatternFingerprint::of(&sys.loop_()).to_raw()));
            }
        }
        assert_eq!(seen.len(), 20);
    }
}
