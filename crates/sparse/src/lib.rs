//! # doacross-sparse — sparse-matrix substrate for the Table 1 workloads
//!
//! The paper's §3.2 evaluates the preprocessed doacross on sparse
//! triangular systems "derived from incompletely factored matrices obtained
//! from a variety of discretized partial differential equations", with the
//! appendix naming five systems:
//!
//! | name  | discretization                    | grid      | unknowns |
//! |-------|-----------------------------------|-----------|----------|
//! | SPE2  | block 7-point, 6×6 blocks         | 6×6×5     | 1080     |
//! | SPE5  | block 7-point, 3×3 blocks         | 16×23×3   | 3312     |
//! | 5-PT  | 5-point central difference        | 63×63     | 3969     |
//! | 7-PT  | 7-point central difference        | 20×20×20  | 8000     |
//! | 9-PT  | 9-point box scheme                | 63×63     | 3969     |
//!
//! This crate rebuilds that pipeline from scratch: CSR storage
//! ([`CsrMatrix`]), the stencil operators ([`stencil`], [`block`]), ILU(0)
//! incomplete factorization ([`ilu`]), and the [`tri::TriangularMatrix`]
//! shape consumed by the Figure 7 solve loop. The original SPE matrices are
//! proprietary reservoir-simulation data; we regenerate structurally
//! identical operators with deterministic, diagonally dominant synthetic
//! coefficients — the dependence structure of the triangular solve (the
//! thing the paper measures) is a function of the sparsity pattern only.

// Audit posture: this crate needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]
pub mod block;
pub mod builder;
pub mod csr;
pub mod ilu;
pub mod io;
pub mod problems;
mod rng;
pub mod spmv;
pub mod stencil;
pub mod tri;
pub mod vec_ops;

pub use block::block_seven_point;
pub use builder::TripletBuilder;
pub use csr::CsrMatrix;
pub use ilu::{ilu0, IluFactors};
pub use problems::{table1_problems, Problem, ProblemKind, TriSystem};
pub use stencil::{five_point, nine_point, seven_point};
pub use tri::{TriangularMatrix, UpperTriangularMatrix};

#[cfg(test)]
mod dense;

#[cfg(test)]
mod tests {
    use crate::rng::SmallRng;
    use crate::{Problem, ProblemKind};

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_samples_are_unit_interval_and_varied() {
        let mut rng = SmallRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..1000).map(|_| rng.next_f64()).collect();
        assert!(samples.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    /// Every generated operator, structure and value bits, hashed (FNV-1a)
    /// per Table 1 kind at seed 1. The constants pin the generator's
    /// stream: a change here changes the benchmark's inputs and every
    /// seeded test system.
    #[test]
    fn seeded_problems_are_pinned_bit_for_bit() {
        let pinned: [(&str, u64); 5] = [
            ("SPE2", 0xed5a_b0e0_d290_3c1f),
            ("SPE5", 0xc7ed_733f_7ada_0dde),
            ("5-PT", 0xdf7d_87a1_7f91_5085),
            ("7-PT", 0x48aa_8cc8_a008_abda),
            ("9-PT", 0xcb2f_e2a8_21b2_35b1),
        ];
        for (kind, (name, expect)) in ProblemKind::all().into_iter().zip(pinned) {
            let a = Problem::build_seeded(kind, 1).a;
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut feed = |w: u64| {
                for b in w.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            feed(a.nrows() as u64);
            feed(a.ncols() as u64);
            a.row_ptr().iter().for_each(|&x| feed(x as u64));
            a.col_idx().iter().for_each(|&x| feed(x as u64));
            a.values().iter().for_each(|&x| feed(x.to_bits()));
            assert_eq!(kind.name(), name);
            assert_eq!(h, expect, "{name}: seeded operator changed");
        }
    }
}
