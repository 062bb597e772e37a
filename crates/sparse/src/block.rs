//! Block 7-point operators — the SPE2/SPE5 matrix shapes.
//!
//! The appendix describes SPE2 as "a block seven point operator with 6x6
//! blocks" on a 6×6×5 grid (thermal steam-injection simulation, 6 unknowns
//! per grid point → 1080 equations) and SPE5 as a block seven point
//! operator with 3×3 blocks on a 16×23×3 grid (black-oil model → 3312
//! equations). The original reservoir matrices are proprietary; these
//! generators reproduce the exact block sparsity structure with synthetic
//! coefficients, which preserves the triangular-solve dependence DAG the
//! paper's Table 1 exercises.

use crate::builder::TripletBuilder;
use crate::csr::CsrMatrix;
use crate::rng::SmallRng;

/// Builds a block 7-point operator on an `nx × ny × nz` grid with dense
/// `b × b` blocks: grid point `p` couples to itself and its six axis
/// neighbors, each coupling contributing a dense block. Scalar rows are
/// made strictly diagonally dominant.
pub fn block_seven_point(nx: usize, ny: usize, nz: usize, b: usize, seed: u64) -> CsrMatrix {
    assert!(b >= 1, "block size must be >= 1");
    let points = nx * ny * nz;
    let n = points * b;
    let mut rng = SmallRng::seed_from_u64(seed);
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;

    // Seven blocks per interior point, b*b values each.
    let mut builder = TripletBuilder::with_capacity(n, n, points * 7 * b * b);
    // Off-diagonal magnitudes per scalar row, accumulated so the diagonal
    // can dominate them.
    let mut row_offdiag = vec![0.0f64; n];

    let couple = |builder: &mut TripletBuilder,
                  rng: &mut SmallRng,
                  row_offdiag: &mut [f64],
                  p: usize,
                  q: usize| {
        // Dense b×b coupling block between grid points p (rows) and q
        // (cols). Off-diagonal blocks are weaker than the diagonal block's
        // off-diagonal entries to mimic the banded reservoir operators.
        for r in 0..b {
            for c in 0..b {
                let row = p * b + r;
                let col = q * b + c;
                if row == col {
                    continue; // diagonal handled after accumulation
                }
                let v = -(0.5 + 0.5 * rng.next_f64());
                row_offdiag[row] += v.abs();
                builder.push(row, col, v);
            }
        }
    };

    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let p = idx(x, y, z);
                couple(&mut builder, &mut rng, &mut row_offdiag, p, p);
                if x > 0 {
                    couple(
                        &mut builder,
                        &mut rng,
                        &mut row_offdiag,
                        p,
                        idx(x - 1, y, z),
                    );
                }
                if x + 1 < nx {
                    couple(
                        &mut builder,
                        &mut rng,
                        &mut row_offdiag,
                        p,
                        idx(x + 1, y, z),
                    );
                }
                if y > 0 {
                    couple(
                        &mut builder,
                        &mut rng,
                        &mut row_offdiag,
                        p,
                        idx(x, y - 1, z),
                    );
                }
                if y + 1 < ny {
                    couple(
                        &mut builder,
                        &mut rng,
                        &mut row_offdiag,
                        p,
                        idx(x, y + 1, z),
                    );
                }
                if z > 0 {
                    couple(
                        &mut builder,
                        &mut rng,
                        &mut row_offdiag,
                        p,
                        idx(x, y, z - 1),
                    );
                }
                if z + 1 < nz {
                    couple(
                        &mut builder,
                        &mut rng,
                        &mut row_offdiag,
                        p,
                        idx(x, y, z + 1),
                    );
                }
            }
        }
    }
    for (row, &off) in row_offdiag.iter().enumerate() {
        builder.push(row, row, 1.0 + rng.next_f64() + off);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spe2_shape() {
        // 6x6x5 grid, 6x6 blocks -> 1080 equations (paper appendix).
        let m = block_seven_point(6, 6, 5, 6, 1);
        assert_eq!(m.nrows(), 1080);
        assert_eq!(m.ncols(), 1080);
    }

    #[test]
    fn spe5_shape() {
        // 16x23x3 grid, 3x3 blocks -> 3312 equations (paper appendix).
        let m = block_seven_point(16, 23, 3, 3, 2);
        assert_eq!(m.nrows(), 3312);
    }

    #[test]
    fn block_structure_is_seven_point() {
        // 3x3x3 grid with 2x2 blocks: the center point couples to 7 points,
        // so each of its scalar rows holds 7 * 2 = 14 entries.
        let b = 2;
        let m = block_seven_point(3, 3, 3, b, 3);
        let center = 13; // (1,1,1) in a 3x3x3 grid
        for r in 0..b {
            let row = center * b + r;
            assert_eq!(m.row_cols(row).len(), 7 * b, "row {row}");
        }
        // A corner point couples to 4 points (itself + 3 neighbors).
        for r in 0..b {
            assert_eq!(m.row_cols(r).len(), 4 * b);
        }
    }

    #[test]
    fn rows_are_diagonally_dominant() {
        let m = block_seven_point(4, 3, 2, 3, 7);
        for i in 0..m.nrows() {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&j, &v) in m.row_cols(i).iter().zip(m.row_values(i)) {
                if j == i {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {i}: {diag} vs {off}");
        }
    }

    #[test]
    fn pattern_is_symmetric() {
        let m = block_seven_point(3, 2, 2, 2, 9);
        let t = m.transpose();
        for i in 0..m.nrows() {
            assert_eq!(m.row_cols(i), t.row_cols(i), "row {i}");
        }
    }

    #[test]
    fn block_size_one_matches_scalar_seven_point_pattern() {
        let blocked = block_seven_point(4, 3, 2, 1, 5);
        let scalar = crate::stencil::seven_point(4, 3, 2, 5);
        assert_eq!(blocked.nrows(), scalar.nrows());
        for i in 0..blocked.nrows() {
            assert_eq!(blocked.row_cols(i), scalar.row_cols(i), "row {i}");
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = block_seven_point(3, 3, 2, 2, 11);
        let b = block_seven_point(3, 3, 2, 2, 11);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_rejected() {
        let _ = block_seven_point(2, 2, 2, 0, 1);
    }
}
