//! Strip-mined triangular solve: the §2.3 blocked doacross applied to the
//! §3.2 application.
//!
//! The Figure 7 solve has the identity output subscript, so a block of `B`
//! rows writes exactly the element window `[lo, hi)` — the blocked
//! runtime's scratch arrays shrink from `n` elements to `B`, the paper's
//! memory-reduction claim in its sharpest form. Dependencies reaching into
//! earlier blocks are served from `y` (each block's postprocessing copies
//! results back before the next block starts); within-block dependencies
//! use the flags as usual.

use crate::fig7::TriSolveLoop;
use doacross_core::{Doacross, DoacrossConfig, DoacrossError, RunStats};
use doacross_par::ThreadPool;
use doacross_sparse::TriangularMatrix;

/// Strip-mined preprocessed-doacross solver with `block_size` rows per
/// outer step.
#[derive(Debug)]
pub struct BlockedSolver {
    block_size: usize,
    runtime: Doacross,
}

impl BlockedSolver {
    /// Solver executing `block_size` rows per sequential outer step.
    pub fn new(block_size: usize) -> Result<Self, DoacrossError> {
        Self::with_config(block_size, DoacrossConfig::default())
    }

    /// Solver with explicit doacross configuration.
    pub fn with_config(block_size: usize, config: DoacrossConfig) -> Result<Self, DoacrossError> {
        if block_size == 0 {
            return Err(DoacrossError::EmptyBlock);
        }
        Ok(Self {
            block_size,
            runtime: Doacross::with_config(0, config),
        })
    }

    /// Rows per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Scratch elements currently allocated — at most `block_size` for the
    /// identity-subscript solve, vs. `n` for the flat solver.
    pub fn scratch_capacity(&self) -> usize {
        self.runtime.data_len()
    }

    /// Solves `L y = rhs`; bit-identical to the sequential solve.
    pub fn solve(
        &mut self,
        pool: &ThreadPool,
        l: &TriangularMatrix,
        rhs: &[f64],
    ) -> Result<(Vec<f64>, RunStats), DoacrossError> {
        let loop_ = TriSolveLoop::new(l, rhs);
        let mut y = vec![0.0; l.n()];
        let stats = self
            .runtime
            .run_blocked(pool, &loop_, &mut y, self.block_size)?;
        Ok((y, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_sparse::{ilu0, stencil::five_point};

    fn system(seed: u64) -> (TriangularMatrix, Vec<f64>) {
        let a = five_point(11, 10, seed);
        let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
        let rhs: Vec<f64> = (0..l.n()).map(|i| 0.25 + (i % 8) as f64).collect();
        (l, rhs)
    }

    #[test]
    fn blocked_solve_matches_sequential_for_many_block_sizes() {
        let (l, rhs) = system(81);
        let expect = l.forward_solve(&rhs);
        let pool = ThreadPool::new(4);
        for bs in [1usize, 7, 16, 64, 1000] {
            let mut solver = BlockedSolver::new(bs).unwrap();
            let (y, stats) = solver.solve(&pool, &l, &rhs).unwrap();
            assert_eq!(y, expect, "block_size={bs}");
            assert_eq!(stats.blocks, l.n().div_ceil(bs));
        }
    }

    #[test]
    fn scratch_is_block_sized() {
        let (l, rhs) = system(82);
        let pool = ThreadPool::new(2);
        let mut solver = BlockedSolver::new(16).unwrap();
        solver.solve(&pool, &l, &rhs).unwrap();
        assert_eq!(solver.block_size(), 16);
        assert_eq!(
            solver.scratch_capacity(),
            16,
            "identity subscript -> window == block"
        );
        assert!(solver.scratch_capacity() < l.n());
    }

    #[test]
    fn zero_block_rejected() {
        assert!(matches!(
            BlockedSolver::new(0),
            Err(DoacrossError::EmptyBlock)
        ));
    }

    #[test]
    fn solver_is_reusable() {
        let pool = ThreadPool::new(2);
        let mut solver = BlockedSolver::new(32).unwrap();
        for seed in [1u64, 2] {
            let (l, rhs) = system(seed);
            let (y, _) = solver.solve(&pool, &l, &rhs).unwrap();
            assert_eq!(y, l.forward_solve(&rhs), "seed {seed}");
        }
    }
}
