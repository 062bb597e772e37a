//! Tests of the forward solve strip-mined by the §2.3 blocked doacross.
//! The identity subscript makes a block of `B` rows write exactly the
//! element window `[lo, lo + B)`, so the runtime's scratch shrinks from `n`
//! elements to `B`.

mod tests {
    use crate::solver::grid_system;
    use crate::TriSolveLoop;
    use doacross_core::{Doacross, DoacrossError, RunStats};
    use doacross_par::ThreadPool;
    use doacross_sparse::TriangularMatrix;

    fn solve_blocked(
        runtime: &mut Doacross,
        pool: &ThreadPool,
        l: &TriangularMatrix,
        rhs: &[f64],
        block_size: usize,
    ) -> Result<(Vec<f64>, RunStats), DoacrossError> {
        let mut y = vec![0.0; l.n()];
        let stats = runtime.run_blocked(pool, &TriSolveLoop::new(l, rhs), &mut y, block_size)?;
        Ok((y, stats))
    }

    #[test]
    fn blocked_solve_matches_sequential_for_many_block_sizes() {
        let (l, rhs) = grid_system(11, 10, 81);
        let expect = l.forward_solve(&rhs);
        let pool = ThreadPool::new(4);
        for bs in [1usize, 7, 16, 64, 1000] {
            let (y, stats) = solve_blocked(&mut Doacross::new(0), &pool, &l, &rhs, bs).unwrap();
            assert_eq!(y, expect, "block_size={bs}");
            assert_eq!(stats.blocks, l.n().div_ceil(bs));
        }
    }

    #[test]
    fn scratch_is_block_sized() {
        let (l, rhs) = grid_system(11, 10, 82);
        let pool = ThreadPool::new(2);
        let mut runtime = Doacross::new(0);
        solve_blocked(&mut runtime, &pool, &l, &rhs, 16).unwrap();
        assert_eq!(
            runtime.data_len(),
            16,
            "identity subscript -> window == block"
        );
        assert!(runtime.data_len() < l.n());
    }

    #[test]
    fn zero_block_rejected() {
        let (l, rhs) = grid_system(3, 3, 1);
        let pool = ThreadPool::new(1);
        assert!(matches!(
            solve_blocked(&mut Doacross::new(0), &pool, &l, &rhs, 0),
            Err(DoacrossError::EmptyBlock)
        ));
    }

    #[test]
    fn solver_is_reusable() {
        let pool = ThreadPool::new(2);
        let mut runtime = Doacross::new(0);
        for seed in [1u64, 2] {
            let (l, rhs) = grid_system(11, 10, seed);
            let (y, _) = solve_blocked(&mut runtime, &pool, &l, &rhs, 32).unwrap();
            assert_eq!(y, l.forward_solve(&rhs), "seed {seed}");
        }
    }
}
