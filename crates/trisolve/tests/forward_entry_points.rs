//! The forward solve on the runtime's entry points: the §2.3 linear
//! subscript (no inspector), the inspected flat executor, rows claimed in
//! doconsider order (a planned claim stream), and the §2.3 strip-mined
//! loop; plus the doconsider levels that order comes from.

use doacross_core::{AccessPattern, Doacross, DoacrossError, RunStats};
use doacross_doconsider::reorder::order_from_levels;
use doacross_doconsider::{is_topological_order, level_histogram, DependenceDag, LevelAssignment};
use doacross_par::ThreadPool;
use doacross_plan::CensusPass;
use doacross_sparse::{ilu0, stencil::five_point, CsrMatrix, TriangularMatrix};
use doacross_trisolve::TriSolveLoop;

/// The `L` factor of a five-point ILU(0) operator and a right-hand side.
fn grid_system(nx: usize, ny: usize, seed: u64) -> (TriangularMatrix, Vec<f64>) {
    let a = five_point(nx, ny, seed);
    let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
    let rhs = (0..l.n()).map(|i| 1.0 + (i % 9) as f64 * 0.25).collect();
    (l, rhs)
}

/// Wavefront levels of the forward solve over `l`.
fn levels_of(l: &TriangularMatrix) -> LevelAssignment {
    let rhs = vec![0.0; l.n()];
    LevelAssignment::compute(&DependenceDag::build(&TriSolveLoop::new(l, &rhs)))
}

/// Strip-mined by `block_size` rows. The identity subscript makes a block
/// of `B` rows write exactly the element window `[lo, lo + B)`, so the
/// runtime's scratch shrinks from `n` elements to `B`.
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
fn both_backends_match_sequential_bitwise() {
    let (l, rhs) = grid_system(12, 10, 77);
    let expect = l.forward_solve(&rhs);
    let pool = ThreadPool::new(4);
    let loop_ = TriSolveLoop::new(&l, &rhs);
    let mut runtime = Doacross::new(l.n());
    for linear in [true, false] {
        let mut y = vec![0.0; l.n()];
        let stats = if linear {
            runtime.run_linear(&pool, &loop_, &mut y, TriSolveLoop::subscript())
        } else {
            runtime.run(&pool, &loop_, &mut y)
        }
        .unwrap();
        assert_eq!(y, expect, "linear={linear}");
        assert_eq!(stats.iterations, l.n());
        assert_eq!(
            stats.deps.true_deps,
            l.nnz() as u64,
            "every off-diagonal is a true dependency (linear={linear})"
        );
    }
}

#[test]
fn solver_is_reusable_across_systems() {
    let pool = ThreadPool::new(2);
    let mut runtime = Doacross::new(0);
    for seed in [1u64, 2, 3] {
        let (l, rhs) = grid_system(9, 7, seed);
        let loop_ = TriSolveLoop::new(&l, &rhs);
        let mut y = vec![0.0; l.n()];
        runtime
            .run_linear(&pool, &loop_, &mut y, TriSolveLoop::subscript())
            .unwrap();
        assert_eq!(y, l.forward_solve(&rhs), "seed {seed}");
    }
}

#[test]
fn reordered_matches_sequential_bitwise() {
    let (l, rhs) = grid_system(11, 9, 31);
    let loop_ = TriSolveLoop::new(&l, &rhs);
    let order = order_from_levels(&levels_of(&l));
    assert!(is_topological_order(&DependenceDag::build(&loop_), &order));
    let stream = CensusPass::of(&loop_)
        .stream(&loop_, Some(&order), None)
        .expect("an injective, in-bounds system");
    let pool = ThreadPool::new(4);
    let mut y = vec![0.0; l.n()];
    let stats = Doacross::new(l.n())
        .run_planned(&pool, &loop_, &mut y, &stream, Some(1), None)
        .unwrap();
    assert_eq!(y, l.forward_solve(&rhs));
    assert_eq!(stats.deps.true_deps, l.nnz() as u64);
}

#[test]
fn diagonal_matrix_order_is_identity() {
    let m = CsrMatrix::from_parts(4, 4, vec![0; 5], vec![], vec![]);
    let levels = levels_of(&TriangularMatrix::from_strict_lower(&m));
    assert_eq!(order_from_levels(&levels), vec![0, 1, 2, 3]);
    assert_eq!(levels.critical_path(), 1);
}

#[test]
fn plan_for_bidiagonal_chain() {
    let m = CsrMatrix::from_parts(4, 4, vec![0, 0, 1, 2, 3], vec![0, 1, 2], vec![1.0; 3]);
    let levels = levels_of(&TriangularMatrix::from_strict_lower(&m));
    assert_eq!(levels.critical_path(), 4);
    assert_eq!(order_from_levels(&levels), vec![0, 1, 2, 3]);
    assert_eq!(level_histogram(&levels), vec![1; 4]);
    assert_eq!(levels.level(0), 1);
    assert_eq!(levels.level(3), 4);
}

#[test]
fn empty_matrix_plan() {
    let m = CsrMatrix::from_parts(0, 0, vec![0], vec![], vec![]);
    let levels = levels_of(&TriangularMatrix::from_strict_lower(&m));
    assert_eq!(levels.critical_path(), 0);
    assert!(order_from_levels(&levels).is_empty());
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

/// The runtime sizes a strip-mined run's scratch to the largest block
/// window (core's `scratch_is_window_sized_not_data_sized`); the forward
/// solve's identity subscript makes every window its block.
#[test]
fn scratch_is_block_sized() {
    let (l, rhs) = grid_system(11, 10, 82);
    let loop_ = TriSolveLoop::new(&l, &rhs);
    for lo in (0..l.n()).step_by(16) {
        let hi = (lo + 16).min(l.n());
        assert_eq!(
            loop_.block_window(lo..hi),
            lo..hi,
            "identity subscript -> window == block"
        );
    }
    let (y, stats) =
        solve_blocked(&mut Doacross::new(0), &ThreadPool::new(2), &l, &rhs, 16).unwrap();
    assert_eq!(y, l.forward_solve(&rhs));
    assert_eq!(stats.blocks, l.n().div_ceil(16));
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
