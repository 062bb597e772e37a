//! Plan-cached triangular solves: the Krylov-iteration fast path.
//!
//! A preconditioned iterative solver calls the triangular solve once (or
//! twice) per iteration on a **fixed** sparsity structure with changing
//! right-hand sides — the exact workload the paper's amortization argument
//! is about. [`EngineSolver`] routes each solve through a shared
//! [`doacross_engine::Engine`]: the first solve of a structure
//! fingerprints it, runs the cost model, and caches the chosen variant's
//! preprocessing products; every subsequent solve of that structure (any
//! rhs — the fingerprint covers index arrays only) skips inspection,
//! dependence analysis, and ordering entirely, observable via
//! [`doacross_core::PlanProvenance::PlanCached`] in the returned stats.
//!
//! The engine holds a sharded LRU of plans across *many* structures — e.g.
//! the L and U factors of several preconditioners in one service — and
//! because every entry point is `&self`, one solver instance serves
//! concurrent solve threads without external locking.

use crate::fig7::TriSolveLoop;
use doacross_core::RunStats;
use doacross_engine::{Engine, EngineError, PreparedLoop};
use doacross_plan::CacheStats;
use doacross_sparse::TriangularMatrix;

/// Thread-safe preprocessed-doacross triangular solver over a shared
/// [`Engine`] (see module docs).
///
/// ```
/// use doacross_engine::Engine;
/// use doacross_sparse::{ilu0, stencil::five_point, TriangularMatrix};
/// use doacross_trisolve::EngineSolver;
/// use doacross_core::PlanProvenance;
///
/// let a = five_point(8, 8, 3);
/// let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
/// let solver = EngineSolver::new(Engine::builder().workers(2).build());
///
/// let rhs1 = vec![1.0; l.n()];
/// let (y1, cold) = solver.solve(&l, &rhs1).unwrap();
/// assert_eq!(y1, l.forward_solve(&rhs1));
/// assert_eq!(cold.provenance, PlanProvenance::PlanCold);
///
/// // A different rhs on the same structure hits the cached plan.
/// let rhs2: Vec<f64> = (0..l.n()).map(|i| (i % 7) as f64).collect();
/// let (y2, hot) = solver.solve(&l, &rhs2).unwrap();
/// assert_eq!(y2, l.forward_solve(&rhs2));
/// assert_eq!(hot.provenance, PlanProvenance::PlanCached);
/// ```
#[derive(Debug, Clone)]
pub struct EngineSolver {
    engine: Engine,
}

impl EngineSolver {
    /// Solver over `engine` — typically a clone of a session-wide engine,
    /// so triangular solves share the pool and plan cache with everything
    /// else the service runs. A restarted process warm-starts the engine
    /// itself ([`doacross_engine::EngineBuilder::warm_start`]), so the
    /// first solve of a structure a previous process saved is a hit.
    pub fn new(engine: Engine) -> Self {
        Self { engine }
    }

    /// Checkpoints the engine's plan cache to `path` (see
    /// [`doacross_engine::Engine::save_plans`]); returns the number of
    /// plans saved.
    pub fn save_plans(&self, path: impl AsRef<std::path::Path>) -> Result<usize, EngineError> {
        self.engine.save_plans(path)
    }

    /// Solves `L y = rhs`; returns `y` (bit-identical to
    /// [`TriangularMatrix::forward_solve`]) and the run statistics, whose
    /// `provenance` field tells whether this solve reused a cached plan.
    ///
    /// **Price:** this is [`Engine::run`] — each call fingerprints `l`'s
    /// index arrays to find its plan (≈ 1.2 bare solves at Table-1 size)
    /// and allocates `y`. An iteration loop over one structure should take
    /// the handle from [`EngineSolver::prepare`] once and call
    /// [`PreparedLoop::execute`] per right-hand side instead.
    pub fn solve(
        &self,
        l: &TriangularMatrix,
        rhs: &[f64],
    ) -> Result<(Vec<f64>, RunStats), EngineError> {
        let loop_ = TriSolveLoop::new(l, rhs);
        // The executor's `init` seeds from rhs, so y's initial contents are
        // arbitrary.
        let mut y = vec![0.0; l.n()];
        let stats = self.engine.run(&loop_, &mut y)?;
        Ok((y, stats))
    }

    /// Resolves the structure of `l` to a reusable [`PreparedLoop`] handle
    /// without solving. The handle is keyed on the sparsity structure
    /// alone, so it executes any [`TriSolveLoop`] over `l` regardless of
    /// rhs.
    pub fn prepare(&self, l: &TriangularMatrix) -> Result<PreparedLoop, EngineError> {
        // Fingerprints are value-blind: a zero rhs carries the structure.
        let rhs = vec![0.0; l.n()];
        self.engine.prepare(&TriSolveLoop::new(l, &rhs))
    }

    /// The shared engine (plan/cache introspection, invalidation).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Plan-cache traffic counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::PlanProvenance;
    use doacross_sparse::{ilu0, stencil::five_point, vec_ops::max_abs_diff};

    fn grid_factor(nx: usize, ny: usize, seed: u64) -> TriangularMatrix {
        TriangularMatrix::from_strict_lower(&ilu0(&five_point(nx, ny, seed)).l)
    }

    fn solver(workers: usize, capacity: usize) -> EngineSolver {
        EngineSolver::new(
            Engine::builder()
                .workers(workers)
                .cache_capacity(capacity)
                .build(),
        )
    }

    #[test]
    fn repeated_solves_hit_the_cache_and_stay_exact() {
        let l = grid_factor(12, 10, 7);
        let solver = solver(4, 4);
        for round in 0..5 {
            let rhs: Vec<f64> = (0..l.n())
                .map(|i| 1.0 + ((i + round) % 9) as f64 * 0.25)
                .collect();
            let (y, stats) = solver.solve(&l, &rhs).unwrap();
            assert_eq!(y, l.forward_solve(&rhs), "round {round}");
            if round == 0 {
                assert_eq!(stats.provenance, PlanProvenance::PlanCold);
            } else {
                assert_eq!(
                    stats.provenance,
                    PlanProvenance::PlanCached,
                    "round {round}"
                );
                assert_eq!(stats.inspector, std::time::Duration::ZERO);
            }
        }
        let s = solver.cache_stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 4);
    }

    #[test]
    fn multiple_structures_share_one_solver() {
        let solver = solver(2, 8);
        let factors: Vec<TriangularMatrix> = [(9, 7, 1u64), (8, 8, 2), (6, 11, 3)]
            .iter()
            .map(|&(nx, ny, s)| grid_factor(nx, ny, s))
            .collect();
        // Interleave solves across structures: each structure planned once.
        for round in 0..3 {
            for l in &factors {
                let rhs = vec![1.0 + round as f64; l.n()];
                let (y, _) = solver.solve(l, &rhs).unwrap();
                assert!(max_abs_diff(&y, &l.forward_solve(&rhs)) == 0.0);
            }
        }
        let s = solver.cache_stats();
        assert_eq!(s.misses, 3, "one plan per structure");
        assert_eq!(s.hits, 6);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn concurrent_tenants_solve_through_one_engine_solver() {
        // The multi-tenant workload the engine redesign exists for: three
        // threads, three preconditioner factors, one shared solver — all
        // solves exact, every structure planned exactly once.
        let solver = solver(2, 8);
        let factors: Vec<TriangularMatrix> = [(10, 6, 11u64), (7, 9, 12), (8, 8, 13)]
            .iter()
            .map(|&(nx, ny, s)| grid_factor(nx, ny, s))
            .collect();
        std::thread::scope(|scope| {
            for t in 0..3usize {
                let solver = &solver;
                let factors = &factors;
                scope.spawn(move || {
                    for round in 0..4usize {
                        for (fi, l) in factors.iter().enumerate() {
                            let rhs: Vec<f64> = (0..l.n())
                                .map(|i| 1.0 + ((i + t + round) % 5) as f64)
                                .collect();
                            let (y, _) = solver.solve(l, &rhs).unwrap();
                            assert_eq!(y, l.forward_solve(&rhs), "tenant {t} factor {fi}");
                        }
                    }
                });
            }
        });
        let s = solver.cache_stats();
        assert_eq!(s.misses, 3, "build-under-lock: one plan per structure");
        assert_eq!(s.hits + s.misses, 3 * 4 * 3);
    }

    #[test]
    fn warm_started_solver_hits_on_its_first_solve() {
        let path = std::env::temp_dir().join(format!(
            "doacross-trisolve-warm-{}.plans",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let l = grid_factor(11, 9, 42);
        let rhs = vec![1.0; l.n()];

        // "First process": missing store → cold start, solve, checkpoint.
        let first = EngineSolver::new(
            Engine::builder()
                .workers(2)
                .cache_capacity(8)
                .warm_start(&path)
                .build(),
        );
        let (_, stats) = first.solve(&l, &rhs).unwrap();
        assert_eq!(stats.provenance, PlanProvenance::PlanCold);
        assert_eq!(first.save_plans(&path).unwrap(), 1);

        // "Restarted process": same structure, first solve is a hit.
        let second = EngineSolver::new(
            Engine::builder()
                .workers(2)
                .cache_capacity(8)
                .warm_start(&path)
                .build(),
        );
        let (y, stats) = second.solve(&l, &rhs).unwrap();
        assert_eq!(stats.provenance, PlanProvenance::PlanCached);
        assert_eq!(stats.inspector, std::time::Duration::ZERO);
        assert_eq!(y, l.forward_solve(&rhs));
        let s = second.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 0), "restart skipped the replan");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn prepared_handles_cover_any_rhs() {
        let l = grid_factor(10, 10, 55);
        let solver = solver(4, 2);
        let prepared = solver.prepare(&l).unwrap();
        for round in 0..3 {
            let rhs: Vec<f64> = (0..l.n()).map(|i| ((i * round) % 7) as f64).collect();
            let loop_ = TriSolveLoop::new(&l, &rhs);
            let mut y = vec![0.0; l.n()];
            prepared.execute(&loop_, &mut y).unwrap();
            assert_eq!(y, l.forward_solve(&rhs), "round {round}");
        }
    }

    #[test]
    fn trisolve_plans_pick_a_parallel_variant_on_grids() {
        // The 10x10 five-point ILU(0) factor has average parallelism ≈ 5;
        // priced for the paper's machine (the Multimax preset — this
        // host's own model decides for itself) the planner must not fall
        // back to sequential on 4 workers.
        let l = grid_factor(10, 10, 55);
        let solver = EngineSolver::new(
            Engine::builder()
                .workers(4)
                .cache_capacity(2)
                .planner(doacross_plan::Planner::new())
                .build(),
        );
        let rhs = vec![1.0; l.n()];
        let (_, stats) = solver.solve(&l, &rhs).unwrap();
        assert!(
            stats.workers > 1,
            "expected a parallel plan for a wide wavefront structure"
        );
    }
}
