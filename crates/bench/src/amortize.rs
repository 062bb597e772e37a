//! Plan-cache amortization: the experiment the plan/engine subsystem
//! exists for.
//!
//! Three ways to run `k` triangular solves of one structure:
//!
//! * **re-inspect** — the inspected flat doacross, inspector on every
//!   call: what the paper's construct costs when nothing is amortized.
//! * **cold plan** — a full plan (fingerprint + census + cost model +
//!   capture) built on every call (an [`EngineSolver`] over a capacity-0
//!   engine): the worst case of the plan subsystem, bounding what a cache
//!   miss costs.
//! * **cached plan** — [`EngineSolver`]: one plan build, then `k − 1`
//!   cache hits that skip preprocessing entirely.
//!
//! The cached curve must drop under the re-inspect curve once the build
//! cost is spread over enough reuses (in practice immediately: a hit does
//! strictly less work per solve).
//!
//! [`concurrent_throughput`] additionally measures the redesign's whole
//! point: N threads solving through **one shared engine**, with the hit
//! rate observable in the merged cache stats.

use doacross_core::DoacrossConfig;
use doacross_engine::Engine;
use doacross_par::ThreadPool;
use doacross_plan::CacheStats;
use doacross_sparse::TriSystem;
use doacross_trisolve::{solver::SolverBackend, DoacrossSolver, EngineSolver};
use std::time::{Duration, Instant};

/// Total wall time of `reuses` consecutive solves under each policy.
#[derive(Debug, Clone, Copy)]
pub struct AmortizationPoint {
    /// Solves performed on the fixed structure.
    pub reuses: usize,
    /// Inspector-per-call flat doacross.
    pub reinspect: Duration,
    /// Plan built per call (cache disabled).
    pub cold_plan: Duration,
    /// Plan built once, then engine cache hits.
    pub cached: Duration,
}

impl AmortizationPoint {
    /// Speedup of cached over per-call re-inspection.
    pub fn speedup_vs_reinspect(&self) -> f64 {
        self.reinspect.as_secs_f64() / self.cached.as_secs_f64().max(1e-12)
    }
}

fn time<F: FnMut()>(mut f: F) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

fn engine_solver(workers: usize, capacity: usize) -> EngineSolver {
    EngineSolver::new(
        Engine::builder()
            .workers(workers)
            .cache_capacity(capacity)
            .build(),
    )
}

/// Measures the amortization curve for `sys` at the given reuse counts.
///
/// Each policy's timer covers the whole sequence of solves including its
/// (re)preprocessing, which is the quantity a caller actually pays.
pub fn amortization_curve(
    pool: &ThreadPool,
    sys: &TriSystem,
    reuse_counts: &[usize],
) -> Vec<AmortizationPoint> {
    let workers = pool.threads();
    reuse_counts
        .iter()
        .map(|&reuses| {
            // Inspector on every call.
            let mut reinspect_solver = DoacrossSolver::with_config(
                sys.l.n(),
                SolverBackend::Inspected,
                DoacrossConfig::default(),
            );
            let reinspect = time(|| {
                for _ in 0..reuses {
                    let (y, _) = reinspect_solver
                        .solve(pool, &sys.l, &sys.rhs)
                        .expect("valid");
                    std::hint::black_box(y);
                }
            });

            // Full plan built per call: capacity-0 cache never stores.
            let cold_solver = engine_solver(workers, 0);
            let cold_plan = time(|| {
                for _ in 0..reuses {
                    let (y, _) = cold_solver.solve(&sys.l, &sys.rhs).expect("valid");
                    std::hint::black_box(y);
                }
            });

            // Plan built once, then hits.
            let cached_solver = engine_solver(workers, 2);
            let cached = time(|| {
                for _ in 0..reuses {
                    let (y, _) = cached_solver.solve(&sys.l, &sys.rhs).expect("valid");
                    std::hint::black_box(y);
                }
            });
            debug_assert_eq!(cached_solver.cache_stats().misses, 1);

            AmortizationPoint {
                reuses,
                reinspect,
                cold_plan,
                cached,
            }
        })
        .collect()
}

/// Result of a shared-engine concurrency run.
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentThroughput {
    /// Worker threads driving solves (not pool workers).
    pub threads: usize,
    /// Solves completed across all threads.
    pub solves: usize,
    /// Wall time for the whole run.
    pub elapsed: Duration,
    /// Merged cache stats over the run (hit rate is the headline).
    pub stats: CacheStats,
}

impl ConcurrentThroughput {
    /// Solves per second across all threads.
    pub fn solves_per_sec(&self) -> f64 {
        self.solves as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// `threads` caller threads each performing `solves_per_thread` solves of
/// `sys` through **one shared engine** — the multi-tenant serving shape.
/// The first solve of the structure plans it; everything else hits the
/// sharded cache concurrently.
pub fn concurrent_throughput(
    engine: &Engine,
    sys: &TriSystem,
    threads: usize,
    solves_per_thread: usize,
) -> ConcurrentThroughput {
    let before = engine.cache_stats();
    let solver = EngineSolver::new(engine.clone());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let solver = &solver;
            scope.spawn(move || {
                for _ in 0..solves_per_thread {
                    let (y, _) = solver.solve(&sys.l, &sys.rhs).expect("valid");
                    std::hint::black_box(y);
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let after = engine.cache_stats();
    ConcurrentThroughput {
        threads,
        solves: threads * solves_per_thread,
        elapsed,
        stats: CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            insertions: after.insertions - before.insertions,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_sparse::{Problem, ProblemKind};

    #[test]
    fn curve_measures_every_point() {
        let sys = Problem::build_seeded(ProblemKind::FivePt, 1).triangular_system();
        let pool = ThreadPool::new(2);
        let points = amortization_curve(&pool, &sys, &[1, 4]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.reinspect > Duration::ZERO);
            assert!(p.cold_plan > Duration::ZERO);
            assert!(p.cached > Duration::ZERO);
        }
        assert_eq!(points[0].reuses, 1);
        assert_eq!(points[1].reuses, 4);
    }

    #[test]
    fn concurrent_throughput_hits_the_shared_cache() {
        let sys = Problem::build_seeded(ProblemKind::FivePt, 2).triangular_system();
        let engine = Engine::builder().workers(2).cache_capacity(4).build();
        let result = concurrent_throughput(&engine, &sys, 3, 4);
        assert_eq!(result.solves, 12);
        assert_eq!(result.stats.misses, 1, "one structure, one plan");
        assert_eq!(result.stats.hits, 11);
        assert!(result.stats.hit_rate() > 0.9);
        assert!(result.solves_per_sec() > 0.0);
    }
}
