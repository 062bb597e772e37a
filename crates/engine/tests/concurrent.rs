//! Concurrency tests: one shared [`Engine`] serving many threads.
//!
//! These are the acceptance tests for the session redesign — prepared
//! loops as first-class values executed from many threads, cache traffic
//! that reconciles exactly, a cache that holds exactly its capacity, and
//! invalidation that retires in-flight handles without tearing down the
//! engine.

use doacross_core::{seq::run_sequential, AccessPattern, PlanProvenance, TestLoop};
use doacross_engine::{Engine, EngineError, PreparedLoop};
use doacross_plan::PatternFingerprint;
use doacross_sparse::{ilu0, stencil::five_point, TriangularMatrix};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Distinct Figure 4 structures: (iterations, M, L) triples with distinct
/// fingerprints and a mix of doall / dependence-carrying shapes.
fn patterns() -> Vec<TestLoop> {
    vec![
        TestLoop::new(400, 1, 7),
        TestLoop::new(400, 1, 8),
        TestLoop::new(300, 2, 4),
        TestLoop::new(500, 3, 9),
    ]
}

/// ≥2 threads execute through one shared `Engine`, every result matches
/// the sequential oracle, and the shared cache serves a nonzero hit rate
/// with each structure planned exactly once.
#[test]
fn shared_engine_serves_concurrent_threads_with_cache_hits() {
    let engine = Engine::builder().workers(2).cache_capacity(16).build();
    let loops = patterns();
    let oracles: Vec<Vec<f64>> = loops
        .iter()
        .map(|l| {
            let mut y = l.initial_y();
            run_sequential(l, &mut y);
            y
        })
        .collect();

    const THREADS: usize = 4;
    const ROUNDS: usize = 5;
    let hits_seen = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = engine.clone();
            let (loops, oracles, hits_seen) = (&loops, &oracles, &hits_seen);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Stagger the pattern order per thread so threads race
                    // on *different* structures most of the time.
                    for k in 0..loops.len() {
                        let i = (k + t + round) % loops.len();
                        let mut y = loops[i].initial_y();
                        let stats = engine.run(&loops[i], &mut y).expect("valid loop");
                        assert_eq!(y, oracles[i], "thread {t} round {round} pattern {i}");
                        if stats.provenance == PlanProvenance::PlanCached {
                            hits_seen.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let total = (THREADS * ROUNDS * loops.len()) as u64;
    let stats = engine.cache_stats();
    assert_eq!(stats.hits + stats.misses, total, "every lookup accounted");
    assert_eq!(
        stats.misses,
        loops.len() as u64,
        "build-under-shard-lock plans each structure exactly once"
    );
    assert!(stats.hits > 0, "nonzero hit rate across threads");
    assert_eq!(stats.hits, hits_seen.load(Ordering::Relaxed));
    assert_eq!(engine.cache_len(), loops.len());
}

/// Prepared handles are first-class values: cloned across threads, all
/// executing one plan concurrently, bit-identical results everywhere.
#[test]
fn cloned_prepared_handles_execute_from_many_threads() {
    let engine = Engine::builder().workers(2).build();
    let loop_ = TestLoop::new(800, 2, 8);
    let mut oracle = loop_.initial_y();
    run_sequential(&loop_, &mut oracle);

    let prepared: PreparedLoop = engine.prepare(&loop_).expect("plannable");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let handle = prepared.clone();
            let (loop_, oracle) = (&loop_, &oracle);
            scope.spawn(move || {
                for _ in 0..3 {
                    let mut y = loop_.initial_y();
                    handle.execute(loop_, &mut y).expect("valid");
                    assert_eq!(&y, oracle);
                }
            });
        }
    });
    // The handle bypasses lookup entirely: no cache traffic beyond the
    // single prepare.
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1));
}

/// N threads × M patterns with a cache too small for the working set:
/// hits + misses == lookups, insertions == misses, and the net of
/// insertions − evictions equals the plans still resident.
#[test]
fn stress_traffic_reconciles_across_shards() {
    let engine = Engine::builder().workers(2).cache_capacity(4).build();
    // 12 distinct structures over a 4-plan cache: constant eviction churn.
    let loops: Vec<TestLoop> = (0..12)
        .map(|k| TestLoop::new(200 + 10 * k, 1 + k % 3, 4 + k % 7))
        .collect();

    const THREADS: usize = 4;
    const ROUNDS: usize = 6;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = engine.clone();
            let loops = &loops;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    for k in 0..loops.len() {
                        let i = (k * (t + 1) + round) % loops.len();
                        let mut y = loops[i].initial_y();
                        engine.run(&loops[i], &mut y).expect("valid");
                    }
                }
            });
        }
    });

    let stats = engine.cache_stats();
    let lookups = (THREADS * ROUNDS * loops.len()) as u64;
    assert_eq!(stats.hits + stats.misses, lookups);
    assert_eq!(
        stats.insertions, stats.misses,
        "every miss builds and inserts exactly once; no duplicate builds"
    );
    assert!(stats.evictions > 0, "working set exceeds capacity");
    assert_eq!(
        stats.insertions - stats.evictions,
        engine.cache_len() as u64,
        "the ledger reconciles with resident plans"
    );
    assert!(engine.cache_len() <= 4);
}

/// An engine built with `.cache_capacity(c)` holds exactly `c` plans: a
/// second pass over `c` distinct structures hits all `c`, and preparing a
/// `(c+1)`th evicts exactly the least recently used one.
#[test]
fn the_cache_holds_exactly_its_capacity() {
    for c in 1..=5 {
        let engine = Engine::builder().workers(2).cache_capacity(c).build();
        let loops: Vec<TestLoop> = (0..=c).map(|k| TestLoop::new(100 + 10 * k, 1, 4)).collect();
        let prepare = |l: &TestLoop| engine.prepare(l).expect("plannable").from_cache();
        assert!(loops[..c].iter().all(|l| !prepare(l)), "c = {c}: cold pass");
        let hits = loops[..c].iter().filter(|l| prepare(l)).count();
        assert_eq!(hits, c, "c = {c}: second pass hits every structure");
        // `loops[0]` is now the least recently used.
        assert!(!prepare(&loops[c]), "c = {c}: a new structure misses");
        assert_eq!(engine.cache_len(), c, "c = {c}");
        assert_eq!(engine.cache_stats().evictions, 1, "c = {c}");
        assert!(
            !prepare(&loops[0]),
            "c = {c}: the LRU structure was evicted"
        );
    }
}

/// A pattern that panics on its first read past `budget`.
struct PanicsAfter {
    inner: TestLoop,
    budget: usize,
    reads: AtomicUsize,
}

impl PanicsAfter {
    fn new(inner: TestLoop, budget: usize) -> Self {
        Self {
            inner,
            budget,
            reads: AtomicUsize::new(0),
        }
    }

    fn read(&self) {
        if self.reads.fetch_add(1, Ordering::Relaxed) >= self.budget {
            panic!("pattern read past its budget");
        }
    }
}

impl AccessPattern for PanicsAfter {
    fn iterations(&self) -> usize {
        self.read();
        self.inner.iterations()
    }

    fn data_len(&self) -> usize {
        self.read();
        self.inner.data_len()
    }

    fn lhs(&self, i: usize) -> usize {
        self.read();
        self.inner.lhs(i)
    }

    fn terms(&self, i: usize) -> usize {
        self.read();
        self.inner.terms(i)
    }

    fn term_element(&self, i: usize, j: usize) -> usize {
        self.read();
        self.inner.term_element(i, j)
    }
}

/// A plan build that panics — it runs under the cache lock — unwinds out
/// of `prepare` and leaves the engine serving: the next structure
/// prepares and then hits, and the panicked build counts one miss and no
/// insertion.
#[test]
fn a_build_that_panics_under_the_cache_lock_leaves_the_engine_serving() {
    let engine = Engine::builder().workers(2).cache_capacity(4).build();
    // Budget the pattern exactly the reads fingerprinting takes, so its
    // first read after `PatternFingerprint::of` is the build's.
    let counted = PanicsAfter::new(TestLoop::new(300, 1, 5), usize::MAX);
    PatternFingerprint::of(&counted);
    let budget = counted.reads.load(Ordering::Relaxed);
    let pattern = PanicsAfter::new(TestLoop::new(300, 1, 5), budget);

    let outcome = catch_unwind(AssertUnwindSafe(|| engine.prepare(&pattern)));
    assert!(outcome.is_err(), "the build panicked out of prepare");
    let s = engine.cache_stats();
    assert_eq!((s.hits, s.misses, s.insertions), (0, 1, 0));

    let other = TestLoop::new(400, 2, 6);
    assert!(!engine
        .prepare(&other)
        .expect("the cache lock recovers")
        .from_cache());
    assert!(engine.prepare(&other).expect("plannable").from_cache());
    let s = engine.cache_stats();
    assert_eq!((s.hits, s.misses, s.insertions), (1, 2, 1));
    assert_eq!(engine.cache_len(), 1);
}

/// Invalidation during concurrent execution: stale handles fail with the
/// typed error, the engine replans, and fresh handles keep working.
#[test]
fn concurrent_invalidation_fails_stale_handles_fast() {
    let engine = Engine::builder().workers(2).build();
    let loop_ = TestLoop::new(600, 1, 8);
    let mut oracle = loop_.initial_y();
    run_sequential(&loop_, &mut oracle);

    let prepared = engine.prepare(&loop_).expect("plannable");
    let fingerprint = *prepared.fingerprint();

    let stale_errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let handle = prepared.clone();
            let (loop_, oracle, stale_errors) = (&loop_, &oracle, &stale_errors);
            scope.spawn(move || {
                // Execute until the invalidation (guaranteed below) is
                // observed: successful runs stay correct right up to it.
                loop {
                    let mut y = loop_.initial_y();
                    match handle.execute(loop_, &mut y) {
                        Ok(_) => assert_eq!(&y, oracle),
                        Err(EngineError::StalePlan {
                            prepared_generation,
                            current_generation,
                            ..
                        }) => {
                            assert_eq!(prepared_generation, 0);
                            assert_eq!(current_generation, 1);
                            stale_errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
        // Let the executors get going, then pull the plan out from under
        // them mid-stream.
        std::thread::sleep(std::time::Duration::from_millis(2));
        engine.invalidate(&fingerprint);
    });

    assert_eq!(
        stale_errors.load(Ordering::Relaxed),
        3,
        "every thread eventually observes the invalidation"
    );
    // The engine itself is unharmed: re-prepare and run.
    let fresh = engine.prepare(&loop_).expect("replannable");
    assert_eq!(fresh.generation(), 1);
    let mut y = loop_.initial_y();
    fresh.execute(&loop_, &mut y).expect("fresh handle works");
    assert_eq!(y, oracle);
}

/// The multi-tenant shape the redesign is for: several threads, several
/// *sparse-factor* structures (the paper's §3.2 workload, expressed as
/// indirect loops over real ILU(0) sparsity), one engine behind an `Arc`.
#[test]
fn multi_tenant_sparse_structures_share_one_engine() {
    use doacross_core::IndirectLoop;

    // Forward-substitution-shaped loops over three distinct ILU(0)
    // factors: y[i] += Σ_j (−L_ij)·y[col_j], row by row.
    let loops: Vec<IndirectLoop> = [(9usize, 7usize, 1u64), (8, 8, 2), (6, 11, 3)]
        .iter()
        .map(|&(nx, ny, seed)| {
            let l = TriangularMatrix::from_strict_lower(&ilu0(&five_point(nx, ny, seed)).l);
            let n = l.n();
            let a: Vec<usize> = (0..n).collect();
            let rhs: Vec<Vec<usize>> = (0..n).map(|i| l.row_cols(i).to_vec()).collect();
            let coeff: Vec<Vec<f64>> = (0..n)
                .map(|i| l.row_values(i).iter().map(|v| -v).collect())
                .collect();
            IndirectLoop::new(n, a, rhs, coeff).expect("valid structure")
        })
        .collect();
    let oracles: Vec<Vec<f64>> = loops
        .iter()
        .map(|l| {
            let mut y = vec![1.0; l.data_len()];
            run_sequential(l, &mut y);
            y
        })
        .collect();

    let engine = Arc::new(Engine::builder().workers(2).cache_capacity(8).build());
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let engine = Arc::clone(&engine);
            let (loops, oracles) = (&loops, &oracles);
            scope.spawn(move || {
                for _ in 0..4 {
                    for (l, oracle) in loops.iter().zip(oracles) {
                        let mut y = vec![1.0; l.data_len()];
                        engine.run(l, &mut y).expect("valid");
                        assert_eq!(&y, oracle);
                    }
                }
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 3, "one plan per tenant structure");
    assert_eq!(stats.hits, (3 * 4 * 3 - 3) as u64);
}
