//! Allocation audit of the preconditioner: once warm, an application is two
//! `PreparedLoop::execute` calls over the preconditioner's own scratch and
//! the caller's output, so the calling thread's heap bill is exactly zero —
//! on the default engine and on one that plans both halves parallel.

use doacross_core::alloc::{thread_allocations, CountingAllocator};
use doacross_engine::Engine;
use doacross_plan::Planner;
use doacross_sparse::stencil::five_point;
use doacross_trisolve::IluPreconditioner;

#[global_allocator]
static AUDIT: CountingAllocator = CountingAllocator;

/// Warm applications through `engine` allocate nothing; returns the region
/// dispatches one warm application cost.
fn warm_apply_allocates_nothing(engine: &Engine) -> u64 {
    let a = five_point(24, 20, 127);
    let mut m = IluPreconditioner::new(engine, &a).expect("plannable");
    let r: Vec<f64> = (0..m.n()).map(|i| 1.0 + (i % 9) as f64 * 0.25).collect();
    let expect = m.apply_sequential(&r);
    let mut z = vec![0.0; m.n()];

    // Warm-up: a parallel half's first solve on a sub-pool grows that
    // lease's scratch, so every sub-pool serves one application first.
    for _ in 0..engine.pools() {
        m.apply_into(&r, &mut z).expect("warm-up");
    }
    let mut dispatches = 0;
    for round in 0..3 {
        let before = (thread_allocations(), engine.pool().dispatches());
        m.apply_into(&r, &mut z).expect("valid");
        let after = (thread_allocations(), engine.pool().dispatches());
        assert_eq!(after.0 - before.0, 0, "warm application {round} allocated");
        assert_eq!(z, expect);
        dispatches = after.1 - before.1;
    }
    dispatches
}

#[test]
fn a_warm_application_allocates_nothing_on_the_default_engine() {
    warm_apply_allocates_nothing(&Engine::builder().build());
}

#[test]
fn a_warm_parallel_application_allocates_nothing() {
    // The paper's Multimax preset plans both halves of a grid factor
    // parallel on four workers: two regions per application, no heap.
    let engine = Engine::builder()
        .workers(4)
        .pools(1)
        .planner(Planner::new())
        .build();
    assert_eq!(warm_apply_allocates_nothing(&engine), 2);
}

#[test]
fn the_audit_allocator_actually_counts() {
    let before = thread_allocations();
    let v: Vec<u8> = Vec::with_capacity(1024);
    let after = thread_allocations();
    drop(v);
    assert!(after > before, "global audit allocator not installed");
}
