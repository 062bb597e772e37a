//! Criterion ablations of the design choices DESIGN.md calls out, on host
//! threads: scheduling policy, §2.3 variants (blocked, linear), and wait
//! strategy, all on fixed workloads so `cargo bench` tracks regressions in
//! each dimension independently.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use doacross_core::{Doacross, DoacrossConfig, TestLoop};
use doacross_par::{Schedule, ThreadPool, WaitStrategy};
use std::hint::black_box;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(2)
}

/// Scheduling policies on a dependence-bearing loop (L=8, M=3).
fn bench_schedules(c: &mut Criterion) {
    let pool = ThreadPool::new(workers());
    let loop_ = TestLoop::new(10_000, 3, 8);
    let y0 = loop_.initial_y();
    let mut group = c.benchmark_group("ablation_schedule");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (name, sched) in [
        ("multimax_dyn1", Schedule::Dynamic { chunk: 1 }),
        ("dyn16", Schedule::Dynamic { chunk: 16 }),
        ("static_block", Schedule::StaticBlock),
        ("static_cyclic", Schedule::StaticCyclic),
    ] {
        let mut rt = Doacross::with_config(
            loop_.initial_y().len(),
            DoacrossConfig {
                schedule: sched,
                validate_terms: false,
                ..Default::default()
            },
        );
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut y = y0.clone();
                rt.run(&pool, &loop_, &mut y).expect("valid");
                black_box(y)
            })
        });
    }
    group.finish();
}

/// Flat vs. blocked vs. linear execution of the same loop.
fn bench_variants(c: &mut Criterion) {
    let pool = ThreadPool::new(workers());
    let loop_ = TestLoop::new(20_000, 2, 8);
    let y0 = loop_.initial_y();
    let mut group = c.benchmark_group("ablation_variant");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let mut flat = Doacross::for_loop(&loop_);
    flat.config_mut().validate_terms = false;
    group.bench_function("flat_inspected", |b| {
        b.iter(|| {
            let mut y = y0.clone();
            flat.run(&pool, &loop_, &mut y).expect("valid");
            black_box(y)
        })
    });

    let mut linear = Doacross::new(y0.len());
    linear.config_mut().validate_terms = false;
    group.bench_function("linear_no_inspector", |b| {
        b.iter(|| {
            let mut y = y0.clone();
            linear
                .run_linear(&pool, &loop_, &mut y, loop_.linear_subscript(), None)
                .expect("valid");
            black_box(y)
        })
    });

    for bs in [2_000usize, 10_000] {
        let mut blocked = Doacross::new(0);
        blocked.config_mut().validate_terms = false;
        group.bench_function(BenchmarkId::new("blocked", bs), |b| {
            b.iter(|| {
                let mut y = y0.clone();
                blocked
                    .run_blocked(&pool, &loop_, &mut y, bs)
                    .expect("valid");
                black_box(y)
            })
        });
    }
    group.finish();
}

/// Wait strategies on the serialized L=4 chain.
fn bench_wait(c: &mut Criterion) {
    let pool = ThreadPool::new(workers());
    let loop_ = TestLoop::new(5_000, 1, 4);
    let y0 = loop_.initial_y();
    let mut group = c.benchmark_group("ablation_wait");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for (name, wait) in [
        ("spin", WaitStrategy::Spin),
        ("spin_yield", WaitStrategy::SpinYield { spins: 128 }),
        ("backoff", WaitStrategy::Backoff { max_spin_batch: 64 }),
    ] {
        let mut rt = Doacross::with_config(
            y0.len(),
            DoacrossConfig {
                wait,
                validate_terms: false,
                ..Default::default()
            },
        );
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut y = y0.clone();
                rt.run(&pool, &loop_, &mut y).expect("valid");
                black_box(y)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedules, bench_variants, bench_wait);
criterion_main!(benches);
