//! Criterion micro-benchmarks of the runtime's building blocks: pool
//! dispatch, self-scheduled `parallel do` throughput, inspector and
//! postprocessor sweeps, and the ready-flag protocol. These are the
//! quantities the simulator's cost model abstracts; benchmarking them
//! keeps the model's ratios honest on the host.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use doacross_core::{
    flags::{IterMap, ReadyFlags},
    inspector::run_inspector,
    IndirectLoop,
};
use doacross_par::{parallel_for, Schedule, ThreadPool};
use std::hint::black_box;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(2)
}

fn bench_pool_dispatch(c: &mut Criterion) {
    let pool = ThreadPool::new(workers());
    c.bench_function("pool/dispatch_empty_region", |b| {
        b.iter(|| {
            pool.run(|w| {
                black_box(w);
            })
        });
    });
}

fn bench_parallel_for(c: &mut Criterion) {
    let pool = ThreadPool::new(workers());
    let n = 100_000usize;
    let mut group = c.benchmark_group("parallel_for");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(n as u64));
    for (name, sched) in [
        ("dynamic1", Schedule::Dynamic { chunk: 1 }),
        ("dynamic64", Schedule::Dynamic { chunk: 64 }),
        ("static_block", Schedule::StaticBlock),
        ("static_cyclic", Schedule::StaticCyclic),
        ("guided", Schedule::Guided { min_chunk: 8 }),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let sink: Vec<std::sync::atomic::AtomicU64> =
                (0..workers()).map(|_| Default::default()).collect();
            b.iter(|| {
                parallel_for(&pool, n, sched, |i| {
                    // A trivially cheap body isolates scheduling overhead.
                    black_box(i);
                });
                black_box(&sink);
            })
        });
    }
    group.finish();
}

fn bench_flags(c: &mut Criterion) {
    let n = 100_000usize;
    let mut group = c.benchmark_group("flags");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(n as u64));
    let mut ready = ReadyFlags::new(n);
    group.bench_function("ready_mark_and_retire", |b| {
        b.iter(|| {
            for e in 0..n {
                ready.mark_done(e);
            }
            ready.retire();
        })
    });
    let map = IterMap::new(n);
    group.bench_function("iter_record_and_clear", |b| {
        b.iter(|| {
            for e in 0..n {
                black_box(map.record(e, e));
            }
            for e in 0..n {
                map.clear(e);
            }
        })
    });
    group.finish();
}

fn bench_inspector(c: &mut Criterion) {
    let pool = ThreadPool::new(workers());
    let n = 100_000usize;
    let a: Vec<usize> = (0..n).collect();
    let loop_ = IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
    let map = IterMap::new(n);
    let mut group = c.benchmark_group("inspector");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("fill_and_manual_reset", |b| {
        b.iter(|| {
            run_inspector(
                &pool,
                Schedule::Dynamic { chunk: 256 },
                &loop_,
                0..n,
                0..n,
                &map,
                false,
            )
            .expect("injective");
            for e in 0..n {
                map.clear(e);
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pool_dispatch,
    bench_parallel_for,
    bench_flags,
    bench_inspector
);
criterion_main!(benches);
