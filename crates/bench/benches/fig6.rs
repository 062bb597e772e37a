//! Criterion bench regenerating Figure 6's workload on host threads:
//! the Figure 4 test loop at representative (L, M) grid points,
//! sequential vs. preprocessed doacross vs. §2.3 linear variant.
//!
//! The full 16-processor figure is produced by the simulator binary
//! (`--bin fig6`); this bench measures the real runtime's behaviour at
//! host parallelism so regressions in the construct itself show up in
//! `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use doacross_core::{seq::run_sequential, AccessPattern, Doacross, TestLoop};
use doacross_par::ThreadPool;
use std::hint::black_box;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(2)
}

fn bench_fig6(c: &mut Criterion) {
    let n = 10_000;
    let pool = ThreadPool::new(workers());
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    // Odd L (doall regime, pure overhead) and even L (dependence regime),
    // for both of the paper's M values.
    for &(l, m) in &[(7usize, 1usize), (7, 5), (8, 1), (8, 5), (4, 1), (14, 5)] {
        let loop_ = TestLoop::new(n, m, l);
        let y0 = loop_.initial_y();

        group.bench_with_input(
            BenchmarkId::new("sequential", format!("L{l}_M{m}")),
            &loop_,
            |b, loop_| {
                b.iter(|| {
                    let mut y = y0.clone();
                    run_sequential(loop_, &mut y);
                    black_box(y)
                })
            },
        );

        let mut runtime = Doacross::for_loop(&loop_);
        runtime.config_mut().validate_terms = false;
        group.bench_with_input(
            BenchmarkId::new("doacross", format!("L{l}_M{m}")),
            &loop_,
            |b, loop_| {
                b.iter(|| {
                    let mut y = y0.clone();
                    runtime.run(&pool, loop_, &mut y).expect("valid");
                    black_box(y)
                })
            },
        );

        let mut linear = Doacross::new(loop_.data_len());
        group.bench_with_input(
            BenchmarkId::new("linear", format!("L{l}_M{m}")),
            &loop_,
            |b, loop_| {
                b.iter(|| {
                    let mut y = y0.clone();
                    linear
                        .run_linear(&pool, loop_, &mut y, loop_.linear_subscript(), None)
                        .expect("valid");
                    black_box(y)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
