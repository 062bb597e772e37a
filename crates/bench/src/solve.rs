//! End-user tool: load a (general, square) matrix in Matrix Market
//! format, ILU(0)-factor it, and solve the unit lower-triangular system
//! sequentially and with each way the runtime runs it — the full §3.2
//! pipeline on a matrix of your own.
//!
//! Usage:
//!   cargo run -p doacross-bench --release -- solve MATRIX.mtx \
//!       [--solver seq|doacross|reordered|blocked] \
//!       [--workers N] [--reps R] [--block B]
//!
//! With no file argument, a built-in 63×63 five-point demo matrix is used.

use crate::report::Table;
use doacross_core::Doacross;
use doacross_doconsider::{reorder::order_from_levels, DependenceDag, LevelAssignment};
use doacross_par::ThreadPool;
use doacross_sparse::{
    ilu0, io::read_matrix_market, stencil::five_point, CsrMatrix, TriangularMatrix,
};
use doacross_trisolve::{verify::residual, TriSolveLoop};
use std::io::BufReader;
use std::time::{Duration, Instant};

struct Args {
    path: Option<String>,
    solver: String,
    workers: usize,
    reps: usize,
    block: usize,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        path: None,
        solver: "all".to_string(),
        workers: std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(2),
        reps: 5,
        block: 256,
    };
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--solver" => args.solver = it.next().expect("--solver needs a value"),
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a number")
            }
            "--reps" => {
                args.reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a number")
            }
            "--block" => {
                args.block = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--block needs a number")
            }
            other if !other.starts_with("--") => args.path = Some(other.to_string()),
            other => panic!("unknown option {other:?}"),
        }
    }
    args
}

fn load_matrix(path: &Option<String>) -> CsrMatrix {
    match path {
        Some(p) => {
            let file = std::fs::File::open(p).unwrap_or_else(|e| panic!("open {p:?}: {e}"));
            read_matrix_market(BufReader::new(file)).unwrap_or_else(|e| panic!("parse {p:?}: {e}"))
        }
        None => {
            eprintln!("(no matrix given: using a built-in 63x63 five-point demo operator)");
            five_point(63, 63, 42)
        }
    }
}

/// `repro solve`: `args` is the command line after the subcommand.
pub fn run(args: impl Iterator<Item = String>) {
    let args = parse_args(args);
    let a = load_matrix(&args.path);
    assert_eq!(a.nrows(), a.ncols(), "matrix must be square");
    println!("A: {} x {} with {} nonzeros", a.nrows(), a.ncols(), a.nnz());

    let t0 = Instant::now();
    let factors = ilu0(&a);
    let l = TriangularMatrix::from_strict_lower(&factors.l);
    println!(
        "ILU(0): {} strictly-lower dependencies in {:?}",
        l.nnz(),
        t0.elapsed()
    );
    // Manufactured RHS with known solution.
    let x_true: Vec<f64> = (0..l.n()).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let rhs = l.matvec(&x_true);
    let loop_ = TriSolveLoop::new(&l, &rhs);
    let levels = LevelAssignment::compute(&DependenceDag::build(&loop_));
    println!(
        "dependence structure: {} wavefronts, average parallelism {:.1}\n",
        levels.critical_path(),
        levels.average_parallelism()
    );

    // Every lane, the sequential baseline included, reports its best of
    // `reps`.
    let best_of = |f: &mut dyn FnMut() -> Vec<f64>| {
        let mut best = Duration::MAX;
        let mut y = Vec::new();
        for _ in 0..args.reps {
            let start = Instant::now();
            y = f();
            best = best.min(start.elapsed());
        }
        (best, residual(&l, &y, &rhs))
    };
    let seq = best_of(&mut || l.forward_solve(&rhs));
    let mut table = Table::new(["solver", "best time (µs)", "residual", "vs seq"]);
    let mut row = |name: &str, (best, r): (Duration, f64)| {
        table.row([
            name.to_string(),
            best.as_micros().to_string(),
            format!("{r:.2e}"),
            format!("{:.2}x", seq.0.as_secs_f64() / best.as_secs_f64()),
        ]);
    };
    // The baseline row is always printed; `--solver seq` prints only it.
    row("sequential", seq);

    // The parallel lanes are the one runtime's entry points: the §2.3
    // linear subscript in natural or doconsider claim order, and the §2.3
    // strip-mined variant.
    let pool = ThreadPool::new(args.workers);
    let mut runtime = Doacross::new(l.n());
    let order = order_from_levels(&levels);
    let want = |name: &str| args.solver == "all" || args.solver == name;
    for (name, order) in [("doacross", None), ("reordered", Some(&order[..]))] {
        if want(name) {
            row(
                name,
                best_of(&mut || {
                    let mut y = vec![0.0; l.n()];
                    runtime
                        .run_linear(&pool, &loop_, &mut y, TriSolveLoop::subscript(), order)
                        .expect("valid");
                    y
                }),
            );
        }
    }
    if want("blocked") {
        row(
            &format!("blocked (B={})", args.block),
            best_of(&mut || {
                let mut y = vec![0.0; l.n()];
                runtime
                    .run_blocked(&pool, &loop_, &mut y, args.block)
                    .expect("nonzero block");
                y
            }),
        );
    }
    println!("{}", table.render());
    println!(
        "({} workers; times best-of-{}; all solvers produce bit-identical results)",
        args.workers, args.reps
    );
}
