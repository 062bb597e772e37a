//! End-user tool: load a (general, square) matrix in Matrix Market
//! format, ILU(0)-factor it, and solve the unit lower-triangular system
//! with any of the library's solvers — the full §3.2 pipeline on a matrix
//! of your own.
//!
//! Usage:
//!   cargo run -p doacross-bench --release -- solve MATRIX.mtx \
//!       [--solver seq|doacross|reordered|blocked] \
//!       [--workers N] [--reps R] [--block B]
//!
//! With no file argument, a built-in 63×63 five-point demo matrix is used.

use crate::report::Table;
use doacross_par::ThreadPool;
use doacross_sparse::{
    ilu0, io::read_matrix_market, stencil::five_point, CsrMatrix, TriangularMatrix,
};
use doacross_trisolve::{
    seq::time_sequential, verify::residual, BlockedSolver, DoacrossSolver, ReorderedSolver,
    SolvePlan,
};
use std::io::BufReader;
use std::time::Instant;

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
    let plan = SolvePlan::for_matrix(&l);
    println!(
        "dependence structure: {} wavefronts, average parallelism {:.1}\n",
        plan.critical_path(),
        plan.levels.average_parallelism()
    );

    // Manufactured RHS with known solution.
    let x_true: Vec<f64> = (0..l.n()).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let rhs = l.matvec(&x_true);

    let pool = ThreadPool::new(args.workers);
    let mut table = Table::new(["solver", "best time (µs)", "residual", "vs seq"]);
    let (y_seq, t_seq) = time_sequential(&l, &rhs, args.reps);
    let lane = |name: &str, f: &mut dyn FnMut() -> Vec<f64>, table: &mut Table| {
        let mut best = std::time::Duration::MAX;
        let mut y = Vec::new();
        for _ in 0..args.reps {
            let start = Instant::now();
            y = f();
            best = best.min(start.elapsed());
        }
        let r = residual(&l, &y, &rhs);
        table.row([
            name.to_string(),
            best.as_micros().to_string(),
            format!("{r:.2e}"),
            format!("{:.2}x", t_seq.as_secs_f64() / best.as_secs_f64()),
        ]);
    };

    // The baseline row is always printed; `--solver seq` prints only it.
    table.row([
        "sequential".to_string(),
        t_seq.as_micros().to_string(),
        format!("{:.2e}", residual(&l, &y_seq, &rhs)),
        "1.00x".to_string(),
    ]);

    let want = |name: &str| args.solver == "all" || args.solver == name;
    if want("doacross") {
        let mut s = DoacrossSolver::new(l.n());
        lane(
            "doacross",
            &mut || s.solve(&pool, &l, &rhs).expect("valid").0,
            &mut table,
        );
    }
    if want("reordered") {
        let mut s = ReorderedSolver::new(l.n());
        s.prepare(&l);
        lane(
            "reordered",
            &mut || s.solve(&pool, &l, &rhs).expect("valid").0,
            &mut table,
        );
    }
    if want("blocked") {
        let mut s = BlockedSolver::new(args.block).expect("nonzero block");
        lane(
            &format!("blocked (B={})", args.block),
            &mut || s.solve(&pool, &l, &rhs).expect("valid").0,
            &mut table,
        );
    }
    println!("{}", table.render());
    println!(
        "({} workers; times best-of-{}; all solvers produce bit-identical results)",
        args.workers, args.reps
    );
}
