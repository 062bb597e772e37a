//! End-user tool: load a (general, square) matrix in Matrix Market
//! format, ILU(0)-factor it, and solve the unit lower-triangular system
//! through the engine — the full §3.2 pipeline on a matrix of your own.
//!
//! Usage:
//!   cargo run -p doacross-bench --release -- solve [MATRIX.mtx]
//!
//! With no file argument, a built-in 63×63 five-point demo matrix is used.
//! Prints the dependence census of the `L` factor, the plan the engine
//! made for it on this host (its priced candidates, or "gated" when the
//! build stopped at the planner's parallel floor) and the residual, and
//! checks the result bit for bit against the sequential `forward_solve`.
//! It times nothing: `benchmark/` is the host timer.

use doacross_engine::Engine;
use doacross_sparse::{
    ilu0, io::read_matrix_market, stencil::five_point, CsrMatrix, TriangularMatrix,
};
use doacross_trisolve::{verify::residual, TriSolveLoop};
use std::io::BufReader;

/// The matrix file named on the command line, if any; an error for an
/// option (there are none) or a second file.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<String>, String> {
    let mut path = None;
    for arg in args {
        if arg.starts_with("--") {
            return Err(format!("unknown option {arg:?}"));
        }
        if let Some(first) = path.replace(arg) {
            return Err(format!("one matrix file, got {first:?} and more"));
        }
    }
    Ok(path)
}

fn load_matrix(path: Option<&str>) -> Result<CsrMatrix, String> {
    match path {
        Some(p) => {
            let file = std::fs::File::open(p).map_err(|e| format!("open {p:?}: {e}"))?;
            read_matrix_market(BufReader::new(file)).map_err(|e| format!("parse {p:?}: {e}"))
        }
        None => {
            eprintln!("(no matrix given: using a built-in 63x63 five-point demo operator)");
            Ok(five_point(63, 63, 42))
        }
    }
}

/// `repro solve`: `args` is the command line after the subcommand. `Err`
/// is a bad command line or matrix file, in one line.
pub fn run(args: impl Iterator<Item = String>) -> Result<(), String> {
    let a = load_matrix(parse_args(args)?.as_deref())?;
    if a.nrows() != a.ncols() {
        return Err(format!(
            "matrix must be square, got {} x {}",
            a.nrows(),
            a.ncols()
        ));
    }
    println!("A: {} x {} with {} nonzeros", a.nrows(), a.ncols(), a.nnz());

    let l = TriangularMatrix::from_strict_lower(&ilu0(&a).l);
    println!("ILU(0): {} strictly-lower dependencies", l.nnz());
    // Manufactured RHS with known solution.
    let x_true: Vec<f64> = (0..l.n()).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
    let rhs = l.matvec(&x_true);
    let loop_ = TriSolveLoop::new(&l, &rhs);

    let engine = Engine::builder().build();
    let prepared = engine.prepare(&loop_).expect("a triangular solve plans");
    let plan = prepared.plan();
    let census = plan.census();
    println!(
        "census: {} rows, {} references: {} true deps, {} anti, {} intra, {} unwritten; \
         {} wavefronts",
        census.iterations,
        census.total_terms,
        census.true_deps,
        census.anti_deps,
        census.intra,
        census.unwritten,
        census.critical_path,
    );
    println!("{plan}");
    if plan.is_gated() {
        println!(
            "candidates ({} workers): gated — sequential settled at the planner's \
             parallel floor, no parallel candidate priced",
            engine.threads()
        );
    } else {
        let price = |c: Option<f64>| c.map_or("-".to_string(), |c| format!("{c:.0}"));
        let costs = plan.costs();
        println!(
            "candidates ({} workers): sequential {:.0}, doacross {}, linear {}, reordered {}, \
             blocked {}, wavefront {}",
            engine.threads(),
            costs.sequential,
            price(costs.doacross),
            price(costs.linear),
            price(costs.reordered),
            price(costs.blocked),
            price(costs.wavefront),
        );
    }

    let mut y = vec![0.0; l.n()];
    prepared
        .execute(&loop_, &mut y)
        .expect("the prepared system");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&y),
        bits(&l.forward_solve(&rhs)),
        "the engine's solve must equal forward_solve bit for bit"
    );
    println!(
        "residual: {:.2e} (max-norm of L y - b; bit-identical to forward_solve)",
        residual(&l, &y, &rhs)
    );
    Ok(())
}
