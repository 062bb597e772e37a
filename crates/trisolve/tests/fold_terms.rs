//! Proof that each `fold_terms` override is the trait's default body: for
//! every row of the ILU(0) factors of the five Table-1 operators and of
//! arbitrary strictly triangular matrices, `TriSolveLoop::fold_terms` and
//! `UpperSolveLoop::fold_terms` return the default per-term fold bit for
//! bit, called monomorphically and through `&dyn DoacrossLoop`. The
//! default body is reached through [`DefaultFold`], a wrapper forwarding
//! every method except `fold_terms`. The sequential kernel over each loop
//! also reproduces the matrix's own substitution bit for bit.

use doacross_core::{seq::run_sequential, AccessPattern, DoacrossLoop};
use doacross_sparse::{
    ilu0, table1_problems, TriangularMatrix, TripletBuilder, UpperTriangularMatrix,
};
use doacross_trisolve::{TriSolveLoop, UpperSolveLoop};
use proptest::prelude::*;
use std::ops::Range;

/// Forwards every method of the wrapped loop except `fold_terms`, so its
/// `fold_terms` is the trait's default body over the wrapped loop's
/// `terms`, `term_element` and `combine`.
struct DefaultFold<'a, L: ?Sized>(&'a L);

impl<L: DoacrossLoop + ?Sized> AccessPattern for DefaultFold<'_, L> {
    fn iterations(&self) -> usize {
        self.0.iterations()
    }
    fn data_len(&self) -> usize {
        self.0.data_len()
    }
    fn lhs(&self, i: usize) -> usize {
        self.0.lhs(i)
    }
    fn terms(&self, i: usize) -> usize {
        self.0.terms(i)
    }
    fn term_element(&self, i: usize, j: usize) -> usize {
        self.0.term_element(i, j)
    }
    fn block_window(&self, iter_range: Range<usize>) -> Range<usize> {
        self.0.block_window(iter_range)
    }
}

impl<L: DoacrossLoop + ?Sized> DoacrossLoop for DefaultFold<'_, L> {
    fn init(&self, i: usize, old_lhs: f64) -> f64 {
        self.0.init(i, old_lhs)
    }
    fn combine(&self, i: usize, j: usize, acc: f64, operand: f64) -> f64 {
        self.0.combine(i, j, acc, operand)
    }
    fn finish(&self, i: usize, acc: f64) -> f64 {
        self.0.finish(i, acc)
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every iteration of `loop_` folds to the default body's bits over `y`,
/// through `&L` and through `&dyn DoacrossLoop`; and the sequential kernel
/// over `loop_` (monomorphic and `&dyn`) equals it over the default body.
fn assert_folds_like_the_default<L: DoacrossLoop>(loop_: &L, y: &[f64], what: &str) {
    let reference = DefaultFold(loop_);
    let erased: &dyn DoacrossLoop = loop_;
    for i in 0..loop_.iterations() {
        let lhs = loop_.lhs(i);
        let acc = loop_.init(i, y[lhs]);
        let want = reference.fold_terms(i, lhs, acc, y).to_bits();
        assert_eq!(
            loop_.fold_terms(i, lhs, acc, y).to_bits(),
            want,
            "{what}: row {i}"
        );
        assert_eq!(
            erased.fold_terms(i, lhs, acc, y).to_bits(),
            want,
            "{what}: row {i} via dyn"
        );
    }
    let mut want = y.to_vec();
    run_sequential(&reference, &mut want);
    let mut mono = y.to_vec();
    run_sequential(loop_, &mut mono);
    let mut dynamic = y.to_vec();
    run_sequential(erased, &mut dynamic);
    assert_eq!(bits(&mono), bits(&want), "{what}: run_sequential");
    assert_eq!(
        bits(&dynamic),
        bits(&want),
        "{what}: run_sequential via dyn"
    );
}

/// Both factors' loops fold like the default body, and the sequential
/// kernel solves them exactly as the matrices' own substitutions do.
fn assert_factors(l: &TriangularMatrix, u: &UpperTriangularMatrix, rhs: &[f64], what: &str) {
    // Operands a solve would really read, and a vector of the rhs itself.
    let forward = l.forward_solve(rhs);
    let backward = u.backward_solve(rhs);
    let lower = TriSolveLoop::new(l, rhs);
    let upper = UpperSolveLoop::new(u, rhs);
    for y in [&forward, &backward, &rhs.to_vec()] {
        assert_folds_like_the_default(&lower, y, &format!("{what} L"));
        assert_folds_like_the_default(&upper, y, &format!("{what} U"));
    }
    let mut y = vec![f64::NAN; l.n()];
    run_sequential(&lower, &mut y);
    assert_eq!(bits(&y), bits(&forward), "{what}: forward_solve");
    let mut x = vec![f64::NAN; u.n()];
    run_sequential(&upper, &mut x);
    assert_eq!(bits(&x), bits(&backward), "{what}: backward_solve");
}

#[test]
fn table1_factor_overrides_fold_like_the_default_body() {
    for problem in table1_problems() {
        let factors = ilu0(&problem.a);
        let l = TriangularMatrix::from_strict_lower(&factors.l);
        let u = UpperTriangularMatrix::from_upper(&factors.u);
        let rhs: Vec<f64> = (0..l.n()).map(|i| 1.0 - (i % 9) as f64 * 0.3125).collect();
        assert_factors(&l, &u, &rhs, problem.kind.name());
    }
}

/// A random `n × n` pair of strictly triangular structures: `(row, col,
/// value)` triplets folded into the strictly lower part of `L` and the
/// strictly upper part of `U` (duplicates summed), a dominant diagonal for
/// `U`, and a right-hand side.
fn arb_factors() -> impl Strategy<Value = (TriangularMatrix, UpperTriangularMatrix, Vec<f64>)> {
    (1usize..48)
        .prop_flat_map(|n| {
            let entries = proptest::collection::vec((0..n, 0..n, -2.0..2.0f64), 0..(4 * n).max(1));
            let rhs = proptest::collection::vec(-4.0..4.0f64, n..=n);
            (Just(n), entries, rhs)
        })
        .prop_map(|(n, entries, rhs)| {
            let mut lower = TripletBuilder::with_capacity(n, n, 0);
            let mut upper = TripletBuilder::with_capacity(n, n, 0);
            for &(r, c, v) in &entries {
                if r != c {
                    lower.push(r.max(c), r.min(c), v);
                    upper.push(r.min(c), r.max(c), v);
                }
            }
            for (i, b) in rhs.iter().enumerate() {
                upper.push(i, i, 3.0 + b.abs());
            }
            let l = TriangularMatrix::from_strict_lower(&lower.build());
            let u = UpperTriangularMatrix::from_upper(&upper.build());
            (l, u, rhs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn each_fold_terms_override_is_the_default_body((l, u, rhs) in arb_factors()) {
        assert_factors(&l, &u, &rhs, "random");
    }
}
