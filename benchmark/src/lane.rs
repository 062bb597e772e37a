//! A lane pairs one subject operation with the bare kernel on the same
//! system and collects their alternating samples.

use crate::bare::bits_equal;
use crate::inputs::System;
use crate::stats;
use crate::trace::Tracer;
use doacross_core::alloc::thread_allocations;
use doacross_core::RunStats;
use std::hint::black_box;
use std::time::Instant;

/// What the operations of one lane reported, summed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    pub ops: u64,
    /// Errors, unexpected variants or provenances, and outputs that differ
    /// from the bare oracle.
    pub failed: u64,
    pub first_failure: Option<String>,
    pub barriers: u64,
    pub true_deps: u64,
    pub stalls: u64,
    pub wait_polls: u64,
    pub attempts: u64,
    pub inspector_ns: u64,
    pub executor_ns: u64,
    pub post_ns: u64,
    pub total_ns: u64,
}

impl Ledger {
    pub fn solved(&mut self, stats: &RunStats) {
        self.ops += 1;
        self.barriers += stats.barrier_crossings;
        self.true_deps += stats.deps.true_deps;
        self.stalls += stats.stalls;
        self.wait_polls += stats.wait_polls;
        self.attempts += u64::from(stats.attempts);
        self.inspector_ns += stats.inspector.as_nanos() as u64;
        self.executor_ns += stats.executor.as_nanos() as u64;
        self.post_ns += stats.post.as_nanos() as u64;
        self.total_ns += stats.total.as_nanos() as u64;
    }

    /// A failure that is not an operation of its own (a wrong output, an
    /// unexpected variant).
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// An operation that returned an error or was not what it had to be.
    pub fn op_failed(&mut self, why: impl FnOnce() -> String) {
        self.ops += 1;
        self.fail(why);
    }

    pub fn absorb(&mut self, other: &Ledger) {
        self.ops += other.ops;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
        self.barriers += other.barriers;
        self.true_deps += other.true_deps;
        self.stalls += other.stalls;
        self.wait_polls += other.wait_polls;
        self.attempts += other.attempts;
        self.inspector_ns += other.inspector_ns;
        self.executor_ns += other.executor_ns;
        self.post_ns += other.post_ns;
        self.total_ns += other.total_ns;
    }
}

/// The subject side of a lane.
pub trait Operation: Send {
    /// Runs `k` operations, each leaving its result in `y`, recording
    /// what they report in `ledger`; `false` when one failed, so `y` is not
    /// worth checking. This is the timed region.
    fn run(&mut self, k: usize, y: &mut [f64], tracer: &mut Tracer, ledger: &mut Ledger) -> bool;

    /// Untimed work right before each sample (e.g. building the engine the
    /// next warm start restores into).
    fn between(&mut self) {}
}

pub struct Lane<'a> {
    pub name: String,
    pub sys: &'a System,
    op: Box<dyn Operation + 'a>,
    /// Bare solves per bare sample.
    pub bare_batch: usize,
    /// Operations per subject sample.
    pub op_batch: usize,
    y: Vec<f64>,
    /// Nanoseconds per solve, one entry per sample.
    pub bare_ns: Vec<f64>,
    pub subject_ns: Vec<f64>,
    pub ledger: Ledger,
}

impl<'a> Lane<'a> {
    /// A lane whose subject sample is `op_batch` operations; `None`
    /// batches the subject like the bare side (one solve per operation).
    pub fn new(
        name: String,
        sys: &'a System,
        op: Box<dyn Operation + 'a>,
        op_batch: Option<usize>,
    ) -> Self {
        let mut y = vec![0.0; sys.bare.n()];
        let quick = (0..25)
            .map(|_| {
                let t = Instant::now();
                sys.bare.solve(black_box(&mut y));
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min);
        let bare_batch = stats::batch_size(quick);
        Self {
            name,
            sys,
            op,
            bare_batch,
            op_batch: op_batch.unwrap_or(bare_batch),
            y,
            bare_ns: Vec::new(),
            subject_ns: Vec::new(),
            ledger: Ledger::default(),
        }
    }

    fn check(&mut self, what: &str) {
        if !bits_equal(&self.y, &self.sys.oracle) {
            let name = &self.name;
            self.ledger
                .fail(|| format!("{name}: {what} output differs from the bare oracle"));
        }
    }

    /// `ops` operations one at a time, every output checked. Returns the
    /// heap allocations this thread made inside the operations.
    pub fn run_checked(&mut self, ops: usize, tracer: &mut Tracer) -> u64 {
        let mut allocations = 0;
        for _ in 0..ops {
            self.y.fill(f64::NAN);
            self.op.between();
            let before = thread_allocations();
            let ok = self.op.run(1, &mut self.y, tracer, &mut self.ledger);
            allocations += thread_allocations() - before;
            if ok {
                self.check("subject");
            }
        }
        allocations
    }

    /// One bare sample, then one subject sample.
    pub fn sample(&mut self, tracer: &mut Tracer) {
        self.y.fill(f64::NAN);
        let t = Instant::now();
        for _ in 0..self.bare_batch {
            self.sys.bare.solve(black_box(&mut self.y));
        }
        let ns = t.elapsed().as_nanos() as f64;
        self.bare_ns.push(ns / self.bare_batch as f64);
        self.check("bare");

        self.y.fill(f64::NAN);
        self.op.between();
        let t = Instant::now();
        let ok = self
            .op
            .run(self.op_batch, &mut self.y, tracer, &mut self.ledger);
        let ns = t.elapsed().as_nanos() as f64;
        self.subject_ns.push(ns / self.op_batch as f64);
        if ok {
            self.check("subject");
        }
    }

    pub fn clear_samples(&mut self) {
        self.bare_ns.clear();
        self.subject_ns.clear();
    }
}

/// Alternating samples over `lanes`, round-robin, for `seconds`.
pub fn timed_pass(lanes: &mut [Lane<'_>], seconds: f64, tracer: &mut Tracer) {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for lane in lanes.iter_mut() {
            lane.sample(tracer);
        }
    }
}

/// Order statistics of one lane's samples.
pub struct LaneSummary {
    pub name: String,
    pub samples: usize,
    pub bare_p01: f64,
    pub bare_p50: f64,
    pub subject_p01: f64,
    /// The quantile "p01" really is at this sample count.
    pub p01_quantile: f64,
    pub subject_quartiles: [f64; 3],
    pub subject_p99: f64,
    pub p99_quantile: f64,
}

impl LaneSummary {
    pub fn of(lane: &Lane<'_>) -> Self {
        let bare = stats::sorted(lane.bare_ns.clone());
        let subject = stats::sorted(lane.subject_ns.clone());
        let (subject_p01, p01_quantile) = stats::percentile(&subject, 0.01);
        let (subject_p99, p99_quantile) = stats::percentile(&subject, 0.99);
        Self {
            name: lane.name.clone(),
            samples: subject.len(),
            bare_p01: stats::p01(&bare),
            bare_p50: stats::median(&bare),
            subject_p01,
            p01_quantile,
            subject_quartiles: stats::quartiles(&subject),
            subject_p99,
            p99_quantile,
        }
    }

    pub fn p01_over_bare(&self) -> f64 {
        self.subject_p01 / self.bare_p01
    }
}

/// The gated statistic: geometric mean over lanes of p01 subject / p01 bare.
pub fn p01_geomean(lanes: &[&LaneSummary]) -> f64 {
    stats::geomean(&lanes.iter().map(|l| l.p01_over_bare()).collect::<Vec<_>>())
}
