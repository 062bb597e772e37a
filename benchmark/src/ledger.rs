//! The part of the per-layer ledger (`--trace 1`) that is read from the
//! workload's own passes: the counters the layers already keep
//! (`RunStats`, `cache_stats()`, `pool_stats()`), the spread of the
//! samples, and the span self times of the traced pass. Nothing here is
//! gated; it explains a move of an end-to-end metric.

use crate::lane::{p01_geomean, LaneSummary, Ledger};
use crate::metrics::Report;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::WorkloadRun;

/// Metrics read from the workload's own passes.
pub fn workload_metrics(
    report: &mut Report,
    run: &WorkloadRun,
    untraced: &[&LaneSummary],
    traced: &[&LaneSummary],
    attempted: u64,
    failed: u64,
) {
    let fixed_ops = run.fixed_ops.max(1) as f64;
    let mut fixed = Ledger::default();
    let mut timed = Ledger::default();
    for o in &run.outs {
        fixed.absorb(&o.fixed);
        timed.absorb(&o.untraced_ledger);
    }
    report.stat(
        "allocs_per_solve",
        run.exact.allocations as f64 / fixed_ops,
        run.fixed_ops as usize,
        "client-thread allocations, fixed pass",
    );
    report.put("failed_share", failed as f64 / attempted as f64);
    report.put("core.barriers_per_solve", fixed.barriers as f64 / fixed_ops);
    report.put(
        "core.true_deps_per_solve",
        fixed.true_deps as f64 / fixed_ops,
    );
    report.put("core.stalls_per_solve", fixed.stalls as f64 / fixed_ops);
    report.put(
        "core.wait_polls_per_solve",
        fixed.wait_polls as f64 / fixed_ops,
    );
    report.put(
        "engine.attempts_per_solve",
        fixed.attempts as f64 / fixed_ops,
    );
    let total = timed.total_ns.max(1) as f64;
    report.put("core.inspector_share", timed.inspector_ns as f64 / total);
    report.put("core.executor_share", timed.executor_ns as f64 / total);
    report.put("core.post_share", timed.post_ns as f64 / total);

    // Acquisitions on the workload's long-lived engines per operation of
    // the workload (the engine a warm start restores into is not one).
    let own_ops = run.total.ops.max(1) as f64;
    report.put("sched.dispatches", run.pool_totals[0] as f64 / own_ops);
    report.put("sched.steals", run.pool_totals[1] as f64 / own_ops);
    report.put("sched.saturations", run.pool_totals[2] as f64);
    report.put("plan.cache_hits", run.exact.cache[0] as f64);
    report.put("plan.cache_misses", run.exact.cache[1] as f64);
    report.put("plan.cache_evictions", run.exact.cache[2] as f64);

    let ratios = |f: fn(&LaneSummary) -> f64| -> f64 {
        stats::geomean(&untraced.iter().map(|l| f(l)).collect::<Vec<_>>())
    };
    let samples = untraced.iter().map(|l| l.samples).sum::<usize>();
    let p50 = ratios(|l| l.subject_quartiles[1] / l.bare_p50);
    report.stat(
        "engine.solve_p50_over_bare",
        p50,
        samples,
        "p50 subject / p50 bare",
    );
    let p99 = ratios(|l| l.subject_p99 / l.bare_p50);
    report.stat(
        "engine.solve_p99_over_bare",
        p99,
        samples,
        "p99 subject / p50 bare",
    );
    let iqr: f64 = untraced
        .iter()
        .map(|l| (l.subject_quartiles[2] - l.subject_quartiles[0]) / l.subject_quartiles[1])
        .sum::<f64>()
        / untraced.len() as f64;
    report.put("engine.solve_iqr_over_p50", iqr);
    let solves_per_s: f64 = run
        .outs
        .iter()
        .map(|o| o.untraced_ledger.ops as f64 / (o.untraced_subject_ns.max(1.0) * 1e-9))
        .sum();
    let note = "closed loop, summed over clients";
    report.noted("engine.solves_per_s", solves_per_s, note);
    let note = "traced / untraced solve_p01_over_bare";
    report.noted(
        "bench.trace_overhead",
        p01_geomean(traced) / p01_geomean(untraced),
        note,
    );
}

/// Span self times of the workload's traced pass, by the layer call they
/// wrap. A name the workload never opens reads 0.
pub fn trace_metrics(report: &mut Report, tracers: &[&Tracer]) {
    let own = trace::median_self_ns(tracers);
    let us = |name: &str| own.get(name).map_or((0.0, 0), |&(ns, n)| (ns / 1e3, n));
    for (metric, span) in [
        ("trace.execute_self_us", "execute"),
        ("trace.prepare_self_us", "prepare"),
        ("trace.decode_self_us", "decode"),
        ("trace.warm_from_self_us", "warm_from"),
        ("trace.scrape_self_us", "scrape"),
    ] {
        let (value, n) = us(span);
        let note = format!("median self time of `{span}` spans");
        report.stat(metric, value, n, &note);
    }
    // What the benchmark itself spends inside an operation's root span.
    let roots: Vec<(f64, usize)> = ["cold_op", "warm_start_op"].iter().map(|n| us(n)).collect();
    let n: usize = roots.iter().map(|r| r.1).sum();
    let mean = roots.iter().map(|r| r.0 * r.1 as f64).sum::<f64>() / n.max(1) as f64;
    let note = "root spans minus their children";
    report.stat("trace.harness_self_us", mean, n, note);
    report.put(
        "trace.spans",
        tracers.iter().map(|t| t.spans().len()).sum::<usize>() as f64,
    );
}
