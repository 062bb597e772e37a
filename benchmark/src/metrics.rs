//! The metric catalogue — the one place names, units and bounds live —
//! and the report that prints them. `BENCHMARK.json` is generated from
//! these tables (`--emit-manifest`), so the two cannot drift.

use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures; `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "solve_p01_over_bare",
        unit: "x",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "plan_kb",
        unit: "KiB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)`, grouped by layer (= crate). No bounds: these
/// explain a move of an end-to-end metric, they do not gate.
pub const PER_LAYER: [(&str, &str, &str); 73] = [
    // The two quantities the issue lists as end-to-end but which are 0 on
    // most workloads; the contract keeps zero-valued metrics out of the
    // gated set, so they are reported here and through `failed`/`correct`.
    ("allocs_per_solve", "count", "lower"),
    ("failed_share", "ratio", "lower"),
    ("sparse.bare_p01_ns", "ns", "lower"),
    ("sparse.bare_p50_ns", "ns", "lower"),
    ("sparse.ilu0_us", "us", "lower"),
    ("sparse.bytes_per_solve", "B", "lower"),
    ("core.seq_mono_over_bare", "x", "lower"),
    ("core.seq_dyn_over_bare", "x", "lower"),
    ("core.wavefront_p01_over_bare", "x", "lower"),
    ("core.flags_p01_over_bare", "x", "lower"),
    ("core.barriers_per_solve", "count", "lower"),
    ("core.true_deps_per_solve", "count", "lower"),
    ("core.stalls_per_solve", "count", "lower"),
    ("core.wait_polls_per_solve", "count", "lower"),
    ("core.inspector_share", "ratio", "lower"),
    ("core.executor_share", "ratio", "lower"),
    ("core.post_share", "ratio", "lower"),
    ("par.dispatch_p1_us", "us", "lower"),
    ("par.dispatch_pn_us", "us", "lower"),
    ("par.barrier_cross_ns", "ns", "lower"),
    ("sched.acquire_ns", "ns", "lower"),
    ("sched.acquire_contended_ns", "ns", "lower"),
    ("sched.dispatches", "1/op", "lower"),
    ("sched.steals", "1/op", "lower"),
    ("sched.saturations", "count", "lower"),
    ("plan.fingerprint_us", "us", "lower"),
    ("plan.census_us", "us", "lower"),
    ("plan.plan_us", "us", "lower"),
    ("plan.cache_hit_ns", "ns", "lower"),
    ("plan.encode_us", "us", "lower"),
    ("plan.decode_us", "us", "lower"),
    ("plan.store_bytes", "B", "lower"),
    ("plan.cache_hits", "count", "higher"),
    ("plan.cache_misses", "count", "lower"),
    ("plan.cache_evictions", "count", "lower"),
    ("verify.pattern_us", "us", "lower"),
    ("verify.edges", "count", "lower"),
    ("doconsider.order_us", "us", "lower"),
    ("doconsider.levels", "count", "lower"),
    ("sim.calibrate_ms", "ms", "lower"),
    ("sim.priced_over_realized", "x", "higher"),
    ("engine.solve_p50_over_bare", "x", "lower"),
    ("engine.solve_p99_over_bare", "x", "lower"),
    ("engine.solves_per_s", "1/s", "higher"),
    ("engine.envelope_ns", "ns", "lower"),
    ("engine.fallback_off_over_on", "x", "higher"),
    ("engine.build_us", "us", "lower"),
    ("engine.variant_seq", "count", "higher"),
    ("engine.variant_wavefront", "count", "lower"),
    ("engine.variant_flags", "count", "lower"),
    ("engine.attempts_per_solve", "count", "lower"),
    ("obs.on_over_off", "x", "lower"),
    ("obs.profiled_over_off", "x", "lower"),
    ("obs.events_per_solve", "count", "lower"),
    ("obs.spans_per_solve", "count", "lower"),
    ("obs.spans_dropped", "count", "lower"),
    ("obs.scrape_us", "us", "lower"),
    ("adapt.on_over_off", "x", "lower"),
    ("adapt.trials", "count", "lower"),
    ("adapt.promotions", "count", "lower"),
    ("adapt.demotions", "count", "lower"),
    ("failpoint.disarmed_hit_ns", "ns", "lower"),
    ("bench.timer_ns", "ns", "lower"),
    ("bench.trace_overhead", "x", "lower"),
    // Span self times of the workload's own traced pass.
    ("trace.execute_self_us", "us", "lower"),
    ("trace.prepare_self_us", "us", "lower"),
    ("trace.decode_self_us", "us", "lower"),
    ("trace.warm_from_self_us", "us", "lower"),
    ("trace.scrape_self_us", "us", "lower"),
    ("trace.harness_self_us", "us", "lower"),
    ("trace.spans", "count", "higher"),
    // Spread of subject samples inside the run, per lane then averaged.
    ("engine.solve_iqr_over_p50", "ratio", "lower"),
    ("bench.nproc", "count", "higher"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic.
    pub samples: Option<usize>,
    pub note: String,
}

#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.push(name, value, None, "");
    }

    /// A value with a note on how it was obtained.
    pub fn noted(&mut self, name: &'static str, value: f64, note: &str) {
        self.push(name, value, None, note);
    }

    /// A statistic over `samples` samples.
    pub fn stat(&mut self, name: &'static str, value: f64, samples: usize, note: &str) {
        self.push(name, value, Some(samples), note);
    }

    fn push(&mut self, name: &'static str, value: f64, samples: Option<usize>, note: &str) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit: unit_of(name),
            samples,
            note: note.to_string(),
        });
    }

    /// Every metric by name with unit and sample count.
    pub fn print(&self, title: &str) {
        println!("-- {title}");
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| format!("  n={n}"));
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "{:<34} {:>16.6} {:<6}{samples}{note}",
                m.name, m.value, m.unit
            );
        }
    }

    /// The result line of the run contract: exactly the metrics in
    /// `names`, each of which must have been measured and be finite.
    pub fn result_line(
        &self,
        names: &[&'static str],
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let by_name: BTreeMap<&str, &Metric> = self.metrics.iter().map(|m| (m.name, m)).collect();
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (k, name) in names.iter().enumerate() {
            let m = by_name
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is {}", m.value));
            }
            let sep = if k == 0 { "" } else { ", " };
            write!(
                line,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
            .expect("writing to a String");
        }
        line.push_str("}}");
        Ok(line)
    }
}

pub fn end_to_end_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|m| m.name).collect()
}

pub fn per_layer_names() -> Vec<&'static str> {
    PER_LAYER.iter().map(|m| m.0).collect()
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("writing to a String");
    s.push_str("  \"workloads\": [\n");
    for (k, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if k + 1 == WORKLOADS.len() { "" } else { "," };
        writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}").expect("String");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (k, m) in END_TO_END.iter().enumerate() {
        let sep = if k + 1 == END_TO_END.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        )
        .expect("String");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (k, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if k + 1 == PER_LAYER.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        )
        .expect("String");
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    #[test]
    fn catalogue_meets_the_manifest_limits() {
        let mut names: Vec<&str> = end_to_end_names();
        names.extend(per_layer_names());
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(names.iter().all(|n| legal_name(n)));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
        assert!(manifest().len() < 64 * 1024);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        assert_eq!(committed, manifest(), "regenerate with --emit-manifest");
    }

    #[test]
    fn result_line_carries_exactly_the_requested_metrics() {
        let mut r = Report::default();
        r.put("plan_kb", 1.5);
        r.put("setup_s", 0.25);
        let line = r
            .result_line(&["plan_kb", "setup_s"], 10, 0)
            .expect("both measured");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"plan_kb\": {\"value\": 1.5, \"unit\": \"KiB\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(r.result_line(&["solve_p01_over_bare"], 1, 0).is_err());
        r.put("solve_p01_over_bare", f64::NAN);
        assert!(r.result_line(&["solve_p01_over_bare"], 1, 0).is_err());
    }
}
