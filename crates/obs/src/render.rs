//! Prometheus text-exposition rendering helpers.
//!
//! The helpers are public so the engine can compose its own sampled
//! values (cache occupancy, adaptive decision counters, pool gauges) into
//! the same scrape document the registry renders into — one consistent
//! format, one escaping implementation.

use crate::metrics::{HistogramSnapshot, LATENCY_BUCKET_BOUNDS_NS};
use std::fmt::Write as _;

/// Escapes a label value per the Prometheus text format (backslash,
/// double-quote, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn write_header(buf: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(buf, "# HELP {name} {help}");
    let _ = writeln!(buf, "# TYPE {name} {kind}");
}

fn write_labels(buf: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    buf.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        let _ = write!(buf, "{k}=\"{}\"", escape_label(v));
    }
    buf.push('}');
}

/// Renders one unlabeled counter sample with its HELP/TYPE header.
pub fn counter(buf: &mut String, name: &str, help: &str, value: u64) {
    write_header(buf, name, help, "counter");
    let _ = writeln!(buf, "{name} {value}");
}

/// Renders a counter family: one HELP/TYPE header, one sample per
/// `(labels, value)` entry. Entries with `value == 0` are still emitted —
/// a scraper distinguishing "never happened" from "not exported" needs
/// the zero.
pub fn counter_family(
    buf: &mut String,
    name: &str,
    help: &str,
    samples: &[(&[(&str, &str)], u64)],
) {
    write_header(buf, name, help, "counter");
    for (labels, value) in samples {
        buf.push_str(name);
        write_labels(buf, labels);
        let _ = writeln!(buf, " {value}");
    }
}

/// Renders one unlabeled gauge sample with its HELP/TYPE header.
pub fn gauge(buf: &mut String, name: &str, help: &str, value: u64) {
    write_header(buf, name, help, "gauge");
    let _ = writeln!(buf, "{name} {value}");
}

/// Renders a gauge family: one HELP/TYPE header, one sample per entry.
pub fn gauge_family(buf: &mut String, name: &str, help: &str, samples: &[(&[(&str, &str)], u64)]) {
    write_header(buf, name, help, "gauge");
    for (labels, value) in samples {
        buf.push_str(name);
        write_labels(buf, labels);
        let _ = writeln!(buf, " {value}");
    }
}

/// Renders a histogram family (one HELP/TYPE header, then per snapshot a
/// full cumulative `_bucket`/`_sum`/`_count` series under `labels`).
/// Bucket bounds are [`LATENCY_BUCKET_BOUNDS_NS`] plus `+Inf`.
pub fn histogram_family(
    buf: &mut String,
    name: &str,
    help: &str,
    series: &[(&[(&str, &str)], &HistogramSnapshot)],
) {
    write_header(buf, name, help, "histogram");
    for (labels, snap) in series {
        let mut cumulative = 0u64;
        for (i, &count) in snap.buckets.iter().enumerate() {
            cumulative += count;
            let le;
            let bound: &str = if i < LATENCY_BUCKET_BOUNDS_NS.len() {
                le = LATENCY_BUCKET_BOUNDS_NS[i].to_string();
                &le
            } else {
                "+Inf"
            };
            buf.push_str(name);
            buf.push_str("_bucket");
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", bound));
            write_labels(buf, &with_le);
            let _ = writeln!(buf, " {cumulative}");
        }
        buf.push_str(name);
        buf.push_str("_sum");
        write_labels(buf, labels);
        let _ = writeln!(buf, " {}", snap.sum_ns);
        buf.push_str(name);
        buf.push_str("_count");
        write_labels(buf, labels);
        let _ = writeln!(buf, " {}", snap.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_the_three_specials() {
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn counter_family_emits_header_once_and_all_samples() {
        let mut buf = String::new();
        counter_family(
            &mut buf,
            "x_total",
            "Test.",
            &[(&[("k", "a")], 1), (&[("k", "b")], 0)],
        );
        assert_eq!(buf.matches("# TYPE x_total counter").count(), 1);
        assert!(buf.contains("x_total{k=\"a\"} 1\n"));
        assert!(buf.contains("x_total{k=\"b\"} 0\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let mut snap = HistogramSnapshot {
            buckets: [0; LATENCY_BUCKET_BOUNDS_NS.len() + 1],
            sum_ns: 300,
            count: 3,
        };
        snap.buckets[0] = 2;
        snap.buckets[3] = 1;
        let mut buf = String::new();
        histogram_family(&mut buf, "h_ns", "Test.", &[(&[("v", "x")], &snap)]);
        assert!(buf.contains("h_ns_bucket{v=\"x\",le=\"256\"} 2\n"));
        assert!(buf.contains("h_ns_bucket{v=\"x\",le=\"16384\"} 3\n"));
        assert!(buf.contains("h_ns_bucket{v=\"x\",le=\"+Inf\"} 3\n"));
        assert!(buf.contains("h_ns_sum{v=\"x\"} 300\n"));
        assert!(buf.contains("h_ns_count{v=\"x\"} 3\n"));
    }
}
