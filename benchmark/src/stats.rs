//! Order statistics and means the benchmark reports.

/// Samples a percentile must leave beyond itself before it is quoted
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const TAIL_MARGIN: usize = 10;

/// Shortest bare time one sample may cover; shorter solves are batched.
pub const MIN_SAMPLE_NS: f64 = 20_000.0;

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The `q` quantile of an ascending slice, pulled toward the median until
/// [`TAIL_MARGIN`] samples lie beyond it on the near tail. Returns the
/// value and the quantile actually used, so a short run prints "p03"
/// instead of passing its minimum off as p01.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, f64) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let last = sorted.len() - 1;
    let margin = TAIL_MARGIN.min(last / 2);
    let rank = ((q * last as f64).round() as usize).clamp(margin, last - margin);
    let used = if last == 0 {
        0.5
    } else {
        rank as f64 / last as f64
    };
    (sorted[rank], used)
}

pub fn p01(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.01).0
}

pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5).0
}

/// First quartile, median, third quartile.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|q| percentile(sorted, q).0)
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Solves per sample: the smallest batch whose bare time reaches
/// [`MIN_SAMPLE_NS`], so timer resolution and call overhead stay below a
/// percent of every sample.
pub fn batch_size(bare_ns_per_solve: f64) -> usize {
    if bare_ns_per_solve >= MIN_SAMPLE_NS {
        1
    } else {
        (MIN_SAMPLE_NS / bare_ns_per_solve.max(1.0)).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn p01_needs_ten_samples_beyond_it() {
        // 5001 samples: rank 50 already has 50 samples below it.
        assert_eq!(percentile(&ramp(5001), 0.01), (50.0, 0.01));
        // 301 samples: rank 3 would leave 3 beyond; the rule moves it to 10.
        let (v, used) = percentile(&ramp(301), 0.01);
        assert_eq!(v, 10.0);
        assert!((used - 10.0 / 300.0).abs() < 1e-12);
        // The high tail mirrors it.
        assert_eq!(percentile(&ramp(301), 0.99).0, 290.0);
        // Too few samples for any tail: the median is all that is left.
        assert_eq!(percentile(&ramp(11), 0.01).0, 5.0);
        assert_eq!(percentile(&[7.0], 0.01), (7.0, 0.5));
    }

    #[test]
    fn quartiles_of_a_ramp() {
        assert_eq!(quartiles(&ramp(101)), [25.0, 50.0, 75.0]);
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[3.5]) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn batches_reach_the_minimum_sample() {
        assert_eq!(batch_size(45_000.0), 1);
        assert_eq!(batch_size(20_000.0), 1);
        assert_eq!(batch_size(1_100.0), 19);
        assert_eq!(batch_size(400.0), 50);
        for ns in [333.0, 1_500.0, 19_999.0] {
            let k = batch_size(ns);
            assert!(k as f64 * ns >= MIN_SAMPLE_NS);
            assert!((k - 1) as f64 * ns < MIN_SAMPLE_NS);
        }
    }
}
