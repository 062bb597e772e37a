//! The evidence adaptation decides on: per structure, one
//! [`TelemetryEntry`] per variant family that has run.
//!
//! Every plan execution deposits one [`SolveSample`] — observed wall time,
//! busy-wait polls, barrier crossings — under the executed variant family,
//! an [`ObsVariant`] (a `PlanVariant`'s one payload, the linear
//! subscript, is a function of the structure, which the runtime's map key,
//! the fingerprint, already pins). An entry keeps the observed minimum (the
//! noise-robust "how fast can this variant actually go" estimate), exact
//! counts, and the running sums of a polls-vs-nanoseconds regression — the
//! raw material [`super::refine()`] turns into measured cost-model
//! constants.
//!
//! A structure's entries are a fixed array inside its slot of the
//! runtime's one structure map ([`Telemetry`]), so recording a solve is a
//! handful of adds under the lock the policy step takes anyway, and
//! allocates nothing.

use doacross_obs::ObsVariant;

/// Minimum samples (and poll-count spread) before
/// [`TelemetryEntry::poll_slope_ns`] reports a regression slope.
const MIN_SLOPE_SAMPLES: u64 = 4;

/// One observed solve, as deposited by the engine after an execution.
#[derive(Debug, Clone, Copy)]
pub(super) struct SolveSample {
    /// Observed end-to-end wall time, nanoseconds.
    pub(super) ns: u64,
    /// Failed `ready` polls this solve performed.
    pub(super) wait_polls: u64,
    /// Spin-barrier crossings per solve (`levels − 1` for a wavefront
    /// plan, 0 elsewhere) — a structure constant, recorded for the
    /// refinement arithmetic.
    pub(super) barriers: u64,
    /// References per solve (the census total) — likewise a constant.
    pub(super) terms: u64,
    /// The variant's predicted per-solve cost, model units.
    pub(super) pred_units: f64,
    /// The synchronization-free part of that prediction (no flag checks,
    /// no stalls, no barriers), model units.
    pub(super) work_units: f64,
}

/// The accumulated state of one `(structure, variant)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct TelemetryEntry {
    /// Solves recorded.
    pub(super) samples: u64,
    /// Fastest observed solve, nanoseconds.
    pub(super) min_ns: u64,
    /// Total failed polls across all samples.
    pub(super) wait_polls: u64,
    /// Barrier crossings per solve (structure constant; latest value).
    pub(super) barriers: u64,
    /// References per solve (structure constant; latest value).
    pub(super) terms: u64,
    /// Predicted per-solve cost (model units; latest value).
    pub(super) pred_units: f64,
    /// Synchronization-free predicted cost (model units; latest value).
    pub(super) work_units: f64,
    /// Poll-cost regression: Σ polls.
    sum_polls: f64,
    /// Poll-cost regression: Σ polls².
    sum_polls_sq: f64,
    /// Poll-cost regression: Σ ns.
    sum_ns: f64,
    /// Poll-cost regression: Σ polls·ns.
    sum_polls_ns: f64,
}

impl TelemetryEntry {
    /// An entry before its first sample.
    const EMPTY: Self = Self {
        samples: 0,
        min_ns: u64::MAX,
        wait_polls: 0,
        barriers: 0,
        terms: 0,
        pred_units: 0.0,
        work_units: 0.0,
        sum_polls: 0.0,
        sum_polls_sq: 0.0,
        sum_ns: 0.0,
        sum_polls_ns: 0.0,
    };

    fn record(&mut self, sample: &SolveSample) {
        self.samples += 1;
        self.min_ns = self.min_ns.min(sample.ns);
        self.wait_polls += sample.wait_polls;
        self.barriers = sample.barriers;
        self.terms = sample.terms;
        self.pred_units = sample.pred_units;
        self.work_units = sample.work_units;
        let polls = sample.wait_polls as f64;
        let ns = sample.ns as f64;
        self.sum_polls += polls;
        self.sum_polls_sq += polls * polls;
        self.sum_ns += ns;
        self.sum_polls_ns += polls * ns;
    }

    /// Least-squares slope of per-solve nanoseconds over per-solve poll
    /// counts — the *measured* cost of one busy-wait poll, model-free:
    /// solves of the same structure differ in how often readers caught
    /// their writers unfinished, and the slope is what each extra poll
    /// cost. `None` until four solves exist, the poll
    /// counts actually varied, and the slope came out non-negative (a
    /// negative slope means scheduling noise dominated, not that polls
    /// have negative cost).
    pub(super) fn poll_slope_ns(&self) -> Option<f64> {
        if self.samples < MIN_SLOPE_SAMPLES {
            return None;
        }
        let k = self.samples as f64;
        let denominator = k * self.sum_polls_sq - self.sum_polls * self.sum_polls;
        if denominator <= f64::EPSILON * k * self.sum_polls_sq.max(1.0) {
            return None; // poll counts never varied
        }
        let slope = (k * self.sum_polls_ns - self.sum_polls * self.sum_ns) / denominator;
        (slope.is_finite() && slope >= 0.0).then_some(slope)
    }
}

/// One structure's entries, one slot per variant family
/// ([`ObsVariant::index`]).
#[derive(Debug, Default)]
pub(super) struct Telemetry([Option<TelemetryEntry>; ObsVariant::ALL.len()]);

impl Telemetry {
    /// Deposits one solve of `kind` and returns the updated entry.
    pub(super) fn record(&mut self, kind: ObsVariant, sample: &SolveSample) -> TelemetryEntry {
        let entry = self.0[kind.index()].get_or_insert(TelemetryEntry::EMPTY);
        entry.record(sample);
        *entry
    }

    /// The entry of `kind`, if it has run.
    pub(super) fn get(&self, kind: ObsVariant) -> Option<&TelemetryEntry> {
        self.0[kind.index()].as_ref()
    }

    /// Every entry, in [`ObsVariant::index`] order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (ObsVariant, &TelemetryEntry)> + Clone {
        ObsVariant::ALL
            .into_iter()
            .zip(&self.0)
            .filter_map(|(kind, slot)| Some((kind, slot.as_ref()?)))
    }
}

/// Engine-wide aggregate counts, for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryTotals {
    /// Total solves recorded across all keys.
    pub samples: u64,
    /// Distinct `(structure, variant)` keys.
    pub entries: usize,
    /// Distinct structures.
    pub structures: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(ns: u64, polls: u64) -> SolveSample {
        SolveSample {
            ns,
            wait_polls: polls,
            barriers: 0,
            terms: 100,
            pred_units: 500.0,
            work_units: 450.0,
        }
    }

    #[test]
    fn entry_tracks_min_and_counts() {
        let mut telemetry = Telemetry::default();
        for (ns, polls) in [(100u64, 0u64), (300, 10), (200, 5)] {
            telemetry.record(ObsVariant::Doacross, &sample(ns, polls));
        }
        let e = telemetry.get(ObsVariant::Doacross).unwrap();
        assert_eq!(e.samples, 3);
        assert_eq!(e.min_ns, 100);
        assert_eq!(e.wait_polls, 15);
        assert_eq!(telemetry.get(ObsVariant::Wavefront), None);
        let kinds: Vec<_> = telemetry.iter().map(|(kind, _)| kind).collect();
        assert_eq!(kinds, [ObsVariant::Doacross]);
    }

    #[test]
    fn poll_slope_recovers_a_synthetic_poll_cost() {
        // ns = 1000 + 7·polls, exactly: the regression must return 7.
        let mut telemetry = Telemetry::default();
        for polls in [0u64, 10, 20, 40, 80] {
            telemetry.record(ObsVariant::Doacross, &sample(1_000 + 7 * polls, polls));
        }
        let e = telemetry.get(ObsVariant::Doacross).unwrap();
        let slope = e.poll_slope_ns().expect("varying polls, enough samples");
        assert!((slope - 7.0).abs() < 1e-6, "{slope}");

        // Constant poll counts carry no slope information.
        let mut flat = Telemetry::default();
        for _ in 0..6 {
            flat.record(ObsVariant::Doacross, &sample(1_000, 5));
        }
        let e = flat.get(ObsVariant::Doacross).unwrap();
        assert_eq!(e.poll_slope_ns(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn sequential_recording_matches_a_hand_rolled_reference(
            samples in proptest::collection::vec((1_000u64..2_000_000, 0u64..500), 1..=64)
        ) {
            let mut telemetry = Telemetry::default();
            for &(ns, polls) in &samples {
                telemetry.record(ObsVariant::Doacross, &SolveSample {
                    ns,
                    wait_polls: polls,
                    barriers: 0,
                    terms: 321,
                    pred_units: 800.0,
                    work_units: 750.0,
                });
            }
            let e = *telemetry.get(ObsVariant::Doacross).expect("recorded");
            prop_assert_eq!(e.samples, samples.len() as u64);
            prop_assert_eq!(e.min_ns, samples.iter().map(|s| s.0).min().unwrap());
            prop_assert_eq!(e.wait_polls, samples.iter().map(|s| s.1).sum::<u64>());
            prop_assert_eq!((e.terms, e.pred_units, e.work_units), (321, 800.0, 750.0));
            let sum_ns: f64 = samples.iter().map(|s| s.0 as f64).sum();
            prop_assert!((e.sum_ns - sum_ns).abs() <= 1e-6 * sum_ns.max(1.0));
            let sum_polls: f64 = samples.iter().map(|s| s.1 as f64).sum();
            prop_assert_eq!(e.sum_polls, sum_polls);
        }
    }
}
