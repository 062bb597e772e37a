//! Online cost-model refinement: measured constants out of telemetry.
//!
//! The planner prices in abstract model units; telemetry observes
//! nanoseconds. Refinement bridges the two with an **anchor** — the
//! nanoseconds one model unit is worth on this host — and then attributes
//! each variant's *excess* over its synchronization-free prediction to the
//! synchronization constant that variant exercises:
//!
//! * **anchor (`unit_ns`)** — from the engine's host calibration when it
//!   has one, else from *sequential* solves (`min_ns / T_seq` — the
//!   sequential loop has zero synchronization, so its observed time is
//!   pure work and anchors the unit honestly). The engine guarantees a
//!   sequential observation exists by probing the sequential loop once
//!   before its first evaluation of a structure. Without an anchor there
//!   is **no refinement**: attributing observed nanoseconds to model
//!   constants without an independent clock reference would just rescale
//!   the model to agree with whatever it mispredicted.
//! * **`wait_poll`** — the per-poll cost is the least-squares slope of
//!   per-solve nanoseconds over per-solve poll counts within one
//!   `(structure, flag-variant)` key ([`TelemetryEntry::poll_slope_ns`]):
//!   solves of one structure differ only in how often readers caught
//!   writers unfinished, so the slope isolates the poll cost model-free.
//! * **`barrier`** — from wavefront entries: the fastest observed solve,
//!   minus the anchored synchronization-free work, divided by the solve's
//!   barrier crossings. The minimum across entries is used (the least
//!   contended observation — inflation from scheduling noise only ever
//!   *raises* this estimate, so the minimum is the defensible bound).
//! * **`chain` per-reference cost** — from flag-variant entries that
//!   never polled (their observed time is work plus the successful
//!   checks, both part of the chain): solve the work equation for the
//!   per-reference aggregate.
//!
//! Every channel reports only once its supporting sample count crosses
//! the confidence threshold, and [`doacross_sim::CostModel::refined_from`]
//! blends with a weight that grows with the evidence — a fresh engine
//! prices like its preset, a seasoned one like its hardware.

use super::telemetry::TelemetryEntry;
use doacross_obs::ObsVariant;
use doacross_sim::{CostModel, ObservedConstants};

/// Runs one refinement pass over `entries`, every structure's telemetry.
/// `base` is the model the engine planned (and recorded `work_units`)
/// with; `p` is the worker count those predictions priced for;
/// `confidence` is the samples a channel needs before its constant is
/// trusted at all, and the half-saturation point of the blend weight
/// (`weight = k / (k + confidence)`); `unit_ns_hint` is the anchor from
/// host calibration (ns per model unit), when the engine measured one —
/// preferred over the sequential-solve anchor. The result feeds
/// [`CostModel::refined_from`]; without an anchor it carries no evidence.
pub(super) fn refine<'a>(
    base: &CostModel,
    entries: impl Iterator<Item = (ObsVariant, &'a TelemetryEntry)> + Clone,
    p: usize,
    confidence: u64,
    unit_ns_hint: Option<f64>,
) -> ObservedConstants {
    let mut out = ObservedConstants::default();

    // Anchor.
    let unit_ns = unit_ns_hint
        .filter(|u| u.is_finite() && *u > 0.0)
        .or_else(|| {
            entries
                .clone()
                .filter(|(kind, e)| {
                    *kind == ObsVariant::Sequential && e.pred_units > 0.0 && e.min_ns > 0
                })
                .map(|(_, e)| e.min_ns as f64 / e.pred_units)
                .min_by(f64::total_cmp)
        });
    let Some(unit) = unit_ns else {
        return out; // no independent clock reference — no refinement
    };

    // wait_poll: pooled regression slope over flag-variant entries.
    let mut slope_weighted = 0.0f64;
    let mut slope_samples = 0u64;
    for (kind, e) in entries.clone() {
        if !kind.uses_flags() {
            continue;
        }
        if let Some(slope) = e.poll_slope_ns() {
            slope_weighted += slope * e.samples as f64;
            slope_samples += e.samples;
        }
    }
    if slope_samples >= confidence {
        out.wait_poll = Some(slope_weighted / slope_samples as f64 / unit);
    }

    // barrier: minimum anchored excess per crossing over wavefront entries.
    let mut barrier_est: Option<f64> = None;
    let mut barrier_samples = 0u64;
    for (kind, e) in entries.clone() {
        if kind != ObsVariant::Wavefront || e.barriers == 0 {
            continue;
        }
        let excess_ns = e.min_ns as f64 - e.work_units * unit;
        let per_crossing = (excess_ns / e.barriers as f64).max(0.0) / unit;
        if per_crossing.is_finite() {
            barrier_est = Some(barrier_est.map_or(per_crossing, |b: f64| b.min(per_crossing)));
            barrier_samples += e.samples;
        }
    }
    if barrier_samples >= confidence {
        // A measured-zero excess is evidence that barriers are ~free on
        // this host (e.g. one participant); floor at 1% of the base so
        // the blend still has a physical value to move toward.
        out.barrier = barrier_est.map(|b| b.max(base.barrier * 0.01));
    }

    // chain: per-reference aggregate from poll-free flag-variant entries.
    let base_per_term = base.term + base.check;
    let mut chain_weighted = 0.0f64;
    let mut chain_samples = 0u64;
    for (kind, e) in entries {
        if !kind.uses_flags() || e.wait_polls != 0 || e.terms == 0 {
            continue;
        }
        // work_units = dispatch + max((n·e + T·r_base)/p, CP·chain) + post
        // — solve its work branch for the observed r from the anchored
        // observation.
        let t_over_p = e.terms as f64 / p.max(1) as f64;
        let non_term_units = e.work_units - t_over_p * base_per_term;
        let r_obs = (e.min_ns as f64 / unit - non_term_units) / t_over_p;
        if r_obs.is_finite() && r_obs > 0.0 {
            chain_weighted += r_obs * e.samples as f64;
            chain_samples += e.samples;
        }
    }
    if chain_samples >= confidence {
        out.chain_per_term = Some(chain_weighted / chain_samples as f64);
    }

    // Blend weight from the thinnest evidenced channel: the refined model
    // moves no faster than its least-supported constant justifies.
    let thinnest = [
        out.wait_poll.map(|_| slope_samples),
        out.barrier.map(|_| barrier_samples),
        out.chain_per_term.map(|_| chain_samples),
    ]
    .into_iter()
    .flatten()
    .min();
    if let Some(k) = thinnest {
        out.weight = k as f64 / (k + confidence) as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::telemetry::{SolveSample, Telemetry};

    /// Refines `telemetry` against the Multimax preset at `p = 2` and a
    /// confidence of 4.
    fn refined(telemetry: &Telemetry, unit_ns_hint: Option<f64>) -> ObservedConstants {
        refine(&CostModel::multimax(), telemetry.iter(), 2, 4, unit_ns_hint)
    }

    #[test]
    fn no_anchor_means_no_refinement() {
        let mut telemetry = Telemetry::default();
        // Plenty of flag-variant samples, but nothing sequential and no
        // calibration hint: refinement must refuse to invent constants.
        for polls in 0..10u64 {
            telemetry.record(
                ObsVariant::Doacross,
                &SolveSample {
                    ns: 10_000 + 13 * polls,
                    wait_polls: polls,
                    barriers: 0,
                    terms: 500,
                    pred_units: 900.0,
                    work_units: 850.0,
                },
            );
        }
        let r = refined(&telemetry, None);
        assert!(!r.has_evidence());
        let base = CostModel::multimax();
        assert_eq!(CostModel::refined_from(&base, &r), base);
    }

    #[test]
    fn sequential_solves_anchor_and_slope_refines_wait_poll() {
        let base = CostModel::multimax();
        let mut telemetry = Telemetry::default();
        // Sequential: 2000 units predicted, observed 4000 ns → unit 2 ns.
        for _ in 0..4 {
            telemetry.record(
                ObsVariant::Sequential,
                &SolveSample {
                    ns: 4_000,
                    wait_polls: 0,
                    barriers: 0,
                    terms: 500,
                    pred_units: 2_000.0,
                    work_units: 2_000.0,
                },
            );
        }
        // Doacross: each poll costs 26 ns = 13 units at 2 ns per unit.
        for polls in [0u64, 5, 10, 20, 40] {
            telemetry.record(
                ObsVariant::Doacross,
                &SolveSample {
                    ns: 9_000 + 26 * polls,
                    wait_polls: polls,
                    barriers: 0,
                    terms: 500,
                    pred_units: 4_600.0,
                    work_units: 4_500.0,
                },
            );
        }
        let r = refined(&telemetry, None);
        let wait = r.wait_poll.expect("slope evidence");
        assert!((wait - 13.0).abs() < 1e-6, "{wait}");
        assert!(r.weight > 0.0 && r.weight < 1.0);
        let refined = CostModel::refined_from(&base, &r);
        assert!(refined.wait_poll > base.wait_poll);
        assert_eq!(refined.region_dispatch, base.region_dispatch);
    }

    #[test]
    fn calibration_hint_beats_the_sequential_anchor_and_barrier_refines() {
        let base = CostModel::multimax();
        let mut telemetry = Telemetry::default();
        // A sequential anchor of 1 ns per unit, which the hint overrides.
        telemetry.record(
            ObsVariant::Sequential,
            &SolveSample {
                ns: 1_000,
                wait_polls: 0,
                barriers: 0,
                terms: 400,
                pred_units: 1_000.0,
                work_units: 1_000.0,
            },
        );
        // Wavefront: 19 crossings/solve; work predicted 1000 units; with
        // the hinted unit of 3 ns, observed 3000 + 19·600 ns puts each
        // crossing at 600 ns = 200 units.
        for _ in 0..5 {
            telemetry.record(
                ObsVariant::Wavefront,
                &SolveSample {
                    ns: 3_000 + 19 * 600,
                    wait_polls: 0,
                    barriers: 19,
                    terms: 400,
                    pred_units: 1_076.0,
                    work_units: 1_000.0,
                },
            );
        }
        let r = refined(&telemetry, Some(3.0));
        let barrier = r.barrier.expect("barrier evidence");
        assert!((barrier - 200.0).abs() < 1e-6, "{barrier}");
        assert_eq!(
            r.weight,
            5.0 / 9.0,
            "five samples against a confidence of 4"
        );
        assert!(CostModel::refined_from(&base, &r).barrier > base.barrier);
    }

    #[test]
    fn thin_evidence_stays_below_the_confidence_threshold() {
        let mut telemetry = Telemetry::default();
        telemetry.record(
            ObsVariant::Sequential,
            &SolveSample {
                ns: 1_000,
                wait_polls: 0,
                barriers: 0,
                terms: 10,
                pred_units: 500.0,
                work_units: 500.0,
            },
        );
        let wavefront = SolveSample {
            ns: 5_000,
            wait_polls: 0,
            barriers: 10,
            terms: 10,
            pred_units: 1_100.0,
            work_units: 1_000.0,
        };
        // Only 3 wavefront samples against a confidence of 4.
        for _ in 0..3 {
            telemetry.record(ObsVariant::Wavefront, &wavefront);
        }
        let r = refined(&telemetry, None);
        assert_eq!(r.barrier, None, "below confidence");
        assert!(!r.has_evidence());
        // The fourth sample crosses it: the anchor was there all along.
        telemetry.record(ObsVariant::Wavefront, &wavefront);
        assert!(refined(&telemetry, None).barrier.is_some());
    }
}
