//! The simulator's cost model.
//!
//! All costs are in abstract machine cycles (the unit cancels out of every
//! efficiency; only ratios matter). The `multimax` preset is calibrated so
//! that the dependence-free (odd-`L`) Figure 6 plateaus land where the
//! paper reports them: ≈ 0.33 parallel efficiency for `M = 1` and ≈ 0.50
//! for `M = 5` on 16 processors. Those two equations pin the overhead
//! ratios (see the field docs); everything else — the even-`L` curves, the
//! Table 1 bands — follows from the schedule dynamics, not from further
//! tuning.

/// Per-action costs of the simulated machine (abstract cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Claiming one iteration from the shared self-scheduling counter
    /// (fetch-add plus cache traffic).
    pub schedule_grab: f64,
    /// Fixed per-iteration executor work: loading `a(i)`, seeding the
    /// accumulator (Figure 5 S2), loop setup.
    pub iteration_setup: f64,
    /// Per-reference dependency check: the `iter` load and the three-way
    /// compare (Figure 5 S3/S6).
    pub check: f64,
    /// Per-reference useful arithmetic in the transformed loop
    /// (`val(j) * y(..)` plus the add and index arithmetic).
    pub term: f64,
    /// One failed poll of a `ready` flag while busy-waiting (S4).
    pub wait_poll: f64,
    /// Publishing the iteration's result (`ynew` store + `ready` release).
    pub publish: f64,
    /// Inspector work per iteration (`iter(a(i)) = i`).
    pub inspect_per_iter: f64,
    /// Postprocessing work per iteration (reset `iter`/`ready`, copy back).
    pub post_per_iter: f64,
    /// Entering/leaving a parallel region (pool dispatch + join), per
    /// region.
    pub region_dispatch: f64,
    /// One level boundary of the wavefront (level-scheduled) executor: the
    /// hand-off of a full completion count from the worker that finished
    /// the level to one waiting to enter the next (the name predates the
    /// counters — it was a spin-barrier crossing). Far cheaper than
    /// `region_dispatch`: waiters stay in user space and never return to
    /// the pool's dispatch path.
    pub barrier: f64,
    /// Sequential loop: fixed per-iteration cost.
    pub seq_iter: f64,
    /// Sequential loop: per-reference cost.
    pub seq_term: f64,
}

impl CostModel {
    /// Calibrated to the paper's Encore Multimax/320 observations.
    ///
    /// With `seq_iter = 2`, `seq_term = 1`, the dependence-free efficiency
    /// is `(seq_iter + M·seq_term) / (overhead_per_iter + M·(term +
    /// check))`. The paper's plateaus give two equations:
    ///
    /// * `M = 1`: `3 / (O + 1.25) = 1/3`  →  `O = 7.75`
    /// * `M = 5`: `7 / (O + 6.25) = 1/2`  →  `O = 7.75`
    ///
    /// (`O` = grab + setup + publish + inspector + postprocessing per
    /// iteration, and `term + check = 1.25`.) The preset distributes `O`
    /// and the per-term 1.25 across actions in proportions typical of the
    /// runtime's instruction mix; the `term`/`publish` split additionally
    /// controls the distance-1 pipeline rate (`term + publish`), which the
    /// Table 1 natural-order solves are sensitive to.
    pub fn multimax() -> Self {
        Self {
            schedule_grab: 1.5,
            iteration_setup: 1.0,
            check: 0.7,
            term: 0.55,
            wait_poll: 0.25,
            publish: 0.25,
            inspect_per_iter: 2.5,
            post_per_iter: 2.5,
            region_dispatch: 50.0,
            // A handful of contended atomic operations per crossing —
            // a few counter grabs' worth of cache traffic.
            barrier: 4.0,
            seq_iter: 2.0,
            seq_term: 1.0,
        }
    }

    /// Total fixed (dependence-independent) doacross overhead per
    /// iteration: everything except per-term work and waiting.
    pub fn overhead_per_iteration(&self) -> f64 {
        self.schedule_grab
            + self.iteration_setup
            + self.publish
            + self.inspect_per_iter
            + self.post_per_iter
    }

    /// Sequential cost of a loop with `n` iterations and `total_terms`
    /// references.
    pub fn sequential_time(&self, n: usize, total_terms: usize) -> f64 {
        self.seq_iter * n as f64 + self.seq_term * total_terms as f64
    }

    /// The closed-form dependence-free efficiency on any processor count
    /// (large-`n` limit): useful as an analytic cross-check of the
    /// simulator.
    pub fn doall_efficiency(&self, terms_per_iter: usize) -> f64 {
        let m = terms_per_iter as f64;
        let seq = self.seq_iter + m * self.seq_term;
        let par = self.overhead_per_iteration() + m * (self.term + self.check);
        seq / par
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::multimax()
    }
}

/// Runtime-measured per-action costs, in the same normalized units as the
/// [`CostModel`] they refine. Produced by `doacross-adapt`'s telemetry
/// layer from real solves; consumed by [`CostModel::refined_from`].
///
/// Every field is optional: a constant is `Some` only once enough
/// independent evidence exists for it (the recorder's confidence
/// threshold), and a `None` leaves the base model's value untouched.
/// `weight` is how far to move from the base toward the observation —
/// the recorder grows it with the sample count, so a freshly-started
/// engine prices like its preset and an engine that has watched thousands
/// of solves prices like its hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ObservedConstants {
    /// Measured cost of one `ready`-flag poll (model units).
    pub wait_poll: Option<f64>,
    /// Measured cost of one wavefront level boundary (model units).
    pub barrier: Option<f64>,
    /// Measured per-reference executor cost — the observed `term + check`
    /// aggregate (model units). Split across the two fields in the base
    /// model's proportions.
    pub chain_per_term: Option<f64>,
    /// Blend factor in `[0, 1]`: 0 keeps the base model, 1 takes the
    /// observation outright. Values outside the interval are clamped.
    pub weight: f64,
}

impl ObservedConstants {
    /// Whether any constant carries usable evidence.
    pub fn has_evidence(&self) -> bool {
        self.weight > 0.0
            && (self.wait_poll.is_some() || self.barrier.is_some() || self.chain_per_term.is_some())
    }
}

fn lerp(base: f64, observed: Option<f64>, w: f64) -> f64 {
    match observed {
        // Evidence must be physical: a non-finite or non-positive
        // measurement is recorder noise and never displaces the base.
        Some(obs) if obs.is_finite() && obs > 0.0 => base + (obs - base) * w,
        _ => base,
    }
}

impl CostModel {
    /// A copy of `base` with the runtime-observed constants blended in:
    /// `refined = base + (observed − base) · weight` per constant, the
    /// online cost-model refinement behind `doacross-adapt`. Constants
    /// without evidence (`None`, non-finite, or non-positive) keep their
    /// base values, so refinement can only move selection toward what the
    /// machine actually measured — never invent a cost out of noise.
    pub fn refined_from(base: &CostModel, observed: &ObservedConstants) -> CostModel {
        let w = observed.weight.clamp(0.0, 1.0);
        let mut refined = *base;
        refined.wait_poll = lerp(base.wait_poll, observed.wait_poll, w);
        refined.barrier = lerp(base.barrier, observed.barrier, w);
        // The per-reference aggregate is observed as one number (telemetry
        // cannot separate the `iter` load from the multiply); preserve the
        // base's term/check split while matching the measured sum.
        let base_per_term = base.term + base.check;
        let refined_per_term = lerp(base_per_term, observed.chain_per_term, w);
        if base_per_term > 0.0 {
            let scale = refined_per_term / base_per_term;
            refined.term = base.term * scale;
            refined.check = base.check * scale;
        }
        refined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multimax_calibration_hits_paper_plateaus() {
        let c = CostModel::multimax();
        assert!(
            (c.doall_efficiency(1) - 1.0 / 3.0).abs() < 0.01,
            "M=1 -> 0.33"
        );
        assert!((c.doall_efficiency(5) - 0.5).abs() < 0.01, "M=5 -> 0.50");
    }

    #[test]
    fn overhead_decomposition_sums() {
        let c = CostModel::multimax();
        assert!((c.overhead_per_iteration() - 7.75).abs() < 1e-12);
    }

    #[test]
    fn sequential_time_is_linear() {
        let c = CostModel::multimax();
        assert_eq!(c.sequential_time(10, 50), 2.0 * 10.0 + 1.0 * 50.0);
        assert_eq!(c.sequential_time(0, 0), 0.0);
    }

    #[test]
    fn refined_from_blends_only_evidenced_constants() {
        let base = CostModel::multimax();
        let obs = ObservedConstants {
            wait_poll: Some(2.25),
            barrier: None,
            chain_per_term: Some(2.5),
            weight: 0.5,
        };
        assert!(obs.has_evidence());
        let refined = CostModel::refined_from(&base, &obs);
        assert!((refined.wait_poll - (0.25 + (2.25 - 0.25) * 0.5)).abs() < 1e-12);
        assert_eq!(refined.barrier, base.barrier, "no evidence, no change");
        // term + check moves halfway from 1.25 to 2.5, split preserved.
        let per_term = refined.term + refined.check;
        assert!((per_term - 1.875).abs() < 1e-12, "{per_term}");
        assert!((refined.term / refined.check - base.term / base.check).abs() < 1e-12);
        // Untouched constants survive bit-for-bit.
        assert_eq!(refined.region_dispatch, base.region_dispatch);
        assert_eq!(refined.seq_iter, base.seq_iter);
    }

    #[test]
    fn refined_from_rejects_unphysical_evidence_and_clamps_weight() {
        let base = CostModel::multimax();
        for bad in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            let refined = CostModel::refined_from(
                &base,
                &ObservedConstants {
                    wait_poll: Some(bad),
                    barrier: Some(bad),
                    chain_per_term: Some(bad),
                    weight: 1.0,
                },
            );
            assert_eq!(refined, base, "evidence {bad} must be ignored");
        }
        // weight > 1 clamps to the observation, never overshoots.
        let refined = CostModel::refined_from(
            &base,
            &ObservedConstants {
                barrier: Some(10.0),
                weight: 7.0,
                ..Default::default()
            },
        );
        assert_eq!(refined.barrier, 10.0);
        // Zero weight is a no-op regardless of evidence.
        let refined = CostModel::refined_from(
            &base,
            &ObservedConstants {
                barrier: Some(10.0),
                weight: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(refined, base);
    }

    #[test]
    fn more_terms_amortize_overhead() {
        let c = CostModel::multimax();
        assert!(c.doall_efficiency(5) > c.doall_efficiency(1));
        assert!(c.doall_efficiency(50) > c.doall_efficiency(5));
        // Asymptote: seq_term / (term + check) = 1 / 1.25 = 0.8.
        assert!(c.doall_efficiency(100_000) < 0.8);
    }
}
