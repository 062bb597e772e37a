//! Fault-containment policy types: what the engine does when a parallel
//! solve panics, times out, or cannot be admitted.
//!
//! The mechanisms themselves live elsewhere: the private `solve`
//! module's `run` stage catches the region fault and its `recover` stage
//! triages it and replays, and `Engine::execute_with_retry`
//! ([`crate::engine`]) spends the backoff budget. This module only holds
//! the knobs.

use std::time::Duration;

use rand::{rngs::SmallRng, Rng, SeedableRng};

/// What the engine does after a parallel solve is poisoned (worker panic)
/// or misses its deadline.
///
/// The parallel output buffer may be torn when a region aborts mid-flight,
/// so the fallback always replays against a pristine copy of the caller's
/// input taken before the parallel attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackPolicy {
    /// Retry the solve once on the sequential variant (the paper's
    /// unpreprocessed loop) and deliver its result; the demotion is
    /// recorded in adaptive telemetry and the flight recorder. Default.
    #[default]
    SequentialRetry,
    /// Surface the typed error to the caller unmodified.
    Disabled,
}

/// Bounded exponential backoff for [`crate::EngineError::Saturated`]
/// admission failures, used by `Engine::execute_with_retry`.
///
/// Only saturation is retried: it is the one transient, load-induced
/// failure. Panics and timeouts are fault containment's job, and plan or
/// soundness errors are deterministic — retrying them spends latency to
/// reproduce the same error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each subsequent retry.
    pub base_delay: Duration,
    /// Cap applied to the doubled delay.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream. Two tenants retrying
    /// with different seeds decorrelate instead of re-colliding on the
    /// same pool at the same instant.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_delay: Duration::from_micros(50),
            max_delay: Duration::from_millis(5),
            seed: 0x5eed_d0ac,
        }
    }
}

impl RetryPolicy {
    /// The jittered delays this policy will sleep, in order: attempt `k`
    /// (0-based) backs off `base · 2ᵏ` capped at `max_delay`, scaled by a
    /// uniform factor in `[0.5, 1.0)` drawn from the seeded stream.
    pub fn delays(&self) -> impl Iterator<Item = Duration> + '_ {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        (0..self.max_retries).map(move |k| {
            let full = self
                .base_delay
                .saturating_mul(1u32 << k.min(20))
                .min(self.max_delay);
            let jitter = 0.5 + 0.5 * rng.gen::<f64>();
            full.mul_f64(jitter)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fallback_is_sequential_retry() {
        assert_eq!(FallbackPolicy::default(), FallbackPolicy::SequentialRetry);
    }

    #[test]
    fn delays_are_bounded_and_monotone_before_jitter() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(1),
            seed: 7,
        };
        let delays: Vec<_> = policy.delays().collect();
        assert_eq!(delays.len(), 8);
        for d in &delays {
            // Jitter scales into [0.5, 1.0), so every delay sits within
            // [base/2, max_delay).
            assert!(*d >= policy.base_delay / 2, "{d:?}");
            assert!(*d < policy.max_delay, "{d:?}");
        }
    }

    #[test]
    fn delays_are_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let a: Vec<_> = policy.delays().collect();
        let b: Vec<_> = policy.delays().collect();
        assert_eq!(a, b);
        let other = RetryPolicy {
            seed: 99,
            ..RetryPolicy::default()
        };
        assert_ne!(a, other.delays().collect::<Vec<_>>());
    }

    #[test]
    fn zero_retries_yields_no_delays() {
        let policy = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.delays().count(), 0);
    }
}
