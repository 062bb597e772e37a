//! Fault-containment policy types: what the engine does when a parallel
//! solve panics, times out, or cannot be admitted.
//!
//! The mechanism itself lives in the private `solve` module: its `run`
//! stage catches the region fault and its `recover` stage triages it and
//! replays. This module only holds the knob. A refused admission
//! ([`crate::EngineError::Saturated`]) is returned to the caller as it
//! is: whether and when to try again is the caller's policy.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fallback_is_sequential_retry() {
        assert_eq!(FallbackPolicy::default(), FallbackPolicy::SequentialRetry);
    }
}
