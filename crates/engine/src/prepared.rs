//! [`PreparedLoop`]: the compiled loop as a first-class value.

use crate::engine::EngineInner;
use crate::error::EngineError;
use doacross_core::{DoacrossLoop, RunStats};
use doacross_plan::{ExecutionPlan, PatternFingerprint, PlanVariant};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A prepared (planned) loop handle: the preprocessing products of one
/// access-pattern structure, resolved once by [`crate::Engine::prepare`]
/// and executable any number of times from any number of threads.
///
/// Cloning is two `Arc` bumps; clones share the plan and remain valid
/// after the plan is evicted from the engine's cache (eviction frees cache
/// *slots*, not plans in flight). Only [`crate::Engine::invalidate`]
/// retires a handle, by advancing the structure's generation past the one
/// recorded here — after which [`PreparedLoop::execute`] fails fast with
/// [`EngineError::StalePlan`].
#[derive(Clone)]
pub struct PreparedLoop {
    inner: Arc<EngineInner>,
    plan: Arc<ExecutionPlan>,
    /// The structure's shared generation cell — staleness is one atomic
    /// load, never a cache-shard lock, so executes through a handle stay
    /// off the shard mutexes entirely.
    generation_cell: Arc<AtomicU64>,
    generation: u64,
    from_cache: bool,
}

impl PreparedLoop {
    pub(crate) fn new(
        inner: Arc<EngineInner>,
        plan: Arc<ExecutionPlan>,
        generation_cell: Arc<AtomicU64>,
        generation: u64,
        from_cache: bool,
    ) -> Self {
        // `generation` was read while the cache shard lock was held, so it
        // is consistent with `plan`: re-reading the cell here could race
        // an adaptive swap and pair the old plan with the new generation —
        // a handle that would never report stale.
        Self {
            inner,
            plan,
            generation_cell,
            generation,
            from_cache,
        }
    }

    /// The structural fingerprint the plan is keyed under.
    pub fn fingerprint(&self) -> &PatternFingerprint {
        self.plan.fingerprint()
    }

    /// The execution variant the cost model selected.
    pub fn variant(&self) -> PlanVariant {
        self.plan.variant()
    }

    /// The underlying execution plan (census, candidate prices, captured
    /// preprocessing products).
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The generation this handle was prepared under (0 until the
    /// structure is first invalidated).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the prepare that produced this handle was served from the
    /// cache (`true`) or built the plan (`false`). Executions report this
    /// as their [`doacross_core::PlanProvenance`].
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }

    /// Whether [`crate::Engine::invalidate`] has retired this handle.
    /// [`PreparedLoop::execute`] performs the same check and returns the
    /// typed [`EngineError::StalePlan`]; this is the non-failing query.
    pub fn is_stale(&self) -> bool {
        self.generation_cell.load(Ordering::Acquire) != self.generation
    }

    /// Executes the prepared plan against `loop_`, updating `y` in place
    /// exactly as the sequential source loop would.
    ///
    /// `loop_` must share the structure the handle was prepared for — same
    /// index arrays; coefficient *values* and `y` contents are free to
    /// differ per call (that is the point: one triangular structure, many
    /// right-hand sides). Shape mismatches are rejected with
    /// [`doacross_core::DoacrossError::PlanMismatch`] before anything runs.
    /// A parallel plan checks each row's reference count where its region
    /// reads the row, not in a pass before dispatch: a disagreeing count
    /// stops the region, and the solve returns
    /// [`doacross_core::DoacrossError::ScheduleTermsMismatch`] naming the
    /// first such row in claim order, with `y` untouched, neither replayed
    /// nor recorded. Content equality is the caller's contract, exactly as
    /// it is for the fingerprint-keyed cache: a loop that differs only in
    /// content is not detected, and one that differs in content and in a
    /// count runs until the region reaches the mismatching row or the
    /// solve deadline expires.
    ///
    /// Staleness is checked at entry: a concurrent
    /// [`crate::Engine::invalidate`] landing *during* an execution affects
    /// the next call, not the one in flight.
    ///
    /// A sequential plan's solve is timed only when the engine consumes
    /// the time (built with observability, profiling or adaptation);
    /// otherwise it reads no clock and the returned
    /// [`RunStats::total`](doacross_core::RunStats::total) is zero ("not
    /// measured") — time the call to know its wall time. A parallel plan's
    /// solve is always timed.
    pub fn execute<L: DoacrossLoop + ?Sized>(
        &self,
        loop_: &L,
        y: &mut [f64],
    ) -> Result<RunStats, EngineError> {
        self.check_stale()?;
        // Provenance is stamped by `execute_plan`'s record stage, before
        // the observability and adaptive hooks see the stats.
        self.inner
            .execute_plan(loop_, y, &self.plan, self.from_cache, self.generation)
    }

    /// The typed staleness check at the top of [`PreparedLoop::execute`]:
    /// a retired handle fails here, before admission, and never executes.
    fn check_stale(&self) -> Result<(), EngineError> {
        let current = self.generation_cell.load(Ordering::Acquire);
        if current != self.generation {
            return Err(EngineError::StalePlan {
                fingerprint: *self.plan.fingerprint(),
                prepared_generation: self.generation,
                current_generation: current,
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for PreparedLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedLoop")
            .field("fingerprint", &self.plan.fingerprint().to_string())
            .field("variant", &self.plan.variant())
            .field("generation", &self.generation)
            .field("from_cache", &self.from_cache)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::Engine;
    use doacross_core::{seq::run_sequential, PlanProvenance, TestLoop};

    #[test]
    fn handles_execute_repeatedly_and_report_their_provenance() {
        let engine = Engine::builder().workers(2).build();
        let loop_ = TestLoop::new(500, 2, 8);
        let y0 = loop_.initial_y();
        let mut oracle = y0.clone();
        run_sequential(&loop_, &mut oracle);

        let cold = engine.prepare(&loop_).unwrap();
        assert!(!cold.from_cache());
        for _ in 0..3 {
            let mut y = y0.clone();
            let stats = cold.execute(&loop_, &mut y).unwrap();
            assert_eq!(y, oracle);
            assert_eq!(stats.provenance, PlanProvenance::PlanCold);
        }

        let hot = engine.prepare(&loop_).unwrap();
        assert!(hot.from_cache());
        let mut y = y0.clone();
        let stats = hot.execute(&loop_, &mut y).unwrap();
        assert_eq!(y, oracle);
        assert_eq!(stats.provenance, PlanProvenance::PlanCached);
        assert_eq!(hot.fingerprint(), cold.fingerprint());
    }

    #[test]
    fn invalidation_retires_handles_and_replans() {
        let engine = Engine::builder().workers(2).build();
        let loop_ = TestLoop::new(300, 1, 8);
        let y0 = loop_.initial_y();

        let prepared = engine.prepare(&loop_).unwrap();
        assert!(!prepared.is_stale());
        assert_eq!(prepared.generation(), 0);

        assert!(engine.invalidate(prepared.fingerprint()));
        assert!(prepared.is_stale());
        let mut y = y0.clone();
        let err = prepared.execute(&loop_, &mut y).unwrap_err();
        assert!(matches!(
            err,
            crate::EngineError::StalePlan {
                prepared_generation: 0,
                current_generation: 1,
                ..
            }
        ));
        assert_eq!(y, y0, "a stale handle must never execute");

        // Re-preparing rebuilds under the new generation and works.
        let fresh = engine.prepare(&loop_).unwrap();
        assert!(!fresh.from_cache(), "invalidation dropped the plan");
        assert_eq!(fresh.generation(), 1);
        let mut y = y0.clone();
        fresh.execute(&loop_, &mut y).unwrap();
        let mut oracle = y0;
        run_sequential(&loop_, &mut oracle);
        assert_eq!(y, oracle);

        // Invalidating a never-seen fingerprint drops nothing.
        let other = TestLoop::new(77, 1, 7);
        let fp = doacross_plan::PatternFingerprint::of(&other);
        assert!(!engine.invalidate(&fp));
    }
}
