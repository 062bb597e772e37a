//! The engine's typed failure surface.

use doacross_core::DoacrossError;
use doacross_plan::{PatternFingerprint, PersistError};

/// Reasons an engine operation can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The [`crate::PreparedLoop`] handle was prepared under a generation
    /// that [`crate::Engine::invalidate`] has since advanced. The handle
    /// refuses to execute its (possibly outdated) plan; re-prepare to get
    /// a fresh one.
    StalePlan {
        /// Fingerprint of the invalidated structure.
        fingerprint: PatternFingerprint,
        /// Generation the handle was prepared under.
        prepared_generation: u64,
        /// The structure's current generation.
        current_generation: u64,
    },
    /// Solve admission was refused: every scheduler sub-pool was busy and
    /// the bounded wait queue was already at `max_pending` callers. The
    /// engine's state is untouched — retry later, shed the request, or
    /// rebuild with more pools ([`crate::EngineBuilder::pools`]). A
    /// parallel-solve condition only: a sequential plan is never
    /// admitted, so it is never refused.
    Saturated {
        /// Sub-pool count of the engine's scheduler.
        pools: usize,
        /// Callers allowed to wait for a free sub-pool before refusal.
        max_pending: usize,
    },
    /// A plan store could not be written, read, or trusted — corrupt
    /// bytes, a truncated file, an unsupported format version, or a
    /// record that failed structural revalidation. Loading never applies
    /// a partially-trusted store: on this error the cache is exactly as
    /// warm as it was before the call.
    Persist(PersistError),
    /// The underlying planner or runtime rejected the loop.
    Doacross(DoacrossError),
    /// A worker panicked inside a parallel region. The region was
    /// poisoned, every other worker unwound cooperatively (no hang), the
    /// sub-pool was health-probed and released, and the caller's output
    /// buffer was restored — but the solve produced nothing. Surfaced
    /// only when [`crate::FallbackPolicy::Disabled`] suppresses the
    /// sequential fallback (or the fallback itself failed).
    SolvePanicked {
        /// Scheduler sub-pool the faulted region ran on.
        pool: usize,
        /// Worker index whose closure panicked (first cause wins when
        /// several race); 0 is the solving thread itself, which runs
        /// worker 0's share of every region it dispatches.
        worker: usize,
    },
    /// The parallel solve ran past the engine's
    /// [`crate::EngineBuilder::solve_deadline`]. All workers unwound
    /// cooperatively at the next poll site; partial statistics for the
    /// aborted attempt are in the flight recorder.
    SolveTimeout {
        /// Scheduler sub-pool the expired region ran on.
        pool: usize,
        /// The configured deadline that was exceeded.
        deadline: std::time::Duration,
    },
}

impl From<DoacrossError> for EngineError {
    fn from(err: DoacrossError) -> Self {
        EngineError::Doacross(err)
    }
}

impl From<PersistError> for EngineError {
    fn from(err: PersistError) -> Self {
        EngineError::Persist(err)
    }
}

impl From<doacross_sched::Saturated> for EngineError {
    fn from(err: doacross_sched::Saturated) -> Self {
        EngineError::Saturated {
            pools: err.pools,
            max_pending: err.max_pending,
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::StalePlan {
                fingerprint,
                prepared_generation,
                current_generation,
            } => write!(
                f,
                "prepared loop is stale: pattern {fingerprint} was invalidated \
                 (handle generation {prepared_generation}, current {current_generation}); \
                 re-prepare to rebuild the plan"
            ),
            EngineError::Saturated { pools, max_pending } => write!(
                f,
                "engine saturated: all {pools} scheduler sub-pool(s) busy and \
                 {max_pending} caller(s) already waiting; retry, shed load, or \
                 rebuild with more pools / a deeper admission queue"
            ),
            EngineError::Persist(err) => write!(f, "{err}"),
            EngineError::Doacross(err) => write!(f, "{err}"),
            EngineError::SolvePanicked { pool, worker } => write!(
                f,
                "parallel solve panicked: worker {worker} on sub-pool {pool} \
                 poisoned the region; all workers unwound and the sub-pool \
                 was released (no partial output was delivered)"
            ),
            EngineError::SolveTimeout { pool, deadline } => write!(
                f,
                "parallel solve on sub-pool {pool} exceeded its {deadline:?} \
                 deadline and was aborted cooperatively"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Doacross(err) => Some(err),
            EngineError::Persist(err) => Some(err),
            EngineError::StalePlan { .. }
            | EngineError::Saturated { .. }
            | EngineError::SolvePanicked { .. }
            | EngineError::SolveTimeout { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::{IndirectLoop, TestLoop};

    #[test]
    fn display_and_source() {
        let _ = IndirectLoop::new(0, vec![], vec![], vec![]);
        let fp = PatternFingerprint::of(&TestLoop::new(4, 1, 7));
        let stale = EngineError::StalePlan {
            fingerprint: fp,
            prepared_generation: 0,
            current_generation: 2,
        };
        assert!(stale.to_string().contains("stale"));
        assert!(std::error::Error::source(&stale).is_none());

        let wrapped: EngineError = DoacrossError::EmptyBlock.into();
        assert!(wrapped.to_string().contains("block size"));
        assert!(std::error::Error::source(&wrapped).is_some());

        let persist: EngineError = doacross_plan::PersistError::BadMagic.into();
        assert!(persist.to_string().contains("magic"));
        assert!(std::error::Error::source(&persist).is_some());

        let saturated = EngineError::Saturated {
            pools: 2,
            max_pending: 0,
        };
        assert!(saturated.to_string().contains("saturated"));
        assert!(std::error::Error::source(&saturated).is_none());

        let panicked = EngineError::SolvePanicked { pool: 1, worker: 3 };
        assert!(panicked.to_string().contains("worker 3"));
        assert!(panicked.to_string().contains("sub-pool 1"));
        assert!(std::error::Error::source(&panicked).is_none());

        let timed_out = EngineError::SolveTimeout {
            pool: 0,
            deadline: std::time::Duration::from_millis(10),
        };
        assert!(timed_out.to_string().contains("deadline"));
        assert!(std::error::Error::source(&timed_out).is_none());
    }
}
