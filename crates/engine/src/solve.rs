//! The life of one solve, written down once.
//!
//! [`crate::PreparedLoop::execute`] → [`EngineInner::execute_plan`] is the
//! only way a solve crosses the engine, and `execute_plan` is a short
//! driver. Which path it takes is one fact about the plan: whether it
//! opens a parallel region.
//!
//! A **sequential** plan runs on the caller's thread and pays for nothing
//! it does not use: the plan's shape checks and `run_sequential` timed by
//! one clock pair ([`doacross_plan::execute_sequential`]), bracketed by
//! the thread's allocation counter, then `record`. It leases no sub-pool,
//! locks no scratch, sets no deadline and runs under no `catch_unwind`:
//! it has no region to fault and nothing to replay, so a panic in the
//! loop body unwinds straight to the caller. Admission bounds concurrency
//! on *workers*, and a sequential solve occupies none — it is served even
//! while every sub-pool is held, and no sub-pool's ledger counts it.
//!
//! A **parallel** plan crosses five stages, in this order:
//!
//! 1. **`admit`** — the bounded admission gate: lease a sub-pool from the
//!    scheduler (or refuse typed, leaving a `Saturated` flight record) and
//!    trace the routing decision.
//! 2. **`arm`** — take the leased sub-pool's [`LeaseScratch`] and its
//!    profiler arena, keep a pristine copy of `y` when a fault would be
//!    answered by a replay, start the deadline.
//! 3. **`run`** — one `PlanExecutor::execute` under `catch_unwind`, with
//!    the dispatching thread's allocation bill around it; a delivered
//!    attempt's admission wait goes on the profiler's dispatcher track.
//! 4. **`recover`** — only when `run` unwound: fresh executor into the
//!    scratch, the abandoned spans dropped, fault triage, `y` put back from
//!    the pristine copy, health probe, lease released, the fault traced and
//!    flight-recorded, and — policy permitting — the sequential replay.
//! 5. **`record`** — the one place a delivered solve's `allocations`,
//!    `attempts` and `provenance` are stamped, then the flight record,
//!    the profile harvest and the adaptive hook. Both paths end here; a
//!    sequential solve's record names no sub-pool, and its profile is its
//!    one work span, made from its stats.
//!
//! The stages talk to each other through the [`Lease`] and the
//! [`RunStats`] only. `RunStats` is *the* record of a solve; the
//! observability layer's `SolveRecord` is a projection of it with exactly
//! one constructor (`Solve::solve_record`), as the adaptive layer's
//! samples are in [`crate::adaptive`].
//!
//! ## Clock budget
//!
//! A clock reading costs ≈ 30 ns on the benchmark host (`bench.timer_ns`),
//! a few percent of a 1–2 µs solve each, so a stage reads the clock only
//! where it consumes the reading, and everything that consumes it there
//! shares it:
//!
//! | Stage | Readings | Taken when, and why |
//! |---|---|---|
//! | sequential: `execute_sequential` | 2 | always: one pair for `RunStats::total`, which is also a profiled solve's one work span |
//! | parallel: `admit` | 2 | profiling on, or tracing a multi-pool engine: the admission wait, measured once — the `PoolDispatched` event and the dispatch span both use it |
//! | parallel: `arm` | 1 | a solve deadline is configured: when it expires |
//! | parallel: `run` | 1 | always (a region can fault): when the attempt began, which `recover` turns into the fault's wall time; the executors time their own regions |
//! | `record` | 1 | observability on: one stamp for every event the stage emits |
//!
//! A warm sequential solve therefore reads the clock twice with everything
//! off and three times with observability, profiling and adaptation on.

use crate::engine::EngineInner;
use crate::error::EngineError;
use crate::fault::FallbackPolicy;
use doacross_core::{
    alloc::thread_allocations, seq::run_sequential, DoacrossError, DoacrossLoop, PlanProvenance,
    RunStats,
};
use doacross_obs::profile::{ProfArena, Profiler, SpanSource};
use doacross_obs::{ObsFault, ObsVariant, SolveOutcome, SolveRecord, TraceEvent};
use doacross_par::RegionFault;
use doacross_plan::{execute_sequential, ExecutionPlan, PlanExecutor, PlanVariant};
use doacross_sched::PoolGuard;
use parking_lot::MutexGuard;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nanoseconds of `d`, saturating — the width every emitted duration has.
pub(crate) fn clamp_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// What a sub-pool lease comes with, one per sub-pool for the life of the
/// engine: the scratch executor every parallel solve on that sub-pool reuses
/// (per-variant scratch arrays are `&mut` state that grows to the largest
/// structure seen — the paper's reuse economics, kept across calls *and*
/// tenants) and the buffer the pristine input of a replayable solve is
/// copied into (grown once, so warm solves snapshot without allocating).
///
/// It sits behind a mutex only because the lease's exclusivity is a
/// runtime fact (the scheduler's free-pool bitmask), not one the borrow
/// checker can see: the lock is taken once per solve, by the lease
/// holder, and is never contended.
pub(crate) struct LeaseScratch {
    executor: PlanExecutor,
    pristine: Vec<f64>,
}

impl LeaseScratch {
    pub(crate) fn new() -> Self {
        Self {
            executor: PlanExecutor::new(),
            pristine: Vec::new(),
        }
    }
}

/// One admitted, armed solve's exclusive hold on a sub-pool and on that
/// sub-pool's scratch. Fields drop in declaration order: the scratch lock
/// goes before the sub-pool is handed to the next tenant, which therefore
/// never waits on it.
struct Lease<'e> {
    scratch: MutexGuard<'e, LeaseScratch>,
    /// The profiler arena of the leased sub-pool, when profiling is on.
    /// Sub-pools run one solve at a time, so it is exclusively this
    /// solve's until the guard drops.
    arena: Option<&'e ProfArena>,
    /// What `admit` measured, when something consumes it.
    admission: Option<AdmissionWait>,
    guard: PoolGuard<'e>,
}

/// How long admission waited for a sub-pool: one clock reading on each
/// side of `PoolSet::acquire`, taken only when something consumes them.
#[derive(Clone, Copy)]
struct AdmissionWait {
    started: Instant,
    granted: Instant,
}

impl AdmissionWait {
    fn ns(&self) -> u64 {
        clamp_ns(self.granted.saturating_duration_since(self.started))
    }
}

/// What `run` measured around one `PlanExecutor::execute`.
struct Attempt {
    /// `Err` holds the payload of whatever unwound out of the executor.
    outcome: std::thread::Result<Result<RunStats, DoacrossError>>,
    /// When the attempt began; `recover` turns it into a faulted
    /// attempt's wall time.
    started: Instant,
    /// The dispatching thread's heap-allocation bill — exactly 0 on a
    /// warm solve, and always 0 unless the audit allocator
    /// (`doacross_core::alloc::CountingAllocator`) is installed.
    allocations: u64,
}

/// One solve in flight: the engine it crosses and the handle-side facts
/// that were fixed before admission.
struct Solve<'e> {
    engine: &'e EngineInner,
    plan: &'e Arc<ExecutionPlan>,
    generation: u64,
    provenance: PlanProvenance,
}

impl EngineInner {
    /// Executes `plan` against `loop_`: a sequential plan on the caller's
    /// thread, a parallel one on a leased sub-pool through the five stages
    /// in the module docs. Adaptation runs inside `record`, off the result
    /// path — it can never change what this call returns, only what a
    /// *later* prepare serves.
    pub(crate) fn execute_plan<L: DoacrossLoop + ?Sized>(
        &self,
        loop_: &L,
        y: &mut [f64],
        plan: &Arc<ExecutionPlan>,
        from_cache: bool,
        generation: u64,
    ) -> Result<RunStats, EngineError> {
        let provenance = if from_cache {
            PlanProvenance::PlanCached
        } else {
            PlanProvenance::PlanCold
        };
        let solve = Solve {
            engine: self,
            plan,
            generation,
            provenance,
        };
        if plan.variant() == PlanVariant::Sequential {
            let allocs_before = thread_allocations();
            let stats = execute_sequential(loop_, y, plan)?;
            let allocations = thread_allocations() - allocs_before;
            return Ok(solve.record(None, SolveOutcome::Ok, allocations, stats, loop_, y));
        }
        let (guard, admission) = solve.admit()?;
        let pool = guard.index();
        let mut lease = solve.arm(guard, admission, y);
        let attempt = solve.run(&mut lease, loop_, y);
        let (outcome, stats) = match attempt.outcome {
            Ok(result) => {
                drop(lease);
                // A typed rejection (mismatched buffer, bad plan) is
                // deterministic: it would fail — or panic — identically
                // on the sequential variant, so it is neither replayed
                // nor recorded — and it is refused before any span is
                // deposited.
                (SolveOutcome::Ok, result?)
            }
            Err(payload) => {
                let replayed = solve.recover(lease, payload, attempt.started, loop_, y)?;
                (SolveOutcome::FellBack, replayed)
            }
        };
        Ok(solve.record(Some(pool), outcome, attempt.allocations, stats, loop_, y))
    }
}

impl<'e> Solve<'e> {
    /// Whether a fault in this parallel solve is answered by a sequential
    /// replay. A disabled policy never replays, and then the pristine
    /// copy is skipped.
    fn replays(&self) -> bool {
        self.engine.fallback == FallbackPolicy::SequentialRetry
    }

    /// Stage 1. Every parallel solve passes through the same bounded
    /// admission gate — uniform saturation semantics, and the per-pool
    /// dispatch ledger reconciles exactly with the parallel solves. Also
    /// returns how long the wait was, if anyone downstream reads it.
    fn admit(&self) -> Result<(PoolGuard<'e>, Option<AdmissionWait>), EngineError> {
        let engine = self.engine;
        let trace_dispatch = engine.obs.enabled() && engine.pools.pools() > 1;
        let started = (trace_dispatch || engine.profiler.is_some()).then(Instant::now);
        let guard = match engine.pools.acquire() {
            Ok(guard) => guard,
            Err(saturated) => {
                // No pool was ever leased, so the record names none, but
                // the refused attempt still shows in the flight recorder
                // (counters and histograms skip non-delivered outcomes).
                let refused = RunStats {
                    attempts: 1,
                    ..RunStats::default()
                };
                self.emit_solve_record(None, None, SolveOutcome::Saturated, &refused);
                return Err(saturated.into());
            }
        };
        let admission = started.map(|started| AdmissionWait {
            started,
            granted: Instant::now(),
        });
        if let (true, Some(wait)) = (trace_dispatch, admission) {
            engine.obs.emit_at(
                wait.granted,
                TraceEvent::PoolDispatched {
                    pool: guard.index() as u64,
                    stolen: guard.stolen(),
                    wait_ns: wait.ns(),
                },
            );
        }
        Ok((guard, admission))
    }

    /// Stage 2. Everything that has to be in place before the executor
    /// starts, none of which can fail. The profiler arena needs no reset:
    /// the last solve that ran here either was harvested, which drained
    /// it, or faulted, and `recover` dropped what it left.
    fn arm(&self, guard: PoolGuard<'e>, admission: Option<AdmissionWait>, y: &[f64]) -> Lease<'e> {
        let engine = self.engine;
        let mut scratch = engine.scratch[guard.index()].lock();
        let arena = engine
            .profiler
            .as_ref()
            .map(|profiler| profiler.arena(guard.index()));
        // A faulted parallel region may leave `y` torn (the blocked
        // variant copies back per block), so the replay needs the input
        // as it was *before* the attempt.
        if self.replays() {
            scratch.pristine.clear();
            scratch.pristine.extend_from_slice(y);
        }
        let deadline = engine.solve_deadline.map(|budget| Instant::now() + budget);
        guard.pool().set_deadline(deadline);
        Lease {
            scratch,
            arena,
            admission,
            guard,
        }
    }

    /// Stage 3. The attempt itself; leaves the sub-pool's deadline
    /// cleared however the executor came back. Only a delivered attempt
    /// is harvested, so only its profile gets the admission wait.
    fn run<L: DoacrossLoop + ?Sized>(
        &self,
        lease: &mut Lease<'_>,
        loop_: &L,
        y: &mut [f64],
    ) -> Attempt {
        let pool = lease.guard.pool();
        let (executor, arena) = (&mut lease.scratch.executor, lease.arena);
        let allocs_before = thread_allocations();
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            executor.execute(pool, loop_, y, self.plan, arena)
        }));
        let allocations = thread_allocations() - allocs_before;
        pool.set_deadline(None);
        if let (Ok(Ok(_)), Some(arena), Some(wait)) = (&outcome, arena, lease.admission) {
            arena.record_dispatch(arena.ns_at(wait.started), wait.ns());
        }
        Attempt {
            outcome,
            started,
            allocations,
        }
    }

    /// Stage 4. Something unwound out of the executor. Returns the
    /// replay's stats when the fallback policy delivers anyway, the typed
    /// fault otherwise; a panic that is not a contained region fault
    /// keeps unwinding.
    fn recover<L: DoacrossLoop + ?Sized>(
        &self,
        mut lease: Lease<'_>,
        payload: Box<dyn Any + Send>,
        started: Instant,
        loop_: &L,
        y: &mut [f64],
    ) -> Result<RunStats, EngineError> {
        let engine = self.engine;
        let elapsed = started.elapsed();
        // The executor's scratch (raised flags, half-filled completion
        // counts) is mid-flight state: whatever unwound through it, the
        // sub-pool's next tenant starts from a fresh one — and so do the
        // profiler spans its workers deposited before unwinding, which no
        // harvest will drain.
        lease.scratch.executor = PlanExecutor::new();
        if let Some(arena) = lease.arena {
            arena.reset();
        }
        let fault = match payload.downcast::<RegionFault>() {
            Ok(fault) => *fault,
            // Not a contained region fault (e.g. an assertion in engine
            // code): containment does not apply. Free the sub-pool and
            // let the panic keep unwinding.
            Err(payload) => {
                drop(lease);
                resume_unwind(payload);
            }
        };
        // The pristine copy belongs to the lease, so the caller's input
        // goes back while the lease is still held.
        let replays = self.replays();
        if replays {
            y.copy_from_slice(&lease.scratch.pristine);
        }
        if matches!(fault, RegionFault::WorkerPanicked { .. }) {
            // Health-probe the sub-pool before releasing it: one empty
            // region proves every worker is answering dispatch (and
            // `ThreadPool::run`'s entry hygiene clears the poison). A
            // recurring panic here keeps the guard's release path intact
            // — the next tenant gets the same typed containment, not a
            // hang.
            let _ = catch_unwind(AssertUnwindSafe(|| lease.guard.pool().run(|_| {})));
        }
        let pool = lease.guard.index();
        drop(lease);
        let (obs_fault, failed_outcome, err) = match fault {
            RegionFault::WorkerPanicked { worker } => (
                ObsFault::WorkerPanic {
                    worker: worker as u64,
                },
                SolveOutcome::Panicked,
                EngineError::SolvePanicked { pool, worker },
            ),
            RegionFault::DeadlineExpired => (
                ObsFault::DeadlineExpired,
                SolveOutcome::TimedOut,
                EngineError::SolveTimeout {
                    pool,
                    deadline: engine.solve_deadline.unwrap_or_default(),
                },
            ),
        };
        if engine.obs.enabled() {
            engine.obs.emit(TraceEvent::SolvePoisoned {
                fp: self.plan.fingerprint().into(),
                variant: self.plan.variant().into(),
                pool: pool as u64,
                fault: obs_fault,
            });
        }
        // The aborted attempt's flight record: what the engine can still
        // measure (wall time, attempt count) — the per-worker counters
        // unwound with the region.
        let aborted = RunStats {
            workers: engine.pools.workers_per_pool(),
            total: elapsed,
            executor: elapsed,
            attempts: 1,
            ..RunStats::default()
        };
        self.emit_solve_record(None, Some(pool), failed_outcome, &aborted);
        if !replays {
            return Err(err);
        }
        Ok(self.replay(loop_, y))
    }

    /// Graceful degradation, `recover`'s last step: the parallel attempt
    /// delivered nothing, so the unpreprocessed loop — immune to region
    /// faults by construction — earns its keep against the restored
    /// input. Runs on the caller's thread with no sub-pool held.
    fn replay<L: DoacrossLoop + ?Sized>(&self, loop_: &L, y: &mut [f64]) -> RunStats {
        let started = Instant::now();
        run_sequential(loop_, y);
        let stats = RunStats::sequential(loop_.iterations(), started.elapsed());
        if self.engine.obs.enabled() {
            self.engine.obs.emit(TraceEvent::SolveFellBack {
                fp: self.plan.fingerprint().into(),
                from: self.plan.variant().into(),
            });
        }
        if let Some(adaptive) = &self.engine.adaptive {
            adaptive.record_fallback(self.engine, self.plan, clamp_ns(stats.total));
        }
        stats
    }

    /// Stage 5, and the end of the sequential path. `stats` is what
    /// delivered the answer — the attempt's own or the replay's — on
    /// sub-pool `pool`, or on the caller's thread holding none; it is
    /// stamped here, before the observability and adaptive hooks, so they
    /// see the solve the caller will see.
    fn record<L: DoacrossLoop + ?Sized>(
        &self,
        pool: Option<usize>,
        outcome: SolveOutcome,
        allocations: u64,
        mut stats: RunStats,
        loop_: &L,
        y: &[f64],
    ) -> RunStats {
        let engine = self.engine;
        let fell_back = outcome == SolveOutcome::FellBack;
        stats.allocations = allocations;
        stats.attempts = if fell_back { 2 } else { 1 };
        stats.provenance = self.provenance;
        // One reading stamps every event this stage emits.
        let at = engine.obs.enabled().then(Instant::now);
        self.emit_solve_record(at, pool, outcome, &stats);
        if fell_back {
            // Nothing to harvest (`recover` dropped the faulted attempt's
            // partial spans), and the replay already reached the adaptive
            // layer as a sequential anchor sample — it says nothing about
            // how the plan's own variant performs.
            return stats;
        }
        if let Some(profiler) = &engine.profiler {
            self.harvest(profiler, pool, &stats, at);
        }
        if let Some(adaptive) = &engine.adaptive {
            adaptive.after_solve(engine, loop_, y, self.plan, &stats);
        }
        stats
    }

    /// `record`'s profile step: the solve's spans — the leased sub-pool's
    /// arena, or for a solve that held none the one work span its stats
    /// make — are harvested into the ring, and the summary is traced
    /// (stamped `at`, with the rest of the stage).
    fn harvest(
        &self,
        profiler: &Profiler,
        pool: Option<usize>,
        stats: &RunStats,
        at: Option<Instant>,
    ) {
        let engine = self.engine;
        // The priced cost is the plan's model price converted through the
        // host calibration when one exists — otherwise unpriced, never a
        // fabricated number.
        let priced_ns = self
            .plan
            .costs()
            .of(self.plan.variant())
            .filter(|price| price.is_finite())
            .and_then(|price| engine.calibration.as_ref().map(|c| price * c.unit_ns));
        let source = match pool {
            Some(pool) => SpanSource::Arena(pool),
            None => SpanSource::Caller {
                iterations: stats.iterations as u64,
            },
        };
        let summary = profiler.harvest(
            source,
            self.plan.fingerprint().into(),
            self.plan.variant().into(),
            clamp_ns(stats.total),
            priced_ns,
        );
        if let Some(at) = at {
            engine.obs.emit_at(
                at,
                TraceEvent::SolveProfiled {
                    fp: self.plan.fingerprint().into(),
                    variant: self.plan.variant().into(),
                    realized_critical_ns: summary.realized_critical_ns,
                    work_ns: summary.work_ns,
                    flag_wait_ns: summary.flag_wait_ns,
                    barrier_wait_ns: summary.barrier_wait_ns,
                    dispatch_wait_ns: summary.dispatch_wait_ns,
                    spans: summary.spans,
                },
            );
        }
    }

    /// The flight-recorder row of one solve attempt: `stats` projected
    /// for the observability layer. A fell-back solve was delivered by
    /// the sequential loop, whatever the plan says.
    fn solve_record(
        &self,
        pool: Option<usize>,
        outcome: SolveOutcome,
        stats: &RunStats,
    ) -> SolveRecord {
        SolveRecord {
            fp: self.plan.fingerprint().into(),
            variant: match outcome {
                SolveOutcome::FellBack => ObsVariant::Sequential,
                _ => self.plan.variant().into(),
            },
            provenance: stats.provenance,
            generation: self.generation,
            total_ns: clamp_ns(stats.total),
            inspector_ns: clamp_ns(stats.inspector),
            executor_ns: clamp_ns(stats.executor),
            post_ns: clamp_ns(stats.post),
            iterations: stats.iterations as u64,
            workers: stats.workers as u64,
            stalls: stats.stalls,
            wait_polls: stats.wait_polls,
            barrier_crossings: stats.barrier_crossings,
            pool: pool.map(|pool| pool as u64),
            outcome,
        }
    }

    /// Traces one solve attempt's flight record, stamped `at` when the
    /// caller already read the clock for its stage.
    fn emit_solve_record(
        &self,
        at: Option<Instant>,
        pool: Option<usize>,
        outcome: SolveOutcome,
        stats: &RunStats,
    ) {
        let obs = &self.engine.obs;
        if obs.enabled() {
            let event = TraceEvent::SolveFinished {
                record: self.solve_record(pool, outcome, stats),
            };
            match at {
                Some(at) => obs.emit_at(at, event),
                None => obs.emit(event),
            }
        }
    }
}
