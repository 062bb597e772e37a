//! Level-scheduled (wavefront) execution: the doacross as a sequence of
//! doalls, each complete when its iterations are.
//!
//! The flat executor ([`crate::executor`]) pays a per-element price on
//! every true dependency: poll `ready(off)` until the writer publishes
//! (Figure 5, S4). This module converts that fine-grained dataflow
//! synchronization into coarse *level* synchronization: iterations are
//! grouped by wavefront level (`level(i) = 1 + max(level of true-dep
//! writers)`), each level is executed as a `parallel do` over mutually
//! independent iterations, and each level carries one *ready flag of its
//! own* — a completion counter ([`crate::completion`]) that reads done when
//! the level's iterations are all counted. **Zero ready-flag traffic, zero
//! writer-map lookups** inside a level, and zero barriers between them: a
//! worker enters level `l` as soon as level `l − 1`'s counter is full,
//! whoever filled it. Like the paper's executor it waits only on data,
//! never on a processor — a late, preempted or descheduled worker that
//! holds no iterations costs nothing, and a single running worker streams
//! through the levels alone.
//!
//! Two preprocessing products make that possible, both captured once at
//! plan time in a [`LevelSchedule`]:
//!
//! * the **level structure** (CSR-style: level offsets into a level-sorted
//!   iteration order), which replaces the `ready` flags — a true-dep
//!   operand's writer lives in a strictly earlier level, so by the time a
//!   reader runs, the value is already published and ordered by that
//!   level's counter;
//! * a per-reference **operand classification** (the three-way check of
//!   Figure 5, resolved ahead of time), which replaces the `iter` map — the
//!   executor learns "new value / old value / accumulator" from a
//!   sequentially-scanned byte instead of a randomly-indexed map entry.
//!
//! ## Memory-ordering argument
//!
//! Writers store `ynew(a(i))` with plain writes. A worker that executed
//! `k > 0` iterations of level `l` then adds `k` to `done[l]` — a `Release`
//! read-modify-write, so every add continues the release sequence of the
//! adds before it — and a worker enters level `l + 1` only after an
//! `Acquire` load of `done[l]` returned the level's width. That load
//! synchronizes with *every* contributor's add, so all of level `l`'s
//! `ynew` stores happen-before all of level `l + 1`'s loads. Every worker
//! passes every gate in order, so it has acquired each earlier level
//! directly; and even if it had not, the chain is transitive: whoever
//! filled `done[l + 1]` had itself acquired `done[l]` before adding.
//! Within a level there is no cross-iteration communication at all — that
//! is what a wavefront *is*. `y` is read-only while iterations run; the
//! copy-back into `y` happens in the same region, behind the *last*
//! level's counter, which (by the same chain) orders every `y` load of
//! every level before the first copy-back store. Each `ynew` element has
//! exactly one writer (injective `a`).
//!
//! ## When it wins
//!
//! The trade is the paper's dataflow-vs-level design space: the flat
//! doacross pays flag traffic per true dependency but synchronizes only
//! where dependencies actually bite; the wavefront pays one counter
//! hand-off per level but nothing per element. Level scheduling wins when
//! the poll/stall bill (many true dependencies, deep structures, polling
//! contention) exceeds `levels × hand-off latency`; it loses on
//! narrow-level structures where level boundaries outnumber useful work.
//! `doacross-plan`'s cost model prices exactly that crossover (its
//! `barrier` constant is the per-boundary price).

use crate::completion::{Completion, RegionGuard};
use crate::error::DoacrossError;
use crate::executor::DEADLINE_ITER_PERIOD;
use crate::pattern::DoacrossLoop;
use crate::post::{post_share, PhaseClock, Post};
use crate::runtime::{check_y_len, region_stats, Doacross, DoacrossConfig};
use crate::stats::{LocalCounters, PlanProvenance, RunStats, StatsSink};
use doacross_obs::profile::{ProfArena, SpanKind};
use doacross_par::{CachePadded, Schedule, SharedSlice, ThreadPool, WaitAbort};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Fault-injection site consulted once per wavefront region; armed
/// actions apply per iteration.
pub(crate) const FAILPOINT_ITER: &str = "core::wavefront::iter";

/// Where an executor resolves a right-hand-side operand from — Figure 5's
/// three-way check, decided at preprocessing time instead of per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OperandClass {
    /// True dependency on an earlier iteration (S3–S5): read the shadow
    /// array `ynew(off)`; the writer's level is strictly earlier.
    NewValue = 0,
    /// Antidependency or never-written element (S6–S7): read the old value
    /// `y(off)`.
    OldValue = 1,
    /// Intra-iteration reference (S8): read the register accumulator.
    Accumulator = 2,
}

impl OperandClass {
    /// Decodes a stored class byte; `None` for values no encoder produces.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(OperandClass::NewValue),
            1 => Some(OperandClass::OldValue),
            2 => Some(OperandClass::Accumulator),
            _ => None,
        }
    }
}

/// The wavefront preprocessing artifact: the full level structure of a
/// loop's true-dependence DAG plus the resolved operand classification of
/// every right-hand-side reference.
///
/// Everything in here is a pure function of the pattern's *structure* (the
/// same contract as a prebuilt writer map), so one schedule serves every
/// execution of every loop sharing that structure. Built by
/// `doacross_plan::CensusPass` from the level array and writer map its one
/// census scan leaves behind — the sort and the class stream are each
/// built once, and only for a plan that runs the wavefront.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSchedule {
    /// CSR level boundaries: level `l` (0-based) executes
    /// `order[offsets[l]..offsets[l + 1]]`. Strictly increasing (every
    /// level is non-empty), `offsets[0] == 0`, last entry `== iterations`.
    offsets: Vec<usize>,
    /// Iterations sorted by level, stable within a level — a permutation
    /// of `0..iterations`.
    order: Vec<usize>,
    /// Prefix sums of per-iteration reference counts:
    /// `classes[term_offsets[i]..term_offsets[i + 1]]` classifies
    /// iteration `i`'s references in term order.
    term_offsets: Vec<usize>,
    /// One [`OperandClass`] byte per (iteration, term) reference.
    classes: Vec<u8>,
}

impl LevelSchedule {
    /// Counting sort of a per-iteration level assignment (`levels[i] ∈
    /// 1..=nlevels`, as the census computes it) into the schedule's CSR
    /// form: `(offsets, order)` — O(n + levels), stable within a level.
    /// This is also the doconsider claim order, which is why the planner
    /// can price a reordering from it before any class stream exists.
    pub fn sort_levels(levels: &[usize], nlevels: usize) -> (Vec<usize>, Vec<usize>) {
        let mut offsets = vec![0usize; nlevels + 1];
        for &l in levels {
            debug_assert!(l >= 1 && l <= nlevels, "level {l} outside 1..={nlevels}");
            offsets[l] += 1;
        }
        for l in 1..=nlevels {
            offsets[l] += offsets[l - 1];
        }
        let mut cursor = offsets.clone();
        let mut order = vec![0usize; levels.len()];
        for (i, &l) in levels.iter().enumerate() {
            order[cursor[l - 1]] = i;
            cursor[l - 1] += 1;
        }
        (offsets, order)
    }

    /// Assembles a schedule from a per-iteration level assignment plus the
    /// reference classification of the same pattern — [`Self::sort_levels`]
    /// followed by [`Self::from_sorted`].
    ///
    /// # Panics
    /// Debug-asserts the inputs are mutually consistent (the census
    /// guarantees this by construction).
    pub fn from_levels(
        levels: &[usize],
        nlevels: usize,
        term_offsets: Vec<usize>,
        classes: Vec<u8>,
    ) -> Self {
        let (offsets, order) = Self::sort_levels(levels, nlevels);
        Self::from_sorted(offsets, order, term_offsets, classes)
    }

    /// Assembles a schedule from an already level-sorted `(offsets, order)`
    /// pair ([`Self::sort_levels`]) and the class stream — no validation
    /// beyond debug asserts; untrusted parts go through
    /// [`Self::from_parts`].
    pub fn from_sorted(
        offsets: Vec<usize>,
        order: Vec<usize>,
        term_offsets: Vec<usize>,
        classes: Vec<u8>,
    ) -> Self {
        debug_assert_eq!(offsets.last(), Some(&order.len()));
        debug_assert_eq!(term_offsets.len(), order.len() + 1);
        debug_assert_eq!(*term_offsets.last().unwrap_or(&0), classes.len());
        Self {
            offsets,
            order,
            term_offsets,
            classes,
        }
    }

    /// Rebuilds a schedule from its raw parts — the deserialization path
    /// for persisted plans. Returns `None` unless the parts are mutually
    /// consistent: offsets strictly increasing from 0 (every level
    /// non-empty) and ending at `order.len()`, `order` a permutation,
    /// `term_offsets` monotone from 0 covering exactly `classes.len()`
    /// references over `order.len()` iterations, and every class byte a
    /// valid [`OperandClass`] — a blob that no census pass could have
    /// produced is rejected rather than trusted.
    pub fn from_parts(
        offsets: Vec<usize>,
        order: Vec<usize>,
        term_offsets: Vec<usize>,
        classes: Vec<u8>,
    ) -> Option<Self> {
        let n = order.len();
        if offsets.first() != Some(&0) || offsets.last() != Some(&n) {
            return None;
        }
        if !offsets.windows(2).all(|w| w[0] < w[1]) && n != 0 {
            return None;
        }
        if n == 0 && offsets.len() != 1 {
            return None;
        }
        let mut seen = vec![false; n];
        for &i in &order {
            if i >= n || std::mem::replace(&mut seen[i], true) {
                return None;
            }
        }
        if term_offsets.len() != n + 1
            || term_offsets.first() != Some(&0)
            || term_offsets.last() != Some(&classes.len())
            || !term_offsets.windows(2).all(|w| w[0] <= w[1])
        {
            return None;
        }
        if !classes.iter().all(|&c| OperandClass::from_u8(c).is_some()) {
            return None;
        }
        Some(Self {
            offsets,
            order,
            term_offsets,
            classes,
        })
    }

    /// Number of wavefront levels — the dependence critical path.
    pub fn level_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Iterations covered by the schedule.
    pub fn iterations(&self) -> usize {
        self.order.len()
    }

    /// Total classified references.
    pub fn total_terms(&self) -> usize {
        self.classes.len()
    }

    /// The iterations of level `l` (0-based), mutually independent.
    pub fn level_iterations(&self, l: usize) -> &[usize] {
        &self.order[self.offsets[l]..self.offsets[l + 1]]
    }

    /// The widest level — an upper bound on exploitable parallelism within
    /// any single level.
    pub fn max_width(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// The CSR level boundaries.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The level-sorted iteration order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Per-iteration reference offsets into [`LevelSchedule::classes`].
    pub fn term_offsets(&self) -> &[usize] {
        &self.term_offsets
    }

    /// The per-reference operand classes, in (iteration, term) order.
    pub fn classes(&self) -> &[u8] {
        &self.classes
    }

    /// Reference counts per class, in ([`OperandClass::NewValue`],
    /// [`OperandClass::OldValue`], [`OperandClass::Accumulator`]) order —
    /// what persistence revalidates against the census.
    pub fn class_counts(&self) -> (u64, u64, u64) {
        let mut counts = [0u64; 3];
        for &c in &self.classes {
            counts[c as usize] += 1;
        }
        (counts[0], counts[1], counts[2])
    }

    /// Approximate heap footprint in bytes, for cache sizing decisions.
    pub fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.order.len() + self.term_offsets.len())
            * std::mem::size_of::<usize>()
            + self.classes.len()
    }
}

/// Self-scheduling chunk for one level of `width` iterations on `nworkers`
/// workers: large enough to cut shared-counter contention (the paper's
/// "chunk of iterations" self-scheduling generalization), small enough to
/// keep every worker busy — at least 8 grabs per worker per level, capped
/// so narrow levels still spread.
pub fn level_chunk(width: usize, nworkers: usize) -> usize {
    (width / (8 * nworkers.max(1))).clamp(1, 64)
}

/// One level's shared cells — the self-scheduling claim counter and the
/// completion count — on one cache line (the same workers touch both at
/// the same time), padded away from the next level's.
#[derive(Debug, Default)]
pub(crate) struct LevelCell {
    claim: AtomicUsize,
    done: Completion,
}

/// What a worker owes the region before each iteration: one poll of the
/// fault latch, and a deadline clock read every [`DEADLINE_ITER_PERIOD`]
/// iterations executed.
#[inline]
fn poll_faults(
    guard: &RegionGuard<'_>,
    executed: u64,
    next_tick: &mut u64,
) -> Result<(), WaitAbort> {
    if let Some(fault) = guard.poison.fault() {
        return Err(WaitAbort::Poisoned(fault));
    }
    if let Some(deadline) = guard.deadline {
        if executed >= *next_tick {
            *next_tick = executed + DEADLINE_ITER_PERIOD;
            if Instant::now() >= deadline {
                return Err(WaitAbort::DeadlineExpired);
            }
        }
    }
    Ok(())
}

/// Runs the level-scheduled executor: one parallel region for the whole
/// solve — every level a self-scheduled doall over
/// [`LevelSchedule::level_iterations`], entered once the previous level's
/// completion count is full, then each worker's fixed share of the
/// copy-back once the last level's is. No `ready` flags, no
/// writer map — operands are resolved from the schedule's precomputed
/// [`OperandClass`]es (see module docs). Returns the region's wall time
/// split into `(executor, post)`.
///
/// * `chunk`: `Some(c)` claims `c` iterations per counter grab on every
///   level; `None` picks [`level_chunk`] per level (dynamic base schedules
///   only — static schedules ignore chunking entirely).
/// * `cells` must hold at least one cell per level, all zero on entry.
/// * With `prof` set, each worker records per level one
///   [`SpanKind::Work`] span (`aux` = iterations executed in that level)
///   and, between adjacent levels, one [`SpanKind::BarrierWait`] span for
///   its wait on the earlier level's counter — so each worker's span count
///   equals the run's `barrier_crossings` and the per-level totals feed the
///   profiler's level histograms. `None` costs one branch per would-be
///   span.
///
/// The failpoint, the fault poll and the deadline tick are paid once per
/// iteration, whatever the claiming policy (a static share is one claim
/// for a whole level, so nothing coarser polls inside a wide level).
/// Bounds are enforced with release-mode asserts, mirroring the flat
/// executor: the plan already proved the structure in-bounds.
#[allow(clippy::too_many_arguments)]
fn run_levels<L>(
    pool: &ThreadPool,
    config: &DoacrossConfig,
    chunk: Option<usize>,
    loop_: &L,
    schedule: &LevelSchedule,
    y: SharedSlice<'_, f64>,
    ynew: SharedSlice<'_, f64>,
    cells: &[CachePadded<LevelCell>],
    sink: &StatsSink,
    prof: Option<&ProfArena>,
) -> (Duration, Duration)
where
    L: DoacrossLoop + ?Sized,
{
    let nworkers = pool.threads();
    let nlevels = schedule.level_count();
    if nlevels == 0 {
        return (Duration::ZERO, Duration::ZERO);
    }
    assert!(cells.len() >= nlevels, "one cell per level");
    let data_len = loop_.data_len();
    let term_offsets = schedule.term_offsets();
    let classes = schedule.classes();
    let width_of = |l: usize| schedule.offsets()[l + 1] - schedule.offsets()[l];
    let last = nlevels - 1;
    // Fault containment (same shape as the flat executor): a worker that
    // panics mid-level never counts its iterations, so both the claim loop
    // and the level gates poll the region's poison word and the optional
    // deadline. The last level's counter gates the copy-back: a waiter may
    // only give up on the deadline while that count can still be kept from
    // filling.
    let guard = RegionGuard {
        wait: config.wait,
        poison: pool.poison(),
        deadline: pool.deadline(),
        commit: (&cells[last].done, width_of(last)),
    };
    let failpoint = failpoint::lookup(FAILPOINT_ITER);
    let clock = PhaseClock::start();

    pool.run(|worker| {
        let mut local = LocalCounters::default();
        let mut executed: u64 = 0;
        let mut next_tick = DEADLINE_ITER_PERIOD;
        for (l, cell) in cells[..nlevels].iter().enumerate() {
            if l > 0 {
                let wait_started = prof.map(|arena| arena.now_ns());
                if let Err(abort) = cells[l - 1].done.wait(width_of(l - 1), &guard) {
                    guard.bail(sink, worker, &mut local, abort);
                }
                if let (Some(arena), Some(started)) = (prof, wait_started) {
                    let end = arena.now_ns();
                    arena.record(
                        worker,
                        SpanKind::BarrierWait,
                        (l - 1) as u32,
                        started,
                        end.saturating_sub(started),
                        0,
                    );
                }
            }
            let level = schedule.level_iterations(l);
            let width = level.len();
            let level_sched = match (config.schedule, chunk) {
                (Schedule::Dynamic { .. }, Some(c)) => Schedule::Dynamic { chunk: c.max(1) },
                (Schedule::Dynamic { .. }, None) => Schedule::Dynamic {
                    chunk: level_chunk(width, nworkers),
                },
                (Schedule::Guided { .. }, Some(c)) => Schedule::Guided {
                    min_chunk: c.max(1),
                },
                (s, _) => s,
            };
            let level_started = prof.map(|arena| arena.now_ns());
            let executed_before = executed;
            level_sched.drive(worker, nworkers, width, &cell.claim, |k| {
                let i = level[k];
                executed += 1;
                failpoint::hit(failpoint, i as u64);
                if let Err(abort) = poll_faults(&guard, executed, &mut next_tick) {
                    guard.bail(sink, worker, &mut local, abort);
                }
                let lhs = loop_.lhs(i);
                assert!(lhs < data_len, "wavefront: lhs {lhs} out of bounds");

                // S2: seed from the old value of the output element.
                // SAFETY: y is read-only until the last level's gate; bounds
                // asserted.
                let mut acc = loop_.init(i, unsafe { y.read(lhs) });

                let base = term_offsets[i];
                let terms = loop_.terms(i);
                assert!(
                    base + terms <= classes.len() && term_offsets[i + 1] - base == terms,
                    "wavefront: schedule references disagree with the loop"
                );
                for j in 0..terms {
                    let off = loop_.term_element(i, j);
                    assert!(off < data_len, "wavefront: term {off} out of bounds");
                    let operand = match classes[base + j] {
                        0 => {
                            local.true_deps += 1;
                            // SAFETY: bounds asserted above. True
                            // dependency: the writer's level is strictly
                            // earlier; its plain `ynew` store happens-before
                            // this load via that level's completion count
                            // (module docs).
                            unsafe { ynew.read(off) }
                        }
                        1 => {
                            local.anti_or_unwritten += 1;
                            // SAFETY: antidependency / never written — the
                            // old value; `y` is read-only until the last
                            // level's gate.
                            unsafe { y.read(off) }
                        }
                        // Intra-iteration: the register accumulator.
                        _ => {
                            local.intra += 1;
                            debug_assert_eq!(off, lhs, "class says intra but off != lhs");
                            acc
                        }
                    };
                    acc = loop_.combine(i, j, acc, operand);
                }

                // SAFETY: `lhs` has this iteration as its unique writer
                // (injective `a`), and no other level touches it this run.
                unsafe { ynew.write(lhs, loop_.finish(i, acc)) };
            });
            let in_level = (executed - executed_before) as usize;
            if let (Some(arena), Some(started)) = (prof, level_started) {
                let end = arena.now_ns();
                arena.record(
                    worker,
                    SpanKind::Work,
                    l as u32,
                    started,
                    end.saturating_sub(started),
                    in_level as u64,
                );
            }
            // One add per worker per level, and none from a worker that
            // claimed nothing: a level is complete by work, not attendance.
            if in_level > 0 && cell.done.add(in_level, width) && l == last {
                clock.gate_opened();
            }
        }
        let (last_done, last_width) = guard.commit;
        if let Err(abort) = last_done.wait(last_width, &guard) {
            guard.bail(sink, worker, &mut local, abort);
        }
        // SAFETY: the last level's count is full, which orders every
        // level's `y` loads and `ynew` stores before this point (module
        // docs).
        unsafe {
            post_share(
                loop_,
                0..schedule.iterations(),
                0,
                Post { map: None },
                y,
                ynew,
                worker,
                nworkers,
            )
        };
        sink.deposit(worker, local);
    });
    clock.split()
}

impl Doacross {
    /// Runs `loop_` under a prebuilt [`LevelSchedule`] as a sequence of
    /// level doalls in one pool region, updating `y` exactly as the
    /// sequential source loop would. The returned stats report zero
    /// `stalls` and zero `wait_polls` by construction — there are no flags
    /// to poll; of the runtime's scratch only the shadow array and the
    /// per-level cells are touched. Both grow to the largest data space /
    /// deepest level structure seen and are then reused (the paper's §2.1
    /// scratch-reuse economics), so a workload alternating structures — an
    /// L and a U factor, many tenants — does not churn allocations.
    ///
    /// `chunk` is the per-grab chunk size of the within-level
    /// self-scheduling: `None` adapts it to each level's width
    /// ([`level_chunk`]); `Some(1)` reproduces the paper's one-iteration
    /// Multimax policy (the chunking ablation's baseline). With `prof` set,
    /// each worker records one [`SpanKind::Work`] span per level and one
    /// [`SpanKind::BarrierWait`] span per level boundary.
    ///
    /// ```
    /// use doacross_core::{Doacross, IndirectLoop, LevelSchedule};
    /// use doacross_core::seq::run_sequential;
    /// use doacross_par::ThreadPool;
    ///
    /// // y[i+1] += y[i]: a chain — levels are the iterations themselves.
    /// let n = 64;
    /// let a: Vec<usize> = (1..=n).collect();
    /// let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    /// let loop_ = IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
    ///
    /// // Level assignment for the chain: level(i) = i + 1; every reference is
    /// // a true dependency except iteration 0's read of the unwritten y[0].
    /// let levels: Vec<usize> = (1..=n).collect();
    /// let term_offsets: Vec<usize> = (0..=n).collect();
    /// let mut classes = vec![0u8; n];
    /// classes[0] = 1;
    /// let schedule = LevelSchedule::from_levels(&levels, n, term_offsets, classes);
    ///
    /// let pool = ThreadPool::new(2);
    /// let mut rt = Doacross::new(n + 1);
    /// let mut y = vec![1.0; n + 1];
    /// let mut oracle = y.clone();
    /// let stats = rt.run_wavefront(&pool, &loop_, &mut y, &schedule, None, None).unwrap();
    /// run_sequential(&loop_, &mut oracle);
    /// assert_eq!(y, oracle);
    /// assert_eq!(stats.wait_polls, 0, "no busy waiting, ever");
    /// ```
    pub fn run_wavefront<L: DoacrossLoop + ?Sized>(
        &mut self,
        pool: &ThreadPool,
        loop_: &L,
        y: &mut [f64],
        schedule: &LevelSchedule,
        chunk: Option<usize>,
        prof: Option<&ProfArena>,
    ) -> Result<RunStats, DoacrossError> {
        let data_len = check_y_len(loop_, y)?;
        let n = loop_.iterations();
        if schedule.iterations() != n {
            return Err(DoacrossError::PlanMismatch {
                plan_iterations: schedule.iterations(),
                plan_data_len: data_len,
                loop_iterations: n,
                loop_data_len: data_len,
            });
        }
        // The schedule's per-iteration reference counts must match the
        // loop's, checked up front: inside the region a mismatch would
        // trip an assert on one worker and tear the whole solve down as a
        // worker panic. One O(n) sweep here turns that into a typed error
        // (the executor's asserts stay as the final defense). Deliberately NOT gated on
        // `config.validate_terms`: that flag controls subscript *bounds*
        // validation, while this sweep guards region *liveness* — and its
        // cost (two loads and a compare per iteration, same order as the
        // copy-back pass) is an honest part of the wavefront's per-solve
        // bill.
        let term_offsets = schedule.term_offsets();
        if let Some(iteration) =
            (0..n).find(|&i| term_offsets[i + 1] - term_offsets[i] != loop_.terms(i))
        {
            return Err(DoacrossError::ScheduleTermsMismatch {
                iteration,
                schedule_terms: term_offsets[iteration + 1] - term_offsets[iteration],
                loop_terms: loop_.terms(iteration),
            });
        }
        let nlevels = schedule.level_count();
        self.ensure_data_len(data_len);
        if nlevels > self.cells.len() {
            self.cells.resize_with(nlevels, CachePadded::default);
        }

        let mut stats = region_stats(pool, n, PlanProvenance::PlanCold);
        let t_start = Instant::now();

        // Per-level claim and completion counters start at zero every run
        // (they are dirty after the previous one); O(levels), off the
        // parallel path.
        for cell in &self.cells[..nlevels] {
            cell.claim.store(0, Ordering::Relaxed);
            cell.done.reset();
        }

        // Executor and copy-back: all levels inside one pool dispatch, a
        // completion count between each pair, the copy-back behind the
        // last (no flags to retire — a wavefront run raises none).
        self.sink.ensure_workers(pool.threads());
        (stats.executor, stats.post) = run_levels(
            pool,
            &self.config,
            chunk,
            loop_,
            schedule,
            SharedSlice::new(y),
            SharedSlice::new(&mut self.ynew[..data_len]),
            &self.cells[..nlevels],
            &self.sink,
            prof,
        );
        self.sink.drain_into(&mut stats);
        self.sink.reset();
        // The wavefront's synchronization bill: one boundary between each
        // pair of adjacent levels. Without this, `wait_polls == 0` by
        // construction makes the variant's synchronization cost invisible.
        stats.barrier_crossings = nlevels.saturating_sub(1) as u64;
        stats.total = t_start.elapsed();
        debug_assert_eq!(stats.wait_polls, 0, "wavefront runs never poll");
        debug_assert_eq!(stats.stalls, 0, "wavefront runs never stall");
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{AccessPattern, IndirectLoop};
    use crate::seq::run_sequential;
    use crate::MAXINT;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    /// Reference schedule builder for tests: classifies references and
    /// assigns levels exactly as the census does (last-writer map, levels
    /// from true deps).
    fn schedule_of(loop_: &IndirectLoop) -> LevelSchedule {
        let n = loop_.iterations();
        let mut writer = vec![MAXINT; loop_.data_len()];
        for i in 0..n {
            writer[loop_.lhs(i)] = i as i64;
        }
        let mut levels = vec![0usize; n];
        let mut nlevels = 0usize;
        let mut term_offsets = Vec::with_capacity(n + 1);
        term_offsets.push(0usize);
        let mut classes = Vec::new();
        for i in 0..n {
            let mut level = 1usize;
            for j in 0..loop_.terms(i) {
                let w = writer[loop_.term_element(i, j)];
                let class = if w == MAXINT {
                    OperandClass::OldValue
                } else {
                    match (w as usize).cmp(&i) {
                        std::cmp::Ordering::Less => {
                            level = level.max(levels[w as usize] + 1);
                            OperandClass::NewValue
                        }
                        std::cmp::Ordering::Equal => OperandClass::Accumulator,
                        std::cmp::Ordering::Greater => OperandClass::OldValue,
                    }
                };
                classes.push(class as u8);
            }
            term_offsets.push(classes.len());
            levels[i] = level;
            nlevels = nlevels.max(level);
        }
        LevelSchedule::from_levels(&levels, nlevels, term_offsets, classes)
    }

    fn oracle(loop_: &IndirectLoop, y0: &[f64]) -> Vec<f64> {
        let mut y = y0.to_vec();
        run_sequential(loop_, &mut y);
        y
    }

    fn chain(n: usize) -> IndirectLoop {
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap()
    }

    #[test]
    fn chain_matches_sequential_with_zero_polls() {
        let l = chain(300);
        let schedule = schedule_of(&l);
        assert_eq!(schedule.level_count(), 300, "a chain is all levels");
        let y0 = vec![1.0; 301];
        let expect = oracle(&l, &y0);
        for workers in [1, 2, 4] {
            let p = ThreadPool::new(workers);
            let mut rt = Doacross::new(301);
            let mut y = y0.clone();
            let stats = rt
                .run_wavefront(&p, &l, &mut y, &schedule, None, None)
                .unwrap();
            assert_eq!(y, expect, "workers={workers}");
            assert_eq!(stats.wait_polls, 0);
            assert_eq!(stats.stalls, 0);
            assert_eq!(
                stats.barrier_crossings, 299,
                "levels - 1 boundaries separate a 300-level chain"
            );
            assert_eq!(stats.deps.true_deps, 299);
            assert_eq!(stats.deps.anti_or_unwritten, 1);
        }
    }

    #[test]
    fn mixed_classes_match_sequential() {
        // True deps, antideps, intra references, and unwritten reads mixed.
        let n = 257;
        let dl = 2 * n;
        let a: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % dl).collect();
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| vec![(i * 13 + 1) % dl, (i * 5 + 11) % dl, (i * 7 + 3) % dl])
            .collect();
        let coeff: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![0.25 + (i % 3) as f64, 0.5, 0.125])
            .collect();
        let l = IndirectLoop::new(dl, a, rhs, coeff).unwrap();
        let schedule = schedule_of(&l);
        let y0: Vec<f64> = (0..dl).map(|e| (e % 17) as f64 * 0.125).collect();
        let expect = oracle(&l, &y0);
        let mut rt = Doacross::new(dl);
        let mut y = y0.clone();
        let stats = rt
            .run_wavefront(&pool(), &l, &mut y, &schedule, None, None)
            .unwrap();
        assert_eq!(y, expect);
        assert_eq!(
            stats.deps.total(),
            3 * n as u64,
            "every reference classified"
        );
        assert_eq!(stats.wait_polls, 0);
        let (new, old, acc) = schedule.class_counts();
        assert_eq!(stats.deps.true_deps, new);
        assert_eq!(stats.deps.anti_or_unwritten, old);
        assert_eq!(stats.deps.intra, acc);
    }

    #[test]
    fn all_chunkings_and_schedules_agree() {
        let chains = 8usize;
        let len = 24usize;
        let n = chains * len;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i < chains { vec![] } else { vec![i - chains] })
            .collect();
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
        let l = IndirectLoop::new(n, a, rhs, coeff).unwrap();
        let schedule = schedule_of(&l);
        assert_eq!(schedule.level_count(), len);
        assert_eq!(schedule.max_width(), chains);
        let y0 = vec![1.0; n];
        let expect = oracle(&l, &y0);
        let p = pool();
        for config_schedule in [
            Schedule::multimax(),
            Schedule::StaticBlock,
            Schedule::StaticCyclic,
            Schedule::Guided { min_chunk: 2 },
        ] {
            for chunk in [None, Some(1), Some(3), Some(1000)] {
                let mut rt = Doacross::with_config(
                    n,
                    DoacrossConfig {
                        schedule: config_schedule,
                        ..DoacrossConfig::default()
                    },
                );
                let mut y = y0.clone();
                rt.run_wavefront(&p, &l, &mut y, &schedule, chunk, None)
                    .unwrap();
                assert_eq!(y, expect, "{config_schedule:?} chunk {chunk:?}");
            }
        }
    }

    #[test]
    fn scratch_reuse_across_alternating_structures() {
        let small = chain(10);
        let big = chain(80);
        let sched_small = schedule_of(&small);
        let sched_big = schedule_of(&big);
        let p = pool();
        let mut rt = Doacross::new(0);
        for _ in 0..3 {
            let mut y = vec![1.0; 11];
            rt.run_wavefront(&p, &small, &mut y, &sched_small, None, None)
                .unwrap();
            assert_eq!(y, oracle(&small, &[1.0; 11]));
            let mut y = vec![1.0; 81];
            rt.run_wavefront(&p, &big, &mut y, &sched_big, None, None)
                .unwrap();
            assert_eq!(y, oracle(&big, &[1.0; 81]));
        }
        assert_eq!(rt.data_len(), 81, "grown once, reused thereafter");
    }

    #[test]
    fn one_runtime_serves_every_entry_point_in_turn() {
        // flat -> linear -> blocked -> wavefront -> flat on chains of
        // different sizes, all through one scratch: each run bit-identical
        // to the sequential loop, the scratch clean in between.
        let p = pool();
        let mut rt = Doacross::new(0);
        let check = |n: usize, how: &str, rt: &mut Doacross| {
            let l = chain(n);
            let mut y = vec![1.0; n + 1];
            match how {
                "flat" => rt.run(&p, &l, &mut y),
                "linear" => {
                    let identity: Vec<usize> = (0..n).collect();
                    let sub = crate::LinearSubscript::new(1, 1);
                    rt.run_linear(&p, &l, &mut y, sub, Some(&identity))
                }
                "blocked" => rt.run_blocked(&p, &l, &mut y, 7),
                _ => rt.run_wavefront(&p, &l, &mut y, &schedule_of(&l), None, None),
            }
            .unwrap();
            assert_eq!(y, oracle(&l, &vec![1.0; n + 1]), "{how} n={n}");
            assert!(rt.scratch_is_clean(), "after {how} n={n}");
        };
        for (n, how) in [
            (40, "flat"),
            (90, "linear"),
            (60, "blocked"),
            (120, "wavefront"),
            (10, "flat"),
        ] {
            check(n, how, &mut rt);
        }
        assert_eq!(rt.data_len(), 121, "grown to the largest, never shrunk");
    }

    #[test]
    fn mismatched_schedule_and_buffer_are_rejected() {
        let l = chain(8);
        let schedule = schedule_of(&chain(9));
        let mut rt = Doacross::new(10);
        let mut y = vec![1.0; 9];
        assert!(matches!(
            rt.run_wavefront(&pool(), &l, &mut y, &schedule, None, None),
            Err(DoacrossError::PlanMismatch { .. })
        ));
        let good = schedule_of(&l);
        let mut short = vec![1.0; 3];
        assert!(matches!(
            rt.run_wavefront(&pool(), &l, &mut short, &good, None, None),
            Err(DoacrossError::DataLenMismatch { .. })
        ));

        // Same iteration count, different per-iteration reference counts:
        // must fail typed up front — inside the region it would trip an
        // assert and surface as a worker panic.
        let a: Vec<usize> = (1..=8).collect();
        let termless = IndirectLoop::new(9, a, vec![vec![]; 8], vec![vec![]; 8]).unwrap();
        let mut y = vec![1.0; 9];
        assert!(matches!(
            rt.run_wavefront(&pool(), &termless, &mut y, &good, None, None),
            Err(DoacrossError::ScheduleTermsMismatch {
                iteration: 0,
                schedule_terms: 1,
                loop_terms: 0,
            })
        ));
    }

    #[test]
    fn empty_loop_is_a_noop() {
        let l = IndirectLoop::new(0, vec![], vec![], vec![]).unwrap();
        let schedule = LevelSchedule::from_levels(&[], 0, vec![0], vec![]);
        assert_eq!(schedule.level_count(), 0);
        let mut rt = Doacross::new(0);
        let mut y: Vec<f64> = vec![];
        let stats = rt
            .run_wavefront(&pool(), &l, &mut y, &schedule, None, None)
            .unwrap();
        assert_eq!(stats.deps.total(), 0);
    }

    #[test]
    fn from_parts_validates_structure() {
        let good = schedule_of(&chain(6));
        let rebuilt = LevelSchedule::from_parts(
            good.offsets().to_vec(),
            good.order().to_vec(),
            good.term_offsets().to_vec(),
            good.classes().to_vec(),
        )
        .expect("own parts round-trip");
        assert_eq!(rebuilt, good);

        type Parts = (Vec<usize>, Vec<usize>, Vec<usize>, Vec<u8>);
        let parts = |mutate: &dyn Fn(&mut Parts)| {
            let mut parts: Parts = (
                good.offsets().to_vec(),
                good.order().to_vec(),
                good.term_offsets().to_vec(),
                good.classes().to_vec(),
            );
            mutate(&mut parts);
            let (o, ord, t, c) = parts;
            LevelSchedule::from_parts(o, ord, t, c)
        };
        assert!(parts(&|p| p.0[0] = 1).is_none(), "offsets must start at 0");
        assert!(
            parts(&|p| {
                p.0.pop();
            })
            .is_none(),
            "offsets must end at n"
        );
        assert!(
            parts(&|p| p.1[0] = p.1[1]).is_none(),
            "order must be a permutation"
        );
        assert!(parts(&|p| p.1[0] = 99).is_none(), "order entries in range");
        assert!(
            parts(&|p| p.2[1] = 3).is_none(),
            "term offsets monotone to classes len"
        );
        assert!(
            parts(&|p| {
                p.2.pop();
            })
            .is_none(),
            "term offsets cover all iterations"
        );
        assert!(parts(&|p| p.3[0] = 7).is_none(), "classes must decode");
        // An empty level (repeated offset) is rejected: the census never
        // produces one.
        assert!(parts(&|p| p.0.insert(1, p.0[1])).is_none());
    }

    #[test]
    fn level_chunk_adapts_to_width() {
        assert_eq!(level_chunk(0, 4), 1);
        assert_eq!(level_chunk(31, 4), 1);
        assert_eq!(level_chunk(64, 4), 2);
        assert_eq!(level_chunk(10_000, 4), 64, "capped");
        assert_eq!(level_chunk(100, 0), 12, "zero workers clamped to one");
    }
}
