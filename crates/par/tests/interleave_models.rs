//! Interleaving-checker models of `doacross-par`'s synchronization
//! protocols: the executor's per-element ready-flag handoff (paper Fig. 5,
//! statement S4 — the protocol `wait_until_guarded` polls and the
//! workers' release stores complete), the same handoff under chunked
//! claims (a worker takes several claim slots per grab of the shared
//! counter and walks them front to back), its poison-aware variant, and the
//! sense-reversing [`SpinBarrier`](doacross_par::SpinBarrier). (The
//! level-completion protocol the wavefront runs on instead of that barrier
//! is modelled in `completion_models.rs`.)
//!
//! Each model restates the production algorithm in `interleave`'s shim
//! types and is checked across thread schedules; the mutation tests then
//! corrupt the protocol the specific ways a refactor plausibly would
//! (weaken an ordering, drop a store, reorder the barrier's reset past its
//! gate) and prove the checker reports each corruption with the right
//! failure kind — so a green checker run carries information.

use interleave::{
    check, check_random, spin_until, AtomicU64, AtomicUsize, Config, Failure, FailureKind,
    Ordering, Report, Shared,
};

// ---------------------------------------------------------------------------
// Ready-flag handoff: writer completes y[e] then raises ready[e]; a reader
// with a NewValue operand polls ready[e] before loading y[e].
// ---------------------------------------------------------------------------

struct ReadyFlag {
    y: Shared<f64>,
    ready: AtomicU64,
}

fn ready_flag() -> ReadyFlag {
    ReadyFlag {
        y: Shared::named("y[e]", 0.0),
        ready: AtomicU64::new(0),
    }
}

fn writer(m: &ReadyFlag, ordering: Ordering, raise_flag: bool) {
    m.y.write(2.5);
    if raise_flag {
        m.ready.store(1, ordering);
    }
}

fn reader(m: &ReadyFlag) -> f64 {
    // The executor's S4 busy-wait: spinning and yielding only vary *how*
    // the false polls are spent, never the exit condition, so one
    // blocking poll models the wait.
    spin_until(|| m.ready.load(Ordering::Acquire) == 1);
    m.y.read()
}

#[test]
fn ready_flag_protocol_is_sound_across_all_interleavings() {
    let report: Report = check(
        &Config::default(),
        ready_flag,
        &[
            &|m: &ReadyFlag| writer(m, Ordering::Release, true),
            &|m: &ReadyFlag| assert_eq!(reader(m), 2.5),
        ],
    )
    .expect("release store / acquire poll covers the flow dependence");
    assert!(report.exhaustive, "the handoff model must be exhaustible");
}

#[test]
fn mutation_relaxed_ready_store_is_a_data_race() {
    let failure: Failure = check(
        &Config::default(),
        ready_flag,
        &[
            &|m: &ReadyFlag| writer(m, Ordering::Relaxed, true),
            &|m: &ReadyFlag| {
                let _ = reader(m);
            },
        ],
    )
    .expect_err("a relaxed flag store publishes nothing");
    assert!(
        matches!(&failure.kind, FailureKind::Race { what } if what.contains("y[e]")),
        "{failure}"
    );
    assert!(!failure.schedule.is_empty(), "counterexample must replay");
}

#[test]
fn mutation_dropped_ready_store_is_a_deadlock() {
    let failure = check(
        &Config::default(),
        ready_flag,
        &[
            &|m: &ReadyFlag| writer(m, Ordering::Release, false),
            &|m: &ReadyFlag| {
                let _ = reader(m);
            },
        ],
    )
    .expect_err("an unraised flag strands the waiter");
    assert!(
        matches!(&failure.kind, FailureKind::Deadlock { blocked } if blocked == &[1]),
        "{failure}"
    );
}

// ---------------------------------------------------------------------------
// Chunked claims: `claim_chunks` with `chunk` under the flag executor. A
// worker grabs `chunk` consecutive claim slots off the shared counter and
// executes them; slot k's iteration has a NewValue operand produced by slot
// k − 1 (a distance-1 chain in claim order: the tightest dependence a
// topological order admits, so every chunk boundary and every chunk
// interior carries one). Progress rests on one rule — a worker walks its
// chunk in increasing slot order — which is what the mutation breaks.
// ---------------------------------------------------------------------------

struct ChunkedClaims {
    claim: AtomicUsize,
    ready: Vec<AtomicU64>,
    /// The shadow array, when the configuration models the data too (every
    /// plain access is a decision point, so the three-worker spaces are
    /// only exhaustible on the flags alone).
    ynew: Option<Vec<Shared<u64>>>,
}

fn chunked_claims(slots: usize, with_data: bool) -> ChunkedClaims {
    const CELLS: [&str; 4] = ["ynew[0]", "ynew[1]", "ynew[2]", "ynew[3]"];
    ChunkedClaims {
        claim: AtomicUsize::new(0),
        ready: (0..slots).map(|_| AtomicU64::new(0)).collect(),
        ynew: with_data.then(|| {
            CELLS[..slots]
                .iter()
                .map(|cell| Shared::named(cell, 0))
                .collect()
        }),
    }
}

/// One worker of the region: `claim_chunks` around the
/// executor body. `back_to_front` walks each claimed chunk in decreasing
/// slot order.
fn chunk_worker(m: &ChunkedClaims, chunk: usize, back_to_front: bool) {
    let slots = m.ready.len();
    loop {
        // The claim itself publishes nothing: `Relaxed`, as in production.
        let start = m.claim.fetch_add(chunk, Ordering::Relaxed);
        if start >= slots {
            return;
        }
        let mut claimed: Vec<usize> = (start..(start + chunk).min(slots)).collect();
        if back_to_front {
            claimed.reverse();
        }
        for k in claimed {
            let mut value = 1;
            if k > 0 {
                // The inline `is_done` check and the guarded wait behind it
                // are one exit condition.
                spin_until(|| m.ready[k - 1].load(Ordering::Acquire) == 1);
                if let Some(ynew) = &m.ynew {
                    value += ynew[k - 1].read();
                }
            }
            if let Some(ynew) = &m.ynew {
                ynew[k].write(value);
            }
            m.ready[k].store(1, Ordering::Release);
        }
    }
}

/// Depth-first over every schedule of `workers` workers claiming `chunk`
/// slots of `slots`; deadlock- and race-freedom are the checker's verdicts.
fn explore_chunked(
    workers: usize,
    chunk: usize,
    slots: usize,
    with_data: bool,
    back_to_front: bool,
) -> Result<Report, Failure> {
    let worker = move |m: &ChunkedClaims| chunk_worker(m, chunk, back_to_front);
    let threads: Vec<&(dyn Fn(&ChunkedClaims) + Sync)> = (0..workers)
        .map(|_| &worker as &(dyn Fn(&ChunkedClaims) + Sync))
        .collect();
    check(
        &Config::default(),
        || chunked_claims(slots, with_data),
        &threads,
    )
}

#[test]
fn chunked_claims_walked_in_slot_order_never_deadlock_or_race() {
    // Chunks of 2 and of 3 on 2 workers, chunks of 2 on 3; the shadow array
    // is modelled where the space stays exhaustible with it (≈ 1 800
    // schedules; the three-worker space is ≈ 9 000 on the flags alone). The
    // slot count leaves a short last chunk in every configuration, so a
    // hand-off crosses a chunk boundary and one sits inside a chunk.
    for (workers, chunk, slots, with_data) in [(2, 2, 3, true), (2, 3, 4, false), (3, 2, 3, false)]
    {
        let report =
            explore_chunked(workers, chunk, slots, with_data, false).unwrap_or_else(|failure| {
                panic!("{workers} workers, chunks of {chunk}, {slots} slots: {failure}")
            });
        assert!(
            report.exhaustive,
            "{workers} workers, chunks of {chunk}: not exhausted in {} executions",
            report.executions
        );
    }
}

#[test]
fn mutation_chunk_walked_back_to_front_is_a_deadlock() {
    // The first claimed chunk holds slots 0 and 1; starting at its far end
    // waits for a slot the same worker has yet to run — and no other worker
    // ever will.
    for (workers, chunk, slots) in [(2, 2, 3), (3, 3, 4)] {
        let failure = explore_chunked(workers, chunk, slots, false, true)
            .expect_err("a chunk walked in decreasing order strands its own waiter");
        assert!(
            matches!(&failure.kind, FailureKind::Deadlock { blocked } if !blocked.is_empty()),
            "{failure}"
        );
        assert!(!failure.schedule.is_empty(), "counterexample must replay");
    }
}

// ---------------------------------------------------------------------------
// Sense-reversing spin barrier: the model mirrors `SpinBarrier::wait`
// (count AcqRel arrival, last arriver resets count *then* bumps the
// generation with a release store; spinners acquire the generation).
// ---------------------------------------------------------------------------

const PARTICIPANTS: usize = 2;

struct Barrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    slots: [Shared<u64>; PARTICIPANTS],
}

fn barrier() -> Barrier {
    Barrier {
        count: AtomicUsize::new(0),
        generation: AtomicUsize::new(0),
        slots: [Shared::named("slot[0]", 0), Shared::named("slot[1]", 0)],
    }
}

/// One `SpinBarrier::wait`. `gen_order` is the ordering of the leader's
/// generation bump; `reset_after_gate` reorders the count reset *after*
/// the generation bump (the mutation `SpinBarrier` documents it must
/// avoid).
fn barrier_wait(m: &Barrier, gen_order: Ordering, reset_after_gate: bool) -> bool {
    let gen = m.generation.load(Ordering::Acquire);
    let arrived = m.count.fetch_add(1, Ordering::AcqRel) + 1;
    if arrived == PARTICIPANTS {
        if reset_after_gate {
            m.generation.fetch_add(1, gen_order);
            m.count.store(0, Ordering::Relaxed);
        } else {
            m.count.store(0, Ordering::Relaxed);
            m.generation.fetch_add(1, gen_order);
        }
        return true;
    }
    spin_until(|| m.generation.load(Ordering::Acquire) != gen);
    false
}

/// A worker that publishes into its slot, waits, and reads the peer's
/// slot — the visibility contract wavefront levels rely on — for `phases`
/// consecutive generations. Like the production level loop (and
/// `SpinBarrier`'s own phase test), each phase takes the barrier twice:
/// once to publish the writes, once to retire the reads before the next
/// phase's writes land. (The checker found the read/next-write race when
/// this model had only one wait per phase.)
fn barrier_worker(
    m: &Barrier,
    tid: usize,
    phases: u64,
    gen_order: Ordering,
    reset_after_gate: bool,
) {
    for phase in 1..=phases {
        m.slots[tid].write(phase);
        barrier_wait(m, gen_order, reset_after_gate);
        let peer = m.slots[1 - tid].read();
        assert_eq!(
            peer, phase,
            "thread {tid}: peer write not visible after the barrier"
        );
        barrier_wait(m, gen_order, reset_after_gate);
    }
}

#[test]
fn spin_barrier_single_generation_is_sound_across_all_interleavings() {
    // One generation with no successor phase: write, wait, read. Small
    // enough to exhaust the schedule space completely.
    let report = check(
        &Config::default(),
        barrier,
        &[
            &|m: &Barrier| {
                m.slots[0].write(1);
                barrier_wait(m, Ordering::Release, false);
                assert_eq!(m.slots[1].read(), 1);
            },
            &|m: &Barrier| {
                m.slots[1].write(1);
                barrier_wait(m, Ordering::Release, false);
                assert_eq!(m.slots[0].read(), 1);
            },
        ],
    )
    .expect("one barrier generation orders the pre-barrier writes");
    assert!(report.exhaustive);
}

#[test]
fn spin_barrier_generation_reuse_is_sound() {
    // Two generations exercise the count reset and sense reversal. The
    // schedule space is too large to exhaust cheaply, so explore a capped
    // DFS frontier plus a seeded random sample.
    let cfg = Config {
        max_executions: 3_000,
        random_iterations: 1_500,
        ..Config::default()
    };
    check(
        &cfg,
        barrier,
        &[
            &|m: &Barrier| barrier_worker(m, 0, 2, Ordering::Release, false),
            &|m: &Barrier| barrier_worker(m, 1, 2, Ordering::Release, false),
        ],
    )
    .expect("reused generations stay sound (bounded DFS)");
    check_random(
        &cfg,
        barrier,
        &[
            &|m: &Barrier| barrier_worker(m, 0, 2, Ordering::Release, false),
            &|m: &Barrier| barrier_worker(m, 1, 2, Ordering::Release, false),
        ],
    )
    .expect("reused generations stay sound (random sample)");
}

#[test]
fn mutation_relaxed_generation_bump_is_a_data_race() {
    let failure = check(
        &Config::default(),
        barrier,
        &[
            &|m: &Barrier| barrier_worker(m, 0, 1, Ordering::Relaxed, false),
            &|m: &Barrier| barrier_worker(m, 1, 1, Ordering::Relaxed, false),
        ],
    )
    .expect_err("a relaxed gate publishes nothing across the barrier");
    assert!(
        matches!(&failure.kind, FailureKind::Race { what } if what.contains("slot")),
        "{failure}"
    );
}

#[test]
fn mutation_count_reset_after_gate_deadlocks_the_next_generation() {
    // With the reset reordered past the generation bump, an eager peer can
    // re-arrive before the reset, have its arrival clobbered to zero, and
    // leave both threads spinning on a generation nobody can bump.
    let failure = check(
        &Config {
            max_executions: 20_000,
            ..Config::default()
        },
        barrier,
        &[
            &|m: &Barrier| barrier_worker(m, 0, 2, Ordering::Release, true),
            &|m: &Barrier| barrier_worker(m, 1, 2, Ordering::Release, true),
        ],
    )
    .expect_err("the clobbered arrival must strand a generation");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock { .. }),
        "{failure}"
    );
}

// ---------------------------------------------------------------------------
// Poison-aware flag wait: a faulting writer deposits its partial progress,
// then publishes the region poison word (`RegionPoison`'s first-cause CAS in
// production; a single release store here) — and never raises the ready
// flag. A poison-aware waiter polls the flag AND the poison word, harvests
// the deposit, and aborts; a dead writer can no longer strand it.
// ---------------------------------------------------------------------------

struct PoisonedFlag {
    ready: AtomicU64,
    /// The region poison word: 0 = clean, nonzero = a packed `RegionFault`.
    poison: AtomicU64,
    /// The faulting worker's partial iteration count, deposited before the
    /// poison store (production: the counters-sink deposit before
    /// `abort_region`, which the partial `RunStats` are rebuilt from).
    partial: Shared<u64>,
}

fn poisoned_flag() -> PoisonedFlag {
    PoisonedFlag {
        ready: AtomicU64::new(0),
        poison: AtomicU64::new(0),
        partial: Shared::named("partial[w]", 0),
    }
}

/// A worker panicking mid-region: deposit what it got done, publish the
/// poison word, unwind — the ready flag is never raised.
fn faulting_writer(m: &PoisonedFlag, poison_order: Ordering) {
    m.partial.write(17);
    m.poison.store(1, poison_order);
}

/// The production wait loop with its poison poll: exits on the flag *or*
/// the poison word; on poison it harvests the deposit and aborts instead
/// of touching `y[e]`.
fn poison_aware_reader(m: &PoisonedFlag) -> Option<u64> {
    spin_until(|| m.ready.load(Ordering::Acquire) == 1 || m.poison.load(Ordering::Acquire) != 0);
    if m.poison.load(Ordering::Acquire) != 0 {
        return Some(m.partial.read());
    }
    None
}

#[test]
fn poisoned_flag_wait_always_terminates_and_harvests_the_deposit() {
    let report = check(
        &Config::default(),
        poisoned_flag,
        &[
            &|m: &PoisonedFlag| faulting_writer(m, Ordering::Release),
            &|m: &PoisonedFlag| {
                let harvested = poison_aware_reader(m)
                    .expect("the writer faulted, so the waiter must see poison");
                assert_eq!(harvested, 17, "deposit visible via the poison store");
            },
        ],
    )
    .expect("poison poll frees the waiter on every schedule");
    assert!(
        report.exhaustive,
        "the poisoned handoff must be exhaustible"
    );
}

#[test]
fn mutation_relaxed_poison_store_races_the_partial_deposit() {
    // Weakening the poison publication to Relaxed severs the deposit's
    // happens-before edge: the waiter can observe poison yet read the
    // partial counter concurrently with the faulting writer's store.
    let failure = check(
        &Config::default(),
        poisoned_flag,
        &[
            &|m: &PoisonedFlag| faulting_writer(m, Ordering::Relaxed),
            &|m: &PoisonedFlag| {
                let _ = poison_aware_reader(m);
            },
        ],
    )
    .expect_err("a relaxed poison store publishes no deposit");
    assert!(
        matches!(&failure.kind, FailureKind::Race { what } if what.contains("partial")),
        "{failure}"
    );
    assert!(!failure.schedule.is_empty(), "counterexample must replay");
}

#[test]
fn mutation_unchecked_wait_loop_deadlocks_on_a_faulted_writer() {
    // The pre-containment wait loop — flag only, no poison poll — is
    // exactly the hang this PR's protocol exists to prevent: the writer
    // died, the flag will never rise, the waiter spins forever.
    let failure = check(
        &Config::default(),
        poisoned_flag,
        &[
            &|m: &PoisonedFlag| faulting_writer(m, Ordering::Release),
            &|m: &PoisonedFlag| {
                spin_until(|| m.ready.load(Ordering::Acquire) == 1);
            },
        ],
    )
    .expect_err("an unchecked wait loop must strand the waiter");
    assert!(
        matches!(&failure.kind, FailureKind::Deadlock { blocked } if blocked == &[1]),
        "{failure}"
    );
}
