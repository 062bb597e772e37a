//! Interleaving-checker model of the joinable region
//! ([`ThreadPool::run_joinable`](doacross_par::ThreadPool::run_joinable)):
//! the dispatching thread is worker 0 and runs its own share, a helper
//! *joins* with one compare-and-swap on the region word that succeeds only
//! while the word is open, and the dispatcher closes the word with one
//! `fetch_and` when its share returns, then waits for exactly the helpers
//! the closed word counts (each leaves with a `Release` add, the
//! dispatcher polls with `Acquire`). Only then may the job — a closure on
//! the dispatcher's stack frame — die.
//!
//! The job is the region a dynamic schedule runs: two iterations claimed
//! off a shared counter (`ynew[k] = y[k] + 1`), one completion count that
//! gates the copy-back, and the copy-back itself claimed off a second
//! counter — so a participant that finds nothing left does nothing, and
//! whoever is present copies everything once. The job's liveness is a
//! race-checked cell the dispatcher overwrites as its frame dies and a
//! helper reads as it calls the closure, so calling a dead job is a data
//! race.
//!
//! Every execution ends with the dispatcher's verdict: a clean region has
//! every iteration copied back, a faulted one (a helper's panic, or a
//! deadline) has `y` untouched. On top of the sound protocol — including a
//! helper that joins late and dies, and a deadline-struck participant that
//! must abandon the copy-back gate before it may abort — each mutation
//! corrupts one step and the checker must report it with the right kind.

use interleave::{
    check, check_random, spin_until, AtomicU64, AtomicUsize, Config, FailureKind, Ordering, Shared,
};

/// Iterations of the model region.
const N: usize = 2;
const INIT: [f64; N] = [1.0, 2.0];

/// Region word: `OPEN | joined` (the epoch is elided: one region).
const OPEN: u64 = 1 << 16;
const JOINED: u64 = OPEN - 1;

/// Poison word: 0 clean, 1 deadline, `worker + 2` a worker's panic.
const DEADLINE: u64 = 1;

/// Set on the completion count by a deadline-struck waiter that gave up on
/// it: the count can then never read as full.
const ABANDONED: usize = 1 << 8;

struct Region {
    word: AtomicU64,
    left: AtomicU64,
    /// The job closure: `true` while the dispatcher's frame is alive.
    job: Shared<bool>,
    claim: AtomicUsize,
    done: AtomicUsize,
    post: AtomicUsize,
    poison: AtomicU64,
    y: [Shared<f64>; N],
    ynew: [Shared<f64>; N],
}

/// The region as the dispatcher publishes it: registration open, nobody
/// joined yet.
fn region() -> Region {
    Region {
        word: AtomicU64::new(OPEN),
        left: AtomicU64::new(0),
        job: Shared::named("job", true),
        claim: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        post: AtomicUsize::new(0),
        poison: AtomicU64::new(0),
        y: [
            Shared::named("y[0]", INIT[0]),
            Shared::named("y[1]", INIT[1]),
        ],
        ynew: [Shared::named("ynew[0]", 0.0), Shared::named("ynew[1]", 0.0)],
    }
}

/// The ways a refactor could plausibly break the join protocol.
#[derive(Clone, Copy, PartialEq)]
enum Mutation {
    None,
    /// A helper joins without checking that registration is still open.
    RegisterAfterClose,
    /// The dispatcher closes after its first claim, leaving the rest of its
    /// share to helpers that may never join.
    CloseBeforeExhausted,
    /// The dispatcher returns without waiting for the helpers that joined.
    SkipWait,
    /// A deadline-struck waiter aborts without abandoning the copy-back
    /// gate first.
    AbortWithoutAbandon,
}

/// What can go wrong for one participant.
#[derive(Clone, Copy, Default)]
struct Fault {
    /// Panics instead of executing this iteration, if it claims it.
    dies_at: Option<usize>,
    /// Notices the region deadline the first time it finds the gate shut.
    deadline: bool,
}

/// First cause wins, as `RegionPoison` does.
fn poison(m: &Region, cause: u64) {
    let _ = m
        .poison
        .compare_exchange(0, cause, Ordering::Release, Ordering::Relaxed);
}

/// One participant's share of the job; `false` = it left through poison
/// (the cooperative unwind the pool catches).
fn job(m: &Region, worker: usize, fault: Fault, mutation: Mutation) -> bool {
    let mut executed = 0;
    loop {
        let k = m.claim.fetch_add(1, Ordering::Relaxed);
        if k >= N {
            break;
        }
        if fault.dies_at == Some(k) {
            poison(m, worker as u64 + 2);
            return false;
        }
        m.ynew[k].write(m.y[k].read() + 1.0);
        executed += 1;
    }
    if executed > 0 {
        m.done.fetch_add(executed, Ordering::Release);
    }
    if fault.deadline && m.done.load(Ordering::Acquire) != N {
        // `Completion::wait`: a waiter that notices the deadline holds no
        // iterations, so it may abort only once the gate can no longer
        // open — abandoning fails exactly when the count is already full.
        if mutation == Mutation::AbortWithoutAbandon {
            poison(m, DEADLINE);
            return false;
        }
        loop {
            let done = m.done.load(Ordering::Acquire);
            if done == N {
                break;
            }
            if m.done
                .compare_exchange(done, done | ABANDONED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                poison(m, DEADLINE);
                return false;
            }
        }
    }
    spin_until(|| m.done.load(Ordering::Acquire) == N || m.poison.load(Ordering::Acquire) != 0);
    if m.done.load(Ordering::Acquire) != N {
        return false;
    }
    // `post_share`: claimed chunks (one element here) until none is left.
    loop {
        let e = m.post.fetch_add(1, Ordering::Relaxed);
        if e >= N {
            return true;
        }
        m.y[e].write(m.ynew[e].read());
    }
}

/// `register`: one CAS that succeeds only while the word is open.
fn register(m: &Region, mutation: Mutation) -> bool {
    if mutation == Mutation::RegisterAfterClose {
        m.word.fetch_add(1, Ordering::Acquire);
        return true;
    }
    let mut word = m.word.load(Ordering::Relaxed);
    while word & OPEN != 0 {
        match m
            .word
            .compare_exchange(word, word + 1, Ordering::Acquire, Ordering::Relaxed)
        {
            Ok(_) => return true,
            Err(now) => word = now,
        }
    }
    false
}

/// A helper that wakes at some point of the region and joins if it can.
fn helper(m: &Region, fault: Fault, mutation: Mutation) {
    if !register(m, mutation) {
        return;
    }
    // Calling the job dereferences the dispatcher's closure.
    assert!(m.job.read(), "a helper called a dead job");
    job(m, 1, fault, mutation);
    m.left.fetch_add(1, Ordering::Release);
}

/// The dispatching thread: worker 0's share, close, wait for the joined,
/// then the closure dies and the region's verdict is read.
fn dispatcher(m: &Region, fault: Fault, mutation: Mutation) {
    if mutation == Mutation::CloseBeforeExhausted {
        let k = m.claim.fetch_add(1, Ordering::Relaxed);
        if k < N {
            m.ynew[k].write(m.y[k].read() + 1.0);
            m.done.fetch_add(1, Ordering::Release);
        }
    } else {
        job(m, 0, fault, mutation);
    }
    let joined = m.word.fetch_and(!OPEN, Ordering::AcqRel) & JOINED;
    if mutation != Mutation::SkipWait {
        spin_until(|| m.left.load(Ordering::Acquire) == joined);
    }
    m.job.write(false);
    let faulted = m.poison.load(Ordering::Acquire) != 0;
    for (k, y) in m.y.iter().enumerate() {
        let v = y.read();
        if faulted {
            assert_eq!(v, INIT[k], "a faulted region wrote y[{k}]");
        } else {
            assert_eq!(v, INIT[k] + 1.0, "iteration {k} was lost");
        }
    }
}

/// Capped depth-first frontier plus a seeded random sample, like the
/// level-completion model: the full space is too large to exhaust.
fn explore(
    mutation: Mutation,
    dispatcher_fault: Fault,
    helper_fault: Fault,
) -> Result<(), interleave::Failure> {
    let cfg = Config {
        max_executions: 3_000,
        random_iterations: 2_000,
        ..Config::default()
    };
    let d = |m: &Region| dispatcher(m, dispatcher_fault, mutation);
    let h = |m: &Region| helper(m, helper_fault, mutation);
    check(&cfg, region, &[&d, &h])?;
    check_random(&cfg, region, &[&d, &h])?;
    Ok(())
}

fn clean(mutation: Mutation) -> Result<(), interleave::Failure> {
    explore(mutation, Fault::default(), Fault::default())
}

#[test]
fn join_protocol_is_sound() {
    clean(Mutation::None).expect("register while open, close, wait for the joined");
}

#[test]
fn a_late_helper_that_dies_poisons_the_region_and_nobody_copies_back() {
    // Whether the helper joins before or after the dispatcher's claims,
    // and whichever iteration it dies on, the dispatcher leaves its gate
    // through the poison, waits for the dead helper's departure, and finds
    // `y` untouched; when the dispatcher claimed everything first, the
    // region is clean.
    for dies_at in 0..N {
        let helper = Fault {
            dies_at: Some(dies_at),
            ..Fault::default()
        };
        explore(Mutation::None, Fault::default(), helper)
            .unwrap_or_else(|failure| panic!("helper dies at {dies_at}: {failure}"));
    }
}

#[test]
fn a_deadline_struck_participant_commits_or_aborts_with_everyone_else() {
    let struck = Fault {
        deadline: true,
        ..Fault::default()
    };
    explore(Mutation::None, struck, Fault::default())
        .expect("the dispatcher abandons the gate before it aborts");
    explore(Mutation::None, Fault::default(), struck)
        .expect("a late helper abandons the gate before it aborts");
}

#[test]
fn mutation_register_after_close_calls_a_dead_job() {
    let failure = clean(Mutation::RegisterAfterClose)
        .expect_err("a helper that joins a closed region is waited for by nobody");
    assert!(
        matches!(&failure.kind, FailureKind::Race { what } if what.contains("job")),
        "{failure}"
    );
    assert!(!failure.schedule.is_empty(), "counterexample must replay");
}

#[test]
fn mutation_close_before_the_share_is_exhausted_loses_iterations() {
    let failure = clean(Mutation::CloseBeforeExhausted)
        .expect_err("claims left to helpers that never join are never run");
    assert!(
        matches!(&failure.kind, FailureKind::Panic { message, .. } if message.contains("lost")),
        "{failure}"
    );
}

#[test]
fn mutation_returning_without_waiting_for_a_joined_helper_is_a_race() {
    let failure =
        clean(Mutation::SkipWait).expect_err("the job dies under a helper still inside it");
    assert!(
        matches!(&failure.kind, FailureKind::Race { what } if what.contains("job") || what.contains("y[")),
        "{failure}"
    );
}

#[test]
fn mutation_aborting_without_abandoning_the_gate_tears_y() {
    let struck = Fault {
        deadline: true,
        ..Fault::default()
    };
    let failure = explore(Mutation::AbortWithoutAbandon, Fault::default(), struck)
        .expect_err("a bare abort lets the dispatcher commit beside it");
    assert!(
        matches!(&failure.kind, FailureKind::Panic { message, .. } if message.contains("faulted region wrote")),
        "{failure}"
    );
}
