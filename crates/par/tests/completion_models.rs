//! Interleaving-checker model of the level-completion protocol that
//! replaced the wavefront barrier (`doacross-core`'s `completion` module,
//! built on this crate's guarded wait): per level a claim counter and a
//! completion count; a worker that executed `k > 0` iterations of a level
//! adds `k` (`Release`); a worker enters the next level, and finally claims
//! elements of the copy-back of `ynew` into `y` off a shared counter until
//! none is left, only after an `Acquire` load saw the earlier count full —
//! or aborts on the region's poison word.
//!
//! The model is the smallest loop that has every hazard: level 0 is
//! iterations 0 and 1 (`ynew[i] = y[i] + 1`), level 1 is iteration 2
//! (`ynew[2] = ynew[0] + ynew[1] + y[0]` — two true dependencies and one
//! antidependency on an element the copy-back overwrites). Each mutation
//! test corrupts the protocol one plausible way and proves the checker
//! reports it with the right failure kind; a second, smaller model does
//! the same for the rule that a deadline-struck waiter must *abandon* the
//! copy-back gate before it may abort.

use interleave::{
    check, check_random, spin_until, AtomicU64, AtomicUsize, Config, FailureKind, Ordering, Shared,
};

const WIDTHS: [usize; 2] = [2, 1];

struct Levels {
    claim: [AtomicUsize; 2],
    done: [AtomicUsize; 2],
    /// The copy-back's claim counter.
    post: AtomicUsize,
    y: [Shared<f64>; 3],
    ynew: [Shared<f64>; 3],
    /// The region poison word: 0 = clean.
    poison: AtomicU64,
}

fn levels() -> Levels {
    Levels {
        claim: [AtomicUsize::new(0), AtomicUsize::new(0)],
        done: [AtomicUsize::new(0), AtomicUsize::new(0)],
        post: AtomicUsize::new(0),
        y: [
            Shared::named("y[0]", 1.0),
            Shared::named("y[1]", 2.0),
            Shared::named("y[2]", 4.0),
        ],
        ynew: [
            Shared::named("ynew[0]", 0.0),
            Shared::named("ynew[1]", 0.0),
            Shared::named("ynew[2]", 0.0),
        ],
        poison: AtomicU64::new(0),
    }
}

/// The ways a refactor could plausibly break the protocol.
#[derive(Clone, Copy, PartialEq)]
enum Mutation {
    None,
    /// The completion add publishes nothing.
    RelaxedAdd,
    /// An iteration is counted before its `ynew` store.
    AddBeforeStore,
    /// A worker enters level 1 without waiting for level 0's count.
    SkipLevelWait,
    /// The copy-back starts without waiting for the last level's count.
    SkipCopyBackWait,
    /// The gates poll the counts only, not the poison word.
    UncheckedGates,
}

/// `Completion::wait`: poll the count *and* the poison word. `false` =
/// poisoned, the caller aborts.
fn gate(m: &Levels, level: usize, mutation: Mutation) -> bool {
    let full = || m.done[level].load(Ordering::Acquire) == WIDTHS[level];
    if mutation == Mutation::UncheckedGates {
        spin_until(full);
        return true;
    }
    spin_until(|| full() || m.poison.load(Ordering::Acquire) != 0);
    full()
}

fn iteration(m: &Levels, i: usize) -> f64 {
    match i {
        0 | 1 => m.y[i].read() + 1.0,
        _ => m.ynew[0].read() + m.ynew[1].read() + m.y[0].read(),
    }
}

/// One pool worker's pass through the region. `dies_at` makes the worker
/// panic instead of executing that iteration: it publishes poison and
/// unwinds, its claimed iteration never counted. Returns whether the
/// worker reached the end of the region (claimed copy-back work until none
/// was left).
fn worker(m: &Levels, mutation: Mutation, dies_at: Option<usize>) -> bool {
    let mut first = 0;
    for (level, &width) in WIDTHS.iter().enumerate() {
        if level > 0 && mutation != Mutation::SkipLevelWait && !gate(m, level - 1, mutation) {
            return false;
        }
        let mut executed = 0;
        loop {
            let k = m.claim[level].fetch_add(1, Ordering::Relaxed);
            if k >= width {
                break;
            }
            let i = first + k;
            if dies_at == Some(i) {
                m.poison.store(1, Ordering::Release);
                return false;
            }
            if mutation == Mutation::AddBeforeStore {
                m.done[level].fetch_add(1, Ordering::Release);
                m.ynew[i].write(iteration(m, i));
            } else {
                m.ynew[i].write(iteration(m, i));
                executed += 1;
            }
        }
        if executed > 0 {
            let order = match mutation {
                Mutation::RelaxedAdd => Ordering::Relaxed,
                _ => Ordering::Release,
            };
            m.done[level].fetch_add(executed, order);
        }
        first += width;
    }
    if mutation != Mutation::SkipCopyBackWait && !gate(m, WIDTHS.len() - 1, mutation) {
        return false;
    }
    // `post_share`: claimed chunks (one element here) until none is left,
    // so whoever reaches the copy-back copies everything once.
    loop {
        let e = m.post.fetch_add(1, Ordering::Relaxed);
        if e >= m.y.len() {
            return true;
        }
        m.y[e].write(m.ynew[e].read());
    }
}

/// The schedule space of the full region is too large to exhaust (no
/// partial-order reduction), so every check is a capped depth-first
/// frontier plus a seeded random sample, like the barrier-reuse model.
fn explore(mutation: Mutation, dies_at: Option<usize>) -> Result<(), interleave::Failure> {
    let cfg = Config {
        max_executions: 2_000,
        random_iterations: 1_500,
        ..Config::default()
    };
    let run = |id: usize| {
        move |m: &Levels| {
            // Worker 1 is the one that dies — if it is the one to claim
            // the fatal iteration. Claims are unique, so a region where it
            // died holds an iteration nobody will ever count.
            let dies = dies_at.filter(|_| id == 1);
            if worker(m, mutation, dies) {
                assert_eq!(
                    m.poison.load(Ordering::Acquire),
                    0,
                    "worker {id} copied back though an iteration was never counted"
                );
            }
        }
    };
    let (w0, w1) = (run(0), run(1));
    check(&cfg, levels, &[&w0, &w1])?;
    check_random(&cfg, levels, &[&w0, &w1])?;
    Ok(())
}

/// The mutation must be reported as a data race on one of `cells` (which
/// of several racing cells the checker meets first is its business).
fn race_on(mutation: Mutation, cells: &[&str]) {
    let failure = explore(mutation, None).expect_err("the corrupted protocol must be caught");
    assert!(
        matches!(&failure.kind, FailureKind::Race { what } if cells.iter().any(|c| what.contains(c))),
        "expected a race on {cells:?}: {failure}"
    );
    assert!(!failure.schedule.is_empty(), "counterexample must replay");
}

#[test]
fn level_completion_protocol_is_sound() {
    explore(Mutation::None, None)
        .expect("release adds / acquire gates order levels and the copy-back");
}

#[test]
fn mutation_relaxed_completion_add_is_a_data_race_on_ynew() {
    race_on(Mutation::RelaxedAdd, &["ynew"]);
}

#[test]
fn mutation_counting_before_the_store_is_a_data_race() {
    // An iteration counted early is unfinished twice over: its `ynew`
    // store is unpublished, and its `y` loads are still to come when the
    // copy-back it has just licensed overwrites them.
    race_on(Mutation::AddBeforeStore, &["ynew", "y[0]"]);
}

#[test]
fn mutation_skipped_level_wait_is_a_data_race_on_ynew() {
    race_on(Mutation::SkipLevelWait, &["ynew"]);
}

#[test]
fn mutation_copy_back_before_the_last_count_fills_is_a_data_race_on_y() {
    // A worker that finds no level-1 work left would start claiming the
    // copy-back at once: overwrite y[0] while its sibling's iteration 2
    // still reads the old value, or — when the sibling claimed the first
    // elements — copy the unpublished ynew[2].
    race_on(Mutation::SkipCopyBackWait, &["y[0]", "ynew[2]"]);
}

#[test]
fn a_panicking_worker_aborts_its_siblings_and_nobody_copies_back() {
    // Whichever iteration the dying worker claimed is never counted, so
    // some gate stays shut; the survivor must leave through the poison
    // poll — on every schedule explored, no deadlock and no copy-back.
    for dies_at in [0, 1, 2] {
        explore(Mutation::None, Some(dies_at))
            .unwrap_or_else(|failure| panic!("dies at {dies_at}: {failure}"));
    }
}

#[test]
fn mutation_unchecked_gates_deadlock_on_a_panicked_worker() {
    let failure = explore(Mutation::UncheckedGates, Some(0))
        .expect_err("a gate that ignores poison waits for a count that never fills");
    assert!(
        matches!(&failure.kind, FailureKind::Deadlock { blocked } if blocked == &[0]),
        "{failure}"
    );
}

// ---------------------------------------------------------------------------
// Commit or abort, never both. A waiter that notices the solve deadline
// holds no iterations, so its siblings can still fill the last count and
// start copying back; if it simply poisoned the region and unwound, the
// caller would get a typed timeout *and* a partly overwritten `y`. The
// waiter therefore abandons the gating count first — a compare-and-swap
// that sets a bit no full count carries, and fails exactly when the count
// is already full, in which case the waiter commits with everyone else.
// ---------------------------------------------------------------------------

const TARGET: usize = 1;
const ABANDONED: usize = 1 << 8;

struct CommitGate {
    done: AtomicUsize,
    poison: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
}

fn commit_gate() -> CommitGate {
    CommitGate {
        done: AtomicUsize::new(0),
        poison: AtomicU64::new(0),
        committed: AtomicU64::new(0),
        aborted: AtomicU64::new(0),
    }
}

fn commit(m: &CommitGate) {
    m.committed.store(1, Ordering::SeqCst);
    assert_eq!(
        m.aborted.load(Ordering::SeqCst),
        0,
        "copy-back began in a region a sibling aborted"
    );
}

fn abort(m: &CommitGate) {
    m.poison.store(1, Ordering::Release);
    m.aborted.store(1, Ordering::SeqCst);
    assert_eq!(
        m.committed.load(Ordering::SeqCst),
        0,
        "aborted a region whose copy-back had begun"
    );
}

/// The worker that executes the last iteration: counts it, passes the gate
/// if the count reads exactly full, commits; leaves through poison if not.
fn finisher(m: &CommitGate) {
    m.done.fetch_add(1, Ordering::Release);
    spin_until(|| {
        m.done.load(Ordering::Acquire) == TARGET || m.poison.load(Ordering::Acquire) != 0
    });
    if m.done.load(Ordering::Acquire) == TARGET {
        commit(m);
    }
}

/// A waiter at the gate whose deadline has just expired.
fn deadline_struck_waiter(m: &CommitGate, abandon_first: bool) {
    if !abandon_first {
        return abort(m);
    }
    loop {
        let done = m.done.load(Ordering::Acquire);
        if done == TARGET {
            return commit(m);
        }
        let abandoned = done | ABANDONED;
        if m.done
            .compare_exchange(done, abandoned, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return abort(m);
        }
    }
}

#[test]
fn a_deadline_struck_waiter_commits_or_aborts_with_everyone_else() {
    let report = check(
        &Config::default(),
        commit_gate,
        &[&finisher, &|m: &CommitGate| deadline_struck_waiter(m, true)],
    )
    .expect("abandoning the gate first makes commit and abort exclusive");
    assert!(report.exhaustive, "the commit gate must be exhaustible");
}

#[test]
fn mutation_aborting_without_abandoning_the_gate_tears_y() {
    let failure = check(
        &Config::default(),
        commit_gate,
        &[&finisher, &|m: &CommitGate| {
            deadline_struck_waiter(m, false)
        }],
    )
    .expect_err("a bare abort lets the finisher commit beside it");
    assert!(
        matches!(&failure.kind, FailureKind::Panic { .. }),
        "{failure}"
    );
}
