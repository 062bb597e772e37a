//! Property tests of the observability layer's concurrency and bounding
//! invariants: counters never lose increments under concurrent emitters,
//! histogram totals reconcile with their counts, the bounded rings
//! (trace, flight) wrap without tearing records, and the profiler's
//! allocation-free harvest computes exactly what the old one did.

use doacross_obs::profile::{ProfSpan, ProfileSummary, Profiler, SpanKind, SpanSource, NO_LEVEL};
use doacross_obs::{FpId, Obs, ObsVariant, PlanProvenance, SolveOutcome, SolveRecord, TraceEvent};
use proptest::prelude::*;

/// What an enabled handle retains: trace events and flight records.
const TRACE_CAPACITY: usize = 4096;
const FLIGHT_CAPACITY: usize = 128;

/// A profiler's ring depth and per-worker span cap per solve.
const PROFILE_RING: usize = 32;
const PER_WORKER_SPANS: usize = 4096;

/// Every span kind, in `SpanKind::index` order.
const KINDS: [SpanKind; 4] = [
    SpanKind::Work,
    SpanKind::FlagWait,
    SpanKind::BarrierWait,
    SpanKind::DispatchWait,
];

/// A solve record whose every field is a function of `seed` — any torn or
/// corrupted record in a snapshot breaks at least one of the derivations
/// that [`assert_untorn`] re-checks.
fn seeded_record(seed: u64, variant: ObsVariant) -> SolveRecord {
    SolveRecord {
        fp: FpId(seed, !seed),
        variant,
        provenance: PlanProvenance::PlanCached,
        generation: seed % 5,
        total_ns: seed.wrapping_mul(3).wrapping_add(1),
        inspector_ns: 0,
        executor_ns: seed.wrapping_mul(3),
        post_ns: 1,
        iterations: seed % 100,
        workers: 2,
        stalls: seed % 7,
        wait_polls: seed % 11,
        barrier_crossings: 0,
        pool: Some(0),
        outcome: SolveOutcome::Ok,
    }
}

fn assert_untorn(r: &SolveRecord) {
    let seed = r.fp.0;
    assert_eq!(r.fp.1, !seed, "fp halves disagree: torn record");
    assert_eq!(r.total_ns, seed.wrapping_mul(3).wrapping_add(1));
    assert_eq!(r.executor_ns, seed.wrapping_mul(3));
    assert_eq!(r.generation, seed % 5);
    assert_eq!(r.stalls, seed % 7);
    assert_eq!(r.wait_polls, seed % 11);
}

/// The single sample value of an unlabeled counter in a Prometheus text
/// document.
fn scrape_counter(text: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    text.lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("{name} not in scrape"))
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap()
}

/// Every sample value of `name`'s series, labelled or not, in a
/// Prometheus text document.
fn scrape_samples<'a>(text: &'a str, name: &'a str) -> impl Iterator<Item = u64> + 'a {
    text.lines()
        .filter(move |l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(['{', ' ']))
        })
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Concurrent emitters never lose a counter increment: after all
    /// threads join, the scraped per-variant histogram counts and
    /// poll/stall totals equal what was emitted, exactly.
    #[test]
    fn concurrent_recorders_lose_no_increments(
        threads in 2usize..=4,
        per_thread in 1usize..=40,
    ) {
        let obs = Obs::new();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let obs = obs.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let seed = (t * per_thread + i) as u64;
                        let variant = ObsVariant::ALL[t % ObsVariant::ALL.len()];
                        obs.emit(TraceEvent::SolveFinished {
                            record: seeded_record(seed, variant),
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut text = String::new();
        obs.render_prometheus(&mut text);
        let total: u64 = scrape_samples(&text, "doacross_solve_ns_count").sum();
        prop_assert_eq!(total, (threads * per_thread) as u64);
        let expected_polls: u64 = (0..(threads * per_thread) as u64).map(|s| s % 11).sum();
        let expected_stalls: u64 = (0..(threads * per_thread) as u64).map(|s| s % 7).sum();
        prop_assert_eq!(scrape_counter(&text, "doacross_wait_polls_total"), expected_polls);
        prop_assert_eq!(scrape_counter(&text, "doacross_stalls_total"), expected_stalls);
        prop_assert_eq!(
            scrape_counter(&text, "doacross_trace_events_total"),
            (threads * per_thread) as u64
        );
    }

    /// For any latency sequence, the rendered latency histogram
    /// reconciles: `_count` counts every solve, `_sum` is the exact
    /// (wrapping) total, and the cumulative buckets end at `_count`.
    #[test]
    fn histogram_totals_reconcile_with_counts(
        latencies in proptest::collection::vec(0u64..1_000_000_000, 1..120),
    ) {
        let obs = Obs::new();
        for (i, &ns) in latencies.iter().enumerate() {
            let mut record = seeded_record(i as u64, ObsVariant::Doacross);
            record.total_ns = ns;
            obs.emit(TraceEvent::SolveFinished { record });
        }
        let mut text = String::new();
        obs.render_prometheus(&mut text);
        let count = latencies.len() as u64;
        let counts: Vec<u64> = scrape_samples(&text, "doacross_solve_ns_count").collect();
        prop_assert_eq!(counts, vec![count], "one variant, every solve");
        let expected_sum = latencies
            .iter()
            .fold(0u64, |acc, &ns| acc.wrapping_add(ns));
        let sums: Vec<u64> = scrape_samples(&text, "doacross_solve_ns_sum").collect();
        prop_assert_eq!(sums, vec![expected_sum]);
        let buckets: Vec<u64> = scrape_samples(&text, "doacross_solve_ns_bucket").collect();
        prop_assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets are cumulative");
        let inf_line = format!(
            "doacross_solve_ns_bucket{{variant=\"doacross\",le=\"+Inf\"}} {count}"
        );
        prop_assert!(text.contains(&inf_line), "cumulative +Inf != count");
    }

    /// The flight recorder keeps exactly the newest `capacity` records in
    /// order, each internally consistent (untorn), for any push count.
    #[test]
    fn flight_ring_wraps_without_tearing(
        pushes in 0usize..=3 * FLIGHT_CAPACITY,
    ) {
        let capacity = FLIGHT_CAPACITY;
        let obs = Obs::new();
        for seed in 0..pushes as u64 {
            obs.emit(TraceEvent::SolveFinished {
                record: seeded_record(seed, ObsVariant::Linear),
            });
        }
        let solves = obs.recent_solves();
        prop_assert_eq!(solves.len(), pushes.min(capacity));
        let first = pushes.saturating_sub(capacity) as u64;
        for (i, r) in solves.iter().enumerate() {
            assert_untorn(r);
            prop_assert_eq!(r.fp.0, first + i as u64, "not the newest records in order");
        }
    }

    /// Concurrent producers overflowing the trace ring: what it retains
    /// is one contiguous run of sequence numbers — exactly the newest
    /// `retained` of the `pushed` events, `[pushed − retained, pushed)`,
    /// whichever threads emitted them — every retained record is untorn,
    /// and pushed − dropped = retained, exactly.
    #[test]
    fn trace_ring_wraps_without_tearing_under_concurrency(
        threads in 2usize..=4,
        per_thread in TRACE_CAPACITY / 2 + 1..=TRACE_CAPACITY,
    ) {
        let obs = Obs::new();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let obs = obs.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let seed = (t * per_thread + i) as u64;
                        obs.emit(TraceEvent::SolveFinished {
                            record: seeded_record(seed, ObsVariant::Wavefront),
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = obs.trace_events();
        let mut text = String::new();
        obs.render_prometheus(&mut text);
        let pushed = scrape_counter(&text, "doacross_trace_events_total");
        let dropped = scrape_counter(&text, "doacross_trace_dropped_total");
        prop_assert_eq!(pushed, (threads * per_thread) as u64);
        prop_assert_eq!(events.len(), TRACE_CAPACITY);
        prop_assert_eq!(pushed - dropped, events.len() as u64);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let newest: Vec<u64> = (pushed - events.len() as u64..pushed).collect();
        prop_assert_eq!(seqs, newest, "the retained run has holes");
        for e in &events {
            match &e.event {
                TraceEvent::SolveFinished { record } => assert_untorn(record),
                other => prop_assert!(false, "unexpected event {:?}", other),
            }
        }
    }
}

/// One deposit into a profiling arena: `(track, kind, level, start, dur,
/// aux)`, where `track` past the arena's workers means the dispatcher
/// (`record_dispatch`) or, one further, a worker the arena does not have.
type Deposit = (usize, usize, u32, u64, u64, u64);

/// The harvest as it was before buffers were recycled, kept verbatim as
/// the oracle: each cell bounded drop-oldest, every cell drained into a
/// fresh vector, a stable sort by (worker, start), and the realized chain
/// accumulated in a per-worker vector.
struct ReferenceHarvest {
    spans: Vec<ProfSpan>,
    dropped: u64,
    kind_ns: [u64; 4],
    kind_spans: [u64; 4],
    realized_critical_ns: u64,
}

fn reference_harvest(workers: usize, cap: usize, deposits: &[Deposit]) -> ReferenceHarvest {
    let mut cells = vec![std::collections::VecDeque::new(); workers + 1];
    let mut dropped = 0u64;
    for &(track, kind, level, start_ns, dur_ns, aux) in deposits {
        let span = match track % (workers + 2) {
            t if t == workers + 1 => {
                dropped += 1; // out-of-range worker: counted, not recorded
                continue;
            }
            t if t == workers => ProfSpan {
                worker: t as u32,
                kind: SpanKind::DispatchWait,
                level: NO_LEVEL,
                start_ns,
                dur_ns,
                aux: 0,
            },
            t => ProfSpan {
                worker: t as u32,
                kind: KINDS[kind],
                level,
                start_ns,
                dur_ns,
                aux,
            },
        };
        let cell: &mut std::collections::VecDeque<ProfSpan> = &mut cells[span.worker as usize];
        if cell.len() >= cap {
            cell.pop_front();
            dropped += 1;
        }
        cell.push_back(span);
    }
    let mut spans: Vec<ProfSpan> = cells.into_iter().flatten().collect();
    spans.sort_by_key(|s| (s.worker, s.start_ns));
    let base = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut kind_ns = [0u64; 4];
    let mut kind_spans = [0u64; 4];
    let mut chain = vec![0u64; workers];
    for span in &mut spans {
        span.start_ns -= base;
        let k = span.kind.index();
        kind_ns[k] += span.dur_ns;
        kind_spans[k] += 1;
        if matches!(span.kind, SpanKind::Work | SpanKind::BarrierWait) {
            if let Some(c) = chain.get_mut(span.worker as usize) {
                *c += span.dur_ns;
            }
        }
    }
    let realized_critical_ns =
        chain.iter().copied().max().unwrap_or(0) + kind_ns[SpanKind::DispatchWait.index()];
    ReferenceHarvest {
        spans,
        dropped,
        kind_ns,
        kind_spans,
        realized_critical_ns,
    }
}

/// Every field of a span, for comparing timelines as multisets.
fn span_key(s: &ProfSpan) -> (u32, u64, usize, u32, u64, u64) {
    (
        s.worker,
        s.start_ns,
        s.kind.index(),
        s.level,
        s.dur_ns,
        s.aux,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The recycling harvest is the old harvest: on random timelines —
    /// several workers, the dispatcher track, an out-of-range worker,
    /// past 20 spans (where a stable sort would allocate), and one solve
    /// that floods a worker's track past its span cap, so drop-oldest
    /// bounding drops spans — and across a wrap of the ring whose evicted
    /// buffers it refills, each profile's summary, per-kind totals,
    /// realized critical path, drop count and span timeline equal the
    /// reference's, in (worker, start) order.
    #[test]
    fn harvest_equals_the_reference_harvest(
        workers in 1usize..5,
        solves in proptest::collection::vec(
            proptest::collection::vec((0usize..8, 0usize..4, 0u32..20, 0u64..5_000, 0u64..400, 0u64..50), 0..90),
            PROFILE_RING + 1..PROFILE_RING + 8,
        ),
        flood in PER_WORKER_SPANS + 1..=PER_WORKER_SPANS + 60,
        flood_at in 0usize..PROFILE_RING + 8,
    ) {
        let mut solves = solves;
        let track = flood_at % workers;
        let at = flood_at % solves.len();
        solves[at].extend((0..flood as u64).map(|j| {
            (track, (j % 4) as usize, (j % 20) as u32, (j * 7_919) % 5_000, j % 400, j % 50)
        }));
        let prof = Profiler::new(1, workers);
        let ring = PROFILE_RING;
        let cap = PER_WORKER_SPANS;
        let arena = prof.arena(0);
        for (n, deposits) in solves.iter().enumerate() {
            for &(track, kind, level, start_ns, dur_ns, aux) in deposits {
                match track % (workers + 2) {
                    t if t == workers => arena.record_dispatch(start_ns, dur_ns),
                    t if t == workers + 1 => {
                        arena.record(workers + 3, KINDS[kind], level, start_ns, dur_ns, aux)
                    }
                    t => arena.record(t, KINDS[kind], level, start_ns, dur_ns, aux),
                }
            }
            let summary = prof.harvest(SpanSource::Arena(0), FpId(n as u64, 0), ObsVariant::Doacross, 1, None);
            let want = reference_harvest(workers, cap, deposits);
            let recent = prof.recent();
            prop_assert_eq!(recent.len(), (n + 1).min(ring));
            let got = recent.last().unwrap();
            prop_assert_eq!(got.fp, FpId(n as u64, 0));
            prop_assert_eq!(got.kind_ns, want.kind_ns);
            prop_assert_eq!(got.kind_spans, want.kind_spans);
            prop_assert_eq!(got.realized_critical_ns, want.realized_critical_ns);
            prop_assert_eq!(got.dropped, want.dropped);
            prop_assert_eq!(
                summary,
                ProfileSummary {
                    realized_critical_ns: want.realized_critical_ns,
                    work_ns: want.kind_ns[SpanKind::Work.index()],
                    flag_wait_ns: want.kind_ns[SpanKind::FlagWait.index()],
                    barrier_wait_ns: want.kind_ns[SpanKind::BarrierWait.index()],
                    dispatch_wait_ns: want.kind_ns[SpanKind::DispatchWait.index()],
                    spans: want.spans.len() as u64,
                    dropped: want.dropped,
                }
            );
            let order = |spans: &[ProfSpan]| -> Vec<(u32, u64)> {
                spans.iter().map(|s| (s.worker, s.start_ns)).collect()
            };
            prop_assert_eq!(order(&got.spans), order(&want.spans));
            let mut got_set: Vec<_> = got.spans.iter().map(span_key).collect();
            let mut want_set: Vec<_> = want.spans.iter().map(span_key).collect();
            got_set.sort_unstable();
            want_set.sort_unstable();
            prop_assert_eq!(got_set, want_set);
        }
    }
}
