//! Deep per-solve profiling: per-worker span arenas, wait attribution,
//! realized-critical-path reconstruction, and exportable traces.
//!
//! The paper's argument is a price comparison — preprocessed
//! synchronization overhead versus sequential execution — and the rest of
//! the observability layer reports that price only in aggregate
//! (`RunStats` totals, solve-latency histograms). This module answers
//! *where inside a solve* the time went: which worker stalled on which
//! ready flag, which wavefront level ate the barrier wait, and what the
//! realized critical path was, so the measured schedule can be compared
//! against the plan's priced cost variant by variant.
//!
//! The discipline matches the rest of the crate:
//!
//! - **Off by default, one branch when off.** Execution layers thread an
//!   `Option<&ProfArena>`; `None` costs one predicted-not-taken branch per
//!   would-be span. No clock is read, nothing is allocated.
//! - **Bounded everywhere.** Arenas drop oldest spans past a per-worker
//!   cap (counting drops), the profile ring keeps the last N solves, and
//!   per-level histogram labels are capped with an `"other"` overflow
//!   bucket, exactly like the pool/fingerprint series.
//! - **Workers touch only their own cache-padded cell.** A span deposit is
//!   an uncontended mutex on a line no other worker writes.
//!
//! Exporter: [`Profiler::chrome_trace`] renders retained profiles as
//! Chrome trace-event JSON (loads in Perfetto / `about://tracing`; one
//! track per worker), validated by [`validate_chrome_trace`]. Each
//! harvest's summary also reaches the trace ring as a
//! [`crate::TraceEvent::SolveProfiled`] event.

use crate::{lock, render, FpId, HistogramSnapshot, ObsVariant};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a [`ProfSpan`] measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Executing claimed iterations (flag waits nest inside on the
    /// flag-based variants; wavefront work spans exclude boundary waits):
    /// one span per joined worker per region — per level on the wavefront
    /// — its iterations (possibly none) as `aux`.
    ///
    /// A worker *joined* a region when the region ran its job: the
    /// dispatching thread (worker 0) always, a helper when it registered
    /// before the dispatcher closed registration (`doacross_par`'s
    /// `ThreadPool::run_joinable`, which opens every region of the
    /// runtime). These spans are the record of it — the tracks carrying a `Work`
    /// span are the joined workers, `1 ≤ joined ≤ workers`.
    Work,
    /// Busy-waiting on a ready flag for a true dependency (one span per
    /// stall event; `aux` carries the poll count).
    FlagWait,
    /// Waiting at a wavefront level boundary for the earlier level's
    /// completion count to fill (one span per joined worker per boundary —
    /// see [`SpanKind::Work`] — the near-zero wait of a worker that finds
    /// it full included).
    BarrierWait,
    /// Waiting for a free scheduler sub-pool before the solve ran
    /// (recorded on the dispatcher track, not a worker's).
    DispatchWait,
}

impl SpanKind {
    /// All kinds, in [`SpanKind::index`] order.
    const ALL: [SpanKind; 4] = [
        SpanKind::Work,
        SpanKind::FlagWait,
        SpanKind::BarrierWait,
        SpanKind::DispatchWait,
    ];

    /// Dense index (0..4) for per-kind accounting arrays.
    pub fn index(self) -> usize {
        match self {
            SpanKind::Work => 0,
            SpanKind::FlagWait => 1,
            SpanKind::BarrierWait => 2,
            SpanKind::DispatchWait => 3,
        }
    }

    /// The `kind` label / Chrome-trace event name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Work => "work",
            SpanKind::FlagWait => "flag_wait",
            SpanKind::BarrierWait => "barrier_wait",
            SpanKind::DispatchWait => "dispatch_wait",
        }
    }
}

/// `level` value for spans outside any wavefront level.
pub const NO_LEVEL: u32 = u32::MAX;

/// One timed interval on one worker's timeline. Timestamps are
/// nanoseconds since the owning arena's epoch (the engine build), so
/// every span in a process shares one clock base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfSpan {
    /// Worker track the span belongs to (the dispatcher track is one past
    /// the last worker).
    pub worker: u32,
    /// What the interval measures.
    pub kind: SpanKind,
    /// Wavefront level, or [`NO_LEVEL`].
    pub level: u32,
    /// Start offset, nanoseconds since the arena epoch (re-based so the
    /// solve's earliest span starts at 0 once harvested).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Kind-specific payload: iterations executed for [`SpanKind::Work`],
    /// flag polls for [`SpanKind::FlagWait`], 0 otherwise.
    pub aux: u64,
}

/// Profiles retained in the ring (drop-oldest).
const RING: usize = 32;

/// Span cap per worker per solve; past it the oldest spans of that worker
/// are dropped (and counted).
const PER_WORKER_SPANS: usize = 4096;

/// Wavefront levels with their own `level` label in the barrier-wait
/// histograms; deeper levels aggregate under `level="other"`.
const MAX_LEVEL_SERIES: usize = 16;

/// Static `level` label values (deeper levels render as `other`).
const LEVEL_LABELS: [&str; MAX_LEVEL_SERIES] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];

/// A worker's span store: padded so neighbouring workers never share a
/// cache line, locked so the dispatcher can harvest after the pool joins.
/// Workers lock only their own cell, so deposits are uncontended.
#[repr(align(128))]
struct ArenaCell {
    spans: Mutex<VecDeque<ProfSpan>>,
}

/// A per-solve span arena: one cell per pool worker plus a dispatcher
/// cell. The execution layers deposit into it and the profiler's harvest
/// drains it, which leaves it empty for the sub-pool's next solve — so a
/// solve does not reset it first. Only an attempt that never reaches the
/// harvest (a faulted region, whose workers deposited and then unwound)
/// leaves spans behind, and the engine resets the arena on exactly that
/// path.
pub struct ProfArena {
    epoch: Instant,
    /// Worker cells `0..workers`, then one dispatcher cell.
    cells: Vec<ArenaCell>,
    cap_per_worker: usize,
    dropped: AtomicU64,
}

impl ProfArena {
    /// An arena for `workers` pool workers (plus the dispatcher track),
    /// each bounded to `cap_per_worker` spans.
    pub fn new(workers: usize, cap_per_worker: usize) -> Self {
        let cap = cap_per_worker.max(1);
        let cells = (0..workers.max(1) + 1)
            .map(|_| ArenaCell {
                spans: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            })
            .collect();
        Self {
            epoch: Instant::now(),
            cells,
            cap_per_worker: cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// Worker tracks (excluding the dispatcher cell).
    pub fn workers(&self) -> usize {
        self.cells.len() - 1
    }

    /// Nanoseconds since the arena epoch — the clock base every span's
    /// `start_ns` is expressed in.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A clock reading the caller already took, in the arena's clock base
    /// (readings from before the epoch clamp to 0) — so a measurement
    /// that also feeds something else costs no second reading.
    #[inline]
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Deposits a span on `worker`'s track. Out-of-range workers (a pool
    /// grown past the arena) are counted as drops rather than recorded.
    pub fn record(
        &self,
        worker: usize,
        kind: SpanKind,
        level: u32,
        start_ns: u64,
        dur_ns: u64,
        aux: u64,
    ) {
        if worker >= self.workers() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.push(worker, kind, level, start_ns, dur_ns, aux);
    }

    /// Deposits a [`SpanKind::DispatchWait`] span on the dispatcher track.
    pub fn record_dispatch(&self, start_ns: u64, dur_ns: u64) {
        let track = self.workers();
        self.push(track, SpanKind::DispatchWait, NO_LEVEL, start_ns, dur_ns, 0);
    }

    fn push(&self, cell: usize, kind: SpanKind, level: u32, start_ns: u64, dur_ns: u64, aux: u64) {
        let mut spans = lock(&self.cells[cell].spans);
        if spans.len() >= self.cap_per_worker {
            spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(ProfSpan {
            worker: cell as u32,
            kind,
            level,
            start_ns,
            dur_ns,
            aux,
        });
    }

    /// Clears every cell (retaining capacity) and the drop counter — the
    /// engine calls this when a faulted attempt abandons its spans.
    pub fn reset(&self) {
        for cell in &self.cells {
            let mut spans = lock(&cell.spans);
            spans.clear();
        }
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Drains every cell into one vector (sorted by worker then start
    /// time) and takes the drop count. Called after the pool has joined,
    /// so no worker is still depositing.
    pub fn take(&self) -> (Vec<ProfSpan>, u64) {
        let mut all = Vec::new();
        let dropped = self.drain_into(&mut all);
        all.sort_unstable_by_key(span_order);
        (all, dropped)
    }

    /// Appends every cell's spans to `out`, cell by cell (unsorted), and
    /// takes the drop count: [`ProfArena::take`] into a buffer the caller
    /// owns.
    fn drain_into(&self, out: &mut Vec<ProfSpan>) -> u64 {
        for cell in &self.cells {
            let mut spans = lock(&cell.spans);
            out.extend(spans.drain(..));
        }
        self.dropped.swap(0, Ordering::Relaxed)
    }
}

/// The order of a harvested timeline: by worker, then start time. Kind
/// breaks ties so the key is total enough for an unstable sort — the
/// stable one allocates a merge buffer past 20 spans.
fn span_order(span: &ProfSpan) -> (u32, u64, usize) {
    (span.worker, span.start_ns, span.kind.index())
}

/// A harvested solve: the full span timeline plus the attribution the
/// profiler derived from it.
#[derive(Debug, Clone)]
pub struct SolveProfile {
    /// Profile sequence number (monotone per profiler).
    pub seq: u64,
    /// Fingerprint of the solved structure.
    pub fp: FpId,
    /// Variant that executed.
    pub variant: ObsVariant,
    /// Scheduler sub-pool the solve ran on; `None` for a solve that held
    /// none (a sequential plan runs on the caller's thread).
    pub pool: Option<u64>,
    /// Worker tracks the spans came from: the arena's, or 1 for a solve
    /// that held no sub-pool.
    pub workers: u64,
    /// Wall time of the whole solve (engine-measured).
    pub total_ns: u64,
    /// The plan's priced (predicted) cost for the executed variant, when
    /// the planner priced it.
    pub priced_ns: Option<f64>,
    /// Longest realized per-worker chain of work + barrier waits, plus
    /// the dispatch wait — the measured counterpart of the plan's priced
    /// critical path. (Flag waits nest inside work spans and so are
    /// already inside the chain.)
    pub realized_critical_ns: u64,
    /// Total nanoseconds across workers, by [`SpanKind::index`].
    pub kind_ns: [u64; 4],
    /// Span counts by [`SpanKind::index`].
    pub kind_spans: [u64; 4],
    /// Spans dropped by arena bounding during this solve.
    pub dropped: u64,
    /// Every retained span, re-based so the earliest starts at 0, sorted
    /// by worker then start time.
    pub spans: Vec<ProfSpan>,
}

impl SolveProfile {
    /// Total work time across workers.
    pub fn work_ns(&self) -> u64 {
        self.kind_ns[SpanKind::Work.index()]
    }
    /// Total ready-flag stall time across workers.
    pub fn flag_wait_ns(&self) -> u64 {
        self.kind_ns[SpanKind::FlagWait.index()]
    }
    /// Total barrier wait time across workers.
    pub fn barrier_wait_ns(&self) -> u64 {
        self.kind_ns[SpanKind::BarrierWait.index()]
    }
    /// Time spent waiting for a sub-pool before the solve ran.
    pub fn dispatch_wait_ns(&self) -> u64 {
        self.kind_ns[SpanKind::DispatchWait.index()]
    }
}

/// The attribution summary [`Profiler::harvest`] hands back to the
/// engine — what it forwards to the trace stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileSummary {
    /// See [`SolveProfile::realized_critical_ns`].
    pub realized_critical_ns: u64,
    /// Total work time across workers.
    pub work_ns: u64,
    /// Total ready-flag stall time across workers.
    pub flag_wait_ns: u64,
    /// Total barrier wait time across workers.
    pub barrier_wait_ns: u64,
    /// Dispatch (pool-acquire) wait time.
    pub dispatch_wait_ns: u64,
    /// Spans retained in the profile.
    pub spans: u64,
    /// Spans dropped by arena bounding.
    pub dropped: u64,
}

/// Where a harvest's spans come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanSource {
    /// Sub-pool `pool`'s arena: what its workers and its dispatcher track
    /// deposited during the solve.
    Arena(usize),
    /// A solve that ran on the caller's thread and held no sub-pool, so
    /// no arena: its one span is made from its stats — a whole-run
    /// [`SpanKind::Work`] span on worker 0, starting at 0, lasting the
    /// solve's `total_ns`, `aux` = `iterations`.
    Caller { iterations: u64 },
}

/// Everything a harvest updates, as plain fields under the one ring lock:
/// the retained profiles, oldest first; the span capacity every one of
/// their buffers is kept at (the most spans any harvest has held, so a
/// buffer recycled from an evicted profile fits any solve no larger than
/// the largest so far); the per-level barrier-wait histograms; and the
/// `doacross_profile_*` counters.
struct ProfileRing {
    profiles: VecDeque<SolveProfile>,
    span_capacity: usize,
    /// [`MAX_LEVEL_SERIES`] labelled histograms, then the `"other"`
    /// overflow.
    level_wait: [HistogramSnapshot; MAX_LEVEL_SERIES + 1],
    /// Solves profiled so far — also the next profile's sequence number.
    solves: u64,
    spans_by_kind: [u64; 4],
    dropped_total: u64,
    /// Latest realized critical path per variant (valid when the
    /// matching `variant_profiled` count is non-zero).
    realized_ns: [u64; ObsVariant::ALL.len()],
    /// Latest priced cost per variant, rounded to integer nanoseconds
    /// (`u64::MAX` = the planner never priced the executed variant).
    priced_ns: [u64; ObsVariant::ALL.len()],
    variant_profiled: [u64; ObsVariant::ALL.len()],
}

impl ProfileRing {
    /// Per-level barrier-wait snapshots: `(label, snapshot)` for every
    /// level with at least one recording, levels from
    /// [`MAX_LEVEL_SERIES`] on under `"other"`.
    fn level_histograms(&self) -> Vec<(&'static str, &HistogramSnapshot)> {
        self.level_wait
            .iter()
            .enumerate()
            .filter(|(_, h)| h.count > 0)
            .map(|(i, h)| (LEVEL_LABELS.get(i).copied().unwrap_or("other"), h))
            .collect()
    }
}

/// The engine's profiling state: per-pool span arenas and the profile
/// ring with its per-level barrier-wait histograms and
/// `doacross_profile_*` counters. Built once by
/// `EngineBuilder::profiling_default()`; absent on an unprofiled engine,
/// which therefore pays nothing at all.
pub struct Profiler {
    arenas: Vec<ProfArena>,
    ring: Mutex<ProfileRing>,
}

impl Profiler {
    /// A profiler for an engine with `pools` sub-pools of `workers`
    /// workers each: a 32-profile ring, 4096 spans per worker per solve
    /// and 16 per-level barrier-wait series.
    pub fn new(pools: usize, workers: usize) -> Self {
        let arenas = (0..pools.max(1))
            .map(|_| ProfArena::new(workers, PER_WORKER_SPANS))
            .collect();
        Self {
            arenas,
            ring: Mutex::new(ProfileRing {
                profiles: VecDeque::with_capacity(RING),
                span_capacity: 0,
                level_wait: Default::default(),
                solves: 0,
                spans_by_kind: [0; 4],
                dropped_total: 0,
                realized_ns: Default::default(),
                priced_ns: Default::default(),
                variant_profiled: Default::default(),
            }),
        }
    }

    /// The span arena for sub-pool `pool` (clamped to the last arena, so
    /// a stale index degrades rather than panics).
    pub fn arena(&self, pool: usize) -> &ProfArena {
        &self.arenas[pool.min(self.arenas.len() - 1)]
    }

    /// Harvests one solve's spans — drained from a sub-pool's arena, or
    /// made from the stats of a solve that held none (see [`SpanSource`])
    /// — into a [`SolveProfile`]: re-bases span timestamps, derives the
    /// per-kind attribution and realized critical path, feeds the
    /// per-level barrier-wait histograms, pushes the ring (drop-oldest),
    /// and returns the summary for the trace stream and the adaptive
    /// layer. Only the span source differs between the two; everything
    /// after it is one body.
    ///
    /// Draining is what empties the arena for the sub-pool's next solve —
    /// there is no reset per solve. Once the ring is full, the spans land
    /// in the buffer of the profile about to be evicted: its capacity is
    /// recycled, not freed and re-allocated. Every buffer in the ring is
    /// kept as large as the largest profile so far (grown all at once,
    /// the one time a solve sets a new maximum), so a warm harvest
    /// allocates nothing unless its solve deposited more spans than any
    /// before it. The ring lock is taken once for the whole harvest, and
    /// every counter and histogram it updates is a plain field under it.
    pub fn harvest(
        &self,
        source: SpanSource,
        fp: FpId,
        variant: ObsVariant,
        total_ns: u64,
        priced_ns: Option<f64>,
    ) -> ProfileSummary {
        let mut ring = lock(&self.ring);
        let evicted = if ring.profiles.len() >= RING {
            ring.profiles.pop_front()
        } else {
            None
        };
        let mut spans = evicted.map_or_else(|| Vec::with_capacity(ring.span_capacity), |p| p.spans);
        spans.clear();
        let (pool, workers, dropped) = match source {
            SpanSource::Arena(pool) => {
                let arena = self.arena(pool);
                (
                    Some(pool as u64),
                    arena.workers(),
                    arena.drain_into(&mut spans),
                )
            }
            SpanSource::Caller { iterations } => {
                spans.push(ProfSpan {
                    worker: 0,
                    kind: SpanKind::Work,
                    level: NO_LEVEL,
                    start_ns: 0,
                    dur_ns: total_ns,
                    aux: iterations,
                });
                (None, 1, 0)
            }
        };
        if spans.len() > ring.span_capacity {
            ring.span_capacity = spans.len();
            let capacity = ring.span_capacity;
            for profile in ring.profiles.iter_mut() {
                profile.spans.reserve(capacity - profile.spans.len());
            }
        }
        spans.sort_unstable_by_key(span_order);

        let base = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let mut kind_ns = [0u64; 4];
        let mut kind_spans = [0u64; 4];
        // Spans arrive grouped by worker, so each worker's chain is a
        // running sum that restarts when the track changes.
        let (mut track, mut chain, mut longest_chain) = (u32::MAX, 0u64, 0u64);
        for span in &mut spans {
            span.start_ns -= base;
            let k = span.kind.index();
            kind_ns[k] += span.dur_ns;
            kind_spans[k] += 1;
            match span.kind {
                // Flag waits nest inside work spans; dispatch waits live
                // on the dispatcher track — neither extends a worker's
                // realized chain on its own.
                SpanKind::Work | SpanKind::BarrierWait if (span.worker as usize) < workers => {
                    if span.worker != track {
                        (track, chain) = (span.worker, 0);
                    }
                    chain += span.dur_ns;
                    longest_chain = longest_chain.max(chain);
                }
                _ => {}
            }
            if span.kind == SpanKind::BarrierWait {
                let idx = (span.level as usize).min(MAX_LEVEL_SERIES);
                ring.level_wait[idx].record(span.dur_ns);
            }
        }
        let dispatch_ns = kind_ns[SpanKind::DispatchWait.index()];
        let realized_critical_ns = longest_chain + dispatch_ns;

        let summary = ProfileSummary {
            realized_critical_ns,
            work_ns: kind_ns[SpanKind::Work.index()],
            flag_wait_ns: kind_ns[SpanKind::FlagWait.index()],
            barrier_wait_ns: kind_ns[SpanKind::BarrierWait.index()],
            dispatch_wait_ns: dispatch_ns,
            spans: spans.len() as u64,
            dropped,
        };

        let seq = ring.solves;
        ring.solves += 1;
        for (total, n) in ring.spans_by_kind.iter_mut().zip(kind_spans) {
            *total += n;
        }
        ring.dropped_total += dropped;
        let v = variant.index();
        ring.realized_ns[v] = realized_critical_ns;
        ring.priced_ns[v] = priced_ns.map_or(u64::MAX, |p| p.max(0.0).round() as u64);
        ring.variant_profiled[v] += 1;

        ring.profiles.push_back(SolveProfile {
            seq,
            fp,
            variant,
            pool,
            workers: workers as u64,
            total_ns,
            priced_ns,
            realized_critical_ns,
            kind_ns,
            kind_spans,
            dropped,
            spans,
        });
        summary
    }

    /// Retained profiles, oldest first.
    pub fn recent(&self) -> Vec<SolveProfile> {
        lock(&self.ring).profiles.iter().cloned().collect()
    }

    /// Renders the `doacross_profile_*` families, holding the ring lock
    /// once for the whole render. Nothing is rendered until at least one
    /// solve has been profiled, so an armed-but-idle engine's scrape is
    /// byte-identical to an unprofiled one.
    pub fn render_prometheus(&self, buf: &mut String) {
        let ring = lock(&self.ring);
        if ring.solves == 0 {
            return;
        }
        render::counter(
            buf,
            "doacross_profile_solves_total",
            "Solves whose span arenas were harvested into profiles.",
            ring.solves,
        );
        let kind_samples: Vec<([(&str, &str); 1], u64)> = SpanKind::ALL
            .iter()
            .filter_map(|&k| {
                let n = ring.spans_by_kind[k.index()];
                (n > 0).then_some(([("kind", k.as_str())], n))
            })
            .collect();
        let kind_refs: Vec<(&[(&str, &str)], u64)> =
            kind_samples.iter().map(|(l, n)| (&l[..], *n)).collect();
        render::counter_family(
            buf,
            "doacross_profile_spans_total",
            "Profiled spans harvested, by span kind.",
            &kind_refs,
        );
        render::counter(
            buf,
            "doacross_profile_dropped_spans_total",
            "Spans dropped by per-worker arena bounding.",
            ring.dropped_total,
        );
        let realized: Vec<([(&str, &str); 1], u64)> = ObsVariant::ALL
            .iter()
            .filter_map(|&v| {
                (ring.variant_profiled[v.index()] > 0)
                    .then_some(([("variant", v.as_str())], ring.realized_ns[v.index()]))
            })
            .collect();
        let realized_refs: Vec<(&[(&str, &str)], u64)> =
            realized.iter().map(|(l, n)| (&l[..], *n)).collect();
        render::gauge_family(
            buf,
            "doacross_profile_realized_critical_ns",
            "Realized critical path (work + waits) of the latest profiled solve, by variant.",
            &realized_refs,
        );
        let priced: Vec<([(&str, &str); 1], u64)> = ObsVariant::ALL
            .iter()
            .filter_map(|&v| {
                let n = ring.priced_ns[v.index()];
                (ring.variant_profiled[v.index()] > 0 && n != u64::MAX)
                    .then_some(([("variant", v.as_str())], n))
            })
            .collect();
        // An uncalibrated engine has no honest unit to price in: the
        // family is omitted entirely rather than scraped empty.
        if !priced.is_empty() {
            let priced_refs: Vec<(&[(&str, &str)], u64)> =
                priced.iter().map(|(l, n)| (&l[..], *n)).collect();
            render::gauge_family(
                buf,
                "doacross_profile_priced_ns",
                "The plan's priced cost for the latest profiled solve, by variant.",
                &priced_refs,
            );
        }
        let levels = ring.level_histograms();
        let level_labels: Vec<[(&str, &str); 1]> = levels
            .iter()
            .map(|(label, _)| [("level", *label)])
            .collect();
        let level_refs: Vec<(&[(&str, &str)], &HistogramSnapshot)> = levels
            .iter()
            .zip(level_labels.iter())
            .map(|((_, h), labels)| (&labels[..], *h))
            .collect();
        render::histogram_family(
            buf,
            "doacross_profile_barrier_wait_ns",
            "Per-worker barrier wait per wavefront level in nanoseconds (deep levels under level=\"other\").",
            &level_refs,
        );
    }

    /// Renders the retained profiles as Chrome trace-event JSON — loads
    /// directly in Perfetto or `about://tracing`. One process per
    /// profiled solve (named after its sequence number and variant), one
    /// track per worker plus the dispatcher, complete (`"X"`) events with
    /// microsecond timestamps.
    pub fn chrome_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for profile in self.recent() {
            if !first {
                out.push(',');
            }
            first = false;
            let pid = profile.seq;
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"solve {} ({})\"}}}}",
                pid,
                profile.seq,
                profile.variant
            );
            // Spans are already sorted by (worker, start), so timestamps
            // are monotone per track.
            for span in &profile.spans {
                let _ = write!(
                    out,
                    ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{",
                    span.kind.as_str(),
                    pid,
                    span.worker,
                    span.start_ns / 1_000,
                    span.start_ns % 1_000,
                    span.dur_ns / 1_000,
                    span.dur_ns % 1_000,
                );
                if span.level != NO_LEVEL {
                    let _ = write!(out, "\"level\":{},", span.level);
                }
                let _ = write!(out, "\"aux\":{}}}}}", span.aux);
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

/// Structural facts [`validate_chrome_trace`] extracted from a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Complete (`"X"`) events in the trace.
    pub events: usize,
    /// Span count per `(pid, tid)` track.
    pub tracks: BTreeMap<(u64, u64), usize>,
}

/// Structurally validates a Chrome trace produced by
/// [`Profiler::chrome_trace`]: well-formed `traceEvents` array, every
/// event either metadata (`"M"`, named) or complete (`"X"` with `pid`,
/// `tid`, `ts`, `dur` — self-paired, so no begin/end imbalance is
/// possible), and timestamps monotone non-decreasing per track. Returns
/// per-track span counts on success.
pub fn validate_chrome_trace(trace: &str) -> Result<ChromeTraceStats, String> {
    let body = trace
        .strip_prefix("{\"traceEvents\":[")
        .ok_or_else(|| "missing traceEvents header".to_string())?;
    let end = body
        .rfind(']')
        .ok_or_else(|| "missing traceEvents terminator".to_string())?;
    let events_src = &body[..end];

    let mut stats = ChromeTraceStats::default();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut rest = events_src;
    let mut index = 0usize;
    while let Some(open) = rest.find('{') {
        // Balance braces; our renderer never puts braces inside strings.
        let mut depth = 0usize;
        let mut close = None;
        for (i, c) in rest[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(open + i);
                        break;
                    }
                }
                _ => {}
            }
        }
        let close = close.ok_or_else(|| format!("event {index}: unbalanced braces"))?;
        let obj = &rest[open..=close];
        rest = &rest[close + 1..];

        let ph = field_str(obj, "ph").ok_or_else(|| format!("event {index}: missing ph"))?;
        match ph {
            "M" => {
                field_str(obj, "name")
                    .filter(|n| !n.is_empty())
                    .ok_or_else(|| format!("event {index}: unnamed metadata event"))?;
            }
            "X" => {
                let name = field_str(obj, "name")
                    .filter(|n| !n.is_empty())
                    .ok_or_else(|| format!("event {index}: unnamed span"))?;
                if !SpanKind::ALL.iter().any(|k| k.as_str() == name) {
                    return Err(format!("event {index}: unknown span kind {name:?}"));
                }
                let pid =
                    field_u64(obj, "pid").ok_or_else(|| format!("event {index}: missing pid"))?;
                let tid =
                    field_u64(obj, "tid").ok_or_else(|| format!("event {index}: missing tid"))?;
                let ts =
                    field_f64(obj, "ts").ok_or_else(|| format!("event {index}: missing ts"))?;
                let dur =
                    field_f64(obj, "dur").ok_or_else(|| format!("event {index}: missing dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {index}: negative dur"));
                }
                let track = (pid, tid);
                if let Some(&prev) = last_ts.get(&track) {
                    if ts < prev {
                        return Err(format!(
                            "event {index}: ts {ts} regresses below {prev} on track {track:?}"
                        ));
                    }
                }
                last_ts.insert(track, ts);
                *stats.tracks.entry(track).or_insert(0) += 1;
                stats.events += 1;
            }
            other => return Err(format!("event {index}: unexpected ph {other:?}")),
        }
        index += 1;
    }
    Ok(stats)
}

fn field_str<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = obj.find(&pat)? + pat.len();
    let end = obj[start..].find('"')?;
    Some(&obj[start..start + end])
}

fn field_raw<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn field_u64(obj: &str, key: &str) -> Option<u64> {
    field_raw(obj, key)?.parse().ok()
}

fn field_f64(obj: &str, key: &str) -> Option<f64> {
    field_raw(obj, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> FpId {
        FpId(0xfeed, 0xbeef)
    }

    impl ProfArena {
        /// Spans dropped (bounding) since the last [`ProfArena::take`].
        fn dropped(&self) -> u64 {
            self.dropped.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn arena_bounds_each_worker_and_counts_drops() {
        let arena = ProfArena::new(2, 4);
        for i in 0..10 {
            arena.record(0, SpanKind::Work, NO_LEVEL, i, 1, 0);
        }
        arena.record(1, SpanKind::FlagWait, NO_LEVEL, 0, 5, 3);
        assert_eq!(arena.dropped(), 6);
        let (spans, dropped) = arena.take();
        assert_eq!(dropped, 6);
        assert_eq!(spans.len(), 5);
        // Drop-oldest: worker 0 keeps its newest 4 spans.
        let w0: Vec<u64> = spans
            .iter()
            .filter(|s| s.worker == 0)
            .map(|s| s.start_ns)
            .collect();
        assert_eq!(w0, vec![6, 7, 8, 9]);
        assert_eq!(arena.dropped(), 0, "take() resets the drop counter");
    }

    #[test]
    fn arena_rejects_out_of_range_workers() {
        let arena = ProfArena::new(2, 8);
        arena.record(7, SpanKind::Work, NO_LEVEL, 0, 1, 0);
        assert_eq!(arena.dropped(), 1);
        assert_eq!(arena.take().0.len(), 0);
    }

    #[test]
    fn harvest_attributes_kinds_and_reconstructs_the_critical_path() {
        let prof = Profiler::new(1, 2);
        let arena = prof.arena(0);
        // Worker 0: 100ns work (with a nested 30ns flag wait), then 20ns
        // at the barrier. Worker 1: 50ns work, 70ns barrier. Dispatcher
        // waited 10ns.
        arena.record(0, SpanKind::Work, 0, 1000, 100, 8);
        arena.record(0, SpanKind::FlagWait, 0, 1040, 30, 12);
        arena.record(0, SpanKind::BarrierWait, 0, 1100, 20, 0);
        arena.record(1, SpanKind::Work, 0, 1000, 50, 4);
        arena.record(1, SpanKind::BarrierWait, 0, 1050, 70, 0);
        arena.record_dispatch(990, 10);
        let summary = prof.harvest(
            SpanSource::Arena(0),
            fp(),
            ObsVariant::Wavefront,
            130,
            Some(125.0),
        );
        assert_eq!(summary.work_ns, 150);
        assert_eq!(summary.flag_wait_ns, 30);
        assert_eq!(summary.barrier_wait_ns, 90);
        assert_eq!(summary.dispatch_wait_ns, 10);
        assert_eq!(summary.spans, 6);
        assert_eq!(summary.dropped, 0);
        // Chains: w0 = 100 + 20 = 120, w1 = 50 + 70 = 120; + dispatch 10.
        assert_eq!(summary.realized_critical_ns, 130);

        let profiles = prof.recent();
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.variant, ObsVariant::Wavefront);
        assert_eq!(p.priced_ns, Some(125.0));
        // Re-based: earliest span (dispatch at 990) starts at 0.
        assert_eq!(p.spans.iter().map(|s| s.start_ns).min(), Some(0));
        assert_eq!(p.realized_critical_ns, 130);
    }

    #[test]
    fn a_caller_harvest_is_one_work_span_and_leaves_the_arenas_alone() {
        let prof = Profiler::new(2, 4);
        prof.arena(0).record(1, SpanKind::Work, NO_LEVEL, 5, 7, 1);
        let summary = prof.harvest(
            SpanSource::Caller { iterations: 40 },
            fp(),
            ObsVariant::Sequential,
            900,
            None,
        );
        assert_eq!(summary.work_ns, 900);
        assert_eq!(summary.realized_critical_ns, 900);
        assert_eq!((summary.spans, summary.dropped), (1, 0));
        let p = prof.recent().pop().unwrap();
        assert_eq!((p.pool, p.workers), (None, 1));
        assert_eq!(p.kind_spans, [1, 0, 0, 0]);
        let work = ProfSpan {
            worker: 0,
            kind: SpanKind::Work,
            level: NO_LEVEL,
            start_ns: 0,
            dur_ns: 900,
            aux: 40,
        };
        assert_eq!(p.spans, [work]);
        assert_eq!(prof.arena(0).take().0.len(), 1, "the arena was not drained");
    }

    #[test]
    fn ring_is_bounded_drop_oldest() {
        let prof = Profiler::new(1, 1);
        let solves = RING as u64 + 3;
        for i in 0..solves {
            prof.arena(0).record(0, SpanKind::Work, NO_LEVEL, i, 1, 1);
            prof.harvest(SpanSource::Arena(0), fp(), ObsVariant::Doacross, 1, None);
        }
        let recent = prof.recent();
        assert_eq!(recent.len(), RING);
        assert_eq!(recent[0].seq, 3);
        assert_eq!(recent[RING - 1].seq, solves - 1);
        assert_eq!(lock(&prof.ring).solves, solves);
    }

    #[test]
    fn deep_levels_collapse_under_other() {
        let prof = Profiler::new(1, 1);
        let arena = prof.arena(0);
        arena.record(0, SpanKind::BarrierWait, 0, 0, 10, 0);
        arena.record(0, SpanKind::BarrierWait, 15, 10, 10, 0);
        arena.record(0, SpanKind::BarrierWait, 16, 20, 10, 0);
        arena.record(0, SpanKind::BarrierWait, 40, 30, 10, 0);
        prof.harvest(SpanSource::Arena(0), fp(), ObsVariant::Wavefront, 40, None);
        let ring = lock(&prof.ring);
        let levels = ring.level_histograms();
        let labels: Vec<&str> = levels.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["0", "15", "other"]);
        assert_eq!(levels[2].1.count, 2, "levels 16 and 40 both collapse");
        drop(ring);

        let mut buf = String::new();
        prof.render_prometheus(&mut buf);
        assert!(buf.contains("doacross_profile_barrier_wait_ns_count{level=\"other\"} 2"));
    }

    #[test]
    fn prometheus_families_render_only_after_a_profile() {
        let prof = Profiler::new(1, 1);
        let mut quiet = String::new();
        prof.render_prometheus(&mut quiet);
        assert!(quiet.is_empty(), "armed-but-idle renders nothing");

        prof.arena(0).record(0, SpanKind::Work, NO_LEVEL, 0, 42, 7);
        prof.harvest(
            SpanSource::Arena(0),
            fp(),
            ObsVariant::Doacross,
            42,
            Some(40.0),
        );
        let mut buf = String::new();
        prof.render_prometheus(&mut buf);
        assert!(buf.contains("doacross_profile_solves_total 1"));
        assert!(buf.contains("doacross_profile_spans_total{kind=\"work\"} 1"));
        assert!(buf.contains("doacross_profile_realized_critical_ns{variant=\"doacross\"} 42"));
        assert!(buf.contains("doacross_profile_priced_ns{variant=\"doacross\"} 40"));
    }

    #[test]
    fn chrome_trace_is_structurally_valid_with_one_track_per_worker() {
        let prof = Profiler::new(1, 2);
        let arena = prof.arena(0);
        arena.record(0, SpanKind::Work, 0, 100, 50, 3);
        arena.record(0, SpanKind::BarrierWait, 0, 150, 5, 0);
        arena.record(1, SpanKind::Work, 0, 100, 40, 2);
        arena.record(1, SpanKind::BarrierWait, 0, 140, 15, 0);
        prof.harvest(SpanSource::Arena(0), fp(), ObsVariant::Wavefront, 60, None);
        let trace = prof.chrome_trace();
        let stats = validate_chrome_trace(&trace).expect("trace must validate");
        assert_eq!(stats.events, 4);
        assert_eq!(stats.tracks.len(), 2, "one track per worker");
        assert!(stats.tracks.values().all(|&n| n == 2));
    }

    #[test]
    fn chrome_trace_validator_rejects_regressions() {
        assert!(validate_chrome_trace("not a trace").is_err());
        let bad_ts = "{\"traceEvents\":[\
            {\"name\":\"work\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":5.000,\"dur\":1.000,\"args\":{\"aux\":0}},\
            {\"name\":\"work\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":2.000,\"dur\":1.000,\"args\":{\"aux\":0}}\
            ],\"displayTimeUnit\":\"ns\"}";
        let err = validate_chrome_trace(bad_ts).expect_err("regressing ts must fail");
        assert!(err.contains("regresses"), "{err}");
        let bad_kind = "{\"traceEvents\":[\
            {\"name\":\"mystery\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":1.000,\"dur\":1.000,\"args\":{\"aux\":0}}\
            ],\"displayTimeUnit\":\"ns\"}";
        assert!(validate_chrome_trace(bad_kind).is_err());
    }
}
