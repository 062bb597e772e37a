//! [`VariantTelemetry`]: the lock-light per-`(structure, variant)` solve
//! recorder.
//!
//! Every plan execution deposits one [`SolveSample`] — observed wall time,
//! busy-wait polls, barrier crossings — keyed by the structure's
//! [`PatternFingerprint`] and the executed variant family, an
//! [`ObsVariant`] (a `PlanVariant`'s payloads — linear subscript, block
//! size — are functions of the structure, which the fingerprint already
//! pins). The recorder keeps, per key, an exponentially-weighted moving
//! average, the observed minimum (the noise-robust "how fast can this
//! variant actually go" estimate), exact counts, and the running sums of a
//! polls-vs-nanoseconds regression — the raw material [`crate::refine`]
//! turns into measured cost-model constants.
//!
//! "Lock-light" means sharded short critical sections, exactly like the
//! engine's plan cache: keys route to one of `N` mutex-guarded maps by
//! their fingerprint's high bits, so concurrent recorders contend only
//! when their structures share a shard, and a record is a handful of adds
//! under a lock held for nanoseconds — three orders of magnitude below the
//! solves being recorded. No allocation happens in steady state (an entry
//! allocates once, on its first sample).

use doacross_obs::{FpMap, ObsVariant};
use doacross_plan::{PatternFingerprint, StoredTelemetry};
use parking_lot::Mutex;

/// Weight of the newest sample in the per-entry moving average. 0.2 keeps
/// roughly the last ~10 solves in view: fast enough to track a phase
/// change, slow enough that one preempted solve cannot trigger the policy.
pub const EWMA_ALPHA: f64 = 0.2;

/// Minimum samples (and poll-count spread) before
/// [`TelemetryEntry::poll_slope_ns`] reports a regression slope.
pub const MIN_SLOPE_SAMPLES: u64 = 4;

/// One observed solve, as deposited by the engine after an execution.
#[derive(Debug, Clone, Copy)]
pub struct SolveSample {
    /// Observed end-to-end wall time, nanoseconds.
    pub ns: u64,
    /// Failed `ready` polls this solve performed.
    pub wait_polls: u64,
    /// Spin-barrier crossings per solve (`levels − 1` for a wavefront
    /// plan, 0 elsewhere) — a structure constant, recorded for the
    /// refinement arithmetic.
    pub barriers: u64,
    /// References per solve (the census total) — likewise a constant.
    pub terms: u64,
    /// The variant's predicted per-solve cost, model units.
    pub pred_units: f64,
    /// The synchronization-free part of that prediction (no flag checks,
    /// no stalls, no barriers), model units.
    pub work_units: f64,
}

/// The accumulated state of one `(fingerprint, variant)` key. Also the
/// snapshot type: reads return a copy, so consumers never hold a shard
/// lock while thinking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryEntry {
    /// Solves recorded.
    pub samples: u64,
    /// EWMA of per-solve wall time ([`EWMA_ALPHA`]), nanoseconds.
    pub ewma_ns: f64,
    /// Fastest observed solve, nanoseconds.
    pub min_ns: u64,
    /// Most recent solve, nanoseconds.
    pub last_ns: u64,
    /// Total failed polls across all samples.
    pub wait_polls: u64,
    /// Barrier crossings per solve (structure constant; latest value).
    pub barriers: u64,
    /// References per solve (structure constant; latest value).
    pub terms: u64,
    /// Predicted per-solve cost (model units; latest value).
    pub pred_units: f64,
    /// Synchronization-free predicted cost (model units; latest value).
    pub work_units: f64,
    /// Poll-cost regression: Σ polls.
    pub sum_polls: f64,
    /// Poll-cost regression: Σ polls².
    pub sum_polls_sq: f64,
    /// Poll-cost regression: Σ ns.
    pub sum_ns: f64,
    /// Poll-cost regression: Σ polls·ns.
    pub sum_polls_ns: f64,
}

impl TelemetryEntry {
    fn new(sample: &SolveSample) -> Self {
        let mut entry = Self {
            samples: 0,
            ewma_ns: sample.ns as f64,
            min_ns: u64::MAX,
            last_ns: 0,
            wait_polls: 0,
            barriers: sample.barriers,
            terms: sample.terms,
            pred_units: sample.pred_units,
            work_units: sample.work_units,
            sum_polls: 0.0,
            sum_polls_sq: 0.0,
            sum_ns: 0.0,
            sum_polls_ns: 0.0,
        };
        entry.record(sample);
        entry
    }

    fn record(&mut self, sample: &SolveSample) {
        self.samples += 1;
        self.ewma_ns += EWMA_ALPHA * (sample.ns as f64 - self.ewma_ns);
        self.min_ns = self.min_ns.min(sample.ns);
        self.last_ns = sample.ns;
        self.wait_polls += sample.wait_polls;
        self.barriers = sample.barriers;
        self.terms = sample.terms;
        self.pred_units = sample.pred_units;
        self.work_units = sample.work_units;
        let polls = sample.wait_polls as f64;
        let ns = sample.ns as f64;
        self.sum_polls += polls;
        self.sum_polls_sq += polls * polls;
        self.sum_ns += ns;
        self.sum_polls_ns += polls * ns;
    }

    /// Least-squares slope of per-solve nanoseconds over per-solve poll
    /// counts — the *measured* cost of one busy-wait poll, model-free:
    /// solves of the same structure differ in how often readers caught
    /// their writers unfinished, and the slope is what each extra poll
    /// cost. `None` until [`MIN_SLOPE_SAMPLES`] solves exist, the poll
    /// counts actually varied, and the slope came out non-negative (a
    /// negative slope means scheduling noise dominated, not that polls
    /// have negative cost).
    pub fn poll_slope_ns(&self) -> Option<f64> {
        if self.samples < MIN_SLOPE_SAMPLES {
            return None;
        }
        let k = self.samples as f64;
        let denominator = k * self.sum_polls_sq - self.sum_polls * self.sum_polls;
        if denominator <= f64::EPSILON * k * self.sum_polls_sq.max(1.0) {
            return None; // poll counts never varied
        }
        let slope = (k * self.sum_polls_ns - self.sum_polls * self.sum_ns) / denominator;
        (slope.is_finite() && slope >= 0.0).then_some(slope)
    }

    /// Converts to the persistence mirror (`doacross_plan::persist`).
    pub fn to_stored(&self, fingerprint: PatternFingerprint, kind: ObsVariant) -> StoredTelemetry {
        StoredTelemetry {
            fingerprint,
            variant: kind.index() as u8,
            samples: self.samples,
            ewma_ns: self.ewma_ns,
            min_ns: self.min_ns,
            last_ns: self.last_ns,
            wait_polls: self.wait_polls,
            barriers: self.barriers,
            terms: self.terms,
            pred_units: self.pred_units,
            work_units: self.work_units,
            sum_polls: self.sum_polls,
            sum_polls_sq: self.sum_polls_sq,
            sum_ns: self.sum_ns,
            sum_polls_ns: self.sum_polls_ns,
        }
    }

    /// Reconstructs from the persistence mirror; `None` for a tag this
    /// build does not know.
    pub fn from_stored(stored: &StoredTelemetry) -> Option<(PatternFingerprint, ObsVariant, Self)> {
        let kind = *ObsVariant::ALL.get(usize::from(stored.variant))?;
        Some((
            stored.fingerprint,
            kind,
            Self {
                samples: stored.samples,
                ewma_ns: stored.ewma_ns,
                min_ns: stored.min_ns,
                last_ns: stored.last_ns,
                wait_polls: stored.wait_polls,
                barriers: stored.barriers,
                terms: stored.terms,
                pred_units: stored.pred_units,
                work_units: stored.work_units,
                sum_polls: stored.sum_polls,
                sum_polls_sq: stored.sum_polls_sq,
                sum_ns: stored.sum_ns,
                sum_polls_ns: stored.sum_polls_ns,
            },
        ))
    }
}

/// Engine-wide aggregate counts, for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryTotals {
    /// Total solves recorded across all keys.
    pub samples: u64,
    /// Distinct `(structure, variant)` keys.
    pub entries: usize,
    /// Distinct structures.
    pub structures: usize,
}

/// One shard's accumulators, keyed by `(structure, variant)` and hashed
/// with the fingerprint-map hasher (`doacross_obs::FpBuildHasher`).
type TelemetryShard = FpMap<(PatternFingerprint, ObsVariant), TelemetryEntry>;

/// One telemetry row: which structure, which variant, what was observed.
pub type TelemetryRow = (PatternFingerprint, ObsVariant, TelemetryEntry);

/// The sharded recorder (see module docs). All methods take `&self`.
pub struct VariantTelemetry {
    shards: Box<[Mutex<TelemetryShard>]>,
    /// `64 − log2(shards.len())`: shard index = fingerprint high bits.
    shift: u32,
}

impl VariantTelemetry {
    /// Recorder with `shards` shards (rounded up to a power of two,
    /// minimum 1). Use the same shard count as the plan cache so the two
    /// contend identically.
    pub fn new(shards: usize) -> Self {
        let nshards = shards.max(1).next_power_of_two();
        Self {
            shards: (0..nshards).map(|_| Mutex::new(FpMap::default())).collect(),
            shift: 64 - nshards.trailing_zeros(),
        }
    }

    fn shard(&self, key: &PatternFingerprint) -> &Mutex<TelemetryShard> {
        let index = if self.shards.len() == 1 {
            0
        } else {
            (key.high_bits() >> self.shift) as usize
        };
        &self.shards[index]
    }

    /// Deposits one solve under `(fingerprint, kind)` and returns the
    /// updated accumulator — what a [`VariantTelemetry::get`] right after
    /// would return, without the second lookup.
    pub fn record(
        &self,
        fingerprint: &PatternFingerprint,
        kind: ObsVariant,
        sample: SolveSample,
    ) -> TelemetryEntry {
        let mut shard = self.shard(fingerprint).lock();
        match shard.entry((*fingerprint, kind)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().record(&sample);
                *e.get()
            }
            std::collections::hash_map::Entry::Vacant(e) => *e.insert(TelemetryEntry::new(&sample)),
        }
    }

    /// Snapshot of one key's accumulator.
    pub fn get(
        &self,
        fingerprint: &PatternFingerprint,
        kind: ObsVariant,
    ) -> Option<TelemetryEntry> {
        self.shard(fingerprint)
            .lock()
            .get(&(*fingerprint, kind))
            .copied()
    }

    /// Snapshot of every key's accumulator. Shards are locked one at a
    /// time — each entry is internally consistent, the vector is not a
    /// global atomic cut (the same contract as the plan cache's stats).
    pub fn entries(&self) -> Vec<TelemetryRow> {
        let mut out = Vec::new();
        self.entries_into(&mut out);
        out
    }

    /// [`VariantTelemetry::entries`] into a buffer the caller owns and
    /// reuses (cleared first): once it has grown to the number of keys, a
    /// snapshot allocates nothing.
    pub fn entries_into(&self, out: &mut Vec<TelemetryRow>) {
        out.clear();
        for shard in self.shards.iter() {
            for (&(fp, kind), entry) in shard.lock().iter() {
                out.push((fp, kind, *entry));
            }
        }
        // Deterministic order for consumers and tests (HashMap iteration
        // order is not) — raw fingerprint words are the allocation-free
        // total order, and keys are unique, so an in-place unstable sort
        // orders exactly like a stable one.
        out.sort_unstable_by_key(|(fp, kind, _)| (fp.to_raw(), kind.index()));
    }

    /// Engine-wide aggregate counts. Sums shard by shard — no snapshot
    /// vector, no sorting (this runs on observability paths callers may
    /// hit per solve).
    pub fn totals(&self) -> TelemetryTotals {
        let mut totals = TelemetryTotals::default();
        let mut structures = std::collections::HashSet::new();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            totals.entries += shard.len();
            for (&(fp, _), entry) in shard.iter() {
                totals.samples += entry.samples;
                structures.insert(fp);
            }
        }
        totals.structures = structures.len();
        totals
    }

    /// Restores a persisted accumulator. When the key already holds live
    /// samples, the restore is dropped if it carries fewer — live evidence
    /// from *this* process beats a snapshot of a previous one, and a
    /// double restore is idempotent.
    pub fn restore(
        &self,
        fingerprint: PatternFingerprint,
        kind: ObsVariant,
        entry: TelemetryEntry,
    ) -> bool {
        if entry.samples == 0 {
            return false;
        }
        let mut shard = self.shard(&fingerprint).lock();
        match shard.entry((fingerprint, kind)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if e.get().samples < entry.samples {
                    e.insert(entry);
                    true
                } else {
                    false
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(entry);
                true
            }
        }
    }

    /// Drops every accumulator of one structure (all variants) — used on
    /// invalidation, when the caller asserts the structure's index arrays
    /// changed and the observations no longer describe it.
    pub fn forget(&self, fingerprint: &PatternFingerprint) {
        self.shard(fingerprint)
            .lock()
            .retain(|(fp, _), _| fp != fingerprint);
    }
}

impl std::fmt::Debug for VariantTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let totals = self.totals();
        f.debug_struct("VariantTelemetry")
            .field("shards", &self.shards.len())
            .field("totals", &totals)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn fp(n: usize) -> PatternFingerprint {
        use doacross_core::IndirectLoop;
        let a: Vec<usize> = (0..n).collect();
        PatternFingerprint::of(&IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap())
    }

    fn sample(ns: u64, polls: u64) -> SolveSample {
        SolveSample {
            ns,
            wait_polls: polls,
            barriers: 0,
            terms: 100,
            pred_units: 500.0,
            work_units: 450.0,
        }
    }

    #[test]
    fn kind_tags_round_trip_and_match_persist_tags() {
        // The stored tag is the family's index — the plan record's variant
        // tag, so telemetry and plan records name families alike.
        let key = fp(3);
        for kind in ObsVariant::ALL {
            let stored = TelemetryEntry::new(&sample(1, 0)).to_stored(key, kind);
            assert_eq!(TelemetryEntry::from_stored(&stored).unwrap().1, kind);
        }
        let stored = TelemetryEntry::new(&sample(1, 0)).to_stored(key, ObsVariant::Wavefront);
        assert_eq!(stored.variant, 5);
        let unknown = StoredTelemetry {
            variant: 6,
            ..stored
        };
        assert!(TelemetryEntry::from_stored(&unknown).is_none());
        assert_eq!(
            ObsVariant::from(doacross_plan::PlanVariant::Blocked { block_size: 4 }),
            ObsVariant::Blocked
        );
    }

    #[test]
    fn entry_tracks_ewma_min_count() {
        let telemetry = VariantTelemetry::new(4);
        let key = fp(10);
        for (ns, polls) in [(100u64, 0u64), (300, 10), (200, 5)] {
            telemetry.record(&key, ObsVariant::Doacross, sample(ns, polls));
        }
        let e = telemetry.get(&key, ObsVariant::Doacross).unwrap();
        assert_eq!(e.samples, 3);
        assert_eq!(e.min_ns, 100);
        assert_eq!(e.last_ns, 200);
        assert_eq!(e.wait_polls, 15);
        assert!(e.ewma_ns >= 100.0 && e.ewma_ns <= 300.0, "{}", e.ewma_ns);
        assert_eq!(telemetry.get(&key, ObsVariant::Wavefront), None);

        let totals = telemetry.totals();
        assert_eq!(totals.samples, 3);
        assert_eq!(totals.entries, 1);
        assert_eq!(totals.structures, 1);
    }

    #[test]
    fn poll_slope_recovers_a_synthetic_poll_cost() {
        // ns = 1000 + 7·polls, exactly: the regression must return 7.
        let telemetry = VariantTelemetry::new(1);
        let key = fp(7);
        for polls in [0u64, 10, 20, 40, 80] {
            telemetry.record(&key, ObsVariant::Doacross, sample(1_000 + 7 * polls, polls));
        }
        let e = telemetry.get(&key, ObsVariant::Doacross).unwrap();
        let slope = e.poll_slope_ns().expect("varying polls, enough samples");
        assert!((slope - 7.0).abs() < 1e-6, "{slope}");

        // Constant poll counts carry no slope information.
        let flat = fp(8);
        for _ in 0..6 {
            telemetry.record(&flat, ObsVariant::Doacross, sample(1_000, 5));
        }
        assert_eq!(
            telemetry
                .get(&flat, ObsVariant::Doacross)
                .unwrap()
                .poll_slope_ns(),
            None
        );
    }

    #[test]
    fn stored_round_trip_preserves_every_field() {
        let telemetry = VariantTelemetry::new(2);
        let key = fp(5);
        for polls in [3u64, 9, 1] {
            telemetry.record(&key, ObsVariant::Reordered, sample(2_000 + polls, polls));
        }
        let entry = telemetry.get(&key, ObsVariant::Reordered).unwrap();
        let stored = entry.to_stored(key, ObsVariant::Reordered);
        let (fp2, kind2, back) = TelemetryEntry::from_stored(&stored).unwrap();
        assert_eq!(fp2, key);
        assert_eq!(kind2, ObsVariant::Reordered);
        assert_eq!(back, entry);
    }

    #[test]
    fn restore_prefers_live_evidence_and_is_idempotent() {
        let telemetry = VariantTelemetry::new(1);
        let key = fp(6);
        for _ in 0..5 {
            telemetry.record(&key, ObsVariant::Linear, sample(900, 0));
        }
        let live = telemetry.get(&key, ObsVariant::Linear).unwrap();

        // A snapshot with fewer samples never displaces live state.
        let mut stale = live;
        stale.samples = 2;
        stale.min_ns = 1; // would corrupt the minimum if accepted
        assert!(!telemetry.restore(key, ObsVariant::Linear, stale));
        assert_eq!(telemetry.get(&key, ObsVariant::Linear).unwrap(), live);

        // A richer snapshot wins; restoring it twice changes nothing.
        let mut richer = live;
        richer.samples = 50;
        assert!(telemetry.restore(key, ObsVariant::Linear, richer));
        assert!(!telemetry.restore(key, ObsVariant::Linear, richer));
        assert_eq!(telemetry.get(&key, ObsVariant::Linear).unwrap(), richer);

        // Empty snapshots are dropped outright.
        let mut empty = live;
        empty.samples = 0;
        assert!(!telemetry.restore(fp(60), ObsVariant::Linear, empty));
    }

    #[test]
    fn concurrent_recorders_keep_exact_counts_and_bounds() {
        // 4 threads × 250 samples over 8 structures: counts and sums are
        // exact (mutex-guarded adds are associative), the minimum is the
        // true minimum, and every EWMA stays inside the sample hull.
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 250;
        let telemetry = Arc::new(VariantTelemetry::new(4));
        let keys: Arc<Vec<PatternFingerprint>> = Arc::new((1..=8).map(fp).collect());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let telemetry = Arc::clone(&telemetry);
                let keys = Arc::clone(&keys);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let key = &keys[(t + i) as usize % keys.len()];
                        let ns = 1_000 + (t * 37 + i * 13) % 500;
                        telemetry.record(key, ObsVariant::Doacross, sample(ns, i % 7));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let totals = telemetry.totals();
        assert_eq!(totals.samples, THREADS * PER_THREAD);
        assert_eq!(totals.structures, 8);
        for (_, _, e) in telemetry.entries() {
            assert!(e.min_ns >= 1_000 && e.min_ns < 1_500);
            assert!(e.ewma_ns >= e.min_ns as f64);
            assert!(e.ewma_ns < 1_500.0);
        }
    }
}
