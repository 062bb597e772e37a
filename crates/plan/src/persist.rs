//! Durable execution plans: a versioned binary codec and warm-start
//! snapshots.
//!
//! The paper's amortization argument ("the preprocessing phase needs to be
//! performed just once", §2.1) is only as good as the lifetime of the
//! artifact — and until this module, that lifetime ended with the process.
//! A service restart threw away every claim stream and census, and the
//! first request after a deploy paid full preprocessing again.
//! Persistence closes the loop: a [`PlanStore`]
//! captures a cache's resident [`ExecutionPlan`]s (recency-preserving,
//! generation-aware), serializes them with a hand-rolled, self-describing
//! binary codec, and can warm-start a fresh cache so the first solve after
//! a restart is a cache hit.
//!
//! ## Format
//!
//! A store is a single blob:
//!
//! ```text
//! magic "DOAXPLAN" (8 bytes)
//! format version   (u32 LE)                    — see `FORMAT_VERSION`
//! generation table (count + fingerprint, gen)  — nonzero generations only
//! plan records     (count + per record: generation, length, plan bytes)
//! checksum         (u64 LE, four-lane FNV-1a over everything above)
//! ```
//!
//! All integers are little-endian and fixed-width; plan records are
//! length-prefixed so a reader can skip what it cannot use. Plans are
//! ordered most-recently-used first (per shard, for sharded caches), so a
//! restore can rebuild the LRU recency exactly.
//!
//! ## Trust model
//!
//! A store is *data*, not *truth*. Loading never assumes the bytes are
//! well-formed:
//!
//! 1. magic and version are checked first (typed
//!    [`PersistError::BadMagic`] / [`PersistError::UnsupportedVersion`]);
//! 2. the whole-blob checksum is verified before any record is parsed
//!    ([`PersistError::ChecksumMismatch`] on any bit flip, truncations
//!    surface as [`PersistError::Truncated`]);
//! 3. every record parses, its own fields agree, then
//!    [`ExecutionPlan::verify_artifacts`] judges it. The codec checks only
//!    what a record can get wrong on its own ([`PersistError::Structural`]):
//!    the variant tag against the subscript section, a nonzero stride, a
//!    claim stream that rebuilds through [`ClaimStream::from_parts`] (order
//!    a permutation, ends covering the classes if it has any, levels
//!    strictly increasing, every count within `u32`), the census shape
//!    against the fingerprint, at least one processor, the features
//!    section's bounds, and a record consumed exactly. Whether the artifact
//!    fits its variant and its census is the verifier's call, the same
//!    rules every built plan answers to ([`PersistError::Unsound`]).
//!
//! Decoding therefore never panics and never yields a plan the executor
//! could misbehave on; the worst a corrupt store can do is fail with a
//! typed error and leave the cache cold.
//!
//! A store carries structure, not decisions: no cost model travels with
//! it, and the engine that loads it restores a plan only when its own
//! model selects the plan's variant ([`crate::planner::selection`]).

use crate::census::PlanCensus;
use crate::fingerprint::PatternFingerprint;
use crate::fnv;
use crate::plan::{ExecutionPlan, PlanFeatures, PlanVariant, VariantCosts};
use doacross_core::{ClaimStream, LinearSubscript};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// File magic: identifies a blob as a doacross plan store.
const MAGIC: [u8; 8] = *b"DOAXPLAN";

/// Current store format version.
///
/// Policy: any change to the byte layout — field order, widths, new
/// variants, new sections — bumps this number. Loaders accept exactly the
/// versions they know how to parse and reject everything else with
/// [`PersistError::UnsupportedVersion`]; there is no in-place migration
/// (a rejected store simply means a cold start, after which a fresh save
/// writes the current version). The fingerprint hash function is part of
/// the implicit format: changing it orphans stored plans (their keys no
/// longer match any live pattern) rather than corrupting them, so it does
/// not require a version bump — but bumping anyway is kinder to disk
/// space.
///
/// History: **v2** added the wavefront variant (a level-schedule section
/// in every record and a wavefront candidate price), changing the record
/// layout. **v3** appended two sections after the plan records — an
/// optional host-calibration block and a variant-telemetry table — so a
/// warm-started engine resumed with its learned cost constants instead of
/// re-measuring and re-observing from scratch.
/// **v4** replaced the three artifact sections of a plan record (writer
/// map, claim order, level schedule — `u64` fields) with one claim-stream
/// section (`u32` fields: optional order, ends, class bytes, optional
/// level offsets). **v5** changed both hashes
/// the store carries, with the byte layout unchanged: fingerprints (the
/// store's keys) hash each stream over four lanes, and the checksum
/// absorbs a word at a time over the same lanes, plus the byte length.
/// **v6** stores what a plan's prices were computed from: an optional
/// features section after the candidate prices (two stall weights and the
/// wavefront rounds, [`crate::PlanFeatures`]), validated on load; the
/// census lost its derived average parallelism and its out-of-bounds
/// record, which no built plan ever carried. **v7** dropped the telemetry
/// table (adaptive telemetry lives in the engine's memory only, and a
/// restarted engine observes afresh) and the linear tag's `(c, d)`
/// payload: a linear plan's subscript is stored once, in the record's
/// detected-subscript section, which the tag then requires. **v8** made
/// the claim stream's class bytes optional (a flag, then the count and
/// bytes only when set): a stream whose every reference is a true
/// dependence stores none. **v9** dropped the strip-mined variant: its tag
/// (the wavefront's tag is now 4) and block-size payload, the census's
/// duplicate-write gap and the candidate price between the reordered and
/// the wavefront ones. **v10** dropped the host-calibration block: a
/// store's cost model priced another process's decisions, and every
/// process now prices with its own; the plan records are unchanged. v1–v9
/// stores are rejected per the policy above.
const FORMAT_VERSION: u32 = 10;

/// Reasons a store cannot be written, read, or trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The blob ends before a field it promises.
    Truncated {
        /// Bytes the next field needs.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The blob does not start with the `DOAXPLAN` magic — not a plan
    /// store.
    BadMagic,
    /// The store was written by a format this reader does not parse.
    UnsupportedVersion {
        /// Version found in the store.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The blob's bytes do not match its recorded checksum.
    ChecksumMismatch {
        /// Checksum recorded in the store.
        stored: u64,
        /// Checksum of the bytes actually read.
        computed: u64,
    },
    /// A field decoded to a value no encoder produces (bad tag, bad bool,
    /// trailing bytes).
    Malformed(String),
    /// The record parsed, but its own fields contradict each other: a
    /// linear tag without its subscript, a zero stride, claim-stream parts
    /// [`ClaimStream::from_parts`] rejects (an order that is not a
    /// permutation, ends that do not cover the class bytes, a class byte no
    /// encoder writes), a census that disagrees with its fingerprint, zero
    /// processors, or a features section out of its bounds. The plan is
    /// rejected rather than trusted.
    Structural(String),
    /// The record parsed and its fields agree, but the plan fails
    /// [`ExecutionPlan::verify_artifacts`], the one judge of an artifact
    /// against its variant and census: a stream missing or present where
    /// the variant runs none, a stream shaped for another variant (an
    /// order, level offsets), a level count off the critical path, class
    /// counts or a classification that disagree with the census, a
    /// non-injective census under a parallel variant, a linear subscript
    /// out of bounds. Typed separately from [`PersistError::Structural`]
    /// so callers can tell a corrupted encoding from a plan that is
    /// well-formed yet wrong.
    Unsound(doacross_verify::SoundnessViolation),
    /// No store exists at the given path — distinguished from other IO
    /// failures because a missing store is the normal first-boot state,
    /// which warm-start callers treat as a clean cold start.
    NotFound,
    /// The underlying file operation failed (message of the IO error).
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated { needed, available } => write!(
                f,
                "plan store truncated: next field needs {needed} bytes, {available} remain"
            ),
            PersistError::BadMagic => write!(f, "not a plan store (bad magic)"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "plan store format version {found} is not supported (this build reads {supported})"
            ),
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "plan store checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            ),
            PersistError::Malformed(what) => write!(f, "malformed plan store: {what}"),
            PersistError::Structural(what) => {
                write!(f, "plan store failed structural revalidation: {what}")
            }
            PersistError::Unsound(violation) => {
                write!(
                    f,
                    "persisted plan failed soundness verification: {violation}"
                )
            }
            PersistError::NotFound => write!(f, "plan store not found"),
            PersistError::Io(what) => write!(f, "plan store io error: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Unsound(violation) => Some(violation),
            _ => None,
        }
    }
}

impl From<doacross_verify::SoundnessViolation> for PersistError {
    fn from(violation: doacross_verify::SoundnessViolation) -> Self {
        PersistError::Unsound(violation)
    }
}

impl From<std::io::Error> for PersistError {
    fn from(err: std::io::Error) -> Self {
        if err.kind() == std::io::ErrorKind::NotFound {
            PersistError::NotFound
        } else {
            PersistError::Io(err.to_string())
        }
    }
}

/// Failpoint site consulted at the top of [`PlanStore::save`]: a
/// `Saturate` action injects a typed [`PersistError::Io`] before any
/// bytes touch the filesystem, a `DelayNs` action stretches the save.
const FAILPOINT_SAVE: &str = "plan::persist::save";

/// Failpoint site consulted at the top of [`PlanStore::load`]
/// (same actions as [`FAILPOINT_SAVE`], injected before the read).
const FAILPOINT_LOAD: &str = "plan::persist::load";

// ---------------------------------------------------------------------
// Little-endian primitives.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    put_u64(out, values.len() as u64);
    for &v in values {
        put_u32(out, v);
    }
}

fn put_opt_u32s(out: &mut Vec<u8>, values: Option<&[u32]>) {
    put_bool(out, values.is_some());
    if let Some(values) = values {
        put_u32s(out, values);
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            put_bool(out, true);
            put_u64(out, v);
        }
        None => put_bool(out, false),
    }
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            put_bool(out, true);
            put_f64(out, v);
        }
        None => put_bool(out, false),
    }
}

/// Bounds-checked cursor over untrusted bytes: every read either yields a
/// value or a typed [`PersistError::Truncated`] — no panics, no silent
/// wraparound.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A counted run of `u32`s — the one array shape of the stream codec.
    fn u32s(&mut self) -> Result<Vec<u32>, PersistError> {
        let count = self.counted(4)?;
        (0..count).map(|_| self.u32()).collect()
    }

    fn opt_u32s(&mut self) -> Result<Option<Vec<u32>>, PersistError> {
        Ok(if self.bool()? {
            Some(self.u32s()?)
        } else {
            None
        })
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, PersistError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PersistError::Malformed(format!(
                "boolean byte {other} (expected 0 or 1)"
            ))),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, PersistError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, PersistError> {
        Ok(if self.bool()? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    /// Reads a count and guards the allocation it implies: the remaining
    /// bytes must cover `count · width`, so a corrupt length cannot drive
    /// an out-of-memory allocation before the bounds check would fail.
    fn counted(&mut self, width: usize) -> Result<usize, PersistError> {
        let count = self.u64()?;
        let count = usize::try_from(count)
            .map_err(|_| PersistError::Malformed(format!("count {count} overflows usize")))?;
        let needed = count
            .checked_mul(width)
            .ok_or_else(|| PersistError::Malformed(format!("count {count} overflows usize")))?;
        if self.remaining() < needed {
            return Err(PersistError::Truncated {
                needed,
                available: self.remaining(),
            });
        }
        Ok(count)
    }

    fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| PersistError::Malformed(format!("value {v} overflows usize")))
    }
}

// ---------------------------------------------------------------------
// Plan record codec.

const TAG_SEQUENTIAL: u8 = 0;
const TAG_DOACROSS: u8 = 1;
const TAG_LINEAR: u8 = 2;
const TAG_REORDERED: u8 = 3;
const TAG_WAVEFRONT: u8 = 4;

/// A claim stream's four parts as the codec writes them: optional order,
/// reference ends, optional level offsets, optional class bytes.
type StreamParts<'a> = (
    Option<&'a [u32]>,
    &'a [u32],
    Option<&'a [u32]>,
    Option<&'a [u8]>,
);

/// Serializes one plan to the record format (no checksum — the enclosing
/// [`PlanStore`] blob carries one for the whole file). The encoding is
/// deterministic: equal plans produce equal bytes, which the round-trip
/// tests exploit.
fn encode_plan(plan: &ExecutionPlan) -> Vec<u8> {
    let stream = plan
        .stream()
        .map(|s| (s.order(), s.ends(), s.level_offsets(), s.classes()));
    encode_record(plan, stream)
}

/// [`encode_plan`] with the stream section given part by part — parts a
/// [`ClaimStream`] would never hold can be written, which is how the tests
/// put a corrupt artifact in front of the decoder.
fn encode_record(plan: &ExecutionPlan, stream: Option<StreamParts<'_>>) -> Vec<u8> {
    let mut out = Vec::new();
    for word in plan.fingerprint().to_raw() {
        put_u64(&mut out, word);
    }
    put_u64(&mut out, plan.processors() as u64);
    match plan.variant() {
        PlanVariant::Sequential => out.push(TAG_SEQUENTIAL),
        PlanVariant::Doacross => out.push(TAG_DOACROSS),
        PlanVariant::Linear(_) => out.push(TAG_LINEAR),
        PlanVariant::Reordered => out.push(TAG_REORDERED),
        PlanVariant::Wavefront => out.push(TAG_WAVEFRONT),
    }
    let census = plan.census();
    put_u64(&mut out, census.iterations as u64);
    put_u64(&mut out, census.data_len as u64);
    put_u64(&mut out, census.total_terms);
    put_u64(&mut out, census.true_deps);
    put_u64(&mut out, census.anti_deps);
    put_u64(&mut out, census.intra);
    put_u64(&mut out, census.unwritten);
    put_opt_u64(&mut out, census.min_true_distance.map(|v| v as u64));
    put_opt_u64(&mut out, census.max_true_distance.map(|v| v as u64));
    put_bool(&mut out, census.injective);
    put_u64(&mut out, census.critical_path as u64);
    // The one artifact section: the claim stream, part by part.
    put_bool(&mut out, stream.is_some());
    if let Some((order, ends, levels, classes)) = stream {
        put_opt_u32s(&mut out, order);
        put_u32s(&mut out, ends);
        put_opt_u32s(&mut out, levels);
        put_bool(&mut out, classes.is_some());
        if let Some(classes) = classes {
            put_u64(&mut out, classes.len() as u64);
            out.extend_from_slice(classes);
        }
    }
    match plan.linear_subscript() {
        Some(s) => {
            put_bool(&mut out, true);
            put_u64(&mut out, s.c as u64);
            put_u64(&mut out, s.d as u64);
        }
        None => put_bool(&mut out, false),
    }
    let costs = plan.costs();
    put_f64(&mut out, costs.sequential);
    put_opt_f64(&mut out, costs.doacross);
    put_opt_f64(&mut out, costs.linear);
    put_opt_f64(&mut out, costs.reordered);
    put_opt_f64(&mut out, costs.wavefront);
    put_bool(&mut out, plan.features().is_some());
    if let Some(features) = plan.features() {
        put_f64(&mut out, features.stall_natural);
        put_f64(&mut out, features.stall_reordered);
        put_u64(&mut out, features.rounds as u64);
    }
    put_u64(
        &mut out,
        u64::try_from(plan.build_time().as_nanos()).unwrap_or(u64::MAX),
    );
    out
}

/// Decodes one plan record (see the module docs' trust model): the record
/// parses, its own fields agree, and it is exactly consumed — trailing
/// bytes are rejected, so a length-prefix mismatch cannot hide. Then
/// [`ExecutionPlan::verify_artifacts`] judges it, the same rules every
/// built plan answers to: a plan whose artifact does not fit its census
/// is refused with a typed violation, never trusted into the cache.
fn decode_plan(bytes: &[u8]) -> Result<ExecutionPlan, PersistError> {
    let mut r = Reader::new(bytes);
    let plan = decode_plan_fields(&mut r)?;
    if r.remaining() != 0 {
        return Err(PersistError::Malformed(format!(
            "{} trailing bytes after plan record",
            r.remaining()
        )));
    }
    plan.verify_artifacts()?;
    Ok(plan)
}

fn structural(what: impl Into<String>) -> PersistError {
    PersistError::Structural(what.into())
}

fn decode_plan_fields(r: &mut Reader<'_>) -> Result<ExecutionPlan, PersistError> {
    let mut raw = [0u64; 5];
    for word in raw.iter_mut() {
        *word = r.u64()?;
    }
    let fingerprint = PatternFingerprint::from_raw(raw)
        .ok_or_else(|| structural("fingerprint counts overflow this host's usize"))?;
    let processors = r.usize()?;

    let tag = r.u8()?;
    let census = PlanCensus {
        iterations: r.usize()?,
        data_len: r.usize()?,
        total_terms: r.u64()?,
        true_deps: r.u64()?,
        anti_deps: r.u64()?,
        intra: r.u64()?,
        unwritten: r.u64()?,
        min_true_distance: r.opt_u64()?.map(|v| v as usize),
        max_true_distance: r.opt_u64()?.map(|v| v as usize),
        injective: r.bool()?,
        critical_path: r.usize()?,
    };
    let stream = if r.bool()? {
        let order = r.opt_u32s()?;
        let ends = r.u32s()?;
        let levels = r.opt_u32s()?;
        let classes = if r.bool()? {
            let count = r.counted(1)?;
            Some(r.take(count)?.to_vec())
        } else {
            None
        };
        let stream = ClaimStream::from_parts(order, ends, classes, levels)
            .ok_or_else(|| structural("claim stream rejected by the core reconstruction"))?;
        Some(stream)
    } else {
        None
    };
    let linear = if r.bool()? {
        match (r.usize()?, r.usize()?) {
            (0, _) => return Err(structural("linear subscript with stride 0")),
            (c, d) => Some(LinearSubscript::new(c, d)),
        }
    } else {
        None
    };
    let variant = match tag {
        TAG_SEQUENTIAL => PlanVariant::Sequential,
        TAG_DOACROSS => PlanVariant::Doacross,
        TAG_REORDERED => PlanVariant::Reordered,
        TAG_LINEAR => PlanVariant::Linear(
            linear.ok_or_else(|| structural("linear variant without its detected subscript"))?,
        ),
        TAG_WAVEFRONT => PlanVariant::Wavefront,
        _ => {
            return Err(PersistError::Malformed(format!(
                "unknown plan variant tag {tag}"
            )))
        }
    };
    let costs = VariantCosts {
        sequential: r.f64()?,
        doacross: r.opt_f64()?,
        linear: r.opt_f64()?,
        reordered: r.opt_f64()?,
        wavefront: r.opt_f64()?,
    };
    let features = if r.bool()? {
        Some(PlanFeatures {
            stall_natural: r.f64()?,
            stall_reordered: r.f64()?,
            rounds: r.usize()?,
        })
    } else {
        None
    };
    let build_time = Duration::from_nanos(r.u64()?);

    // The record's own fields must agree with each other; whether its
    // artifact fits its census is `verify_artifacts`' call, not the
    // codec's.
    if processors == 0 {
        return Err(structural("plan priced for zero processors"));
    }
    if census.iterations != fingerprint.iterations()
        || census.data_len != fingerprint.data_len()
        || census.total_terms != fingerprint.total_terms()
    {
        return Err(structural(format!(
            "census shape (n={}, data={}, refs={}) disagrees with fingerprint ({})",
            census.iterations, census.data_len, census.total_terms, fingerprint
        )));
    }
    check_features(&census, &costs, processors, features.as_ref())?;

    Ok(ExecutionPlan {
        fingerprint,
        processors,
        variant,
        census,
        stream,
        linear,
        costs,
        features,
        build_time,
    })
}

/// The features section against the rest of the record: present exactly
/// when the planner prices from features (an injective loop that fits a
/// claim stream and got past the gate, so it carries a flat-doacross
/// price), and within what its census allows — each stall weight in
/// `[0, true_deps·(p − 1)/p]` (an edge's gap is at least one claim), the
/// wavefront rounds in `[max(⌈n/p⌉, CP), n]` (every level at least one
/// round, no round empty).
fn check_features(
    census: &PlanCensus,
    costs: &VariantCosts,
    p: usize,
    features: Option<&PlanFeatures>,
) -> Result<(), PersistError> {
    let priced = census.injective
        && ClaimStream::fits(census.iterations, census.total_terms, census.critical_path)
        && costs.doacross.is_some();
    let features = match (features, priced) {
        (Some(features), true) => features,
        (None, false) => return Ok(()),
        (None, true) => return Err(structural("priced plan without its features")),
        (Some(_), false) => return Err(structural("features on a gated or stream-less plan")),
    };
    // NaN and the infinities fall outside the finite range too.
    let max_weight = census.true_deps.saturating_mul(p as u64 - 1) as f64 / p as f64;
    for weight in [features.stall_natural, features.stall_reordered] {
        if !(0.0..=max_weight).contains(&weight) {
            return Err(structural(format!(
                "stall weight {weight} outside [0, {max_weight}]"
            )));
        }
    }
    let n = census.iterations;
    let min_rounds = n.div_ceil(p).max(census.critical_path);
    if !(min_rounds..=n).contains(&features.rounds) {
        return Err(structural(format!(
            "{} wavefront rounds outside [{min_rounds}, {n}]",
            features.rounds
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The store.

/// A snapshot of a plan cache: plans most-recently-used first, each tagged
/// with the generation it was valid under, plus the cache's nonzero
/// invalidation generations — everything needed to restore a cache to an
/// equivalent state (same plans, same recency, same staleness semantics)
/// in another process.
///
/// Produced by [`ConcurrentPlanCache::snapshot`](crate::ConcurrentPlanCache::snapshot)
/// (or assembled by [`PlanStore::from_bytes`]); consumed by
/// [`ConcurrentPlanCache::warm_from`](crate::ConcurrentPlanCache::warm_from)
/// and [`PlanStore::to_bytes`].
#[derive(Debug, Clone, Default)]
pub struct PlanStore {
    /// Most-recently-used first (per shard for sharded snapshots).
    pub(crate) entries: Vec<(u64, Arc<ExecutionPlan>)>,
    /// Nonzero invalidation generations at snapshot time.
    pub(crate) generations: Vec<(PatternFingerprint, u64)>,
}

impl PlanStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of plans held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored plans, most recently used first.
    pub fn plans(&self) -> impl Iterator<Item = &Arc<ExecutionPlan>> {
        self.entries.iter().map(|(_, plan)| plan)
    }

    /// The nonzero invalidation generations captured with the snapshot.
    pub fn generations(&self) -> impl Iterator<Item = (&PatternFingerprint, u64)> {
        self.generations.iter().map(|(fp, gen)| (fp, *gen))
    }

    pub(crate) fn push_entry(&mut self, generation: u64, plan: Arc<ExecutionPlan>) {
        self.entries.push((generation, plan));
    }

    pub(crate) fn push_generation(&mut self, key: PatternFingerprint, generation: u64) {
        self.generations.push((key, generation));
    }

    /// Serializes the store (see the module docs for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u64(&mut out, self.generations.len() as u64);
        for (fp, gen) in &self.generations {
            for word in fp.to_raw() {
                put_u64(&mut out, word);
            }
            put_u64(&mut out, *gen);
        }
        put_u64(&mut out, self.entries.len() as u64);
        for (generation, plan) in &self.entries {
            put_u64(&mut out, *generation);
            let record = encode_plan(plan);
            put_u64(&mut out, record.len() as u64);
            out.extend_from_slice(&record);
        }
        let checksum = fnv::checksum(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Parses and fully validates a serialized store: magic, version,
    /// checksum, then every plan record (see the module docs' trust
    /// model). Never panics on arbitrary input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        const HEADER: usize = MAGIC.len() + 4;
        if bytes.len() < HEADER + 8 {
            return Err(PersistError::Truncated {
                needed: HEADER + 8,
                available: bytes.len(),
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[MAGIC.len()..HEADER].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let computed = fnv::checksum(body);
        if stored != computed {
            return Err(PersistError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader::new(&body[HEADER..]);
        let ngens = r.counted(5 * 8 + 8)?;
        let mut generations = Vec::with_capacity(ngens);
        for _ in 0..ngens {
            let mut raw = [0u64; 5];
            for word in raw.iter_mut() {
                *word = r.u64()?;
            }
            let fp = PatternFingerprint::from_raw(raw)
                .ok_or_else(|| structural("generation-table fingerprint overflows usize"))?;
            generations.push((fp, r.u64()?));
        }
        let nplans = r.counted(8 + 8)?;
        let mut entries = Vec::with_capacity(nplans);
        for _ in 0..nplans {
            let generation = r.u64()?;
            let len = r.counted(1)?;
            let record = r.take(len)?;
            entries.push((generation, Arc::new(decode_plan(record)?)));
        }
        if r.remaining() != 0 {
            return Err(PersistError::Malformed(format!(
                "{} trailing bytes after last plan record",
                r.remaining()
            )));
        }
        Ok(Self {
            entries,
            generations,
        })
    }

    /// Writes the serialized store to `path` (atomically via a sibling
    /// temp file + rename, so a crash mid-write never leaves a torn store
    /// where a good one lived). The temp name is unique per process and
    /// call, so concurrent saves — even of different stores in one
    /// directory — never write through each other; last rename wins.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
        if failpoint::enabled() {
            failpoint::maybe_delay(FAILPOINT_SAVE);
            if failpoint::fire_saturate(FAILPOINT_SAVE) {
                return Err(PersistError::Io("failpoint: injected save fault".into()));
            }
        }
        let path = path.as_ref();
        let bytes = self.to_bytes();
        let tmp = path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates the store at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        if failpoint::enabled() {
            failpoint::maybe_delay(FAILPOINT_LOAD);
            if failpoint::fire_saturate(FAILPOINT_LOAD) {
                return Err(PersistError::Io("failpoint: injected load fault".into()));
            }
        }
        let bytes = std::fs::read(path.as_ref())?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use doacross_core::{AccessPattern, IndirectLoop};
    use doacross_par::ThreadPool;
    use doacross_verify::SoundnessViolation;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    /// One real plan per variant the planner can select (mirrors the
    /// planner's own selection tests), plus the sequential plan of a
    /// non-injective loop.
    fn plans_of_every_variant() -> Vec<ExecutionPlan> {
        let planner = Planner::new();
        let pool = pool();
        let mut out = Vec::new();

        // Sequential: a serial chain.
        let n = 300;
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let chain = IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
        out.push(planner.plan(&pool, &chain).unwrap());

        // Linear: the dependence-free strided loop.
        let n = 2_000;
        let a: Vec<usize> = (0..n).map(|i| 2 * i + 1).collect();
        let linear = IndirectLoop::new(2 * n + 1, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
        out.push(planner.plan(&pool, &linear).unwrap());

        // Doacross: dependence-free but non-linear (reversed) scatter.
        let n = 4_000;
        let a: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
        let scatter = IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
        out.push(planner.plan(&pool, &scatter).unwrap());

        // Reordered: interleaved distance-1 chains.
        let (chains, len) = (32usize, 16usize);
        let n = chains * len;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
        let interleaved = IndirectLoop::new(n, a, rhs, coeff).unwrap();
        out.push(planner.plan(&pool, &interleaved).unwrap());

        // Sequential again: a non-injective left-hand side, whose census
        // counts no class.
        let (n, period) = (4_096usize, 512usize);
        let a: Vec<usize> = (0..n).map(|i| i % period).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 7) % period]).collect();
        let repeated = IndirectLoop::new(period, a, rhs, vec![vec![0.25]; n]).unwrap();
        out.push(planner.plan(&pool, &repeated).unwrap());

        // Wavefront: a deep, wide, stall-free dependence grid — the flag
        // bill dwarfs the barrier bill.
        let grid = crate::testgrid::deep_grid(64, 20, 3, 7);
        out.push(planner.plan(&pool, &grid).unwrap());

        out
    }

    #[test]
    fn every_variant_round_trips_bit_exactly() {
        let plans = plans_of_every_variant();
        let variants: Vec<_> = plans.iter().map(|p| p.variant()).collect();
        assert!(
            matches!(variants[0], PlanVariant::Sequential),
            "{variants:?}"
        );
        assert!(matches!(variants[1], PlanVariant::Linear(_)));
        assert!(matches!(variants[2], PlanVariant::Doacross));
        assert!(matches!(variants[3], PlanVariant::Reordered));
        assert!(matches!(variants[4], PlanVariant::Sequential));
        assert!(!plans[4].census().injective);
        assert!(matches!(variants[5], PlanVariant::Wavefront));
        for plan in &plans {
            let bytes = encode_plan(plan);
            let decoded = decode_plan(&bytes).expect("self-encoded plans decode");
            assert_eq!(
                encode_plan(&decoded),
                bytes,
                "re-encoding must be bit-exact ({})",
                plan.variant()
            );
            assert_eq!(decoded.fingerprint(), plan.fingerprint());
            assert_eq!(decoded.variant(), plan.variant());
            assert_eq!(decoded.census(), plan.census());
            assert_eq!(decoded.costs(), plan.costs());
            assert_eq!(decoded.features(), plan.features());
            assert_eq!(decoded.build_time(), plan.build_time());
            assert_eq!(decoded.stream(), plan.stream());
            assert_eq!(decoded.linear_subscript(), plan.linear_subscript());
        }
    }

    /// A plan's stream parts, owned, with one mutation applied — what
    /// `encode_record` then writes whether or not a `ClaimStream` could
    /// hold it.
    type OwnedParts = (
        Option<Vec<u32>>,
        Vec<u32>,
        Option<Vec<u32>>,
        Option<Vec<u8>>,
    );
    fn owned_parts(plan: &ExecutionPlan, mutate: &dyn Fn(&mut OwnedParts)) -> OwnedParts {
        let s = plan.stream().expect("a stream-backed plan");
        let mut parts: OwnedParts = (
            s.order().map(<[u32]>::to_vec),
            s.ends().to_vec(),
            s.level_offsets().map(<[u32]>::to_vec),
            s.classes().map(<[u8]>::to_vec),
        );
        mutate(&mut parts);
        parts
    }
    fn record_with(plan: &ExecutionPlan, mutate: &dyn Fn(&mut OwnedParts)) -> Vec<u8> {
        let (order, ends, levels, classes) = owned_parts(plan, mutate);
        encode_record(
            plan,
            Some((
                order.as_deref(),
                &ends,
                levels.as_deref(),
                classes.as_deref(),
            )),
        )
    }

    /// `plan` decoded afresh with its stream rebuilt from mutated parts —
    /// the in-memory plan [`record_with`] writes, for parts the core
    /// accepts.
    fn with_stream(plan: &ExecutionPlan, mutate: &dyn Fn(&mut OwnedParts)) -> ExecutionPlan {
        let (order, ends, levels, classes) = owned_parts(plan, mutate);
        let mut patient = decode_plan(&encode_plan(plan)).unwrap();
        patient.stream = Some(ClaimStream::from_parts(order, ends, classes, levels).unwrap());
        patient
    }

    /// The class bytes of `parts`, written out as `NewValue` bytes when the
    /// stream holds none, so a mutation can change one.
    fn class_bytes(parts: &mut OwnedParts) -> &mut Vec<u8> {
        let total = *parts.1.last().expect("the sentinel") as usize;
        parts.3.get_or_insert_with(|| vec![0; total])
    }

    /// A stream whose `ends` lost its last entry (the at-rest form of a
    /// truncated artifact) no longer covers its class bytes or its order:
    /// it dies in `ClaimStream::from_parts`, typed, before any of it is
    /// trusted. A stream with neither (the reference-free scatter's) is one
    /// iteration short of its census, which `verify_artifacts` refuses.
    #[test]
    fn decode_rejects_stream_with_truncated_ends() {
        for plan in plans_of_every_variant()
            .iter()
            .filter(|p| p.stream().is_some())
        {
            let stream = plan.stream().unwrap();
            let decoded = decode_plan(&record_with(plan, &|p| {
                p.1.pop();
            }));
            if stream.order().is_some() || stream.classes().is_some() {
                assert_structural(decoded, &plan.variant().to_string());
            } else {
                let n = plan.census().iterations;
                assert_eq!(
                    decoded.map(|p| p.variant()),
                    Err(PersistError::Unsound(SoundnessViolation::ShapeMismatch {
                        what: "claim stream iterations",
                        expected: n,
                        got: n - 1,
                    }))
                );
            }
        }
    }

    #[test]
    fn store_round_trips_entries_and_generations() {
        let plans = plans_of_every_variant();
        let mut store = PlanStore::new();
        for (i, plan) in plans.into_iter().enumerate() {
            store.push_entry(i as u64, Arc::new(plan));
        }
        let ghost_fp = *store.plans().next().unwrap().fingerprint();
        store.push_generation(ghost_fp, 7);

        let bytes = store.to_bytes();
        let back = PlanStore::from_bytes(&bytes).expect("own bytes parse");
        assert_eq!(back.len(), store.len());
        assert_eq!(back.generations().collect::<Vec<_>>(), [(&ghost_fp, 7)]);
        for ((ga, pa), (gb, pb)) in store.entries.iter().zip(back.entries.iter()) {
            assert_eq!(ga, gb);
            assert_eq!(encode_plan(pa), encode_plan(pb));
        }
        assert_eq!(back.to_bytes(), bytes, "store serialization is stable");
    }

    #[test]
    fn bad_magic_version_checksum_and_truncation_are_typed() {
        let mut store = PlanStore::new();
        store.push_entry(0, Arc::new(plans_of_every_variant().remove(2)));
        let bytes = store.to_bytes();

        // Magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            PlanStore::from_bytes(&bad),
            Err(PersistError::BadMagic)
        ));

        // Version (checked before the checksum, so the error is typed).
        let mut bad = bytes.clone();
        bad[8] = 0xEE;
        assert!(matches!(
            PlanStore::from_bytes(&bad),
            Err(PersistError::UnsupportedVersion {
                supported: FORMAT_VERSION,
                ..
            })
        ));

        // Any payload bit flip trips the checksum.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x10;
        assert!(matches!(
            PlanStore::from_bytes(&bad),
            Err(PersistError::ChecksumMismatch { .. })
        ));

        // Truncations: too short for the header is Truncated; longer
        // prefixes fail the checksum. Either way: typed, no panic.
        for k in 0..bytes.len() {
            let err = PlanStore::from_bytes(&bytes[..k]).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. } | PersistError::ChecksumMismatch { .. }
                ),
                "prefix {k}: {err:?}"
            );
        }
    }

    /// A store with every section present and a body whose length is not
    /// a multiple of the checksum's 8-byte word.
    fn store_with_a_padded_last_word() -> Vec<u8> {
        // A generation-table entry is a whole number of words; the two
        // stream-less records' lengths leave the body two bytes past one.
        let mut plans = plans_of_every_variant();
        let mut store = PlanStore::new();
        for plan in [plans.remove(4), plans.remove(0)] {
            store.push_entry(1, Arc::new(plan));
        }
        let key = *store.plans().next().unwrap().fingerprint();
        store.push_generation(key, 1);
        let bytes = store.to_bytes();
        assert_ne!(
            (bytes.len() - 8) % 8,
            0,
            "the last checksummed word is padded"
        );
        bytes
    }

    #[test]
    fn every_single_bit_flip_is_rejected_typed_including_the_padded_last_word() {
        let bytes = store_with_a_padded_last_word();
        let header = MAGIC.len() + 4;
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let err = PlanStore::from_bytes(&flipped).unwrap_err();
            let expected = match bit / 8 {
                at if at < MAGIC.len() => matches!(err, PersistError::BadMagic),
                at if at < header => matches!(err, PersistError::UnsupportedVersion { .. }),
                _ => matches!(err, PersistError::ChecksumMismatch { .. }),
            };
            assert!(expected, "bit {bit}: {err:?}");
        }
    }

    #[test]
    fn a_blob_extended_by_zero_bytes_is_rejected_typed() {
        let bytes = store_with_a_padded_last_word();
        let (body, checksum) = bytes.split_at(bytes.len() - 8);
        for zeros in 1..=16 {
            // Zeros inside the checksummed body: the padded last word reads
            // the same, the length does not.
            let mut longer = body.to_vec();
            longer.resize(body.len() + zeros, 0);
            longer.extend_from_slice(checksum);
            let err = PlanStore::from_bytes(&longer).unwrap_err();
            assert!(
                matches!(err, PersistError::ChecksumMismatch { .. }),
                "{zeros} zeros before the checksum: {err:?}"
            );
            // Zeros after it.
            let mut longer = bytes.clone();
            longer.resize(bytes.len() + zeros, 0);
            let err = PlanStore::from_bytes(&longer).unwrap_err();
            assert!(
                matches!(err, PersistError::ChecksumMismatch { .. }),
                "{zeros} zeros after the checksum: {err:?}"
            );
        }
    }

    #[test]
    fn v2_stores_are_rejected_with_a_typed_version_error() {
        // Regression for the v2 → v3 format bump (adaptive sections; the
        // v3 → v4 one has its own in `tests/proptest_persist.rs`): a
        // v2 relic fails typed on every load path — the version check
        // precedes the checksum, so no patching can smuggle the old
        // layout in — and warm-start boot paths treat the rejection as a
        // cold start per the ROADMAP version policy.
        let mut store = PlanStore::new();
        store.push_entry(0, Arc::new(plans_of_every_variant().remove(5)));
        let mut bytes = store.to_bytes();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            PlanStore::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion {
                found: 2,
                supported: FORMAT_VERSION,
            })
        ));
    }

    #[test]
    fn v7_stores_are_rejected_with_a_typed_version_error() {
        // Regression for the v7 → v8 format bump (optional class bytes): a
        // v7 store's stream section has no class flag, so it must fail
        // typed before any record is read.
        let mut store = PlanStore::new();
        store.push_entry(0, Arc::new(plans_of_every_variant().remove(5)));
        let mut bytes = store.to_bytes();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            PlanStore::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion {
                found: 7,
                supported: FORMAT_VERSION,
            })
        ));
    }

    #[test]
    fn v8_stores_are_rejected_with_a_typed_version_error() {
        // Regression for the v8 → v9 format bump (the strip-mined variant
        // dropped): a v8 record's census carries a duplicate-write gap and
        // its prices a blocked candidate, so it must fail typed before any
        // record is read.
        let mut store = PlanStore::new();
        store.push_entry(0, Arc::new(plans_of_every_variant().remove(5)));
        let mut bytes = store.to_bytes();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&8u32.to_le_bytes());
        assert!(matches!(
            PlanStore::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion {
                found: 8,
                supported: FORMAT_VERSION,
            })
        ));
    }

    #[test]
    fn v9_stores_are_rejected_with_a_typed_version_error() {
        // Regression for the v9 → v10 format bump (the host-calibration
        // block dropped): a v9 store may end in that block, so it must
        // fail typed before any record is read.
        let mut store = PlanStore::new();
        store.push_entry(0, Arc::new(plans_of_every_variant().remove(5)));
        let mut bytes = store.to_bytes();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            PlanStore::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion {
                found: 9,
                supported: FORMAT_VERSION,
            })
        ));
    }

    /// A store of one plan per variant, and where each record sits in it:
    /// the offset of its length prefix and the range of its bytes.
    type Fixture = (Vec<u8>, Vec<(usize, std::ops::Range<usize>)>);
    fn record_fuzz_fixture() -> &'static Fixture {
        static FIXTURE: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let mut store = PlanStore::new();
            for plan in plans_of_every_variant() {
                store.push_entry(0, Arc::new(plan));
            }
            // Header, an empty generation table, the plan count; then per
            // record its generation, its length and its bytes.
            let mut at = MAGIC.len() + 4 + 8 + 8;
            let mut records = Vec::new();
            for plan in store.plans() {
                let len = encode_plan(plan).len();
                records.push((at + 8, at + 16..at + 16 + len));
                at += 16 + len;
            }
            let bytes = store.to_bytes();
            for (len_at, range) in &records {
                let prefix = u64::from_le_bytes(bytes[*len_at..len_at + 8].try_into().unwrap());
                assert_eq!(prefix as usize, range.len());
                decode_plan(&bytes[range.clone()]).expect("an unmutated record decodes");
            }
            (bytes, records)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 1024,
            ..Default::default()
        })]
        /// One byte of one plan record flipped, dropped or inserted (at
        /// the end, appended), with the record's length prefix and the
        /// checksum re-sealed, so the mutation reaches `decode_plan`: the
        /// store fails with a record-level error or loads plans that pass
        /// `verify_artifacts`, and never panics.
        #[test]
        fn a_mutated_record_fails_typed_or_loads_verified_plans(
            which in 0usize..6,
            mutation in 0u8..3,
            at in 0usize..1 << 20,
            byte in 1u8..=255,
        ) {
            let (bytes, records) = record_fuzz_fixture();
            let (len_at, range) = records[which].clone();
            let mut record = bytes[range.clone()].to_vec();
            match mutation {
                0 => {
                    let i = at % record.len();
                    record[i] ^= byte;
                }
                1 => {
                    record.remove(at % record.len());
                }
                _ => record.insert(at % (record.len() + 1), byte),
            }
            let loaded = load_with_record(len_at, range, &record);
            proptest::prop_assert!(fails_typed_or_verifies(loaded), "{:?}", record);
        }
    }

    /// The fixture store with the record at `range` (length prefix at
    /// `len_at`) replaced by `record`, the prefix and the checksum
    /// re-sealed so the record reaches `decode_plan`, loaded.
    fn load_with_record(
        len_at: usize,
        range: std::ops::Range<usize>,
        record: &[u8],
    ) -> Result<PlanStore, PersistError> {
        let (bytes, _) = record_fuzz_fixture();
        let mut blob = bytes[..len_at].to_vec();
        put_u64(&mut blob, record.len() as u64);
        blob.extend_from_slice(record);
        blob.extend_from_slice(&bytes[range.end..bytes.len() - 8]);
        let checksum = fnv::checksum(&blob);
        put_u64(&mut blob, checksum);
        PlanStore::from_bytes(&blob)
    }

    /// What a mutated record may do: fail with a record-level error, or
    /// load every plan, each passing `verify_artifacts`.
    fn fails_typed_or_verifies(loaded: Result<PlanStore, PersistError>) -> bool {
        match loaded {
            Ok(store) => {
                store.len() == record_fuzz_fixture().1.len()
                    && store.plans().all(|plan| plan.verify_artifacts().is_ok())
            }
            Err(err) => matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::Malformed(_)
                    | PersistError::Structural(_)
                    | PersistError::Unsound(_)
            ),
        }
    }

    /// The offsets of a record's fixed-width fields — every 8-byte word
    /// and every one-byte field (the tag, the flags) outside the claim
    /// stream's counted arrays — found by walking the record in
    /// `decode_plan_fields`' order; the walk must consume it exactly.
    fn fixed_width_fields(record: &[u8]) -> (Vec<usize>, Vec<usize>) {
        struct Walk<'a> {
            r: Reader<'a>,
            words: Vec<usize>,
            bytes: Vec<usize>,
        }
        impl Walk<'_> {
            fn words(&mut self, count: usize) {
                for _ in 0..count {
                    self.words.push(self.r.pos);
                    self.r.u64().unwrap();
                }
            }
            /// A one-byte field; `true` when it is a set flag.
            fn byte(&mut self) -> bool {
                self.bytes.push(self.r.pos);
                self.r.u8().unwrap() == 1
            }
            fn opt_word(&mut self) {
                if self.byte() {
                    self.words(1);
                }
            }
        }
        let mut w = Walk {
            r: Reader::new(record),
            words: Vec::new(),
            bytes: Vec::new(),
        };
        w.words(6); // fingerprint, processors
        w.byte(); // variant tag
        w.words(7); // census counters
        w.opt_word(); // min true distance
        w.opt_word(); // max true distance
        w.byte(); // injective
        w.words(1); // critical path
        if w.byte() {
            w.r.opt_u32s().unwrap();
            w.r.u32s().unwrap();
            w.r.opt_u32s().unwrap();
            if w.byte() {
                let count = w.r.counted(1).unwrap();
                w.r.take(count).unwrap();
            }
        }
        if w.byte() {
            w.words(2); // linear stride and offset
        }
        w.words(1); // sequential price
        for _ in 0..4 {
            w.opt_word(); // parallel prices
        }
        if w.byte() {
            w.words(3); // features
        }
        w.words(1); // build time
        assert_eq!(w.r.remaining(), 0, "the walk follows the codec");
        (w.words, w.bytes)
    }

    /// Every fixed-width field of every record, set to each edge value — a
    /// word to 0, 1, 2, the top bit, 2³², `u64::MAX` and one below it,
    /// its own value ± 1 and doubled, and two seeded random words; a byte
    /// to every tag value, one past them, and the high bit and `0xFF` —
    /// with the prefix and checksum re-sealed:
    /// the store fails typed or loads verified plans, and never panics.
    /// The byte fuzzers pick a byte uniformly, and a record is almost all
    /// claim-stream arrays, so they reach these fields a handful of times
    /// in a thousand cases; this sweep reaches each of them every run.
    #[test]
    fn every_fixed_width_field_set_to_an_edge_value_fails_typed_or_loads_verified_plans() {
        let (bytes, records) = record_fuzz_fixture();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut random = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for (len_at, range) in records {
            let record = &bytes[range.clone()];
            let (words, flags) = fixed_width_fields(record);
            for at in words {
                let own = u64::from_le_bytes(record[at..at + 8].try_into().unwrap());
                let edges = [
                    0,
                    1,
                    2,
                    1 << 63,
                    1 << 32,
                    u64::MAX,
                    u64::MAX - 1,
                    own.wrapping_add(1),
                    own.wrapping_sub(1),
                    own.wrapping_mul(2),
                    random(),
                    random(),
                ];
                for value in edges {
                    let mut mutated = record.to_vec();
                    mutated[at..at + 8].copy_from_slice(&value.to_le_bytes());
                    let loaded = load_with_record(*len_at, range.clone(), &mutated);
                    assert!(fails_typed_or_verifies(loaded), "word at {at} = {value}");
                }
            }
            for at in flags {
                for value in [0, 1, 2, 3, 4, 5, 0x80, 0xFF] {
                    let mut mutated = record.to_vec();
                    mutated[at] = value;
                    let loaded = load_with_record(*len_at, range.clone(), &mutated);
                    assert!(fails_typed_or_verifies(loaded), "byte at {at} = {value}");
                }
            }
        }
    }

    /// `loop_` with one more reference per row, to an element no
    /// iteration writes: the same dependences, but old-value bytes in its
    /// stream.
    fn with_unwritten_reads(loop_: &IndirectLoop) -> IndirectLoop {
        let n = loop_.iterations();
        let unwritten = loop_.data_len();
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut row: Vec<usize> = (0..loop_.terms(i))
                    .map(|j| loop_.term_element(i, j))
                    .collect();
                row.push(unwritten);
                row
            })
            .collect();
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
        let lhs = (0..n).map(|i| loop_.lhs(i)).collect();
        IndirectLoop::new(unwritten + 1, lhs, rhs, coeff).unwrap()
    }

    /// A reordered and a wavefront plan whose every reference is a true
    /// dependence store no class bytes, and round-trip — stream, census
    /// and bytes — beside the same structures with an old-value read per
    /// row, which keep theirs.
    #[test]
    fn classless_and_class_byte_streams_round_trip() {
        let planner = Planner::new();
        let pool = pool();
        let (chains, len) = (32usize, 16usize);
        let n = chains * len;
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
        let interleaved = IndirectLoop::new(n, (0..n).collect(), rhs, coeff).unwrap();
        let grid = crate::testgrid::deep_grid(64, 20, 3, 7);
        for (loop_, variant) in [
            (interleaved, PlanVariant::Reordered),
            (grid, PlanVariant::Wavefront),
        ] {
            for (loop_, bytes) in [(with_unwritten_reads(&loop_), true), (loop_, false)] {
                let plan = planner.plan(&pool, &loop_).unwrap();
                assert_eq!(plan.variant(), variant);
                let stream = plan.stream().expect("a stream-backed plan");
                assert_eq!(stream.classes().is_some(), bytes, "{variant}");
                let encoded = encode_plan(&plan);
                let decoded = decode_plan(&encoded).expect("self-encoded plans decode");
                assert_eq!(decoded.stream(), plan.stream(), "{variant}");
                assert_eq!(decoded.census(), plan.census());
                assert_eq!(encode_plan(&decoded), encoded, "{variant}: bit-exact");
            }
        }
    }

    #[test]
    fn v1_stores_are_rejected_with_a_typed_version_error() {
        // Regression for the v1 → v2 format bump: a store whose version
        // field says 1 must fail typed — never parse, never panic — and
        // the version is checked before the checksum, so no checksum
        // patching can smuggle an old layout in.
        let mut store = PlanStore::new();
        store.push_entry(0, Arc::new(plans_of_every_variant().remove(5)));
        let mut bytes = store.to_bytes();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            PlanStore::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion {
                found: 1,
                supported: FORMAT_VERSION,
            })
        ));
    }

    /// Fifteen inconsistent records, each refused typed. The codec owns the
    /// rules a record can break on its own (`Structural`); every rule of
    /// an artifact against its census is `verify_artifacts`', and for
    /// those the plan mutated in memory gets the verdict its record does.
    #[test]
    fn structural_revalidation_rejects_inconsistent_records() {
        let plans = plans_of_every_variant();
        let (linear, doacross, reordered, wavefront) = (&plans[1], &plans[2], &plans[3], &plans[5]);
        assert_eq!(wavefront.variant(), PlanVariant::Wavefront);

        let patient = |plan: &ExecutionPlan, mutate: &dyn Fn(&mut ExecutionPlan)| {
            let mut patient = decode_plan(&encode_plan(plan)).unwrap();
            mutate(&mut patient);
            patient
        };
        let corrupt = |plan: &ExecutionPlan, mutate: &dyn Fn(&mut ExecutionPlan)| {
            decode_plan(&encode_plan(&patient(plan, mutate)))
        };

        // The codec's: the record's own fields disagree.
        assert_structural(corrupt(doacross, &|p| p.processors = 0), "zero processors");
        assert_structural(
            corrupt(doacross, &|p| p.census.total_terms += 1),
            "census disagrees with fingerprint",
        );
        // Verify refuses the non-injective census too, but the features
        // section, priced only for an injective loop, says so first.
        assert_structural(
            corrupt(doacross, &|p| p.census.injective = false),
            "flat doacross over a non-injective lhs",
        );
        assert_structural(
            corrupt(linear, &|p| p.linear = None),
            "linear variant without its detected subscript",
        );
        assert_structural(
            decode_plan(&record_with(reordered, &|p| {
                let order = p.0.as_mut().unwrap();
                order[0] = order[1];
            })),
            "claim order is not a permutation",
        );
        assert_structural(
            decode_plan(&record_with(reordered, &|p| {
                p.0.as_mut().unwrap().pop();
            })),
            "claim order shorter than the iteration space",
        );
        assert_structural(
            decode_plan(&record_with(wavefront, &|p| class_bytes(p)[0] = 9)),
            "a class byte no encoder writes",
        );

        // Verify's: an artifact that does not fit its variant or census.
        let claim_stream = |expected, got| SoundnessViolation::ArtifactMismatch {
            what: "claim stream",
            expected,
            got,
        };
        assert_unsound(&patient(doacross, &|p| p.stream = None), claim_stream(1, 0));
        assert_unsound(
            &patient(linear, &|p| p.stream = doacross.stream.clone()),
            claim_stream(0, 1),
        );
        assert_unsound(
            &patient(doacross, &|p| p.stream = reordered.stream.clone()),
            SoundnessViolation::ShapeMismatch {
                what: "claim order of a natural-order stream",
                expected: 0,
                got: reordered.census.iterations,
            },
        );
        assert_unsound(
            &patient(reordered, &|p| p.stream = wavefront.stream.clone()),
            SoundnessViolation::ArtifactMismatch {
                what: "level offsets of a flag stream",
                expected: 0,
                got: 1,
            },
        );
        assert_unsound(
            &with_stream(wavefront, &|p| p.2 = None),
            SoundnessViolation::ArtifactMismatch {
                what: "level offsets of a wavefront stream",
                expected: 1,
                got: 0,
            },
        );
        // Merge the first two levels: still a valid CSR structure, but the
        // level count no longer matches the census critical path.
        assert_unsound(
            &with_stream(wavefront, &|p| {
                p.2.as_mut().unwrap().remove(1);
            }),
            SoundnessViolation::ShapeMismatch {
                what: "wavefront levels against the census critical path",
                expected: wavefront.census.critical_path,
                got: wavefront.census.critical_path - 1,
            },
        );
        for plan in [doacross, reordered, wavefront] {
            if plan.census.true_deps == 0 {
                continue;
            }
            // Flip one true-dependency class to old-value: the class
            // counts no longer match the census classification.
            assert_unsound(
                &with_stream(plan, &|p| {
                    let classes = class_bytes(p);
                    let flip = classes.iter().position(|&c| c == 0).expect("has true deps");
                    classes[flip] = 1;
                }),
                SoundnessViolation::ArtifactMismatch {
                    what: "new-value class count",
                    expected: plan.census.true_deps,
                    got: plan.census.true_deps - 1,
                },
            );
        }

        // Garbage never panics, whatever byte it lands on.
        let mut bytes = encode_plan(reordered);
        for i in 0..bytes.len() {
            bytes[i] = bytes[i].wrapping_add(0x5B);
            let _ = decode_plan(&bytes); // must not panic
            bytes[i] = bytes[i].wrapping_sub(0x5B);
        }
    }

    /// A linear stride whose last subscript overflows `usize`: the record
    /// parses, and `verify_artifacts` refuses it as out of bounds rather
    /// than wrapping (or, in a debug build, panicking) on the arithmetic.
    #[test]
    fn decode_rejects_a_linear_subscript_past_usize() {
        let plans = plans_of_every_variant();
        let linear = &plans[1];
        let n = linear.census.iterations;
        let mut patient = decode_plan(&encode_plan(linear)).unwrap();
        let subscript = LinearSubscript::new(usize::MAX, 0);
        (patient.variant, patient.linear) = (PlanVariant::Linear(subscript), Some(subscript));
        assert_unsound(
            &patient,
            SoundnessViolation::OutOfBounds {
                iteration: n - 1,
                element: usize::MAX,
                data_len: linear.census.data_len,
            },
        );
    }

    /// `patient` fails `verify_artifacts` with `violation`, and its record
    /// fails to load with the same violation.
    fn assert_unsound(patient: &ExecutionPlan, violation: SoundnessViolation) {
        assert_eq!(patient.verify_artifacts(), Err(violation.clone()));
        assert_eq!(
            decode_plan(&encode_plan(patient)).map(|p| p.variant()),
            Err(PersistError::Unsound(violation))
        );
    }

    /// Re-encodes `plan` with its features section rewritten by `mutate`
    /// and decodes the result.
    fn with_features(
        plan: &ExecutionPlan,
        mutate: impl Fn(&mut Option<PlanFeatures>),
    ) -> Result<ExecutionPlan, PersistError> {
        let mut patient = decode_plan(&encode_plan(plan)).unwrap();
        mutate(&mut patient.features);
        decode_plan(&encode_plan(&patient))
    }

    fn assert_structural(result: Result<ExecutionPlan, PersistError>, what: &str) {
        assert!(
            matches!(result, Err(PersistError::Structural(_))),
            "{what}: {:?}",
            result.map(|p| p.variant())
        );
    }

    /// The reordered fixture: true dependencies, so every features field
    /// has room on both sides of its bounds.
    fn featured_plan() -> ExecutionPlan {
        let plan = plans_of_every_variant().remove(3);
        assert!(plan.features().is_some() && plan.census().true_deps > 0);
        plan
    }

    #[test]
    fn decode_rejects_a_non_finite_or_negative_stall_weight() {
        let plan = featured_plan();
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE,
        ] {
            assert_structural(
                with_features(&plan, |f| f.as_mut().unwrap().stall_natural = bad),
                &format!("natural stall weight {bad}"),
            );
            assert_structural(
                with_features(&plan, |f| f.as_mut().unwrap().stall_reordered = bad),
                &format!("reordered stall weight {bad}"),
            );
        }
    }

    #[test]
    fn decode_rejects_a_stall_weight_above_every_edge_stalling() {
        // Every edge at gap 1 is the most a claim order can stall:
        // `true_deps·(p − 1)/p` is accepted, the next float is not.
        let plan = featured_plan();
        let p = plan.processors();
        let max = (plan.census().true_deps * (p as u64 - 1)) as f64 / p as f64;
        with_features(&plan, |f| f.as_mut().unwrap().stall_natural = max).unwrap();
        let above = f64::from_bits(max.to_bits() + 1);
        assert_structural(
            with_features(&plan, |f| f.as_mut().unwrap().stall_natural = above),
            "natural stall weight above the bound",
        );
        assert_structural(
            with_features(&plan, |f| f.as_mut().unwrap().stall_reordered = above),
            "reordered stall weight above the bound",
        );
    }

    #[test]
    fn decode_rejects_wavefront_rounds_outside_the_level_bounds() {
        let plan = featured_plan();
        let census = plan.census();
        let n = census.iterations;
        let least = n.div_ceil(plan.processors()).max(census.critical_path);
        for (rounds, ok) in [(least, true), (n, true), (least - 1, false), (n + 1, false)] {
            let result = with_features(&plan, |f| f.as_mut().unwrap().rounds = rounds);
            if ok {
                result.unwrap();
            } else {
                assert_structural(result, &format!("{rounds} rounds"));
            }
        }
    }

    #[test]
    fn decode_rejects_features_on_a_gated_or_stream_less_record() {
        let plans = plans_of_every_variant();
        let features = *featured_plan().features().unwrap();
        let (gated, stream_less) = (&plans[0], &plans[4]);
        assert!(gated.is_gated() && gated.features().is_none());
        assert!(!stream_less.census().injective && stream_less.features().is_none());
        for plan in [gated, stream_less] {
            assert_structural(
                with_features(plan, |f| *f = Some(features)),
                &format!("features on a {} plan", plan.variant()),
            );
        }
        // And the converse: a priced record must carry what it was priced
        // from.
        assert_structural(
            with_features(&plans[3], |f| *f = None),
            "priced plan without features",
        );
    }

    /// Mutation kill: a stream-backed record whose census counted no class
    /// (the census of shape totals a plan settled on its reference counts
    /// carries) is refused, since nothing vouches for its stream's
    /// classes. On the reference-free scatter every class count agrees at
    /// zero, so the artifact rule alone catches it; a sequential record
    /// over the same census is what a settled plan is, and loads.
    #[test]
    fn decode_rejects_a_stream_under_an_unclassified_census() {
        let plans = plans_of_every_variant();
        let unclassified = |plan: &ExecutionPlan| {
            let mut patient = decode_plan(&encode_plan(plan)).unwrap();
            let c = &patient.census;
            patient.census = PlanCensus::counts(c.iterations, c.data_len, c.total_terms);
            assert!(!patient.census.is_classified());
            decode_plan(&encode_plan(&patient))
        };
        let doacross = &plans[2];
        assert_eq!(doacross.census().total_terms, 0);
        assert!(matches!(
            unclassified(doacross),
            Err(PersistError::Unsound(
                doacross_verify::SoundnessViolation::UnclassifiedCensus {
                    variant: "doacross"
                }
            ))
        ));
        for plan in [&plans[3], &plans[5]] {
            assert!(unclassified(plan).is_err(), "{}", plan.variant());
        }
        let settled = unclassified(&plans[0]).expect("a sequential plan needs no class");
        assert!(settled.is_gated() && !settled.census().is_classified());
    }

    #[test]
    fn empty_store_round_trips() {
        let store = PlanStore::new();
        assert!(store.is_empty());
        let back = PlanStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.generations().count(), 0);
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let path = std::env::temp_dir().join(format!(
            "doacross-persist-unit-{}.plans",
            std::process::id()
        ));
        let mut store = PlanStore::new();
        store.push_entry(3, Arc::new(plans_of_every_variant().remove(1)));
        store.save(&path).unwrap();
        let back = PlanStore::load(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.to_bytes(), store.to_bytes());
        std::fs::remove_file(&path).unwrap();

        let missing = std::env::temp_dir().join("doacross-persist-unit-nonexistent.plans");
        assert!(matches!(
            PlanStore::load(&missing),
            Err(PersistError::NotFound)
        ));
    }
}
