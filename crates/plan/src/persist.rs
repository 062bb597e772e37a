//! Durable execution plans: a versioned binary codec and warm-start
//! snapshots.
//!
//! The paper's amortization argument ("the preprocessing phase needs to be
//! performed just once", §2.1) is only as good as the lifetime of the
//! artifact — and until this module, that lifetime ended with the process.
//! A service restart threw away every claim stream and priced variant
//! selection, and the first request after a deploy paid full
//! preprocessing again. Persistence closes the loop: a [`PlanStore`]
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
//! format version   (u32 LE)                    — see [`FORMAT_VERSION`]
//! generation table (count + fingerprint, gen)  — nonzero generations only
//! plan records     (count + per record: generation, length, plan bytes)
//! calibration      (flag + 12 model f64s + unit_ns) — optional, v3
//! telemetry table  (count + fixed-width records)    — v3
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
//! 3. every decoded plan is structurally revalidated against its own
//!    census and fingerprint — a claim stream must rebuild through
//!    [`ClaimStream::from_parts`] (order a permutation, ends covering the
//!    classes, levels strictly increasing, every count within `u32`) and
//!    agree with the census, variants must carry exactly the artifact they
//!    execute with ([`PersistError::Structural`] otherwise).
//!
//! Decoding therefore never panics and never yields a plan the executor
//! could misbehave on; the worst a corrupt store can do is fail with a
//! typed error and leave the cache cold.

use crate::census::PlanCensus;
use crate::fingerprint::PatternFingerprint;
use crate::fnv;
use crate::plan::{ExecutionPlan, PlanFeatures, PlanVariant, VariantCosts};
use doacross_core::{ClaimStream, LinearSubscript};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// File magic: identifies a blob as a doacross plan store.
pub const MAGIC: [u8; 8] = *b"DOAXPLAN";

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
/// optional host-calibration block ([`StoredCalibration`]) and a variant-
/// telemetry table ([`StoredTelemetry`]) — so a warm-started engine
/// resumes with its learned cost constants instead of re-measuring and
/// re-observing from scratch. **v4** replaced the three artifact sections
/// of a plan record (writer map, claim order, level schedule — `u64`
/// fields) with one claim-stream section (`u32` fields: optional order,
/// ends, class bytes, optional level offsets). **v5** changed both hashes
/// the store carries, with the byte layout unchanged: fingerprints (the
/// store's keys) hash each stream over four lanes, and the checksum
/// absorbs a word at a time over the same lanes, plus the byte length.
/// **v6** stores what a plan's prices were computed from: an optional
/// features section after the candidate prices (two stall weights and the
/// wavefront rounds, [`crate::PlanFeatures`]), validated on load; the
/// census lost its derived average parallelism and its out-of-bounds
/// record, which no built plan ever carried. v1–v5 stores are rejected
/// per the policy above.
pub const FORMAT_VERSION: u32 = 6;

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
    /// The blob does not start with [`MAGIC`] — not a plan store.
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
    /// The record decoded, but its contents contradict themselves — a
    /// claim order that is not a permutation, reference ends that do not
    /// cover the class bytes, a census that disagrees with its fingerprint. The
    /// plan is rejected rather than trusted.
    Structural(String),
    /// The record decoded and is internally coherent, but its
    /// synchronization schedule fails the soundness verifier: the plan
    /// would not cover every dependence its own census implies. Typed
    /// separately from [`PersistError::Structural`] so callers can tell a
    /// corrupted encoding from a schedule that is well-formed yet wrong.
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
pub const FAILPOINT_SAVE: &str = "plan::persist::save";

/// Failpoint site consulted at the top of [`PlanStore::load`]
/// (same actions as [`FAILPOINT_SAVE`], injected before the read).
pub const FAILPOINT_LOAD: &str = "plan::persist::load";

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
const TAG_BLOCKED: u8 = 4;
const TAG_WAVEFRONT: u8 = 5;

/// A claim stream's four parts as the codec writes them: optional order,
/// reference ends, optional level offsets, class bytes.
type StreamParts<'a> = (Option<&'a [u32]>, &'a [u32], Option<&'a [u32]>, &'a [u8]);

/// Serializes one plan to the record format (no checksum — the enclosing
/// [`PlanStore`] blob carries one for the whole file). The encoding is
/// deterministic: equal plans produce equal bytes, which the round-trip
/// tests exploit.
pub fn encode_plan(plan: &ExecutionPlan) -> Vec<u8> {
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
        PlanVariant::Linear(s) => {
            out.push(TAG_LINEAR);
            put_u64(&mut out, s.c as u64);
            put_u64(&mut out, s.d as u64);
        }
        PlanVariant::Reordered => out.push(TAG_REORDERED),
        PlanVariant::Blocked { block_size } => {
            out.push(TAG_BLOCKED);
            put_u64(&mut out, block_size as u64);
        }
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
    put_opt_u64(&mut out, census.min_duplicate_write_gap.map(|v| v as u64));
    put_u64(&mut out, census.critical_path as u64);
    // The one artifact section: the claim stream, part by part.
    put_bool(&mut out, stream.is_some());
    if let Some((order, ends, levels, classes)) = stream {
        put_opt_u32s(&mut out, order);
        put_u32s(&mut out, ends);
        put_opt_u32s(&mut out, levels);
        put_u64(&mut out, classes.len() as u64);
        out.extend_from_slice(classes);
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
    put_opt_f64(&mut out, costs.blocked);
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

/// Decodes one plan record, revalidating it structurally (see module
/// docs). The record must be exactly consumed — trailing bytes are
/// rejected, so a length-prefix mismatch cannot hide.
pub fn decode_plan(bytes: &[u8]) -> Result<ExecutionPlan, PersistError> {
    let mut r = Reader::new(bytes);
    let plan = decode_plan_fields(&mut r)?;
    if r.remaining() != 0 {
        return Err(PersistError::Malformed(format!(
            "{} trailing bytes after plan record",
            r.remaining()
        )));
    }
    // Structural revalidation above only proves the encoding is coherent;
    // the soundness pass proves the decoded schedule could actually cover
    // the dependences its own census implies. A store that fails here is
    // well-formed but wrong — rejected with a typed violation, never
    // trusted into the cache.
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
    let variant_payload = match tag {
        TAG_SEQUENTIAL | TAG_DOACROSS | TAG_REORDERED | TAG_WAVEFRONT => (0u64, 0u64),
        TAG_LINEAR => (r.u64()?, r.u64()?),
        TAG_BLOCKED => (r.u64()?, 0),
        other => {
            return Err(PersistError::Malformed(format!(
                "unknown plan variant tag {other}"
            )))
        }
    };

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
        min_duplicate_write_gap: r.opt_u64()?.map(|v| v as usize),
        critical_path: r.usize()?,
    };

    let stream_parts = if r.bool()? {
        let order = r.opt_u32s()?;
        let ends = r.u32s()?;
        let levels = r.opt_u32s()?;
        let count = r.counted(1)?;
        Some((order, ends, levels, r.take(count)?.to_vec()))
    } else {
        None
    };

    let linear: Option<(u64, u64)> = if r.bool()? {
        Some((r.u64()?, r.u64()?))
    } else {
        None
    };

    let costs = VariantCosts {
        sequential: r.f64()?,
        doacross: r.opt_f64()?,
        linear: r.opt_f64()?,
        reordered: r.opt_f64()?,
        blocked: r.opt_f64()?,
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

    // --- Structural revalidation: the record parsed, now make it *prove*
    // it describes an executable plan before any of it is trusted.
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
    let classified = census.true_deps + census.anti_deps + census.intra + census.unwritten;
    if classified > census.total_terms {
        return Err(structural(format!(
            "census classifies {classified} references but only {} exist",
            census.total_terms
        )));
    }

    check_features(&census, &costs, processors, features.as_ref())?;

    let linear = match linear {
        Some((0, _)) => {
            return Err(structural("linear subscript with stride 0"));
        }
        Some((c, d)) => Some(LinearSubscript::new(c as usize, d as usize)),
        None => None,
    };

    let variant = match tag {
        TAG_SEQUENTIAL => PlanVariant::Sequential,
        TAG_DOACROSS => PlanVariant::Doacross,
        TAG_REORDERED => PlanVariant::Reordered,
        TAG_LINEAR => {
            let (c, d) = variant_payload;
            if c == 0 {
                return Err(structural("linear variant with stride 0"));
            }
            let subscript = LinearSubscript::new(c as usize, d as usize);
            if linear != Some(subscript) {
                return Err(structural(
                    "linear variant disagrees with the detected subscript",
                ));
            }
            PlanVariant::Linear(subscript)
        }
        TAG_BLOCKED => {
            let block_size = usize::try_from(variant_payload.0)
                .map_err(|_| structural("block size overflows usize"))?;
            if block_size == 0 || block_size > census.iterations {
                return Err(structural(format!(
                    "block size {block_size} outside 1..={}",
                    census.iterations
                )));
            }
            PlanVariant::Blocked { block_size }
        }
        TAG_WAVEFRONT => PlanVariant::Wavefront,
        _ => unreachable!("tag validated above"),
    };

    let streamed = matches!(
        variant,
        PlanVariant::Doacross | PlanVariant::Reordered | PlanVariant::Wavefront
    );
    let stream = match (streamed, stream_parts) {
        (true, Some((order, ends, levels, classes))) => {
            if !census.injective {
                return Err(structural(format!(
                    "{variant} plan over a non-injective left-hand side"
                )));
            }
            // Which optional parts the variant executes with: the natural
            // order is no order, only the wavefront has levels.
            let (wants_order, wants_levels) = match variant {
                PlanVariant::Doacross => (false, false),
                PlanVariant::Reordered => (true, false),
                _ => (true, true),
            };
            if order.is_some() != wants_order || levels.is_some() != wants_levels {
                return Err(structural(format!(
                    "{variant} plan with a claim stream shaped for another variant \
                     (order {}, levels {})",
                    order.is_some(),
                    levels.is_some()
                )));
            }
            let stream = ClaimStream::from_parts(order, ends, classes, levels)
                .ok_or_else(|| structural("claim stream rejected by the core reconstruction"))?;
            if stream.iterations() != census.iterations {
                return Err(structural(format!(
                    "claim stream covers {} of {} iterations",
                    stream.iterations(),
                    census.iterations
                )));
            }
            if wants_levels && stream.level_count() != census.critical_path {
                return Err(structural(format!(
                    "{} levels disagree with the census critical path {}",
                    stream.level_count(),
                    census.critical_path
                )));
            }
            if stream.total_terms() as u64 != census.total_terms {
                return Err(structural(format!(
                    "claim stream classifies {} of {} references",
                    stream.total_terms(),
                    census.total_terms
                )));
            }
            let counts = stream.class_counts();
            if counts.true_deps != census.true_deps
                || counts.intra != census.intra
                || counts.anti_or_unwritten != census.anti_deps + census.unwritten
            {
                return Err(structural(
                    "operand classes disagree with the census classification",
                ));
            }
            Some(stream)
        }
        (true, None) => {
            return Err(structural(format!(
                "{variant} variant without its claim stream"
            )));
        }
        (false, Some(_)) => {
            return Err(structural(
                "claim stream attached to a variant that never consumes one",
            ));
        }
        (false, None) => None,
    };

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
// Adaptive-state sections (v3).

/// A host calibration captured alongside the plans: the cost model the
/// planner priced with plus the physical meaning of its unit. A
/// warm-started engine (one not handed its planner) whose store carries a
/// **valid** calibration reuses it and measures nothing; the
/// consumer revalidates with [`StoredCalibration::is_valid`] and falls
/// back to re-calibration when the values are unphysical (the codec
/// round-trips the bits either way — validity is the *user's* gate, so a
/// calibration written by a buggy producer degrades to a re-measurement,
/// never to nonsense pricing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredCalibration {
    /// The calibrated cost model (normalized units, `seq_term == 1`).
    pub model: doacross_sim::CostModel,
    /// Nanoseconds per model unit on the host that measured it.
    pub unit_ns: f64,
}

impl StoredCalibration {
    /// Whether every constant is finite and positive — the revalidation
    /// gate a loader applies before trusting the stored model.
    pub fn is_valid(&self) -> bool {
        self.fields().iter().all(|v| v.is_finite() && *v > 0.0)
    }

    fn fields(&self) -> [f64; 13] {
        let m = &self.model;
        [
            m.schedule_grab,
            m.iteration_setup,
            m.check,
            m.term,
            m.wait_poll,
            m.publish,
            m.inspect_per_iter,
            m.post_per_iter,
            m.region_dispatch,
            m.barrier,
            m.seq_iter,
            m.seq_term,
            self.unit_ns,
        ]
    }

    fn from_fields(f: [f64; 13]) -> Self {
        Self {
            model: doacross_sim::CostModel {
                schedule_grab: f[0],
                iteration_setup: f[1],
                check: f[2],
                term: f[3],
                wait_poll: f[4],
                publish: f[5],
                inspect_per_iter: f[6],
                post_per_iter: f[7],
                region_dispatch: f[8],
                barrier: f[9],
                seq_iter: f[10],
                seq_term: f[11],
            },
            unit_ns: f[12],
        }
    }
}

/// One `(fingerprint, variant)` telemetry accumulator, as persisted in a
/// v3 store — the raw sums `doacross-adapt`'s recorder maintains, so a
/// restored engine's online refinement resumes mid-confidence instead of
/// starting blind. This crate stores the numbers and checks only what the
/// codec can know (a known variant tag, at least one sample, finite
/// floats); their statistical meaning lives with the recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredTelemetry {
    /// Structure the samples belong to.
    pub fingerprint: PatternFingerprint,
    /// Variant family tag (the plan-record `TAG_*` values, `0..=5`).
    pub variant: u8,
    /// Solves recorded.
    pub samples: u64,
    /// Exponentially-weighted moving average of per-solve wall time (ns).
    pub ewma_ns: f64,
    /// Fastest observed solve (ns).
    pub min_ns: u64,
    /// Most recent solve (ns).
    pub last_ns: u64,
    /// Total failed `ready` polls across all samples.
    pub wait_polls: u64,
    /// Spin-barrier crossings per solve (0 for non-wavefront variants).
    pub barriers: u64,
    /// References per solve (the census total).
    pub terms: u64,
    /// Predicted per-solve cost of the variant, model units.
    pub pred_units: f64,
    /// Synchronization-free part of the prediction, model units.
    pub work_units: f64,
    /// Regression accumulators for the poll-cost slope: Σx, Σx², Σy, Σxy
    /// over (polls, ns) pairs.
    pub sum_polls: f64,
    /// Σx² of the poll-cost regression.
    pub sum_polls_sq: f64,
    /// Σy of the poll-cost regression.
    pub sum_ns: f64,
    /// Σxy of the poll-cost regression.
    pub sum_polls_ns: f64,
}

impl StoredTelemetry {
    fn validate(&self) -> Result<(), PersistError> {
        if self.variant > TAG_WAVEFRONT {
            return Err(structural(format!(
                "telemetry record with unknown variant tag {}",
                self.variant
            )));
        }
        if self.samples == 0 {
            return Err(structural("telemetry record with zero samples"));
        }
        let floats = [
            self.ewma_ns,
            self.pred_units,
            self.work_units,
            self.sum_polls,
            self.sum_polls_sq,
            self.sum_ns,
            self.sum_polls_ns,
        ];
        if floats.iter().any(|v| !v.is_finite()) {
            return Err(structural("telemetry record with non-finite accumulator"));
        }
        Ok(())
    }
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
    /// Host calibration captured with the snapshot (v3, optional).
    pub(crate) calibration: Option<StoredCalibration>,
    /// Variant telemetry captured with the snapshot (v3).
    pub(crate) telemetry: Vec<StoredTelemetry>,
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

    /// The host calibration captured with this store, if any. Consumers
    /// must gate on [`StoredCalibration::is_valid`] before pricing with it.
    pub fn calibration(&self) -> Option<&StoredCalibration> {
        self.calibration.as_ref()
    }

    /// Attaches (or clears) the host calibration to persist.
    pub fn set_calibration(&mut self, calibration: Option<StoredCalibration>) {
        self.calibration = calibration;
    }

    /// The variant-telemetry records captured with this store.
    pub fn telemetry(&self) -> &[StoredTelemetry] {
        &self.telemetry
    }

    /// Appends one telemetry record to persist.
    pub fn push_telemetry(&mut self, record: StoredTelemetry) {
        self.telemetry.push(record);
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
        match &self.calibration {
            Some(calibration) => {
                put_bool(&mut out, true);
                for field in calibration.fields() {
                    put_f64(&mut out, field);
                }
            }
            None => put_bool(&mut out, false),
        }
        put_u64(&mut out, self.telemetry.len() as u64);
        for t in &self.telemetry {
            for word in t.fingerprint.to_raw() {
                put_u64(&mut out, word);
            }
            out.push(t.variant);
            put_u64(&mut out, t.samples);
            put_f64(&mut out, t.ewma_ns);
            put_u64(&mut out, t.min_ns);
            put_u64(&mut out, t.last_ns);
            put_u64(&mut out, t.wait_polls);
            put_u64(&mut out, t.barriers);
            put_u64(&mut out, t.terms);
            put_f64(&mut out, t.pred_units);
            put_f64(&mut out, t.work_units);
            put_f64(&mut out, t.sum_polls);
            put_f64(&mut out, t.sum_polls_sq);
            put_f64(&mut out, t.sum_ns);
            put_f64(&mut out, t.sum_polls_ns);
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
        let calibration = if r.bool()? {
            let mut fields = [0.0f64; 13];
            for field in fields.iter_mut() {
                *field = r.f64()?;
            }
            Some(StoredCalibration::from_fields(fields))
        } else {
            None
        };
        // Fixed-width telemetry records: fingerprint + tag + 7 u64s/u8 +
        // 7 f64s = 40 + 1 + 48 + 56 bytes.
        let ntelemetry = r.counted(5 * 8 + 1 + 6 * 8 + 7 * 8)?;
        let mut telemetry = Vec::with_capacity(ntelemetry);
        for _ in 0..ntelemetry {
            let mut raw = [0u64; 5];
            for word in raw.iter_mut() {
                *word = r.u64()?;
            }
            let fingerprint = PatternFingerprint::from_raw(raw)
                .ok_or_else(|| structural("telemetry fingerprint overflows usize"))?;
            let record = StoredTelemetry {
                fingerprint,
                variant: r.u8()?,
                samples: r.u64()?,
                ewma_ns: r.f64()?,
                min_ns: r.u64()?,
                last_ns: r.u64()?,
                wait_polls: r.u64()?,
                barriers: r.u64()?,
                terms: r.u64()?,
                pred_units: r.f64()?,
                work_units: r.f64()?,
                sum_polls: r.f64()?,
                sum_polls_sq: r.f64()?,
                sum_ns: r.f64()?,
                sum_polls_ns: r.f64()?,
            };
            record.validate()?;
            telemetry.push(record);
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
            calibration,
            telemetry,
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
    use doacross_core::IndirectLoop;
    use doacross_par::ThreadPool;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    /// One real plan per variant the planner can select (mirrors the
    /// planner's own selection tests).
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

        // Blocked: non-injective with wide duplicate-write gaps.
        let (n, period) = (4_096usize, 512usize);
        let a: Vec<usize> = (0..n).map(|i| i % period).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 7) % period]).collect();
        let blocked = IndirectLoop::new(period, a, rhs, vec![vec![0.25]; n]).unwrap();
        out.push(planner.plan(&pool, &blocked).unwrap());

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
        assert!(matches!(variants[4], PlanVariant::Blocked { .. }));
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
    type OwnedParts = (Option<Vec<u32>>, Vec<u32>, Option<Vec<u32>>, Vec<u8>);
    fn record_with(plan: &ExecutionPlan, mutate: &dyn Fn(&mut OwnedParts)) -> Vec<u8> {
        let s = plan.stream().expect("a stream-backed plan");
        let mut parts: OwnedParts = (
            s.order().map(<[u32]>::to_vec),
            s.ends().to_vec(),
            s.level_offsets().map(<[u32]>::to_vec),
            s.classes().to_vec(),
        );
        mutate(&mut parts);
        let (order, ends, levels, classes) = &parts;
        encode_record(
            plan,
            Some((order.as_deref(), ends, levels.as_deref(), classes)),
        )
    }

    /// A record that decodes and is structurally coherent but whose
    /// schedule is unsound must be rejected with the typed `Unsound`
    /// error: a block size one past the census's duplicate-write gap is a
    /// well-formed encoding of a plan that would corrupt results.
    #[test]
    fn decode_rejects_block_size_exceeding_write_gap() {
        let mut plan = plans_of_every_variant().into_iter().nth(4).unwrap();
        let gap = plan
            .census()
            .min_duplicate_write_gap
            .expect("blocked fixture is non-injective");
        plan.variant = PlanVariant::Blocked {
            block_size: gap + 1,
        };
        let bytes = encode_plan(&plan);
        match decode_plan(&bytes) {
            Err(PersistError::Unsound(
                doacross_verify::SoundnessViolation::BlockExceedsWriteGap {
                    block_size,
                    min_gap,
                },
            )) => {
                assert_eq!(block_size, gap + 1);
                assert_eq!(min_gap, gap);
            }
            other => panic!("expected unsound rejection, got {other:?}"),
        }
    }

    /// A stream whose `ends` lost its last entry (the at-rest form of a
    /// truncated artifact) no longer covers its class bytes: it dies in
    /// `ClaimStream::from_parts`, typed, before any of it is trusted.
    #[test]
    fn decode_rejects_stream_with_truncated_ends() {
        for plan in plans_of_every_variant()
            .iter()
            .filter(|p| p.stream().is_some())
        {
            let bytes = record_with(plan, &|p| {
                p.1.pop();
            });
            assert!(
                matches!(decode_plan(&bytes), Err(PersistError::Structural(_))),
                "{}",
                plan.variant()
            );
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
        let plan = plans_of_every_variant().remove(0);
        let fp = *plan.fingerprint();
        let mut store = PlanStore::new();
        store.push_entry(0, Arc::new(plan));
        store.set_calibration(Some(sample_calibration()));
        store.push_telemetry(sample_telemetry(fp, TAG_DOACROSS));
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

    fn sample_calibration() -> StoredCalibration {
        StoredCalibration {
            model: doacross_sim::CostModel::multimax(),
            unit_ns: 1.75,
        }
    }

    fn sample_telemetry(fp: PatternFingerprint, variant: u8) -> StoredTelemetry {
        StoredTelemetry {
            fingerprint: fp,
            variant,
            samples: 12,
            ewma_ns: 52_000.0,
            min_ns: 48_000,
            last_ns: 55_000,
            wait_polls: 340,
            barriers: 0,
            terms: 4_000,
            pred_units: 9_800.0,
            work_units: 9_000.0,
            sum_polls: 340.0,
            sum_polls_sq: 11_000.0,
            sum_ns: 624_000.0,
            sum_polls_ns: 17_900_000.0,
        }
    }

    #[test]
    fn calibration_and_telemetry_sections_round_trip() {
        let plan = plans_of_every_variant().remove(2);
        let fp = *plan.fingerprint();
        let mut store = PlanStore::new();
        store.push_entry(0, Arc::new(plan));
        store.set_calibration(Some(sample_calibration()));
        store.push_telemetry(sample_telemetry(fp, TAG_DOACROSS));
        store.push_telemetry(StoredTelemetry {
            barriers: 19,
            ..sample_telemetry(fp, TAG_WAVEFRONT)
        });

        let bytes = store.to_bytes();
        let back = PlanStore::from_bytes(&bytes).expect("own bytes parse");
        assert_eq!(back.calibration(), Some(&sample_calibration()));
        assert!(back.calibration().unwrap().is_valid());
        assert_eq!(back.telemetry().len(), 2);
        assert_eq!(back.telemetry()[0], store.telemetry()[0]);
        assert_eq!(back.telemetry()[1].barriers, 19);
        assert_eq!(back.to_bytes(), bytes, "serialization is stable");

        // Absent sections round-trip as absent.
        let empty = PlanStore::new();
        let back = PlanStore::from_bytes(&empty.to_bytes()).unwrap();
        assert!(back.calibration().is_none());
        assert!(back.telemetry().is_empty());
    }

    #[test]
    fn unphysical_calibration_round_trips_but_fails_validation() {
        // The codec preserves the bits (the checksum proves they were
        // written on purpose); is_valid() is the consumer's gate, so a
        // buggy producer degrades to re-calibration, not a load failure.
        let mut cal = sample_calibration();
        cal.model.barrier = f64::NAN;
        let mut store = PlanStore::new();
        store.set_calibration(Some(cal));
        let back = PlanStore::from_bytes(&store.to_bytes()).unwrap();
        let restored = back.calibration().expect("section survives");
        assert!(restored.unit_ns == 1.75 && restored.model.barrier.is_nan());
        assert!(!restored.is_valid());

        let mut cal = sample_calibration();
        cal.unit_ns = -1.0;
        assert!(!cal.is_valid());
        assert!(sample_calibration().is_valid());
    }

    #[test]
    fn malformed_telemetry_records_are_rejected_typed() {
        let fp = *Arc::new(plans_of_every_variant().remove(1)).fingerprint();
        for (what, record) in [
            (
                "unknown tag",
                StoredTelemetry {
                    variant: 9,
                    ..sample_telemetry(fp, 0)
                },
            ),
            (
                "zero samples",
                StoredTelemetry {
                    samples: 0,
                    ..sample_telemetry(fp, 0)
                },
            ),
            (
                "non-finite accumulator",
                StoredTelemetry {
                    ewma_ns: f64::INFINITY,
                    ..sample_telemetry(fp, 0)
                },
            ),
        ] {
            let mut store = PlanStore::new();
            store.push_telemetry(record);
            let err = PlanStore::from_bytes(&store.to_bytes()).unwrap_err();
            assert!(
                matches!(err, PersistError::Structural(_)),
                "{what}: {err:?}"
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

    #[test]
    fn structural_revalidation_rejects_inconsistent_records() {
        let plans = plans_of_every_variant();
        let doacross = &plans[2];
        let reordered = &plans[3];
        let wavefront = &plans[5];
        assert_eq!(wavefront.variant(), PlanVariant::Wavefront);

        let corrupt = |plan: &ExecutionPlan, mutate: &dyn Fn(&mut ExecutionPlan)| {
            let bytes = encode_plan(plan);
            let mut patient = decode_plan(&bytes).unwrap();
            mutate(&mut patient);
            decode_plan(&encode_plan(&patient))
        };

        assert_structural(corrupt(doacross, &|p| p.processors = 0), "zero processors");
        assert_structural(
            corrupt(doacross, &|p| p.census.total_terms += 1),
            "census disagrees with fingerprint",
        );
        assert_structural(
            corrupt(doacross, &|p| p.stream = None),
            "streamed variant without its claim stream",
        );
        assert_structural(
            corrupt(&plans[1], &|p| p.stream = doacross.stream.clone()),
            "stream attached to a variant that never consumes one",
        );
        assert_structural(
            corrupt(doacross, &|p| p.stream = reordered.stream.clone()),
            "a natural-order plan carrying a claim order",
        );
        assert_structural(
            corrupt(reordered, &|p| p.stream = wavefront.stream.clone()),
            "a flag plan carrying level offsets",
        );
        assert_structural(
            corrupt(doacross, &|p| p.census.injective = false),
            "flat doacross over a non-injective lhs",
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
            corrupt(&plans[4], &|p| {
                p.variant = PlanVariant::Blocked { block_size: 0 };
            }),
            "zero block size",
        );
        assert_structural(
            corrupt(&plans[4], &|p| {
                p.variant = PlanVariant::Blocked {
                    block_size: p.census.iterations + 1,
                };
            }),
            "block size beyond the iteration space",
        );

        // Wavefront-specific inconsistencies.
        assert_structural(
            decode_plan(&record_with(wavefront, &|p| p.2 = None)),
            "wavefront variant without its level offsets",
        );
        assert_structural(
            decode_plan(&record_with(wavefront, &|p| {
                // Merge the first two levels: still a valid CSR structure,
                // but the level count no longer matches the census
                // critical path.
                p.2.as_mut().unwrap().remove(1);
            })),
            "level count disagrees with the census critical path",
        );
        for plan in [doacross, reordered, wavefront] {
            if plan.census.true_deps == 0 {
                continue;
            }
            assert_structural(
                decode_plan(&record_with(plan, &|p| {
                    // Flip one true-dependency class to old-value: the
                    // class counts no longer match the census
                    // classification.
                    let flip = p.3.iter().position(|&c| c == 0).expect("has true deps");
                    p.3[flip] = 1;
                })),
                "operand classes disagree with the census",
            );
        }
        assert_structural(
            decode_plan(&record_with(wavefront, &|p| p.3[0] = 9)),
            "a class byte no encoder writes",
        );

        // Garbage never panics, whatever byte it lands on.
        let mut bytes = encode_plan(reordered);
        for i in 0..bytes.len() {
            bytes[i] = bytes[i].wrapping_add(0x5B);
            let _ = decode_plan(&bytes); // must not panic
            bytes[i] = bytes[i].wrapping_sub(0x5B);
        }
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
