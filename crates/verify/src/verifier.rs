//! The soundness verifier: translation validation of synchronization
//! schedules against the dependences a pattern's index arrays imply.
//!
//! [`verify_pattern`] is the full check (pattern in hand): it re-derives
//! the last-writer map and walks every right-hand-side reference,
//! comparing the dependence class the executor *will* act on (the byte the
//! plan's claim stream holds for that reference — `NewValue` when the
//! stream holds none — or the linear oracle's arithmetic) against the class the index arrays *imply* — reporting the
//! first uncovered edge — and then the ordering obligation of the variant
//! (claim positions, levels). [`verify_artifacts`] is the pattern-free
//! check persistence runs at load time, its one judge of a loaded plan:
//! everything provable from the schedule artifacts and the census alone
//! (injectivity prerequisites, the classification total, the stream's
//! shape, level count and class counts).

use crate::schedule::{CensusFacts, SyncSchedule};
use crate::violation::{DependenceEdge, SoundnessReport, SoundnessViolation};
use doacross_core::{AccessPattern, ClaimStream, LinearWriter, OperandClass, MAXINT};

/// How the executor will treat one right-hand-side reference — the
/// behavioral collapse of the writer comparison: `w < i` waits and reads
/// the new value, `w == i` reads the accumulator, `w > i` and unwritten
/// both read the old value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefClass {
    New,
    Old,
    Accumulator,
}

#[inline]
fn classify(writer: i64, reader: usize) -> RefClass {
    if writer == MAXINT {
        RefClass::Old
    } else {
        match (writer as usize).cmp(&reader) {
            std::cmp::Ordering::Less => RefClass::New,
            std::cmp::Ordering::Equal => RefClass::Accumulator,
            std::cmp::Ordering::Greater => RefClass::Old,
        }
    }
}

/// The violation for a reference whose schedule class disagrees with the
/// class the index arrays imply, anchored on the implied dependence edge.
fn class_violation(
    truth_writer: i64,
    claimed: RefClass,
    element: usize,
    reader: usize,
) -> SoundnessViolation {
    match classify(truth_writer, reader) {
        RefClass::New => SoundnessViolation::UncoveredFlow {
            edge: DependenceEdge::Flow {
                element,
                writer: truth_writer as usize,
                reader,
            },
        },
        RefClass::Accumulator => SoundnessViolation::UncoveredIntra {
            edge: DependenceEdge::Intra {
                element,
                iteration: reader,
            },
        },
        RefClass::Old if truth_writer != MAXINT => SoundnessViolation::UncoveredAnti {
            edge: DependenceEdge::Anti {
                element,
                reader,
                writer: truth_writer as usize,
            },
        },
        RefClass::Old => match claimed {
            // The schedule waits for (or reads the shadow of) an element
            // that is never produced.
            RefClass::New => SoundnessViolation::PhantomWait { element, reader },
            _ => SoundnessViolation::UncoveredIntra {
                edge: DependenceEdge::Intra {
                    element,
                    iteration: reader,
                },
            },
        },
    }
}

/// The shape a stream-backed schedule's artifact must have before any of
/// it is read: carrying exactly the optional parts its variant executes
/// with — no claim order under natural flags, one under ordered flags and
/// the wavefront, level offsets under the wavefront and nowhere else (the
/// runtime picks the level gate from them, so a flag stream with levels
/// would run as a wavefront) — and built for `iterations` iterations.
fn stream_shape(
    schedule: &SyncSchedule<'_>,
    stream: &ClaimStream,
    iterations: usize,
) -> Result<(), SoundnessViolation> {
    let wavefront = matches!(schedule, SyncSchedule::Wavefront { .. });
    match (schedule, stream.order().map(<[u32]>::len)) {
        (SyncSchedule::FlagsNatural { .. }, Some(len)) => Err(SoundnessViolation::ShapeMismatch {
            what: "claim order of a natural-order stream",
            expected: 0,
            got: len,
        }),
        (SyncSchedule::FlagsOrdered { .. } | SyncSchedule::Wavefront { .. }, None) => {
            Err(SoundnessViolation::ShapeMismatch {
                what: "claim order length",
                expected: iterations,
                got: 0,
            })
        }
        _ if stream.level_offsets().is_some() != wavefront => {
            Err(SoundnessViolation::ArtifactMismatch {
                what: if wavefront {
                    "level offsets of a wavefront stream"
                } else {
                    "level offsets of a flag stream"
                },
                expected: wavefront as u64,
                got: !wavefront as u64,
            })
        }
        // A stream's order is as long as its iterations, so this sizes
        // the order too.
        _ if stream.iterations() != iterations => Err(SoundnessViolation::ShapeMismatch {
            what: "claim stream iterations",
            expected: iterations,
            got: stream.iterations(),
        }),
        _ => Ok(()),
    }
}

/// `positions[i]` = the claim slot that executes iteration `i`, re-derived
/// from the stream's order (the identity in natural order) — and with it
/// the proof that the order is a permutation, taken here rather than on
/// the constructor's word.
fn claim_positions(stream: &ClaimStream) -> Result<Vec<usize>, SoundnessViolation> {
    let n = stream.iterations();
    let Some(order) = stream.order() else {
        return Ok((0..n).collect());
    };
    let mut positions = vec![usize::MAX; n];
    for (k, &i) in order.iter().enumerate() {
        let i = i as usize;
        if i >= n || positions[i] != usize::MAX {
            return Err(SoundnessViolation::OrderNotPermutation { entry: i });
        }
        positions[i] = k;
    }
    Ok(positions)
}

/// Statically proves that `schedule` covers every flow, anti, and output
/// dependence `pattern`'s index arrays imply, or reports the first
/// uncovered dependence edge. See the crate docs for the coverage rule of
/// each variant.
///
/// Cost: O(data space + references) — the same order as one inspector
/// pass, so the check is affordable at plan-build time.
pub fn verify_pattern<P: AccessPattern + ?Sized>(
    pattern: &P,
    schedule: &SyncSchedule<'_>,
) -> Result<SoundnessReport, SoundnessViolation> {
    let n = pattern.iterations();
    let data_len = pattern.data_len();
    let mut report = SoundnessReport {
        iterations: n,
        data_len,
        ..Default::default()
    };

    // Per-variant shape prerequisites, before any O(n) work; for the
    // stream-backed variants also the slot each iteration is claimed at.
    let mut positions: Vec<usize> = Vec::new();
    match schedule {
        SyncSchedule::Sequential => {}
        SyncSchedule::FlagsNatural { stream }
        | SyncSchedule::FlagsOrdered { stream }
        | SyncSchedule::Wavefront { stream } => {
            stream_shape(schedule, stream, n)?;
            positions = claim_positions(stream)?;
        }
        SyncSchedule::FlagsLinear { subscript } => {
            if subscript.c == 0 {
                return Err(SoundnessViolation::ShapeMismatch {
                    what: "linear stride",
                    expected: 1,
                    got: 0,
                });
            }
        }
    }

    // Ground truth, pass 1: the last-writer map exactly as the inspector
    // fills it, plus the duplicate-write (output-dependence) structure.
    let mut truth = vec![MAXINT; data_len];
    for i in 0..n {
        let a = pattern.lhs(i);
        if a >= data_len {
            return Err(SoundnessViolation::OutOfBounds {
                iteration: i,
                element: a,
                data_len,
            });
        }
        if let SyncSchedule::FlagsLinear { subscript } = schedule {
            let expected = subscript.at(i);
            if a != expected {
                return Err(SoundnessViolation::SubscriptMismatch {
                    iteration: i,
                    expected,
                    got: a,
                });
            }
        }
        let prev = truth[a];
        if prev != MAXINT {
            let edge = DependenceEdge::Output {
                element: a,
                first: prev as usize,
                second: i,
            };
            // Program order covers the pair. Flat flags fire once per
            // element; the wavefront's level DAG has one producer per
            // element. Neither can order two writes.
            if schedule.requires_injective() {
                return Err(SoundnessViolation::UncoveredOutput { edge });
            }
            report.output_pairs += 1;
        }
        truth[a] = i as i64;
    }

    // Wavefront artifact: the per-iteration level (1-based, from the CSR
    // buckets over the claim slots), needed in the reference walk.
    let mut levels: Vec<usize> = Vec::new();
    if let SyncSchedule::Wavefront { stream } = schedule {
        levels = vec![0usize; n];
        for l in 0..stream.level_count() {
            for k in stream.level_slots(l) {
                levels[stream.order().map_or(k, |order| order[k] as usize)] = l + 1;
            }
        }
    }

    // The linear oracle is constructed once (its per-query cost is a
    // divide, not a map lookup).
    let linear_oracle = match schedule {
        SyncSchedule::FlagsLinear { subscript } => {
            Some(LinearWriter::new(subscript.c, subscript.d, n))
        }
        _ => None,
    };

    // Ground truth, pass 2: walk every reference and check the schedule
    // covers the dependence it implies.
    for i in 0..n {
        let terms = pattern.terms(i);
        // The stream's row for this iteration sits at the slot that claims
        // it; a row of another length would be read out of step. A stream
        // without class bytes has no row to read: every reference in it
        // is `NewValue`.
        let row = match schedule.stream() {
            Some(stream) => {
                let ends = stream.ends();
                let row = ends[positions[i]] as usize..ends[positions[i] + 1] as usize;
                if row.len() != terms {
                    return Err(SoundnessViolation::ShapeMismatch {
                        what: "iteration reference count",
                        expected: terms,
                        got: row.len(),
                    });
                }
                stream.classes().map(|classes| &classes[row])
            }
            None => None,
        };
        #[allow(clippy::needless_range_loop)] // `j` is the pattern's term index first
        for j in 0..terms {
            let e = pattern.term_element(i, j);
            if e >= data_len {
                return Err(SoundnessViolation::OutOfBounds {
                    iteration: i,
                    element: e,
                    data_len,
                });
            }
            report.references += 1;
            let w = truth[e];
            let truth_class = classify(w, i);
            match truth_class {
                RefClass::New => report.flow_edges += 1,
                RefClass::Accumulator => report.intra_refs += 1,
                RefClass::Old if w != MAXINT => report.anti_edges += 1,
                RefClass::Old => report.unwritten_refs += 1,
            }

            let claimed = match schedule {
                // Program order: there is no prebuilt class to disagree
                // with.
                SyncSchedule::Sequential => continue,
                SyncSchedule::FlagsLinear { .. } => {
                    // The subscript was proven to match `lhs` above, so the
                    // arithmetic oracle necessarily agrees with the truth
                    // map; the classification is re-checked anyway so a
                    // future oracle change cannot silently decouple them.
                    let oracle = linear_oracle.as_ref().expect("constructed for this arm");
                    classify(oracle.writer(e), i)
                }
                // The three stream-backed variants share one rule: the
                // executor acts on the byte the stream holds for (k, j),
                // and on `NewValue` where the stream holds none.
                SyncSchedule::FlagsNatural { .. }
                | SyncSchedule::FlagsOrdered { .. }
                | SyncSchedule::Wavefront { .. } => {
                    let byte = row.map_or(OperandClass::NewValue as u8, |row| row[j]);
                    match OperandClass::from_u8(byte) {
                        Some(OperandClass::NewValue) => RefClass::New,
                        Some(OperandClass::OldValue) => RefClass::Old,
                        Some(OperandClass::Accumulator) => RefClass::Accumulator,
                        None => {
                            return Err(SoundnessViolation::ArtifactMismatch {
                                what: "operand class byte",
                                expected: OperandClass::Accumulator as u64,
                                got: byte as u64,
                            })
                        }
                    }
                }
            };

            if claimed != truth_class {
                return Err(class_violation(w, claimed, e, i));
            }

            // The class matches; now the *ordering* obligations.
            if truth_class == RefClass::New {
                let w = w as usize;
                match schedule {
                    // Progress: the executor claims iterations in the
                    // doconsider order, so a reader claimed before its
                    // writer livelocks once workers saturate.
                    SyncSchedule::FlagsOrdered { .. } if positions[w] > positions[i] => {
                        return Err(SoundnessViolation::ClaimOrderInversion {
                            edge: DependenceEdge::Flow {
                                element: e,
                                writer: w,
                                reader: i,
                            },
                            writer_position: positions[w],
                            reader_position: positions[i],
                        });
                    }
                    // Coverage: only a strictly earlier level is
                    // separated from the reader by a barrier.
                    SyncSchedule::Wavefront { .. } if levels[w] >= levels[i] => {
                        return Err(SoundnessViolation::LevelOrderViolation {
                            edge: DependenceEdge::Flow {
                                element: e,
                                writer: w,
                                reader: i,
                            },
                            writer_level: levels[w],
                            reader_level: levels[i],
                        });
                    }
                    // Natural claim order covers w < i by construction.
                    _ => {}
                }
            }
        }
    }

    Ok(report)
}

/// The pattern-free half: everything provable from the schedule artifacts
/// and the census alone. This is what persisted-plan loading runs — the
/// index arrays are not in the store, but a schedule that fails *these*
/// checks can not be sound for any pattern matching the census. It is the
/// one judge of a loaded plan: the store's codec only parses.
pub fn verify_artifacts(
    facts: &CensusFacts,
    schedule: &SyncSchedule<'_>,
) -> Result<(), SoundnessViolation> {
    // A census that counted no class vouches for no stream's classes.
    if schedule.stream().is_some() && !facts.classified {
        return Err(SoundnessViolation::UnclassifiedCensus {
            variant: schedule.variant_name(),
        });
    }
    if schedule.requires_injective() && !facts.injective {
        return Err(SoundnessViolation::RequiresInjective {
            variant: schedule.variant_name(),
        });
    }
    // No census classifies more references than exist. A sequential
    // plan's census may count fewer (none, over a non-injective left-hand
    // side or a plan settled on its reference counts); every parallel
    // variant's comes from the full classification pass, which counts
    // each reference once. Summed saturating: the counts may be a
    // corrupt store's.
    let classified = [facts.anti_deps, facts.intra, facts.unwritten]
        .into_iter()
        .fold(facts.true_deps, u64::saturating_add);
    if (facts.classified && classified > facts.total_terms)
        || (schedule.requires_injective() && classified != facts.total_terms)
    {
        return Err(SoundnessViolation::ArtifactMismatch {
            what: "census reference classification",
            expected: facts.total_terms,
            got: classified,
        });
    }
    match schedule {
        SyncSchedule::Sequential => {}
        // One rule for the three stream-backed variants: the stream was
        // built for this census — its shape, its level count, its
        // reference total, and how many references it routes to each
        // source.
        SyncSchedule::FlagsNatural { stream }
        | SyncSchedule::FlagsOrdered { stream }
        | SyncSchedule::Wavefront { stream } => {
            stream_shape(schedule, stream, facts.iterations)?;
            if stream.level_offsets().is_some() && stream.level_count() != facts.critical_path {
                return Err(SoundnessViolation::ShapeMismatch {
                    what: "wavefront levels against the census critical path",
                    expected: facts.critical_path,
                    got: stream.level_count(),
                });
            }
            claim_positions(stream)?;
            if stream.total_terms() as u64 != facts.total_terms {
                return Err(SoundnessViolation::ArtifactMismatch {
                    what: "claim stream references",
                    expected: facts.total_terms,
                    got: stream.total_terms() as u64,
                });
            }
            let counts = stream.class_counts();
            for (what, expected, got) in [
                ("new-value class count", facts.true_deps, counts.true_deps),
                (
                    "old-value class count",
                    facts.anti_deps.saturating_add(facts.unwritten),
                    counts.anti_or_unwritten,
                ),
                ("accumulator class count", facts.intra, counts.intra),
            ] {
                if got != expected {
                    return Err(SoundnessViolation::ArtifactMismatch {
                        what,
                        expected,
                        got,
                    });
                }
            }
        }
        SyncSchedule::FlagsLinear { subscript } => {
            if subscript.c == 0 {
                return Err(SoundnessViolation::ShapeMismatch {
                    what: "linear stride",
                    expected: 1,
                    got: 0,
                });
            }
            if facts.iterations > 0 {
                let last = subscript
                    .c
                    .saturating_mul(facts.iterations - 1)
                    .saturating_add(subscript.d);
                if last >= facts.data_len {
                    return Err(SoundnessViolation::OutOfBounds {
                        iteration: facts.iterations - 1,
                        element: last,
                        data_len: facts.data_len,
                    });
                }
            }
        }
    }
    Ok(())
}
