//! The soundness verifier: translation validation of synchronization
//! schedules against the dependences a pattern's index arrays imply.
//!
//! [`verify_pattern`] is the full check (pattern in hand): it re-derives
//! the last-writer map and walks every right-hand-side reference,
//! comparing the dependence class the executor *will* act on (the byte the
//! plan's claim stream holds for that reference, or the linear oracle's
//! arithmetic) against the class the index arrays *imply* — reporting the
//! first uncovered edge — and then the ordering obligation of the variant
//! (claim positions, levels). [`verify_artifacts`] is the pattern-free
//! check persistence runs at load time: everything provable from the
//! schedule artifacts and the census alone (injectivity prerequisites, the
//! stream's shape and class counts, block size vs duplicate-write gap).

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
/// it is read: built for `iterations` iterations, and carrying exactly the
/// optional parts its variant executes with — no claim order under natural
/// flags, one under ordered flags, level offsets under the wavefront.
fn stream_shape(
    schedule: &SyncSchedule<'_>,
    stream: &ClaimStream,
    iterations: usize,
) -> Result<(), SoundnessViolation> {
    if stream.iterations() != iterations {
        return Err(SoundnessViolation::ShapeMismatch {
            what: "claim stream iterations",
            expected: iterations,
            got: stream.iterations(),
        });
    }
    let order_len = stream.order().map(<[u32]>::len);
    match schedule {
        SyncSchedule::FlagsNatural { .. } if order_len.is_some() => {
            Err(SoundnessViolation::ShapeMismatch {
                what: "claim order of a natural-order stream",
                expected: 0,
                got: iterations,
            })
        }
        SyncSchedule::FlagsOrdered { .. } if order_len != Some(iterations) => {
            Err(SoundnessViolation::ShapeMismatch {
                what: "claim order length",
                expected: iterations,
                got: order_len.unwrap_or(0),
            })
        }
        SyncSchedule::Wavefront { .. } if stream.level_offsets().is_none() => {
            Err(SoundnessViolation::ArtifactMismatch {
                what: "level offsets of a wavefront stream",
                expected: 1,
                got: 0,
            })
        }
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
        SyncSchedule::Blocked { block_size } => {
            if *block_size == 0 {
                return Err(SoundnessViolation::ShapeMismatch {
                    what: "block size",
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
            match schedule {
                SyncSchedule::Sequential => report.output_pairs += 1,
                SyncSchedule::Blocked { block_size } => {
                    if prev as usize / block_size == i / block_size {
                        return Err(SoundnessViolation::DuplicateWriteInBlock {
                            edge,
                            block: i / block_size,
                            block_size: *block_size,
                        });
                    }
                    report.output_pairs += 1;
                }
                // Flat flags fire once per element; the wavefront's level
                // DAG has one producer per element. Neither can order two
                // writes.
                _ => return Err(SoundnessViolation::UncoveredOutput { edge }),
            }
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
        // it; a row of another length would be read out of step.
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
                &stream.classes()[row]
            }
            None => &[],
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
                // Program order (sequential) and the per-block inspector
                // (blocked) re-derive the classification from the index
                // arrays at run time; there is no prebuilt class to
                // disagree with.
                SyncSchedule::Sequential | SyncSchedule::Blocked { .. } => continue,
                SyncSchedule::FlagsLinear { .. } => {
                    // The subscript was proven to match `lhs` above, so the
                    // arithmetic oracle necessarily agrees with the truth
                    // map; the classification is re-checked anyway so a
                    // future oracle change cannot silently decouple them.
                    let oracle = linear_oracle.as_ref().expect("constructed for this arm");
                    classify(oracle.writer(e), i)
                }
                // The three stream-backed variants share one rule: the
                // executor acts on the byte the stream holds for (k, j).
                SyncSchedule::FlagsNatural { .. }
                | SyncSchedule::FlagsOrdered { .. }
                | SyncSchedule::Wavefront { .. } => {
                    let byte = row[j];
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
/// checks can not be sound for any pattern matching the census.
pub fn verify_artifacts(
    facts: &CensusFacts,
    schedule: &SyncSchedule<'_>,
) -> Result<(), SoundnessViolation> {
    let classified = facts.true_deps + facts.anti_deps + facts.intra + facts.unwritten;
    // The blocked variant is selected precisely when the census could not
    // classify (non-injective lhs), so its census legitimately carries
    // zero classified references; every other variant's census comes from
    // the full classification pass.
    if !matches!(
        schedule,
        SyncSchedule::Blocked { .. } | SyncSchedule::Sequential
    ) && classified != facts.total_terms
    {
        return Err(SoundnessViolation::ArtifactMismatch {
            what: "census reference classification",
            expected: facts.total_terms,
            got: classified,
        });
    }
    if schedule.requires_injective() && !facts.injective {
        return Err(SoundnessViolation::RequiresInjective {
            variant: schedule.variant_name(),
        });
    }
    match schedule {
        SyncSchedule::Sequential => {}
        // One rule for the three stream-backed variants: the stream was
        // built for this census — its shape, its reference total, and how
        // many references it routes to each source.
        SyncSchedule::FlagsNatural { stream }
        | SyncSchedule::FlagsOrdered { stream }
        | SyncSchedule::Wavefront { stream } => {
            stream_shape(schedule, stream, facts.iterations)?;
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
                    facts.anti_deps + facts.unwritten,
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
                let last = subscript.c * (facts.iterations - 1) + subscript.d;
                if last >= facts.data_len {
                    return Err(SoundnessViolation::OutOfBounds {
                        iteration: facts.iterations - 1,
                        element: last,
                        data_len: facts.data_len,
                    });
                }
            }
        }
        SyncSchedule::Blocked { block_size } => {
            if *block_size == 0 {
                return Err(SoundnessViolation::ShapeMismatch {
                    what: "block size",
                    expected: 1,
                    got: 0,
                });
            }
            if !facts.injective {
                let Some(gap) = facts.min_duplicate_write_gap else {
                    return Err(SoundnessViolation::ArtifactMismatch {
                        what: "duplicate-write gap of a non-injective census",
                        expected: 1,
                        got: 0,
                    });
                };
                // Two writes to one element `gap` iterations apart land in
                // one block once the block spans more than `gap`
                // iterations — the off-by-one-boundary failure mode,
                // caught without the index arrays.
                if *block_size > gap {
                    return Err(SoundnessViolation::BlockExceedsWriteGap {
                        block_size: *block_size,
                        min_gap: gap,
                    });
                }
            }
        }
    }
    Ok(())
}
