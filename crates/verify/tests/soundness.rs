//! The mutation-kill battery: every seeded schedule corruption class must
//! be caught with a structured violation naming the uncovered dependence
//! edge, and every honest schedule must verify sound.

use doacross_core::{AccessPattern, ClaimStream, IndirectLoop, LinearSubscript, MAXINT};
use doacross_verify::{
    verify_artifacts, verify_pattern, CensusFacts, DependenceEdge, SoundnessViolation, SyncSchedule,
};

// ---------------------------------------------------------------------------
// Fixtures and honest-schedule derivation (independent of the plan layer).
// ---------------------------------------------------------------------------

/// Last-writer map exactly as the inspector fills it.
fn truth_writers<P: AccessPattern + ?Sized>(p: &P) -> Vec<i64> {
    let mut w = vec![MAXINT; p.data_len()];
    for i in 0..p.iterations() {
        w[p.lhs(i)] = i as i64;
    }
    w
}

/// The honest classification of a pattern in *iteration* order: term
/// offsets, one operand-class byte per reference (0 new / 1 old / 2
/// accumulator, against the last-writer map) and 1-based wavefront levels.
struct Honest {
    term_offsets: Vec<usize>,
    classes: Vec<u8>,
    levels: Vec<usize>,
}

fn honest<P: AccessPattern + ?Sized>(p: &P) -> Honest {
    let writers = truth_writers(p);
    let n = p.iterations();
    let mut levels = vec![0usize; n];
    let mut term_offsets = Vec::with_capacity(n + 1);
    let mut classes = Vec::new();
    term_offsets.push(0);
    for i in 0..n {
        let mut lvl = 1;
        for j in 0..p.terms(i) {
            let e = p.term_element(i, j);
            let w = writers[e];
            classes.push(if w == MAXINT || w as usize > i {
                1 // OldValue
            } else if (w as usize) == i {
                2 // Accumulator
            } else {
                lvl = lvl.max(levels[w as usize] + 1);
                0 // NewValue
            });
        }
        levels[i] = lvl;
        term_offsets.push(classes.len());
    }
    Honest {
        term_offsets,
        classes,
        levels,
    }
}

/// A flag stream for `p` under `order` (`None` = natural), with one
/// mutation applied to the iteration-order class bytes.
fn flag_stream(
    p: &impl AccessPattern,
    order: Option<&[usize]>,
    mutate_classes: impl Fn(&mut Vec<u8>),
) -> ClaimStream {
    let Honest {
        term_offsets,
        mut classes,
        ..
    } = honest(p);
    mutate_classes(&mut classes);
    ClaimStream::from_iteration_order(order, None, &term_offsets, classes)
        .expect("a structurally valid stream")
}

/// Where iteration `i`'s `j`-th reference sits in the iteration-order
/// class bytes.
fn class_at(p: &impl AccessPattern, i: usize, j: usize) -> usize {
    honest(p).term_offsets[i] + j
}

/// Honest wavefront stream.
fn honest_wavefront(p: &impl AccessPattern) -> ClaimStream {
    mutate_wavefront(p, |_| {}, |_| {})
}

/// A wavefront stream with one mutation applied to the level assignment
/// or the class bytes (both in iteration order).
fn mutate_wavefront(
    p: &impl AccessPattern,
    mutate_levels: impl Fn(&mut Vec<usize>),
    mutate_classes: impl Fn(&mut Vec<u8>),
) -> ClaimStream {
    let Honest {
        term_offsets,
        mut classes,
        mut levels,
    } = honest(p);
    mutate_levels(&mut levels);
    mutate_classes(&mut classes);
    // Levels left empty by a mutation are squeezed out: the stream's CSR
    // form has none, and relative order is what the proof is about.
    let mut used = levels.clone();
    used.sort_unstable();
    used.dedup();
    let dense: Vec<usize> = levels
        .iter()
        .map(|l| used.binary_search(l).unwrap() + 1)
        .collect();
    ClaimStream::from_levels(&dense, used.len(), &term_offsets, classes)
        .expect("a structurally valid stream")
}

/// A chain: iteration `i` writes `y[i]` and reads `y[i-1]` — one flow edge
/// per adjacent pair.
fn chain(n: usize) -> IndirectLoop {
    let a: Vec<usize> = (0..n).collect();
    let rhs: Vec<Vec<usize>> = (0..n)
        .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
        .collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
    IndirectLoop::new(n, a, rhs, coeff).expect("valid chain")
}

/// One of everything: flow, anti, intra, and unwritten references over an
/// injective left-hand side (6 iterations, data space 8, elements 6 and 7
/// never written).
fn mixed() -> IndirectLoop {
    let a: Vec<usize> = (0..6).collect();
    let rhs: Vec<Vec<usize>> = vec![
        vec![],
        vec![0],          // flow: 0 -> 1 on y[0]
        vec![2],          // intra
        vec![4],          // anti: writer 4 > reader 3
        vec![6],          // unwritten
        vec![0, 4, 5, 7], // flow, flow, intra, unwritten
    ];
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.25; r.len()]).collect();
    IndirectLoop::new(8, a, rhs, coeff).expect("valid mixed")
}

/// Non-injective: iterations 0 and 2 both write `y[0]` (gap 2).
fn duplicate_writes() -> IndirectLoop {
    IndirectLoop::new(
        3,
        vec![0, 1, 0, 2],
        vec![vec![], vec![0], vec![1], vec![0]],
        vec![vec![], vec![1.0], vec![1.0], vec![1.0]],
    )
    .expect("valid duplicate-write loop")
}

// ---------------------------------------------------------------------------
// Honest schedules verify sound.
// ---------------------------------------------------------------------------

#[test]
fn honest_doacross_is_sound() {
    let l = mixed();
    let stream = flag_stream(&l, None, |_| {});
    let report =
        verify_pattern(&l, &SyncSchedule::FlagsNatural { stream: &stream }).expect("sound");
    assert_eq!(report.references, 8);
    assert_eq!(report.flow_edges, 3);
    assert_eq!(report.anti_edges, 1);
    assert_eq!(report.intra_refs, 2);
    assert_eq!(report.unwritten_refs, 2);
}

#[test]
fn honest_ordered_and_wavefront_are_sound() {
    let l = mixed();
    // Any topological order works; this one interleaves independent
    // iterations ahead of dependent ones.
    let stream = flag_stream(&l, Some(&[4, 2, 0, 3, 1, 5]), |_| {});
    verify_pattern(&l, &SyncSchedule::FlagsOrdered { stream: &stream })
        .expect("topological order is sound");
    let ls = honest_wavefront(&l);
    verify_pattern(&l, &SyncSchedule::Wavefront { stream: &ls }).expect("honest levels sound");
    // A wavefront stream's level-sorted order is itself a topological
    // claim order: as a flag stream (the order without the levels) it
    // passes the flag rule too.
    let level_order: Vec<usize> = ls.order().unwrap().iter().map(|&i| i as usize).collect();
    let flags = flag_stream(&l, Some(&level_order), |_| {});
    verify_pattern(&l, &SyncSchedule::FlagsOrdered { stream: &flags })
        .expect("levels are an order");
}

#[test]
fn deepened_but_consistent_levels_stay_sound() {
    // Exact minimality is not a soundness requirement: pushing an
    // iteration to a deeper level only adds synchronization.
    let l = chain(4);
    let ls = mutate_wavefront(&l, |levels| levels[3] = 7, |_| {});
    verify_pattern(&l, &SyncSchedule::Wavefront { stream: &ls }).expect("deeper is still sound");
}

#[test]
fn honest_linear_is_sound() {
    let n = 5;
    let a: Vec<usize> = (0..n).map(|i| 2 * i + 1).collect();
    let rhs: Vec<Vec<usize>> = (0..n)
        .map(|i| if i == 0 { vec![] } else { vec![2 * i - 1] })
        .collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![1.0; r.len()]).collect();
    let l = IndirectLoop::new(2 * n, a, rhs, coeff).unwrap();
    let subscript = LinearSubscript::new(2, 1);
    verify_pattern(&l, &SyncSchedule::FlagsLinear { subscript }).expect("linear sound");
}

#[test]
fn sequential_tolerates_duplicate_writes() {
    let l = duplicate_writes();
    let report = verify_pattern(&l, &SyncSchedule::Sequential).expect("sequential always sound");
    assert_eq!(report.output_pairs, 1, "program order covers the pair");
}

// ---------------------------------------------------------------------------
// Mutation kills. Each corruption class must produce the exact structured
// violation, naming the uncovered dependence edge.
// ---------------------------------------------------------------------------

/// Mutation 1 — dropped flag: one class byte of a *flag* stream flipped
/// from new-value to old-value, so reader 1 never checks `ready[0]` and
/// consumes the stale y[0].
#[test]
fn kills_dropped_flag() {
    let l = chain(4);
    let at = class_at(&l, 1, 0);
    let stream = flag_stream(&l, None, |classes| classes[at] = 1);
    let err = verify_pattern(&l, &SyncSchedule::FlagsNatural { stream: &stream }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::UncoveredFlow {
            edge: DependenceEdge::Flow {
                element: 0,
                writer: 0,
                reader: 1
            }
        }
    );
}

/// Mutation 2 — flow misrouted to the accumulator: the stream claims the
/// reader itself produces the element it actually receives from
/// iteration 0.
#[test]
fn kills_flow_redirected_to_self() {
    let l = chain(4);
    let at = class_at(&l, 1, 0);
    let stream = flag_stream(&l, None, |classes| classes[at] = 2);
    let err = verify_pattern(&l, &SyncSchedule::FlagsNatural { stream: &stream }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::UncoveredFlow {
            edge: DependenceEdge::Flow {
                element: 0,
                writer: 0,
                reader: 1
            }
        }
    );
}

/// Mutation 3 — inverted antidependence: y[4] is written by iteration 4,
/// read (old value) by iteration 3; the corrupt byte says new-value,
/// making reader 3 wait for — and consume — the overwritten value.
#[test]
fn kills_inverted_antidependence() {
    let l = mixed();
    let at = class_at(&l, 3, 0);
    let stream = flag_stream(&l, None, |classes| classes[at] = 0);
    let err = verify_pattern(&l, &SyncSchedule::FlagsNatural { stream: &stream }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::UncoveredAnti {
            edge: DependenceEdge::Anti {
                element: 4,
                reader: 3,
                writer: 4
            }
        }
    );
}

/// Mutation 4 — phantom wait: the stream claims y[6] (which no iteration
/// writes) arrives as a new value, so reader 4 waits on a flag that can
/// never fire.
#[test]
fn kills_phantom_wait() {
    let l = mixed();
    let at = class_at(&l, 4, 0);
    let stream = flag_stream(&l, None, |classes| classes[at] = 0);
    let err = verify_pattern(&l, &SyncSchedule::FlagsNatural { stream: &stream }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::PhantomWait {
            element: 6,
            reader: 4
        }
    );
}

/// Mutation 5 — intra-iteration reference misrouted: y[2] is iteration 2's
/// own output, but the byte says old-value, so the executor reads the old
/// array instead of the accumulator.
#[test]
fn kills_misrouted_intra() {
    let l = mixed();
    let at = class_at(&l, 2, 0);
    let stream = flag_stream(&l, None, |classes| classes[at] = 1);
    let err = verify_pattern(&l, &SyncSchedule::FlagsNatural { stream: &stream }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::UncoveredIntra {
            edge: DependenceEdge::Intra {
                element: 2,
                iteration: 2
            }
        }
    );
}

/// Mutation 6 — duplicate writes under flat flags: per-element ready flags
/// fire once, so a non-injective left-hand side is inexpressible.
#[test]
fn kills_duplicate_writes_under_flat_flags() {
    let l = duplicate_writes();
    let stream = flag_stream(&l, None, |_| {});
    let err = verify_pattern(&l, &SyncSchedule::FlagsNatural { stream: &stream }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::UncoveredOutput {
            edge: DependenceEdge::Output {
                element: 0,
                first: 0,
                second: 2
            }
        }
    );
}

/// Mutation 7 — claim-order inversion: two order entries swapped across a
/// true dependence (rows moving with their iterations, so every class is
/// still right) put reader 1 ahead of its writer; the order is not
/// topological and the executor would livelock.
#[test]
fn kills_claim_order_inversion() {
    let l = chain(4);
    let stream = flag_stream(&l, Some(&[1, 0, 2, 3]), |_| {});
    let err = verify_pattern(&l, &SyncSchedule::FlagsOrdered { stream: &stream }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::ClaimOrderInversion {
            edge: DependenceEdge::Flow {
                element: 0,
                writer: 0,
                reader: 1
            },
            writer_position: 1,
            reader_position: 0,
        }
    );
    assert!(err.to_string().contains("not topological"), "{err}");
}

/// Mutation 8 — order with a repeated entry is not a permutation: it never
/// becomes a stream, so there is nothing for a solve to re-check.
#[test]
fn kills_non_permutation_order() {
    let h = honest(&chain(4));
    assert!(ClaimStream::from_iteration_order(
        Some(&[0, 1, 1, 3]),
        None,
        &h.term_offsets,
        h.classes.clone()
    )
    .is_none());
    assert!(
        ClaimStream::from_iteration_order(Some(&[0, 1, 2]), None, &h.term_offsets, h.classes)
            .is_none(),
        "nor does a short one"
    );
}

/// Mutation 8b — a truncated `ends` (the last slot's row cut off) dies in
/// `from_parts`: with class bytes, it no longer covers them; without (every
/// reference a true dependence), the order names an iteration it no longer
/// holds.
#[test]
fn kills_truncated_ends() {
    for (l, bytes) in [(mixed(), true), (chain(4), false)] {
        let order: Vec<usize> = (0..l.iterations()).collect();
        let stream = flag_stream(&l, Some(&order), |_| {});
        assert_eq!(stream.classes().is_some(), bytes);
        let parts = |ends: Vec<u32>| {
            ClaimStream::from_parts(
                stream.order().map(<[u32]>::to_vec),
                ends,
                stream.classes().map(<[u8]>::to_vec),
                None,
            )
        };
        assert_eq!(parts(stream.ends().to_vec()).as_ref(), Some(&stream));
        let mut ends = stream.ends().to_vec();
        ends.pop();
        assert!(parts(ends).is_none(), "class bytes: {bytes}");
    }
}

/// `mixed()` with the references of `rows` dropped, so the first reference
/// that is not a true dependence comes later.
fn mixed_without(rows: &[usize]) -> IndirectLoop {
    let l = mixed();
    let rhs: Vec<Vec<usize>> = (0..l.iterations())
        .map(|i| {
            let row = (0..l.terms(i)).map(|j| l.term_element(i, j));
            if rows.contains(&i) {
                vec![]
            } else {
                row.collect()
            }
        })
        .collect();
    let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.25; r.len()]).collect();
    IndirectLoop::new(l.data_len(), (0..l.iterations()).collect(), rhs, coeff).unwrap()
}

/// Mutation 8c — a classless stream (no class bytes: every reference read
/// as a true dependence) over a pattern with anti, unwritten and intra
/// references. The verifier reads a stream without bytes as all
/// `NewValue`, so each variant's one class rule rejects it, naming the
/// first reference that is not a true dependence: the intra reference of
/// iteration 2, then — with that row dropped — the anti read of iteration
/// 3, then the unwritten read of iteration 4. The same classless form over
/// a pattern of true dependences only is sound.
#[test]
fn kills_classless_stream_over_mixed_references() {
    let cases = [
        (
            mixed_without(&[]),
            SoundnessViolation::UncoveredIntra {
                edge: DependenceEdge::Intra {
                    element: 2,
                    iteration: 2,
                },
            },
        ),
        (
            mixed_without(&[2]),
            SoundnessViolation::UncoveredAnti {
                edge: DependenceEdge::Anti {
                    element: 4,
                    reader: 3,
                    writer: 4,
                },
            },
        ),
        (
            mixed_without(&[2, 3]),
            SoundnessViolation::PhantomWait {
                element: 6,
                reader: 4,
            },
        ),
    ];
    let all_new = |classes: &mut Vec<u8>| classes.fill(0);
    for (l, violation) in cases {
        let natural = flag_stream(&l, None, all_new);
        let ordered = flag_stream(&l, Some(&[4, 2, 0, 3, 1, 5]), all_new);
        let levels = mutate_wavefront(&l, |_| {}, all_new);
        for (schedule, stream) in [
            (SyncSchedule::FlagsNatural { stream: &natural }, &natural),
            (SyncSchedule::FlagsOrdered { stream: &ordered }, &ordered),
            (SyncSchedule::Wavefront { stream: &levels }, &levels),
        ] {
            assert_eq!(stream.classes(), None, "{}", schedule.variant_name());
            assert_eq!(
                verify_pattern(&l, &schedule).unwrap_err(),
                violation,
                "{}",
                schedule.variant_name()
            );
        }
    }
    let l = mixed_without(&[2, 3, 4, 5]);
    let natural = flag_stream(&l, None, |_| {});
    let ordered = flag_stream(&l, Some(&[4, 2, 0, 3, 1, 5]), |_| {});
    let levels = honest_wavefront(&l);
    for schedule in [
        SyncSchedule::FlagsNatural { stream: &natural },
        SyncSchedule::FlagsOrdered { stream: &ordered },
        SyncSchedule::Wavefront { stream: &levels },
    ] {
        assert_eq!(schedule.stream().unwrap().classes(), None);
        verify_pattern(&l, &schedule).expect("true dependences only: sound");
    }
}

/// The shape each variant's stream must have: no order under natural
/// flags, one under ordered flags, level offsets under the wavefront.
#[test]
fn kills_stream_shaped_for_another_variant() {
    let l = chain(4);
    let natural = flag_stream(&l, None, |_| {});
    let ordered = flag_stream(&l, Some(&[0, 1, 2, 3]), |_| {});
    assert!(matches!(
        verify_pattern(&l, &SyncSchedule::FlagsNatural { stream: &ordered }),
        Err(SoundnessViolation::ShapeMismatch { .. })
    ));
    assert!(matches!(
        verify_pattern(&l, &SyncSchedule::FlagsOrdered { stream: &natural }),
        Err(SoundnessViolation::ShapeMismatch {
            what: "claim order length",
            ..
        })
    ));
    assert!(matches!(
        verify_pattern(&l, &SyncSchedule::Wavefront { stream: &ordered }),
        Err(SoundnessViolation::ArtifactMismatch { .. })
    ));
    let shorter = flag_stream(&chain(3), None, |_| {});
    assert!(matches!(
        verify_pattern(&l, &SyncSchedule::FlagsNatural { stream: &shorter }),
        Err(SoundnessViolation::ShapeMismatch {
            what: "claim stream iterations",
            expected: 4,
            got: 3
        })
    ));
}

/// Mutation 9 — wrong linear subscript: the declared line `a(i) = 2i`
/// disagrees with the pattern's actual `a(i) = 2i + 1`, so the arithmetic
/// oracle answers for the wrong element.
#[test]
fn kills_subscript_mismatch() {
    let n = 4;
    let a: Vec<usize> = (0..n).map(|i| 2 * i + 1).collect();
    let l = IndirectLoop::new(2 * n, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
    let subscript = LinearSubscript::new(2, 0);
    let err = verify_pattern(&l, &SyncSchedule::FlagsLinear { subscript }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::SubscriptMismatch {
            iteration: 0,
            expected: 0,
            got: 1
        }
    );
}

/// Mutation 10 — reordered level: swapping the chain's first two levels
/// schedules the writer at (not before) its reader's level, so no barrier
/// separates the flow edge.
#[test]
fn kills_level_reorder() {
    let l = chain(4);
    let ls = mutate_wavefront(
        &l,
        |levels| {
            levels.swap(0, 1); // writer 0 now at level 2, reader 1 at level 1
        },
        |_| {},
    );
    let err = verify_pattern(&l, &SyncSchedule::Wavefront { stream: &ls }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::LevelOrderViolation {
            edge: DependenceEdge::Flow {
                element: 0,
                writer: 0,
                reader: 1
            },
            writer_level: 2,
            reader_level: 1,
        }
    );
}

/// Mutation 11 — same-level flow edge: flattening the chain into one level
/// (a "doall" claim) leaves every flow edge unseparated.
#[test]
fn kills_flattened_levels() {
    let l = chain(3);
    let ls = mutate_wavefront(&l, |levels| levels.iter_mut().for_each(|l| *l = 1), |_| {});
    let err = verify_pattern(&l, &SyncSchedule::Wavefront { stream: &ls }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::LevelOrderViolation {
            edge: DependenceEdge::Flow {
                element: 0,
                writer: 0,
                reader: 1
            },
            writer_level: 1,
            reader_level: 1,
        }
    );
}

/// Mutation 12 — flow class byte flipped to old-value: the wavefront
/// executor would read the stale original array instead of the shadow.
#[test]
fn kills_flipped_flow_class() {
    let l = chain(3);
    // Reference 0 of iteration 1 is the chain's first flow edge.
    let ls = mutate_wavefront(&l, |_| {}, |classes| classes[0] = 1);
    let err = verify_pattern(&l, &SyncSchedule::Wavefront { stream: &ls }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::UncoveredFlow {
            edge: DependenceEdge::Flow {
                element: 0,
                writer: 0,
                reader: 1
            }
        }
    );
}

/// Mutation 13 — anti class byte flipped to new-value: reader 3 would pull
/// iteration 4's overwrite out of the shadow array.
#[test]
fn kills_flipped_anti_class() {
    let l = mixed();
    // Iteration 3's single reference (to y[4]) is an antidependence.
    let anti_pos = class_at(&l, 3, 0);
    let ls = mutate_wavefront(&l, |_| {}, |classes| classes[anti_pos] = 0);
    let err = verify_pattern(&l, &SyncSchedule::Wavefront { stream: &ls }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::UncoveredAnti {
            edge: DependenceEdge::Anti {
                element: 4,
                reader: 3,
                writer: 4
            }
        }
    );
}

/// Out-of-bounds subscripts are rejected before any coverage reasoning —
/// needs a raw pattern because `IndirectLoop::new` validates bounds.
#[test]
fn rejects_out_of_bounds_subscript() {
    struct Raw;
    impl AccessPattern for Raw {
        fn iterations(&self) -> usize {
            2
        }
        fn data_len(&self) -> usize {
            2
        }
        fn lhs(&self, i: usize) -> usize {
            if i == 1 {
                9
            } else {
                0
            }
        }
        fn terms(&self, _: usize) -> usize {
            0
        }
        fn term_element(&self, _: usize, _: usize) -> usize {
            unreachable!()
        }
    }
    let err = verify_pattern(&Raw, &SyncSchedule::Sequential).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::OutOfBounds {
            iteration: 1,
            element: 9,
            data_len: 2
        }
    );
}

// ---------------------------------------------------------------------------
// Artifact mode (the pattern-free persist-load checks).
// ---------------------------------------------------------------------------

fn mixed_facts() -> CensusFacts {
    CensusFacts {
        iterations: 6,
        data_len: 8,
        total_terms: 8,
        true_deps: 3,
        anti_deps: 1,
        intra: 2,
        unwritten: 2,
        injective: true,
        critical_path: 2,
        classified: true,
    }
}

#[test]
fn artifact_mode_accepts_honest_schedules() {
    let l = mixed();
    let facts = mixed_facts();
    let natural = flag_stream(&l, None, |_| {});
    verify_artifacts(&facts, &SyncSchedule::FlagsNatural { stream: &natural }).expect("sound");
    let ordered = flag_stream(&l, Some(&[4, 2, 0, 3, 1, 5]), |_| {});
    verify_artifacts(&facts, &SyncSchedule::FlagsOrdered { stream: &ordered }).expect("sound");
    let ls = honest_wavefront(&l);
    verify_artifacts(&facts, &SyncSchedule::Wavefront { stream: &ls }).expect("sound");
}

/// Mutation 16 — a flag variant shipped with a non-injective census.
#[test]
fn artifact_mode_kills_flags_on_non_injective_census() {
    let l = mixed();
    let stream = flag_stream(&l, None, |_| {});
    let facts = CensusFacts {
        injective: false,
        ..mixed_facts()
    };
    let err =
        verify_artifacts(&facts, &SyncSchedule::FlagsNatural { stream: &stream }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::RequiresInjective {
            variant: "doacross"
        }
    );
}

/// Mutation 17 — a flag stream with one flow byte dropped to old-value (the
/// at-rest form of a dropped flag): without the index arrays the census
/// still knows how many references wait, and 2 is not 3.
#[test]
fn artifact_mode_kills_flag_stream_class_flip() {
    let l = mixed();
    let at = class_at(&l, 1, 0);
    let stream = flag_stream(&l, None, |classes| classes[at] = 1);
    let err = verify_artifacts(
        &mixed_facts(),
        &SyncSchedule::FlagsNatural { stream: &stream },
    )
    .unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::ArtifactMismatch {
            what: "new-value class count",
            expected: 3,
            got: 2
        }
    );
}

/// Mutation 18 — class counts disagreeing with the census: one rule for
/// all three stream-backed variants.
#[test]
fn artifact_mode_kills_class_count_mismatch() {
    let l = mixed();
    let ls = honest_wavefront(&l);
    let ordered = flag_stream(&l, Some(&[4, 2, 0, 3, 1, 5]), |_| {});
    let flags = flag_stream(&l, None, |_| {});
    let facts = CensusFacts {
        true_deps: 4,
        anti_deps: 0,
        ..mixed_facts()
    };
    for schedule in [
        SyncSchedule::Wavefront { stream: &ls },
        SyncSchedule::FlagsOrdered { stream: &ordered },
        SyncSchedule::FlagsNatural { stream: &flags },
    ] {
        let err = verify_artifacts(&facts, &schedule).unwrap_err();
        assert_eq!(
            err,
            SoundnessViolation::ArtifactMismatch {
                what: "new-value class count",
                expected: 4,
                got: 3
            }
        );
    }
}

/// Mutation 18b — a classless stream loaded against a census that counts
/// other classes: without the index arrays, a stream without class bytes
/// routes every reference to the new value, and the census says 3 of 8 are.
#[test]
fn artifact_mode_kills_a_classless_stream_under_a_mixed_census() {
    let l = mixed();
    let all_new = |classes: &mut Vec<u8>| classes.fill(0);
    let natural = flag_stream(&l, None, all_new);
    let ordered = flag_stream(&l, Some(&[4, 2, 0, 3, 1, 5]), all_new);
    let levels = mutate_wavefront(&l, |_| {}, all_new);
    let facts = mixed_facts();
    assert!(facts.true_deps < facts.total_terms);
    for schedule in [
        SyncSchedule::FlagsNatural { stream: &natural },
        SyncSchedule::FlagsOrdered { stream: &ordered },
        SyncSchedule::Wavefront { stream: &levels },
    ] {
        assert_eq!(schedule.stream().unwrap().classes(), None);
        assert_eq!(
            verify_artifacts(&facts, &schedule).unwrap_err(),
            SoundnessViolation::ArtifactMismatch {
                what: "new-value class count",
                expected: 3,
                got: 8
            },
            "{}",
            schedule.variant_name()
        );
    }
}

/// Mutation 18c — a stream-backed schedule shipped with a census that
/// counted no class (the shape totals a plan settled on its reference
/// counts carries). Honest streams, all three variants: the census vouches
/// for none of their classes. On a loop with no references every count
/// agrees at zero, so only this rule stands between that census and a
/// stream; a sequential schedule over the same census still verifies.
#[test]
fn artifact_mode_kills_a_stream_under_an_unclassified_census() {
    let l = mixed();
    let natural = flag_stream(&l, None, |_| {});
    let ordered = flag_stream(&l, Some(&[4, 2, 0, 3, 1, 5]), |_| {});
    let levels = honest_wavefront(&l);
    let counts_only = CensusFacts {
        true_deps: 0,
        anti_deps: 0,
        intra: 0,
        unwritten: 0,
        classified: false,
        ..mixed_facts()
    };
    let termless = IndirectLoop::new(4, vec![0, 1, 2, 3], vec![vec![]; 4], vec![vec![]; 4])
        .expect("a valid doall");
    let empty = flag_stream(&termless, None, |_| {});
    let termless_counts = CensusFacts {
        iterations: 4,
        data_len: 4,
        injective: true,
        ..Default::default()
    };
    assert!(!termless_counts.classified);
    let empty_schedule = SyncSchedule::FlagsNatural { stream: &empty };
    verify_artifacts(
        &CensusFacts {
            classified: true,
            ..termless_counts
        },
        &empty_schedule,
    )
    .expect("a classified doall census vouches for an empty stream");
    for (facts, schedule) in [
        (counts_only, SyncSchedule::FlagsNatural { stream: &natural }),
        (counts_only, SyncSchedule::FlagsOrdered { stream: &ordered }),
        (counts_only, SyncSchedule::Wavefront { stream: &levels }),
        (termless_counts, empty_schedule),
    ] {
        assert_eq!(
            verify_artifacts(&facts, &schedule).unwrap_err(),
            SoundnessViolation::UnclassifiedCensus {
                variant: schedule.variant_name()
            },
        );
    }
    verify_artifacts(&termless_counts, &SyncSchedule::Sequential).expect("nothing to vouch for");
}

/// Mutation 18d — a flag stream carrying level offsets: the runtime picks
/// the level gate from them, so a reordered plan holding a wavefront's
/// stream would run as a wavefront. Refused in both modes, though the
/// level-sorted order alone is a sound flag schedule.
#[test]
fn artifact_mode_kills_level_offsets_on_a_flag_stream() {
    let l = mixed();
    let ls = honest_wavefront(&l);
    let violation = SoundnessViolation::ArtifactMismatch {
        what: "level offsets of a flag stream",
        expected: 0,
        got: 1,
    };
    let schedule = SyncSchedule::FlagsOrdered { stream: &ls };
    assert_eq!(
        verify_artifacts(&mixed_facts(), &schedule).unwrap_err(),
        violation
    );
    assert_eq!(verify_pattern(&l, &schedule).unwrap_err(), violation);
}

/// Mutation 18e — a wavefront stream without a claim order: level offsets
/// over the natural order, which nothing sorted by level.
#[test]
fn artifact_mode_kills_a_wavefront_stream_without_an_order() {
    let l = mixed();
    let natural = flag_stream(&l, None, |_| {});
    let unordered = ClaimStream::from_parts(
        None,
        natural.ends().to_vec(),
        natural.classes().map(<[u8]>::to_vec),
        Some(vec![0, 3, 6]),
    )
    .expect("levels need no order to be well-formed");
    assert_eq!(unordered.level_count(), mixed_facts().critical_path);
    assert_eq!(
        verify_artifacts(
            &mixed_facts(),
            &SyncSchedule::Wavefront { stream: &unordered }
        )
        .unwrap_err(),
        SoundnessViolation::ShapeMismatch {
            what: "claim order length",
            expected: 6,
            got: 0
        }
    );
}

/// Mutation 18f — a wavefront stream whose level count is not the census
/// critical path: one level deeper is sound against the pattern (see
/// `deepened_but_consistent_levels_stay_sound`) but not the stream this
/// census was built with, and without the pattern nothing else vouches
/// for its levels.
#[test]
fn artifact_mode_kills_a_level_count_off_the_critical_path() {
    let l = mixed();
    let deeper = mutate_wavefront(&l, |levels| levels[5] = 3, |_| {});
    verify_pattern(&l, &SyncSchedule::Wavefront { stream: &deeper }).expect("deeper is sound");
    for (facts, stream, got) in [
        (mixed_facts(), &deeper, 3),
        (
            CensusFacts {
                critical_path: 3,
                ..mixed_facts()
            },
            &honest_wavefront(&l),
            2,
        ),
    ] {
        assert_eq!(
            verify_artifacts(&facts, &SyncSchedule::Wavefront { stream }).unwrap_err(),
            SoundnessViolation::ShapeMismatch {
                what: "wavefront levels against the census critical path",
                expected: facts.critical_path,
                got
            }
        );
    }
}

/// Mutation 18g — a classified census counting more references than
/// exist, under any schedule: a sequential plan's census may count fewer
/// (none, over a non-injective left-hand side), never more. A sum past
/// `u64::MAX` saturates rather than wrapping below the total.
#[test]
fn artifact_mode_kills_classified_references_past_the_total() {
    let over = CensusFacts {
        unwritten: 3,
        ..mixed_facts()
    };
    let wrapping = CensusFacts {
        true_deps: u64::MAX,
        ..mixed_facts()
    };
    let non_injective = CensusFacts {
        injective: false,
        ..over
    };
    for (facts, got) in [(over, 9), (wrapping, u64::MAX), (non_injective, 9)] {
        assert_eq!(
            verify_artifacts(&facts, &SyncSchedule::Sequential).unwrap_err(),
            SoundnessViolation::ArtifactMismatch {
                what: "census reference classification",
                expected: 8,
                got
            }
        );
    }
    let uncounted = CensusFacts {
        true_deps: 0,
        anti_deps: 0,
        intra: 0,
        unwritten: 0,
        injective: false,
        critical_path: 0,
        ..mixed_facts()
    };
    verify_artifacts(&uncounted, &SyncSchedule::Sequential).expect("fewer is a sequential census");
}

/// Mutation 19 — linear subscript running off the data space.
#[test]
fn artifact_mode_kills_linear_out_of_bounds() {
    let facts = CensusFacts {
        iterations: 10,
        data_len: 15,
        total_terms: 10,
        unwritten: 10,
        injective: true,
        ..Default::default()
    };
    let subscript = LinearSubscript::new(2, 0);
    let err = verify_artifacts(&facts, &SyncSchedule::FlagsLinear { subscript }).unwrap_err();
    assert_eq!(
        err,
        SoundnessViolation::OutOfBounds {
            iteration: 9,
            element: 18,
            data_len: 15
        }
    );
}

/// Every violation renders a human-readable description naming the edge.
#[test]
fn violations_display_their_edges() {
    let v = SoundnessViolation::UncoveredFlow {
        edge: DependenceEdge::Flow {
            element: 7,
            writer: 2,
            reader: 5,
        },
    };
    let text = v.to_string();
    assert!(text.contains("y[7]"), "{text}");
    assert!(text.contains("writer 2"), "{text}");
    assert!(text.contains("reader 5"), "{text}");
}
