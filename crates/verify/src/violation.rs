//! The verifier's structured verdicts: dependence edges, violations, and
//! the soundness report a passing plan earns.

/// One dependence edge implied by a pattern's index arrays — the unit of
/// coverage the verifier reasons about. Every violation that stems from an
/// uncovered dependence names its edge with one of these, so a failing
/// verdict is actionable: it points at the exact pair of iterations whose
/// ordering the schedule fails to enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependenceEdge {
    /// Flow (true) dependence: `writer` produces `element` before `reader`
    /// consumes it. The schedule must make `reader` observe the new value.
    Flow {
        /// The shared element.
        element: usize,
        /// The iteration that writes it.
        writer: usize,
        /// The later iteration that reads it.
        reader: usize,
    },
    /// Antidependence: `reader` consumes the *old* value of `element`,
    /// which `writer` (a later iteration) overwrites. The schedule must
    /// make `reader` observe the old value.
    Anti {
        /// The shared element.
        element: usize,
        /// The earlier iteration that must read the old value.
        reader: usize,
        /// The later iteration that overwrites it.
        writer: usize,
    },
    /// Output dependence: two iterations write the same element; the later
    /// write must win.
    Output {
        /// The shared element.
        element: usize,
        /// The earlier writer.
        first: usize,
        /// The later writer, whose value must win.
        second: usize,
    },
    /// Intra-iteration reference: `iteration` reads its own output
    /// element, which the executor services from the register accumulator.
    Intra {
        /// The element the iteration both writes and reads.
        element: usize,
        /// The iteration.
        iteration: usize,
    },
}

impl std::fmt::Display for DependenceEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DependenceEdge::Flow {
                element,
                writer,
                reader,
            } => write!(
                f,
                "flow dep on y[{element}]: writer {writer} -> reader {reader}"
            ),
            DependenceEdge::Anti {
                element,
                reader,
                writer,
            } => write!(
                f,
                "anti dep on y[{element}]: reader {reader} -> writer {writer}"
            ),
            DependenceEdge::Output {
                element,
                first,
                second,
            } => write!(
                f,
                "output dep on y[{element}]: writers {first} and {second}"
            ),
            DependenceEdge::Intra { element, iteration } => {
                write!(
                    f,
                    "intra-iteration ref to y[{element}] in iteration {iteration}"
                )
            }
        }
    }
}

/// The first reason a synchronization schedule fails to cover the
/// dependences its pattern implies. Each variant names the exact edge (or
/// artifact inconsistency) so callers can log, reject, and debug without
/// re-deriving anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoundnessViolation {
    /// The schedule describes a different shape (iteration count, data
    /// space, reference count) than the pattern or census it is checked
    /// against.
    ShapeMismatch {
        /// Which dimension disagrees.
        what: &'static str,
        /// The pattern/census side of the disagreement.
        expected: usize,
        /// The schedule side.
        got: usize,
    },
    /// A subscript lands outside the declared data space; no schedule can
    /// cover a dependence on memory the loop does not own.
    OutOfBounds {
        /// The iteration holding the offending subscript.
        iteration: usize,
        /// The out-of-range element.
        element: usize,
        /// The declared data-space size.
        data_len: usize,
    },
    /// A flow dependence the schedule leaves unsynchronized: the reader is
    /// classified to read the old value (or its own accumulator) although
    /// an earlier iteration writes the element — the "dropped flag"
    /// failure mode.
    UncoveredFlow {
        /// The uncovered flow edge.
        edge: DependenceEdge,
    },
    /// An antidependence the schedule inverts: the reader is classified to
    /// wait for (and read) the new value although the write happens in a
    /// *later* iteration.
    UncoveredAnti {
        /// The inverted anti edge.
        edge: DependenceEdge,
    },
    /// An output dependence no flat flag schedule can express: two
    /// iterations write the same element under a variant whose per-element
    /// flags fire exactly once.
    UncoveredOutput {
        /// The inexpressible output edge.
        edge: DependenceEdge,
    },
    /// An intra-iteration reference misrouted away from the accumulator.
    UncoveredIntra {
        /// The misrouted intra-iteration reference.
        edge: DependenceEdge,
    },
    /// The schedule makes an iteration wait on an element no iteration
    /// writes: the ready flag can never fire — guaranteed deadlock.
    PhantomWait {
        /// The element whose flag can never fire.
        element: usize,
        /// The iteration that would wait forever.
        reader: usize,
    },
    /// A doconsider claim order that places a reader before its writer:
    /// the flag-based executor livelocks once workers saturate.
    ClaimOrderInversion {
        /// The flow edge the order inverts.
        edge: DependenceEdge,
        /// Where the order claims the writer.
        writer_position: usize,
        /// Where the order claims the reader (earlier — the bug).
        reader_position: usize,
    },
    /// The claim order is not a permutation of the iteration space.
    OrderNotPermutation {
        /// The duplicate or out-of-range order entry.
        entry: usize,
    },
    /// Wavefront: a flow dependence not separated by a level barrier — the
    /// "reordered level" failure mode (writer scheduled at or after the
    /// reader's level).
    LevelOrderViolation {
        /// The flow edge the levels fail to separate.
        edge: DependenceEdge,
        /// The writer's level (1-based).
        writer_level: usize,
        /// The reader's level — not strictly later, hence the violation.
        reader_level: usize,
    },
    /// Linear: the pattern's left-hand side disagrees with the declared
    /// subscript `a(i) = c·i + d`, so the arithmetic oracle answers for
    /// the wrong element.
    SubscriptMismatch {
        /// The iteration where `lhs` departs from the line.
        iteration: usize,
        /// `c·i + d`.
        expected: usize,
        /// The actual `lhs(i)`.
        got: usize,
    },
    /// A schedule artifact is internally inconsistent with the census it
    /// shipped with (counts that no single classification pass could have
    /// produced).
    ArtifactMismatch {
        /// Which artifact is inconsistent.
        what: &'static str,
        /// The value the census implies.
        expected: u64,
        /// The value the artifact carries.
        got: u64,
    },
    /// The variant's synchronization schedule presumes an injective
    /// left-hand side, but the pattern (or census) has duplicate writes.
    RequiresInjective {
        /// The variant making the presumption.
        variant: &'static str,
    },
    /// The variant routes references by the operand classes of its claim
    /// stream, but its census counted no class (it holds the shape totals
    /// alone), so nothing vouches for the stream's classes.
    UnclassifiedCensus {
        /// The stream-backed variant.
        variant: &'static str,
    },
}

impl std::fmt::Display for SoundnessViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoundnessViolation::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "schedule shape mismatch: {what} expected {expected}, got {got}"
            ),
            SoundnessViolation::OutOfBounds {
                iteration,
                element,
                data_len,
            } => write!(
                f,
                "iteration {iteration} references element {element} outside data space {data_len}"
            ),
            SoundnessViolation::UncoveredFlow { edge } => {
                write!(f, "uncovered {edge}: reader would consume a stale value")
            }
            SoundnessViolation::UncoveredAnti { edge } => {
                write!(
                    f,
                    "uncovered {edge}: reader would consume the overwritten value"
                )
            }
            SoundnessViolation::UncoveredOutput { edge } => {
                write!(f, "uncovered {edge}: flat flags fire once per element")
            }
            SoundnessViolation::UncoveredIntra { edge } => {
                write!(
                    f,
                    "uncovered {edge}: reference misrouted away from the accumulator"
                )
            }
            SoundnessViolation::PhantomWait { element, reader } => write!(
                f,
                "iteration {reader} waits on y[{element}], which no iteration writes: deadlock"
            ),
            SoundnessViolation::ClaimOrderInversion {
                edge,
                writer_position,
                reader_position,
            } => write!(
                f,
                "claim order is not topological: it inverts {edge} (writer claimed at position \
                 {writer_position}, reader at {reader_position})"
            ),
            SoundnessViolation::OrderNotPermutation { entry } => {
                write!(f, "claim order is not a permutation (entry {entry})")
            }
            SoundnessViolation::LevelOrderViolation {
                edge,
                writer_level,
                reader_level,
            } => write!(
                f,
                "no level barrier covers {edge}: writer at level {writer_level}, \
                 reader at level {reader_level}"
            ),
            SoundnessViolation::SubscriptMismatch {
                iteration,
                expected,
                got,
            } => write!(
                f,
                "lhs({iteration}) = {got} disagrees with the declared linear subscript \
                 (expected {expected})"
            ),
            SoundnessViolation::ArtifactMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "artifact inconsistency: {what} expected {expected}, got {got}"
            ),
            SoundnessViolation::RequiresInjective { variant } => write!(
                f,
                "{variant} schedule requires an injective left-hand side, \
                 but the pattern has duplicate writes"
            ),
            SoundnessViolation::UnclassifiedCensus { variant } => write!(
                f,
                "{variant} schedule reads operand classes, \
                 but its census counted none"
            ),
        }
    }
}

impl std::error::Error for SoundnessViolation {}

/// What a passing verification proved: the dependence census the verifier
/// re-derived from the index arrays, every edge of which the schedule was
/// shown to cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoundnessReport {
    /// Iterations of the verified pattern.
    pub iterations: usize,
    /// Data-space size of the verified pattern.
    pub data_len: usize,
    /// Right-hand-side references checked.
    pub references: u64,
    /// Flow (true) dependence edges the schedule covers.
    pub flow_edges: u64,
    /// Antidependence edges the schedule covers.
    pub anti_edges: u64,
    /// Intra-iteration references routed to the accumulator.
    pub intra_refs: u64,
    /// References to elements no iteration writes.
    pub unwritten_refs: u64,
    /// Output-dependence pairs (adjacent writes to one element) covered —
    /// nonzero only for the sequential schedule, whose program order is
    /// the only one that orders two writes.
    pub output_pairs: u64,
}

impl std::fmt::Display for SoundnessReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sound: {} iterations, {} references ({} flow, {} anti, {} intra, \
             {} unwritten, {} output pairs)",
            self.iterations,
            self.references,
            self.flow_edges,
            self.anti_edges,
            self.intra_refs,
            self.unwritten_refs,
            self.output_pairs,
        )
    }
}
