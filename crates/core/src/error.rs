//! Error type for preprocessed-doacross runs.

/// Reasons a doacross run can be rejected.
///
/// The paper's construct is only defined for loops without output
/// dependencies ("no two elements of array a have the same value", §2.1) and
/// with in-bounds subscripts; the runtime verifies both at execution time
/// rather than silently computing garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DoacrossError {
    /// Two iterations write the same element: `a` is not injective, so the
    /// loop has an output dependency the construct cannot honor.
    OutputDependency {
        /// The element written twice.
        element: usize,
    },
    /// A left-hand-side or right-hand-side subscript fell outside the data
    /// space declared by [`crate::AccessPattern::data_len`].
    SubscriptOutOfBounds {
        /// The offending iteration.
        iteration: usize,
        /// The out-of-range element index.
        element: usize,
        /// The declared data-space size.
        data_len: usize,
    },
    /// The `y` buffer handed to the runtime does not match the loop's
    /// declared data space.
    DataLenMismatch {
        /// `y.len()` as provided.
        got: usize,
        /// Required length (`AccessPattern::data_len`).
        expected: usize,
    },
    /// A blocked run was configured with a zero block size.
    EmptyBlock,
    /// A linear-subscript run (`a(i) = c·i + d`, §2.3) was requested but
    /// the loop's actual left-hand-side subscript disagrees.
    SubscriptNotLinear {
        /// The iteration where the mismatch was observed.
        iteration: usize,
        /// `c·i + d` as claimed.
        expected: usize,
        /// `lhs(i)` as the loop reports it.
        got: usize,
    },
    /// A prebuilt inspection (execution plan) was applied to a loop whose
    /// shape it does not match — the plan was built for a different
    /// iteration count or data space.
    PlanMismatch {
        /// Iterations the plan was built for.
        plan_iterations: usize,
        /// Data-space size the plan was built for.
        plan_data_len: usize,
        /// The loop's actual iteration count.
        loop_iterations: usize,
        /// The loop's actual data-space size.
        loop_data_len: usize,
    },
    /// A wavefront level schedule was applied to a loop whose
    /// per-iteration reference counts it does not match — the schedule's
    /// operand classes were captured for a different reference structure.
    ScheduleTermsMismatch {
        /// First iteration whose reference count disagrees.
        iteration: usize,
        /// References the schedule classified for that iteration.
        schedule_terms: usize,
        /// References the loop actually has there.
        loop_terms: usize,
    },
    /// A block's writes escape the element window the pattern declared for
    /// it, so windowed scratch arrays cannot represent the block.
    WindowViolation {
        /// The iteration whose write escapes.
        iteration: usize,
        /// Its target element.
        element: usize,
        /// The window declared for the block.
        window_start: usize,
        /// One past the window's last element.
        window_end: usize,
    },
}

impl std::fmt::Display for DoacrossError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DoacrossError::OutputDependency { element } => write!(
                f,
                "output dependency: element {element} is written by more than one iteration \
                 (the preprocessed doacross requires an injective left-hand-side subscript)"
            ),
            DoacrossError::SubscriptOutOfBounds {
                iteration,
                element,
                data_len,
            } => write!(
                f,
                "iteration {iteration} references element {element}, outside the data space \
                 of {data_len} elements"
            ),
            DoacrossError::DataLenMismatch { got, expected } => write!(
                f,
                "y buffer has {got} elements but the loop's data space is {expected}"
            ),
            DoacrossError::EmptyBlock => write!(f, "blocked doacross requires block size >= 1"),
            DoacrossError::SubscriptNotLinear {
                iteration,
                expected,
                got,
            } => write!(
                f,
                "left-hand-side subscript is not the declared linear function: iteration \
                 {iteration} writes element {got}, but c*i + d = {expected}"
            ),
            DoacrossError::PlanMismatch {
                plan_iterations,
                plan_data_len,
                loop_iterations,
                loop_data_len,
            } => write!(
                f,
                "execution plan was built for {plan_iterations} iterations over \
                 {plan_data_len} elements, but the loop has {loop_iterations} iterations \
                 over {loop_data_len} elements"
            ),
            DoacrossError::ScheduleTermsMismatch {
                iteration,
                schedule_terms,
                loop_terms,
            } => write!(
                f,
                "level schedule classifies {schedule_terms} references for iteration \
                 {iteration}, but the loop has {loop_terms} there"
            ),
            DoacrossError::WindowViolation {
                iteration,
                element,
                window_start,
                window_end,
            } => write!(
                f,
                "iteration {iteration} writes element {element}, outside its block's declared \
                 window [{window_start}, {window_end})"
            ),
        }
    }
}

impl std::error::Error for DoacrossError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(DoacrossError, &str)> = vec![
            (DoacrossError::OutputDependency { element: 7 }, "element 7"),
            (
                DoacrossError::SubscriptOutOfBounds {
                    iteration: 3,
                    element: 99,
                    data_len: 10,
                },
                "element 99",
            ),
            (
                DoacrossError::DataLenMismatch {
                    got: 5,
                    expected: 6,
                },
                "5 elements",
            ),
            (DoacrossError::EmptyBlock, "block size"),
            (
                DoacrossError::WindowViolation {
                    iteration: 1,
                    element: 2,
                    window_start: 4,
                    window_end: 8,
                },
                "[4, 8)",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(DoacrossError::EmptyBlock);
    }
}
