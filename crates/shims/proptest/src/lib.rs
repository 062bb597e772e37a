//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this shim implements
//! the subset of proptest the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map` / `prop_flat_map` / `prop_shuffle`,
//! range and tuple strategies, [`collection::vec`], [`strategy::Just`],
//! `prop_oneof!`, and the `proptest!` / `prop_assert*` / `prop_assume!`
//! macros. Differences from real proptest:
//!
//! * **No shrinking.** A failing case reports the panic message only.
//! * **Deterministic seeding.** The RNG is seeded from the test's module
//!   path and name, so every run explores the same cases (reproducible by
//!   construction, at the cost of fresh exploration between runs).

// Audit posture: this shim needs no unsafe code; keep it that way.
#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Strategies for collections (`proptest::collection`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Size specification for [`vec()`]: a fixed size or a range of sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        /// Inclusive.
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(!r.is_empty(), "empty size range");
            Self {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(!r.is_empty(), "empty size range");
            Self {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy producing a `Vec` of values from `element`, with a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.usize_in(self.size.min, self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop import, as in `proptest::prelude::*`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Defines property tests: each `#[test] fn name(pat in strategy, ...)`
/// becomes a regular test that generates `config.cases` accepted inputs and
/// runs the body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($config:expr; $($(#[$meta:meta])+ fn $name:ident(
        $($pat:pat in $strat:expr),+ $(,)?
    ) $body:block)*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let strategy = ($($strat,)+);
                let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                ));
                let mut accepted: u32 = 0;
                let mut rejected: u32 = 0;
                while accepted < config.cases {
                    let ($($pat,)+) =
                        $crate::strategy::Strategy::generate(&strategy, &mut rng);
                    let outcome: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::test_runner::TestCaseError::Reject) => {
                            rejected += 1;
                            assert!(
                                rejected <= config.max_global_rejects,
                                "proptest: {} prop_assume rejections exceeded the \
                                 configured maximum of {}",
                                rejected,
                                config.max_global_rejects,
                            );
                        }
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!("proptest case failed: {}", msg);
                        }
                    }
                }
            }
        )*
    };
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!(
                    "{} (at {}:{})",
                    format_args!($($fmt)+),
                    file!(),
                    line!()
                )),
            );
        }
    };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} != {:?}: {}",
            l,
            r,
            format_args!($($fmt)+)
        );
    }};
}

/// Discards the current case (counted against `max_global_rejects`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Picks uniformly among the listed strategies (all must yield the same
/// value type). Weights are not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($strat)),+])
    };
}
