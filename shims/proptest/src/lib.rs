//! Offline stand-in for the crates.io `proptest` crate.
//!
//! The build environment has no registry access, so this workspace ships
//! the subset of proptest it uses: the [`proptest!`] macro, strategies for
//! numeric ranges / tuples / `Just` / `any` / `collection::vec` /
//! `prop_map` / [`prop_oneof!`], string generation for `&str` patterns,
//! and the `prop_assert*` macros.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case reports its inputs (via the assert
//!   message) but is not minimized.
//! * **Deterministic seeding.** Each test's RNG is seeded from a hash of
//!   the test's name, so failures reproduce exactly across runs and
//!   machines. There is no `proptest-regressions` persistence (existing
//!   regression files are ignored).
//! * `&str` strategies ignore the regex and generate arbitrary
//!   printable-ish text including exotic unicode — every use in this
//!   workspace is a "parser never panics" pattern of the form `"\\PC*"`,
//!   for which arbitrary text is the intent.

pub mod strategy;
pub mod test_runner;

/// `proptest::collection` — sized collections of strategy-driven values.
pub mod collection {
    use crate::strategy::{Strategy, VecStrategy};

    /// A range of lengths for [`vec`](fn@vec).
    pub trait SizeRange {
        /// `(min, max)` inclusive bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start() <= self.end(), "empty size range");
            (*self.start(), *self.end())
        }
    }

    /// A strategy producing `Vec`s whose elements are drawn from
    /// `element` and whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }
}

/// Everything a test module conventionally imports.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests.
///
/// Mirrors upstream's surface: an optional
/// `#![proptest_config(expr)]` header followed by `#[test] fn
/// name(pat in strategy, ...) { body }` items. Each test runs
/// `config.cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr); $(#[$meta:meta])* fn $name:ident(
        $($pat:pat_param in $strat:expr),+ $(,)?
    ) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng = $crate::test_runner::deterministic_rng(stringify!($name));
            for case in 0..config.cases {
                $(let $pat = $crate::strategy::Strategy::sample(&$strat, &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        let _ = $body;
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    Ok(()) => {}
                    Err($crate::test_runner::TestCaseError::Reject(why)) => {
                        // A rejected case is skipped, not failed.
                        let _ = why;
                    }
                    Err($crate::test_runner::TestCaseError::Fail(why)) => {
                        panic!(
                            "proptest case {}/{} of `{}` failed: {}",
                            case + 1,
                            config.cases,
                            stringify!($name),
                            why
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { ($config); $($rest)* }
    };
    (($config:expr);) => {};
}

/// Fails the current case with a formatted message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_owned(),
            ));
        }
    };
}

/// Uniformly picks one of several strategies of a common value type.
///
/// Weighted arms (`w => strat`) are not supported — no caller uses them.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
