//! Offline, API-compatible subset of `proptest`.
//!
//! The build environment has no crate registry, so this crate vendors the
//! slice of proptest the workspace's property tests use: the [`proptest!`]
//! macro, range/tuple/`Just`/`prop_map`/`prop_oneof!` strategies,
//! `prop::collection::vec`, `any::<T>()`, the `prop_assert*` macros and
//! [`test_runner::ProptestConfig`]. Failing cases are **not shrunk**; the
//! panic message carries the case number and per-test RNG seed instead so a
//! failure is reproducible by rerunning the (deterministic) test.

pub mod strategy;
pub mod test_runner;

pub mod arbitrary {
    //! `any::<T>()`: full-range standard strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws one unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit_f64()
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary + std::fmt::Debug> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T` ("anything goes").
    pub fn any<T: Arbitrary + std::fmt::Debug>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_between(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! Everything a property-test file needs, mirroring `proptest::prelude`.

    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines property tests: each `#[test] fn name(pat in strategy, ...)`
/// runs its body against `ProptestConfig::cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$attr:meta])* fn $name:ident(
        $($arg:ident in $strat:expr),+ $(,)?
    ) $body:block)*) => {$(
        $(#[$attr])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let seed = $crate::test_runner::seed_for(concat!(module_path!(), "::", stringify!($name)));
            let mut rng = $crate::test_runner::TestRng::from_seed(seed);
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                // The closure is the scope a failing `prop_assert!` returns from.
                #[allow(clippy::redundant_closure_call)]
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    ::std::panic!(
                        "property failed at case {}/{} (rng seed {:#x}): {}",
                        case + 1, config.cases, seed, e
                    );
                }
            }
        }
    )*};
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: {} ({})",
                    stringify!($cond),
                    ::std::format!($($fmt)+),
                ),
            ));
        }
    };
}

/// Fails the current case unless both sides compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{:?} != {:?}: {}", l, r, ::std::format!($($fmt)+));
    }};
}

/// Fails the current case if both sides compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "both sides equal {:?}", l);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "both sides equal {:?}: {}", l, ::std::format!($($fmt)+));
    }};
}

/// Picks uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::OneOf(::std::vec![
            $($crate::strategy::boxed($strategy)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = u64> {
        (0u64..100).prop_map(|v| v * 2)
    }

    proptest! {
        #[test]
        fn ranges_and_maps(v in small_even(), w in 5usize..10) {
            prop_assert!(v.is_multiple_of(2));
            prop_assert!((5..10).contains(&w));
        }

        #[test]
        fn vectors_obey_size(items in prop::collection::vec(0u8..4, 2..6)) {
            prop_assert!((2..6).contains(&items.len()));
            prop_assert!(items.iter().all(|&x| x < 4));
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(7u64), 100u64..200]) {
            prop_assert!(v == 7 || (100..200).contains(&v), "v = {}", v);
        }

        #[test]
        fn tuples_and_any(pair in (0.0f64..=1.0, any::<u8>())) {
            prop_assert!((0.0..=1.0).contains(&pair.0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(17))]

        #[test]
        fn config_is_respected(_v in 0u8..=255) {
            // Runs without panicking; case count checked through coverage of
            // the macro arm itself.
        }
    }

    proptest! {
        fn always_fails(v in 0u64..10) {
            prop_assert!(v > 100, "v = {}", v);
        }
    }

    #[test]
    fn failing_property_panics() {
        let result = std::panic::catch_unwind(always_fails);
        assert!(result.is_err());
    }
}
