//! Offline stand-in for the `proptest` crate.
//!
//! The workspace must build with no network access, so this crate
//! implements the slice of proptest this repository's property tests use:
//! the [`proptest!`] / [`prop_oneof!`] / [`prop_assert!`] macros, the
//! [`Strategy`] trait with `prop_map`, and the `any` / range / tuple /
//! [`collection::vec`] / [`option::of`] / [`array::uniform32`] / [`Just`]
//! strategies.
//!
//! Differences from upstream, deliberately accepted for a test-only shim:
//! no shrinking (a failing case panics with its case number and the
//! assertion message but is not minimized), and the value streams differ
//! from upstream proptest.
//! Case generation is fully deterministic: the RNG seed is derived from the
//! test function's name, so failures reproduce exactly across runs.

use std::marker::PhantomData;

pub mod test_runner {
    /// Per-test configuration (subset of `proptest::test_runner::Config`).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }
}

pub use test_runner::Config as ProptestConfig;

/// The deterministic case generator handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Derives the RNG for `case` of the test named `name`.
    pub fn for_case(name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next raw 64 bits (SplitMix64).
    pub fn bits(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value below `bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.bits() % bound
    }
}

/// A generator of test-case values (subset of `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: std::rc::Rc::new(move |rng: &mut TestRng| self.sample(rng)),
        }
    }
}

/// A type-erased strategy.
#[derive(Clone)]
pub struct BoxedStrategy<T> {
    inner: std::rc::Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.inner)(rng)
    }
}

/// The `prop_map` combinator.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (backs [`prop_oneof!`]).
pub struct OneOf<T> {
    choices: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// Builds a uniform union of `choices`.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    pub fn new(choices: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!choices.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { choices }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let k = rng.below(self.choices.len() as u64) as usize;
        self.choices[k].sample(rng)
    }
}

/// Types with a canonical `any` strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.bits() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.bits() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.bits() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.bits() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// The `any::<T>()` strategy.
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

/// Uniformly arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! strategy_for_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u128;
                self.start + (u128::from(rng.bits()) % span) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range strategy");
                let span = (hi - lo) as u128 + 1;
                lo + (u128::from(rng.bits()) % span) as $t
            }
        }
    )*};
}
strategy_for_range!(u8, u16, u32, u64, usize);

macro_rules! strategy_for_tuple {
    ($($S:ident/$idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}
strategy_for_tuple!(S0 / 0);
strategy_for_tuple!(S0 / 0, S1 / 1);
strategy_for_tuple!(S0 / 0, S1 / 1, S2 / 2);
strategy_for_tuple!(S0 / 0, S1 / 1, S2 / 2, S3 / 3);
strategy_for_tuple!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4);
strategy_for_tuple!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5);

pub mod collection {
    use super::{Strategy, TestRng};

    /// A `Vec` strategy with random length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// Vectors of `element` values with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod option {
    use super::{Strategy, TestRng};

    /// An `Option` strategy (`None` one case in four).
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Some` values of `inner`, or `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

pub mod array {
    use super::{Strategy, TestRng};

    /// A fixed 32-element array strategy.
    #[derive(Debug, Clone)]
    pub struct Uniform32<S> {
        inner: S,
    }

    /// `[T; 32]` with each element drawn from `inner`.
    pub fn uniform32<S: Strategy>(inner: S) -> Uniform32<S> {
        Uniform32 { inner }
    }

    impl<S: Strategy> Strategy for Uniform32<S> {
        type Value = [S::Value; 32];
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            std::array::from_fn(|_| self.inner.sample(rng))
        }
    }
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Re-panics with a failed case's panic message prefixed by what
/// reproduces it: the test's name and the case number
/// [`TestRng::for_case`] takes.
#[doc(hidden)]
pub fn fail_case(name: &str, case: u32, cases: u32, payload: Box<dyn std::any::Any + Send>) -> ! {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string panic payload)");
    panic!("{name}: case {case} of {cases} failed: {msg}")
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases. A
/// failing case panics with the test's name and case number beside the
/// assertion's message.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr); $($(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                for case in 0..cfg.cases {
                    let mut prop_rng = $crate::TestRng::for_case(stringify!($name), case);
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut prop_rng);)+
                    let run = ::std::panic::AssertUnwindSafe(move || $body);
                    if let Err(payload) = ::std::panic::catch_unwind(run) {
                        $crate::fail_case(stringify!($name), case, cfg.cases, payload);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg (<$crate::ProptestConfig as ::std::default::Default>::default()); $($rest)*);
    };
}

/// Uniform choice between the listed strategies (all yielding one type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Property-scoped assertion (panics; no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Property-scoped equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Property-scoped inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::prelude::*;

    #[test]
    fn deterministic_across_runs() {
        let s = (0u64..100, any::<bool>());
        let mut a = crate::TestRng::for_case("t", 7);
        let mut b = crate::TestRng::for_case("t", 7);
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }

    #[test]
    fn ranges_and_collections_bounded() {
        let s = vec(5u8..9, 2..6);
        let mut rng = crate::TestRng::for_case("bounds", 0);
        for _ in 0..200 {
            let v = crate::Strategy::sample(&s, &mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|x| (5..9).contains(x)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_generates_cases(x in 0u32..10, flip in any::<bool>()) {
            prop_assert!(x < 10);
            let _ = flip;
        }
    }

    /// Cases the body of `a_failing_case_is_named` has run.
    static RUN: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        #[should_panic(expected = "a_failing_case_is_named: case 3 of 8 failed: boom")]
        fn a_failing_case_is_named(_x in 0u32..10) {
            let case = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            prop_assert!(case != 3, "boom");
        }
    }

    proptest! {
        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u64..4).prop_map(|x| x * 2),
            Just(99u64),
        ]) {
            prop_assert!(v == 99 || v % 2 == 0);
            prop_assert!(v < 100);
        }
    }
}
