//! Offline drop-in replacement for the subset of the `proptest` API this
//! workspace uses.
//!
//! The build environment cannot fetch crates.io, so the real `proptest` is
//! unavailable. This shim keeps the property tests running as *randomized,
//! deterministic, non-shrinking* tests: each `proptest!` function runs its
//! body for `ProptestConfig::cases` inputs drawn from the given strategies
//! with a per-test-name seed. On failure the offending values are reported
//! by the underlying `assert!` message (no shrinking).

use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    //! Deterministic RNG driving strategy generation.

    /// SplitMix64-based test RNG; seeded from the test name so every test
    //  gets a distinct but reproducible stream.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from an arbitrary string (e.g. the test function name).
        pub fn deterministic(name: &str) -> TestRng {
            // FNV-1a over the name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

use test_runner::TestRng;

/// Run configuration (subset of `proptest::test_runner::ProptestConfig`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A generator of random values (non-shrinking subset of
/// `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then draws from the strategy `f` builds from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values `f` maps to `Some`, retrying otherwise.
    fn prop_filter_map<O, F: Fn(Self::Value) -> Option<O>>(
        self,
        whence: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap { inner: self, f, whence }
    }

    /// Keeps only values passing the predicate, retrying otherwise.
    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, f, whence }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        for _ in 0..1000 {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map `{}`: rejected 1000 candidates in a row", self.whence);
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter `{}`: rejected 1000 candidates in a row", self.whence);
    }
}

/// Type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Strategy that always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (backs `prop_oneof!`).
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// Creates a one-of strategy; panics on an empty option list.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> OneOf<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        OneOf { options }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = (rng.next_u64() % self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                (start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                // 53 uniform mantissa bits in [0, 1).
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                let v = self.start as f64 + unit * (self.end as f64 - self.start as f64);
                if (v as $t) < self.end { v as $t } else { self.start }
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                (start as f64 + unit * (end as f64 - start as f64)) as $t
            }
        }
    )*};
}
impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical whole-domain strategy (subset of
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_tuple {
    ($($name:ident),+) => {
        impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($name::arbitrary(rng),)+)
            }
        }
    };
}
impl_arbitrary_tuple!(A);
impl_arbitrary_tuple!(A, B);
impl_arbitrary_tuple!(A, B, C);
impl_arbitrary_tuple!(A, B, C, D);
impl_arbitrary_tuple!(A, B, C, D, E);
impl_arbitrary_tuple!(A, B, C, D, E, F);

/// Whole-domain strategy for an [`Arbitrary`] type.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the whole-domain strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

pub mod collection {
    //! Collection strategies (subset of `proptest::collection`).

    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`]: an exact length or a range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi_inclusive: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    /// Strategy for `Vec`s of `element` values (see [`vec()`]).
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::collection;
    pub use crate::{any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Namespace alias so `prop::collection::vec` works.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Uniform random choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Property assertion (plain `assert!` here — no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Assumption: skips the current case when the condition fails.
/// (In this shim the case still counts toward the budget.)
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (@cfg $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__cfg.cases {
                    let _ = __case;
                    $(let $pat = $crate::Strategy::generate(&($strategy), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Declares property tests: each `fn name(x in strategy, ...)` becomes a
/// function running its body for `ProptestConfig::cases` random inputs.
/// As in real proptest, the macro adds no `#[test]` of its own: write it
/// on each function.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { @cfg $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { @cfg $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_are_deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        let s = crate::collection::vec(0u64..50, 3..8);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    fn oneof_and_combinators() {
        let mut rng = crate::test_runner::TestRng::deterministic("combi");
        let s = prop_oneof![Just(1u64), Just(2u64), (10u64..20).prop_map(|v| v * 2)];
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v == 1 || v == 2 || (20..40).contains(&v));
        }
        let flat = (2usize..=4).prop_flat_map(|n| crate::collection::vec(0u64..5, n));
        for _ in 0..50 {
            let v = flat.generate(&mut rng);
            assert!((2..=4).contains(&v.len()));
        }
        let filtered = (0u64..100).prop_filter_map("even", |v| (v % 2 == 0).then_some(v));
        for _ in 0..50 {
            assert_eq!(filtered.generate(&mut rng) % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_smoke(x in 0u64..10, v in collection::vec(any::<u8>(), 0..4)) {
            prop_assert!(x < 10);
            prop_assert!(v.len() < 4);
        }
    }
}
