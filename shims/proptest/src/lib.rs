//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace uses: the [`proptest!`] macro (with
//! `#![proptest_config(ProptestConfig::with_cases(n))]`),
//! [`Strategy`](strategy::Strategy) with `prop_map` / `prop_flat_map` /
//! `boxed`, `any::<T>()`, numeric range strategies, tuple strategies (up
//! to 6 elements), [`strategy::Just`], [`prop_oneof!`],
//! `collection::{vec, hash_set}`, and the
//! `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`/`prop_assume!`
//! assertion macros.
//!
//! Differences from upstream: cases are generated from a fixed deterministic
//! seed (no `PROPTEST_*` env handling) and failing cases are **not shrunk** —
//! the panic message reports the raw failing values via `prop_assert*`'s
//! formatting instead.

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Deterministic RNG driving case generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        inner: StdRng,
    }

    impl TestRng {
        /// A fixed-seed RNG so every test run explores the same cases.
        pub fn deterministic() -> Self {
            TestRng { inner: StdRng::seed_from_u64(0x5052_4f50_5445_5354) }
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }

    /// Why a generated case did not produce a pass/fail verdict.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; try another case.
        Reject,
    }

    /// Runner configuration (only the case count is honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful (non-rejected) cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Generates one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Generates an intermediate value, then a value from the strategy
        /// `f` builds out of it.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { source: self, f }
        }

        /// Type-erases the strategy (used by [`prop_oneof!`](crate::prop_oneof)).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(move |rng| self.gen_value(rng)))
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn gen_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.gen_value(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.source.gen_value(rng)).gen_value(rng)
        }
    }

    /// A strategy that always yields a clone of the given value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice among several strategies of the same value type
    /// (what [`prop_oneof!`](crate::prop_oneof) builds).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `options`; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            let i = rand::Rng::gen_range(rng, 0..self.options.len());
            self.options[i].gen_value(rng)
        }
    }

    macro_rules! numeric_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::gen_range(rng, self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::gen_range(rng, self.clone())
                }
            }
        )*};
    }

    numeric_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64);

    macro_rules! tuple_strategy {
        ($(($($s:ident.$idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.gen_value(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::RngCore;
    use std::marker::PhantomData;

    /// Types with a canonical "whole domain" strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the type's full domain.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<A>(PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn gen_value(&self, rng: &mut TestRng) -> A {
            A::arbitrary_value(rng)
        }
    }

    /// The canonical strategy for `A`'s full domain.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::HashSet;
    use std::hash::Hash;

    /// An inclusive size range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl SizeRange {
        fn sample(&self, rng: &mut TestRng) -> usize {
            rand::Rng::gen_range(rng, self.lo..=self.hi)
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from the range.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` of values from `element`, sized within `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.gen_value(rng)).collect()
        }
    }

    /// Strategy for `HashSet<S::Value>` aiming for a size within the range.
    pub struct HashSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `HashSet` of values from `element`. Like upstream, the set may end
    /// up smaller than requested when the element domain collides.
    pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        HashSetStrategy { element, size: size.into() }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let target = self.size.sample(rng);
            let mut set = HashSet::with_capacity(target);
            let mut attempts = 0usize;
            while set.len() < target && attempts < target * 10 + 16 {
                set.insert(self.element.gen_value(rng));
                attempts += 1;
            }
            set
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a test running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@expand $cfg; $($rest)*);
    };
    (@expand $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic();
                let mut passed: u32 = 0;
                // Bounded so a property whose assumptions always reject
                // terminates instead of spinning forever.
                let max_attempts = config.cases.saturating_mul(16).max(64);
                let mut attempts: u32 = 0;
                while passed < config.cases && attempts < max_attempts {
                    attempts += 1;
                    $(let $arg = $crate::strategy::Strategy::gen_value(&($strat), &mut rng);)+
                    let case = move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    match case() {
                        ::std::result::Result::Ok(()) => passed += 1,
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {}
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@expand $crate::test_runner::ProptestConfig::default(); $($rest)*);
    };
}

/// Uniform choice among the listed strategies (all must share a value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Asserts a property holds for the current case.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts two values are equal for the current case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts two values differ for the current case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the current case (without failing) when the condition is false.
/// Only valid directly inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic();
        use crate::strategy::Strategy;
        for _ in 0..200 {
            let v = crate::collection::vec(0.0f32..1.0, 3..7).gen_value(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
            let s = crate::collection::hash_set(0usize..5, 2..5).gen_value(&mut rng);
            assert!(s.len() <= 4);
            let t = (0u8..4, Just(7i32)).gen_value(&mut rng);
            assert!(t.0 < 4 && t.1 == 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_binds_patterns((a, b) in (0usize..10, 5usize..15), seed in any::<u64>()) {
            let _ = seed;
            prop_assert!(a < 10);
            prop_assert!((5..15).contains(&b));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..10) {
            prop_assume!(n >= 5);
            prop_assert!(n >= 5);
        }

        #[test]
        fn flat_map_links_sizes(v in (1usize..6).prop_flat_map(|n| crate::collection::vec(Just(n), n))) {
            prop_assert!(!v.is_empty());
            prop_assert!(v.iter().all(|&x| x == v.len()));
        }

        #[test]
        fn oneof_picks_every_arm(x in prop_oneof![0i32..10, 100i32..110]) {
            prop_assert!((0..10).contains(&x) || (100..110).contains(&x));
        }
    }
}
