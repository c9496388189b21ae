//! Offline shim for the subset of the `proptest` API used by this workspace.
//!
//! Provides deterministic random-input property testing: the [`proptest!`]
//! macro runs each property over `PROPTEST_CASES` (default 128) generated
//! inputs with a per-test deterministic seed. Unlike upstream proptest there
//! is **no shrinking** — a failing case panics with the ordinary assertion
//! message (inputs are printed by the harness via `PROPTEST_VERBOSE=1`).

use rand::{Rng, RngCore, SeedableRng, StdRng};

/// A generator of values of an associated type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Discards generated values failing `pred`, resampling instead (mirror
    /// of upstream `prop_filter`; no shrinking, so `reason` only labels the
    /// panic raised if the filter keeps rejecting).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, reason, pred }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// The strategy returned by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn sample(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter({}): rejected 1000 consecutive samples", self.reason);
    }
}

/// A weighted union over boxed strategies (the engine behind
/// [`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    total: u32,
}

impl<T> Union<T> {
    /// Builds the union; weights must not all be zero.
    pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Union<T> {
        let total = arms.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof: weights sum to zero");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        let mut pick = rng.random_range(0..self.total);
        for (w, s) in &self.arms {
            if pick < *w {
                return s.sample(rng);
            }
            pick -= w;
        }
        unreachable!("weight sampling out of range")
    }
}

/// Mirror of upstream `prop_oneof!`: draws from one of several strategies,
/// uniformly or with `weight => strategy` arms.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(($weight as u32, Box::new($strat) as Box<dyn $crate::Strategy<Value = _>>)),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$((1u32, Box::new($strat) as Box<dyn $crate::Strategy<Value = _>>)),+])
    };
}

macro_rules! impl_numeric_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_numeric_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Marker for types with a canonical "any value" strategy ([`any`]).
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.random()
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Arbitrary for f64 {
    /// Uniform over bit patterns — includes subnormals, ±0, infinities and
    /// NaNs; filter with `prop_filter` where finiteness matters.
    fn arbitrary(rng: &mut StdRng) -> f64 {
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for char {
    /// Escape-path-heavy character mix: mostly printable ASCII, with JSON
    /// specials, control characters, and arbitrary Unicode (including
    /// astral-plane codepoints) mixed in.
    fn arbitrary(rng: &mut StdRng) -> char {
        const SPECIALS: &[char] =
            &['"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}'];
        match rng.random_range(0u32..10) {
            0 => SPECIALS[rng.random_range(0..SPECIALS.len())],
            1 => loop {
                if let Some(c) = char::from_u32(rng.random_range(0u32..0x11_0000)) {
                    break c;
                }
            },
            _ => char::from_u32(rng.random_range(0x20u32..0x7f)).expect("printable ASCII"),
        }
    }
}

impl Arbitrary for String {
    /// Up to 32 [`Arbitrary`] characters.
    fn arbitrary(rng: &mut StdRng) -> String {
        let n = rng.random_range(0..32usize);
        (0..n).map(|_| char::arbitrary(rng)).collect()
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy over every value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// A strategy that always yields a clone of `value`.
pub struct JustStrategy<T: Clone>(T);

impl<T: Clone> Strategy for JustStrategy<T> {
    type Value = T;

    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Mirror of `proptest::strategy::Just`.
#[allow(non_snake_case)]
pub fn Just<T: Clone>(value: T) -> JustStrategy<T> {
    JustStrategy(value)
}

/// Boolean strategies (mirror of `proptest::bool`).
pub mod bool {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// The strategy drawing either boolean uniformly.
    #[derive(Clone, Copy)]
    pub struct BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;

        fn sample(&self, rng: &mut StdRng) -> bool {
            rng.random()
        }
    }

    /// Uniformly random booleans.
    pub const ANY: BoolAny = BoolAny;
}

/// Collection strategies (mirror of `proptest::collection`).
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Admissible length specifications for [`vec()`].
    pub trait SizeRange {
        /// Draws a concrete length.
        fn sample_len(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.random_range(self.clone())
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// A `Vec` strategy with the given element strategy and length range.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    /// The strategy returned by [`btree_map`].
    pub struct BTreeMapStrategy<K, V, L> {
        key: K,
        value: V,
        len: L,
    }

    impl<K, V, L> Strategy for BTreeMapStrategy<K, V, L>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
        L: SizeRange,
    {
        type Value = std::collections::BTreeMap<K::Value, V::Value>;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            // Duplicate keys overwrite, as upstream: the map may come out
            // smaller than the drawn length.
            let n = self.len.sample_len(rng);
            (0..n).map(|_| (self.key.sample(rng), self.value.sample(rng))).collect()
        }
    }

    /// A `BTreeMap` strategy with the given key/value strategies and length
    /// range (before key deduplication).
    pub fn btree_map<K, V, L>(key: K, value: V, len: L) -> BTreeMapStrategy<K, V, L>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
        L: SizeRange,
    {
        BTreeMapStrategy { key, value, len }
    }
}

/// Option strategies (mirror of `proptest::option`).
pub mod option {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// The strategy returned by [`weighted`].
    pub struct WeightedOption<S> {
        p_some: f64,
        inner: S,
    }

    impl<S: Strategy> Strategy for WeightedOption<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Option<S::Value> {
            rng.random_bool(self.p_some).then(|| self.inner.sample(rng))
        }
    }

    /// `Some(inner)` with probability `p_some`, `None` otherwise.
    pub fn weighted<S: Strategy>(p_some: f64, inner: S) -> WeightedOption<S> {
        WeightedOption { p_some, inner }
    }
}

/// Everything a property-test module normally imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just, Strategy,
    };
}

/// Number of cases each property runs (overridable via `PROPTEST_CASES`).
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(128)
}

/// Deterministic per-test, per-case generator used by [`proptest!`].
pub fn test_rng(test_path: &str, case: u32) -> StdRng {
    // FNV-1a over the test path, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
}

/// Runs the body for every generated input (no shrinking on failure).
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($argpat:pat in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cases = $crate::cases();
            for __case in 0..__cases {
                let mut __rng = $crate::test_rng(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $argpat = $crate::Strategy::sample(&($strat), &mut __rng);)*
                $body
            }
        }
    )*};
}

/// Assertion macro (plain `assert!`; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assertion macro (plain `assert_eq!`; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assertion macro (plain `assert_ne!`; no shrinking).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples(x in 0i64..10, (a, b) in (0usize..5, -1.0f64..1.0)) {
            prop_assert!((0..10).contains(&x));
            prop_assert!(a < 5);
            prop_assert!((-1.0..1.0).contains(&b));
        }

        #[test]
        fn collections_and_options(
            mut v in crate::collection::vec(0u8..4, 1..9),
            o in crate::option::weighted(0.5, 0i64..3),
            flag in any::<bool>(),
            c in crate::bool::ANY,
        ) {
            v.sort_unstable();
            prop_assert!(!v.is_empty() && v.len() < 9);
            prop_assert!(v.iter().all(|&x| x < 4));
            if let Some(x) = o {
                prop_assert!((0..3).contains(&x));
            }
            prop_assert!(flag as u8 <= 1);
            prop_assert!(c as u8 <= 1);
        }

        #[test]
        fn prop_map_applies(s in (0i64..5).prop_map(|x| x * 2)) {
            prop_assert!(s % 2 == 0 && s < 10);
        }
    }

    #[test]
    fn deterministic_rng_per_test_and_case() {
        use rand::RngCore;
        let mut a = crate::test_rng("mod::t", 3);
        let mut b = crate::test_rng("mod::t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_rng("mod::t", 4);
        assert_ne!(crate::test_rng("mod::t", 3).next_u64(), c.next_u64());
    }
}
