//! Offline shim for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace uses as a
//! deterministic random tester: each `proptest!` test runs its body for
//! `ProptestConfig::cases` inputs drawn from the argument strategies, with
//! the generator seeded from the test's module path and case index so runs
//! are reproducible. No shrinking or failure persistence — a failing case
//! panics via the `prop_assert*` macros with the offending values visible
//! through the standard assertion message.

pub mod test_runner {
    /// Per-test configuration, set via `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated inputs per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` inputs.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Path of the function a marker item `f` was declared in.
    #[doc(hidden)]
    pub fn enclosing_fn<F: Fn()>(_marker: F) -> &'static str {
        let name = std::any::type_name::<F>();
        name.rsplit_once("::").map_or(name, |(outer, _)| outer)
    }

    /// Deterministic generator (splitmix64) seeded per test and case.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test identifier and case index (FNV-1a over the id).
        pub fn deterministic(test_id: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_id.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self {
                state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty bound");
            self.next_u64() % bound
        }

        /// Uniform draw from `[lo, hi]` (inclusive), via i128 to avoid overflow.
        pub fn in_inclusive(&mut self, lo: i128, hi: i128) -> i128 {
            debug_assert!(lo <= hi);
            let span = (hi - lo + 1) as u128;
            lo + (u128::from(self.next_u64()) % span) as i128
        }

        /// Uniform float in `[0, 1)` with 53 mantissa bits.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A generator of test values.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases into a cheaply cloneable strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            let inner = self;
            BoxedStrategy::from_fn(move |rng| inner.sample(rng))
        }

        /// Recursive strategy: up to `depth` levels of `recurse` wrapped
        /// around this leaf strategy, mixing leaves in at every level so
        /// generated trees vary in shape. `desired_size`/`expected_branch`
        /// are accepted for API compatibility and unused.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut strat = leaf.clone();
            for _ in 0..depth {
                let branch = recurse(strat).boxed();
                let l = leaf.clone();
                strat = BoxedStrategy::from_fn(move |rng| {
                    if rng.below(3) == 0 {
                        l.sample(rng)
                    } else {
                        branch.sample(rng)
                    }
                });
            }
            strat
        }
    }

    /// Cloneable type-erased strategy.
    pub struct BoxedStrategy<T> {
        f: Rc<dyn Fn(&mut TestRng) -> T>,
    }

    impl<T> BoxedStrategy<T> {
        /// Wraps a sampling closure.
        pub fn from_fn(f: impl Fn(&mut TestRng) -> T + 'static) -> Self {
            Self { f: Rc::new(f) }
        }
    }

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            Self {
                f: Rc::clone(&self.f),
            }
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice between strategies (the `prop_oneof!` macro's output).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over the given arms (must be non-empty).
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Self {
                arms: self.arms.clone(),
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].sample(rng)
        }
    }

    /// Delegate so `&S` works wherever a strategy is expected.
    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range");
                    rng.in_inclusive(self.start as i128, self.end as i128 - 1) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range");
                    rng.in_inclusive(*self.start() as i128, *self.end() as i128) as $t
                }
            }
        )*};
    }

    int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategies {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range");
                    let v = self.start + (rng.unit_f64() as $t) * (self.end - self.start);
                    if v >= self.end { self.start } else { v }
                }
            }
        )*};
    }

    float_range_strategies!(f32, f64);

    /// Regex-subset strategies on `&str` patterns: a single char-class atom
    /// (`[...]` with ranges and escapes, or `\PC` for any non-control char)
    /// followed by an optional `{lo,hi}` repetition count.
    impl Strategy for str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            crate::string::sample_pattern(self, rng)
        }
    }
}

pub mod string {
    use crate::test_runner::TestRng;

    /// Characters `\PC` (non-control) draws from: printable ASCII plus a few
    /// multi-byte code points to exercise UTF-8 handling.
    const NON_CONTROL_EXTRA: &[char] = &['é', 'π', 'ω', '中', '😀', '\u{00a0}'];

    pub(crate) fn sample_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut i;
        let pool: Vec<char> = if chars.first() == Some(&'\\')
            && chars.get(1) == Some(&'P')
            && chars.get(2) == Some(&'C')
        {
            i = 3;
            let mut p: Vec<char> = (0x20u8..0x7f).map(char::from).collect();
            p.extend_from_slice(NON_CONTROL_EXTRA);
            p
        } else if chars.first() == Some(&'[') {
            i = 1;
            let mut p = Vec::new();
            while i < chars.len() && chars[i] != ']' {
                let c = if chars[i] == '\\' {
                    i += 1;
                    chars[i]
                } else {
                    chars[i]
                };
                // `a-z` range (a `-` not followed by `]`)
                if chars.get(i + 1) == Some(&'-') && chars.get(i + 2).is_some_and(|&n| n != ']') {
                    let hi = chars[i + 2];
                    for u in c as u32..=hi as u32 {
                        p.extend(char::from_u32(u));
                    }
                    i += 3;
                } else {
                    p.push(c);
                    i += 1;
                }
            }
            assert!(
                chars.get(i) == Some(&']'),
                "unterminated char class: {pattern:?}"
            );
            i += 1;
            p
        } else {
            panic!("unsupported pattern in proptest shim: {pattern:?}");
        };
        assert!(!pool.is_empty(), "empty char class: {pattern:?}");

        let (lo, hi) = if chars.get(i) == Some(&'{') {
            let rest: String = chars[i + 1..].iter().collect();
            let body = rest.split('}').next().expect("closing brace");
            let (a, b) = body.split_once(',').unwrap_or((body, body));
            (
                a.parse::<usize>().expect("repeat lower bound"),
                b.parse::<usize>().expect("repeat upper bound"),
            )
        } else {
            (1, 1)
        };

        let count = rng.in_inclusive(lo as i128, hi as i128) as usize;
        (0..count)
            .map(|_| pool[rng.below(pool.len() as u64) as usize])
            .collect()
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy (`any::<T>()`).
    pub trait Arbitrary {
        /// Draws a uniform value over the whole domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Finite values spread over a wide but non-pathological span.
            ((rng.unit_f64() - 0.5) * 2e12) as f32
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            (rng.unit_f64() - 0.5) * 2e18
        }
    }

    /// Strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Self(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::Range;

    /// `Vec` strategy with length drawn from `sizes`.
    pub fn vec<S: Strategy>(element: S, sizes: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, sizes }
    }

    /// Strategy returned by [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        sizes: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.sizes.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `BTreeSet` strategy; draws a target size from `sizes` and inserts
    /// until reached or the element space appears exhausted.
    pub fn btree_set<S>(element: S, sizes: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, sizes }
    }

    /// Strategy returned by [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        sizes: Range<usize>,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.sizes.sample(rng);
            let mut out = BTreeSet::new();
            let mut attempts = 0;
            while out.len() < target && attempts < 50 * target + 100 {
                out.insert(self.element.sample(rng));
                attempts += 1;
            }
            out
        }
    }

    /// `BTreeMap` strategy; like [`btree_set`] keyed by `keys`.
    pub fn btree_map<K, V>(keys: K, values: V, sizes: Range<usize>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        BTreeMapStrategy {
            keys,
            values,
            sizes,
        }
    }

    /// Strategy returned by [`btree_map`].
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        keys: K,
        values: V,
        sizes: Range<usize>,
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.sizes.sample(rng);
            let mut out = BTreeMap::new();
            let mut attempts = 0;
            while out.len() < target && attempts < 50 * target + 100 {
                out.insert(self.keys.sample(rng), self.values.sample(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod array {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// `[T; 3]` strategy sampling `element` three times.
    pub fn uniform3<S: Strategy>(element: S) -> Uniform3<S> {
        Uniform3 { element }
    }

    /// Strategy returned by [`uniform3`].
    #[derive(Debug, Clone)]
    pub struct Uniform3<S> {
        element: S,
    }

    impl<S: Strategy> Strategy for Uniform3<S> {
        type Value = [S::Value; 3];
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            [
                self.element.sample(rng),
                self.element.sample(rng),
                self.element.sample(rng),
            ]
        }
    }
}

/// Defines `#[test]` functions whose arguments are drawn from strategies,
/// or — `proptest!(config, |(x in strategy, ..)| { .. })` inside a test
/// function — runs a closure body over the cases, so that what the cases
/// share is built once, before it, and dropped after it.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
    ($(#[$meta:meta])+ fn $($rest:tt)*) => {
        $crate::__proptest_tests!{
            ($crate::test_runner::ProptestConfig::default()) $(#[$meta])+ fn $($rest)*
        }
    };
    ($cfg:expr, |($($pat:pat in $strat:expr),+ $(,)?)| $body:block) => {{
        // seeded by the enclosing function's path, as the other form is
        // by the function it defines: moving a body between the two
        // forms leaves its cases as they were
        fn __here() {}
        let __id = $crate::test_runner::enclosing_fn(__here);
        let __cfg: $crate::test_runner::ProptestConfig = $cfg;
        for __case in 0..__cfg.cases {
            let mut __rng = $crate::test_runner::TestRng::deterministic(__id, __case);
            $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
            $body
        }
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])+
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])+
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Mirrors `proptest::prelude::prop`, the module alias tests use for
    /// `prop::collection::*` and `prop::array::*`.
    pub mod prop {
        pub use crate::array;
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::deterministic("shim::ranges", 0);
        for _ in 0..1000 {
            let v = Strategy::sample(&(3u32..7), &mut rng);
            assert!((3..7).contains(&v));
            let w = Strategy::sample(&(1u8..=4), &mut rng);
            assert!((1..=4).contains(&w));
            let f = Strategy::sample(&(-2.0f64..3.0), &mut rng);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn char_class_patterns() {
        let mut rng = crate::test_runner::TestRng::deterministic("shim::regex", 0);
        for _ in 0..200 {
            let s = Strategy::sample(&"[a-z]{1,8}", &mut rng);
            assert!((1..=8).contains(&s.chars().count()));
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            let t = Strategy::sample(&"\\PC{0,64}", &mut rng);
            assert!(t.chars().count() <= 64);
            assert!(t.chars().all(|c| !c.is_control()));
        }
    }

    #[test]
    fn collections_hit_requested_sizes() {
        let mut rng = crate::test_runner::TestRng::deterministic("shim::coll", 1);
        for _ in 0..50 {
            let v = Strategy::sample(&prop::collection::vec(0u32..100, 2..5), &mut rng);
            assert!((2..5).contains(&v.len()));
            let s = Strategy::sample(&prop::collection::btree_set(0u64..500, 1..80), &mut rng);
            assert!(!s.is_empty() && s.len() < 80);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_draws_every_argument(x in 0u32..10, mut ys in prop::collection::vec(0i64..5, 0..4)) {
            prop_assert!(x < 10);
            ys.push(0);
            prop_assert!(ys.len() <= 4, "len {}", ys.len());
        }
    }

    #[test]
    fn closure_form_draws_what_the_function_form_draws() {
        let draw = |case| {
            let id = concat!(
                module_path!(),
                "::closure_form_draws_what_the_function_form_draws"
            );
            let mut rng = crate::test_runner::TestRng::deterministic(id, case);
            Strategy::sample(&(0u64..1 << 40), &mut rng)
        };
        let mut case = 0;
        proptest!(ProptestConfig::with_cases(4), |(x in 0u64..1 << 40)| {
            prop_assert_eq!(x, draw(case));
            case += 1;
        });
        assert_eq!(case, 4);
    }

    proptest! {
        #[test]
        fn oneof_and_recursive_compose(v in arb_nested()) {
            prop_assert!(depth(&v) <= 4);
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Nested {
        Leaf(bool),
        List(Vec<Nested>),
    }

    fn arb_nested() -> impl Strategy<Value = Nested> {
        let leaf = prop_oneof![
            Just(Nested::Leaf(false)),
            any::<bool>().prop_map(Nested::Leaf)
        ];
        leaf.prop_recursive(3, 16, 4, |inner| {
            prop::collection::vec(inner.clone(), 0..4).prop_map(Nested::List)
        })
    }

    fn depth(n: &Nested) -> usize {
        match n {
            Nested::Leaf(_) => 1,
            Nested::List(xs) => 1 + xs.iter().map(depth).max().unwrap_or(0),
        }
    }
}
