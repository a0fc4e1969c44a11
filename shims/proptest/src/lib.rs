//! Offline shim for the `proptest` property-testing crate.
//!
//! The build environment has no crate registry, so this implements the
//! subset of the proptest 1.x API the workspace's tests use: the
//! `proptest!` / `prop_assert*` / `prop_oneof!` macros, the [`Strategy`]
//! trait with `prop_map`, `prop_recursive` and `boxed`, `any::<T>()` for
//! primitives and byte arrays, integer-range and regex-class string
//! strategies, and the `collection` / `option` helpers.
//!
//! Differences from real proptest: generation is driven by a small
//! deterministic PRNG seeded from the test name (reproducible across
//! runs), and failing cases are reported without shrinking.

#![forbid(unsafe_code)]

/// Test-execution plumbing: the deterministic PRNG and failure type.
pub mod test_runner {
    /// Per-test deterministic PRNG (splitmix64).
    pub struct TestRng(u64);

    impl TestRng {
        /// Seeds the generator from a test name, deterministically.
        pub fn from_name(name: &str) -> TestRng {
            // FNV-1a over the name gives a stable cross-run seed.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(h)
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `0..n` (n > 0).
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform usize in the half-open range.
        pub fn in_range(&mut self, lo: usize, hi: usize) -> usize {
            if hi <= lo {
                return lo;
            }
            lo + self.below((hi - lo) as u64) as usize
        }
    }

    /// A failed property case (carries the formatted assertion message).
    #[derive(Debug)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// Builds a failure from a message.
        pub fn fail(msg: String) -> TestCaseError {
            TestCaseError(msg)
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The [`Strategy`] trait and combinators.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::rc::Rc;

    /// A recipe for generating random values of `Self::Value`.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Produces one random value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values through `f`.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Erases the concrete strategy type (cloneable, single-threaded).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
        }

        /// Builds recursive structures: `self` generates leaves, and
        /// `recurse` wraps a strategy for depth-`d` values into one for
        /// depth-`d+1` values. Recursion is unrolled `depth` times, so
        /// generated values are depth-bounded (no shrink-based control
        /// as in real proptest; `_desired_size`/`_branch` are accepted
        /// for signature parity).
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _branch: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = self.boxed();
            let mut current = leaf.clone();
            for _ in 0..depth {
                let branch = recurse(current).boxed();
                // Bias toward leaves so sizes stay small on average.
                current = Union::new(vec![leaf.clone(), leaf.clone(), branch]).boxed();
            }
            current
        }
    }

    /// Type-erased strategy; cloneable so it can be reused recursively.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Strategy that always yields clones of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` adapter.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Uniform choice between alternative strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union over the given alternatives (non-empty).
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.in_range(0, self.options.len());
            self.options[idx].generate(rng)
        }
    }

    /// Types with a canonical random generator, used by [`any`].
    pub trait Arbitrary {
        /// Produces one random value of this type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_uint {
        ($($t:ty),+) => { $(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )+ };
    }
    arbitrary_uint!(u8, u16, u32, u64, usize);

    macro_rules! arbitrary_int {
        ($($t:ty),+) => { $(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )+ };
    }
    arbitrary_int!(i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> [u8; N] {
            let mut out = [0u8; N];
            for chunk in out.chunks_mut(8) {
                let word = rng.next_u64().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&word[..n]);
            }
            out
        }
    }

    /// Strategy for any [`Arbitrary`] type.
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Entry point mirroring `proptest::prelude::any`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    macro_rules! range_strategy {
        ($($t:ty),+) => { $(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let offset = (u128::from(rng.next_u64()) % span) as i128;
                    (self.start as i128 + offset) as $t
                }
            }
        )+ };
    }
    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($(($($name:ident . $idx:tt),+);)+) => { $(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+ };
    }
    tuple_strategy! {
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
    }

    // ---- regex-class string strategies -------------------------------

    /// A parsed `[class]{lo,hi}`-style pattern element.
    struct Element {
        allowed: Vec<char>,
        lo: usize,
        hi: usize,
    }

    /// Parses the mini regex dialect used by the tests: a sequence of
    /// character classes (`[a-z]`, `[ -~]`, with `&&[^...]` subtraction
    /// and backslash escapes) or literal characters, each optionally
    /// followed by `{lo,hi}` / `{n}` repetition (inclusive bounds).
    fn parse_pattern(pattern: &str) -> Vec<Element> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        let mut elements = Vec::new();
        while i < chars.len() {
            let allowed = if chars[i] == '[' {
                let (set, negated, next) = parse_class(&chars, i);
                i = next;
                assert!(!negated, "top-level negated class unsupported: {pattern}");
                set
            } else {
                let c = if chars[i] == '\\' {
                    i += 1;
                    chars[i]
                } else {
                    chars[i]
                };
                i += 1;
                vec![c]
            };
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..].iter().position(|&c| c == '}').expect("unclosed {") + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((a, b)) => (a.trim().parse().unwrap(), b.trim().parse().unwrap()),
                    None => {
                        let n = body.trim().parse().unwrap();
                        (n, n)
                    }
                }
            } else {
                (1, 1)
            };
            assert!(!allowed.is_empty(), "empty character class in {pattern}");
            elements.push(Element { allowed, lo, hi });
        }
        elements
    }

    /// Parses one `[...]` class starting at `chars[start]`; returns the
    /// character set, whether it was negated (`[^...]`), and the index
    /// just past the closing `]`.
    fn parse_class(chars: &[char], start: usize) -> (Vec<char>, bool, usize) {
        let mut i = start + 1;
        let mut include = Vec::new();
        let mut exclude = Vec::new();
        let negated = chars[i] == '^';
        if negated {
            i += 1;
        }
        while chars[i] != ']' {
            if chars[i] == '&' && chars.get(i + 1) == Some(&'&') {
                let (sub, sub_negated, next) = parse_class(chars, i + 2);
                i = next;
                if sub_negated {
                    exclude.extend(sub);
                } else {
                    include.retain(|c| sub.contains(c));
                }
                continue;
            }
            let c = if chars[i] == '\\' {
                i += 1;
                chars[i]
            } else {
                chars[i]
            };
            if chars.get(i + 1) == Some(&'-') && chars.get(i + 2) != Some(&']') {
                let hi = if chars[i + 2] == '\\' {
                    i += 1;
                    chars[i + 2]
                } else {
                    chars[i + 2]
                };
                include.extend(c..=hi);
                i += 3;
            } else {
                include.push(c);
                i += 1;
            }
        }
        include.retain(|c| !exclude.contains(c));
        // The set is returned raw; `negated` tells the caller whether it
        // lists allowed characters or characters to subtract.
        (include, negated, i + 1)
    }

    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for el in parse_pattern(self) {
                let count = rng.in_range(el.lo, el.hi + 1);
                for _ in 0..count {
                    out.push(el.allowed[rng.in_range(0, el.allowed.len())]);
                }
            }
            out
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn rng() -> TestRng {
            TestRng::from_name("shim-tests")
        }

        #[test]
        fn string_classes() {
            let mut r = rng();
            for _ in 0..200 {
                let s = "[a-z]{1,6}".generate(&mut r);
                assert!((1..=6).contains(&s.len()));
                assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            }
            for _ in 0..200 {
                let s = "[ -~&&[^\"\\\\]]{0,16}".generate(&mut r);
                assert!(s.len() <= 16);
                assert!(s.chars().all(|c| (' '..='~').contains(&c) && c != '"' && c != '\\'));
            }
        }

        #[test]
        fn ranges_respect_bounds() {
            let mut r = rng();
            for _ in 0..500 {
                let v = (-50i64..7).generate(&mut r);
                assert!((-50..7).contains(&v));
                let u = (3usize..9).generate(&mut r);
                assert!((3..9).contains(&u));
            }
        }

        #[test]
        fn recursion_is_depth_bounded() {
            #[derive(Clone, Debug)]
            enum Tree {
                Leaf,
                Node(Vec<Tree>),
            }
            fn depth(t: &Tree) -> u32 {
                match t {
                    Tree::Leaf => 0,
                    Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
                }
            }
            let strat = Just(Tree::Leaf).prop_recursive(3, 16, 4, |inner| {
                crate::collection::vec(inner, 0..4).prop_map(Tree::Node)
            });
            let mut r = rng();
            for _ in 0..200 {
                assert!(depth(&strat.generate(&mut r)) <= 3);
            }
        }
    }
}

/// Collection strategies (`proptest::collection::*`).
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors whose length lies in the half-open `size` range.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.in_range(self.size.start, self.size.end);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap<K, V>` with size drawn from `size`.
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    /// Generates maps with roughly `size` entries (duplicate keys collapse).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: Range<usize>,
    ) -> BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        BTreeMapStrategy { key, value, size }
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let target = rng.in_range(self.size.start, self.size.end);
            let mut map = BTreeMap::new();
            for _ in 0..target {
                map.insert(self.key.generate(rng), self.value.generate(rng));
            }
            map
        }
    }
}

/// Option strategies (`proptest::option::of`).
pub mod option {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy for `Option<S::Value>`.
    pub struct OptionStrategy<S>(S);

    /// Generates `Some` about three-quarters of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Everything tests normally import (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

pub use strategy::Strategy;

#[doc(hidden)]
pub fn __run_case<F: FnOnce() -> Result<(), test_runner::TestCaseError>>(
    f: F,
) -> Result<(), test_runner::TestCaseError> {
    f()
}

/// Declares property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` that runs the body over `cases` random inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome = $crate::__run_case(move || {
                    $body
                    ::std::result::Result::Ok(())
                });
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property `{}` failed at case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property, failing the case (not panicking
/// directly) so the runner can report which case failed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            l, r, stringify!($left), stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` == `{:?}` ({} == {})",
            l, r, stringify!($left), stringify!($right)
        );
    }};
}

/// Uniform choice between strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn vec_lengths_in_range(v in crate::collection::vec(any::<u8>(), 2..10)) {
            prop_assert!(v.len() >= 2 && v.len() < 10);
        }

        #[test]
        fn tuples_and_maps(
            pair in (any::<u16>(), "[a-z]{1,4}"),
            m in crate::collection::btree_map("[a-z]{1,3}", any::<u32>(), 0..5),
            opt in crate::option::of(any::<u64>()),
        ) {
            prop_assert!(pair.1.len() <= 4);
            prop_assert!(m.len() < 5);
            let _ = opt;
        }

        #[test]
        fn oneof_covers_all_arms(x in prop_oneof![Just(1u8), Just(2u8), 3u8..5]) {
            prop_assert!((1..5).contains(&x), "got {}", x);
        }
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed at case 1/")]
    fn failure_reports_case() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn always_fails(x in 0u8..4) {
                prop_assert_eq!(x, 200u8);
            }
        }
        always_fails();
    }
}
