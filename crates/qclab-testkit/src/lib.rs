//! Seeded property tests and checked-in goldens for the qclab test suites.
//!
//! A [`proptest!`] block turns each `fn name(arg in strategy, ..) { body }`
//! into a `#[test]` that draws its arguments from the [`Strategy`]s and
//! runs the body until [`ProptestConfig::cases`] cases pass. The inputs
//! come from a [`TestRng`] seeded by the test's module path and name, so
//! every run of a test sees the same cases. There is no shrinking: a
//! failing case panics with its exact inputs (everything generated is
//! `Debug`), and the fixed seed reproduces it.
//!
//! The strategies are the forms the suites draw: integer and `f64`
//! ranges, tuples, [`Just`], [`prop_oneof!`], [`Strategy::prop_map`],
//! [`Strategy::prop_filter_map`], [`collection::vec`], `".{a,b}"` strings
//! and [`any`] over `u8` and `u64`. The macro and method names follow the
//! `proptest` crate's, but nothing here is that crate or draws its values.
//!
//! [`golden!`] and [`seeded_golden!`] compare a test's output with its
//! checked-in golden file ([`mod@golden`]).

pub mod golden;

use qclab_math::rng::Rng;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Per-test configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of passing cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was rejected by [`prop_assume!`]; a fresh one is drawn.
    Reject,
    /// The case failed an assertion.
    Fail(String),
}

/// The generator behind a test's cases.
pub struct TestRng(Rng);

impl TestRng {
    /// The generator for the test at `test_path` (module path and name):
    /// [`Rng`] seeded with the path's FNV-1a hash, which is stable across
    /// runs and platforms.
    pub fn deterministic(test_path: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(Rng::seed_from_u64(h))
    }

    /// A uniform integer in `[lo, hi]`.
    fn between(&mut self, lo: i128, hi: i128) -> i128 {
        lo + self.0.below((hi - lo + 1) as usize) as i128
    }
}

/// A generator of random values of type `Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }

    /// Maps through `f`, drawing again (up to 256 times) while `f`
    /// returns `None`; `whence` names the filter when it gives up.
    fn prop_filter_map<T: Debug, F: Fn(Self::Value) -> Option<T>>(
        self,
        whence: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap {
            source: self,
            whence,
            f,
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Strategy that always produces a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.source.generate(rng))
    }
}

/// Output of [`Strategy::prop_filter_map`].
#[derive(Clone)]
pub struct FilterMap<S, F> {
    source: S,
    whence: &'static str,
    f: F,
}

impl<S: Strategy, T: Debug, F: Fn(S::Value) -> Option<T>> Strategy for FilterMap<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        for _ in 0..256 {
            if let Some(v) = (self.f)(self.source.generate(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map gave up after 256 draws: {}", self.whence);
    }
}

/// Uniform choice between strategies ([`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T: Debug> Union<T> {
    /// Builds a union; panics on an empty arm list.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.0.below(self.arms.len());
        self.arms[i].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                rng.between(self.start as i128, self.end as i128 - 1) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                rng.between(*self.start() as i128, *self.end() as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u64, u8, i32);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.0.f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// `".{a,b}"`: a string of `a..=b` random characters, mostly printable
/// ASCII with some arbitrary code points and control characters, to
/// stress parsers the way the regex `.` would. No other pattern is
/// supported.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (lo, hi) = self
            .strip_prefix(".{")
            .and_then(|s| s.strip_suffix('}'))
            .and_then(|s| s.split_once(','))
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .unwrap_or_else(|| panic!("unsupported string pattern {self:?}"));
        let len = rng.between(lo, hi);
        (0..len).map(|_| random_char(rng)).collect()
    }
}

fn random_char(rng: &mut TestRng) -> char {
    match rng.0.below(10) {
        0 => char::from_u32(rng.between(1, 0xD7FF) as u32).unwrap_or('\u{FFFD}'),
        1 => ['\n', '\t', '\r', '\0', '"', '\\'][rng.0.below(6)],
        _ => char::from(rng.between(0x20, 0x7E) as u8),
    }
}

/// Types with a canonical "any value" strategy ([`any`]).
pub trait Arbitrary: Debug + Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.0.next_u64()
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.0.next_u64() as u8
    }
}

/// Output of [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Every value of `T`, uniformly (`any::<u64>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies.
pub mod collection {
    use crate::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Vector lengths [`vec()`] accepts: `a..b` or `a..=b`.
    pub trait SizeRange {
        /// Lower and upper (inclusive) bounds of the length.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy for `Vec<S::Value>` with its length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    /// Output of [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.between(self.min as i128, self.max as i128);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a suite imports: `use qclab_testkit::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, Just, ProptestConfig, Strategy, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that generates inputs and runs the body until
/// the configured number of cases pass (default 256; set another with a
/// leading `#![proptest_config(ProptestConfig::with_cases(n))]`).
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
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < config.cases {
                attempts += 1;
                assert!(
                    attempts <= config.cases.saturating_mul(16).max(1024),
                    "proptest: too many rejected cases ({} accepted of {} wanted)",
                    accepted,
                    config.cases,
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let mut inputs = ::std::string::String::new();
                $(
                    inputs.push_str(concat!("\n  ", stringify!($arg), " = "));
                    inputs.push_str(&format!("{:?}", &$arg));
                )+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => accepted += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => continue,
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => panic!(
                        "proptest case {}/{} failed: {}\ninputs:{}",
                        accepted + 1,
                        config.cases,
                        msg,
                        inputs,
                    ),
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `assert!` for property bodies: fails the case instead of panicking so
/// the harness can attach the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: `{} == {}`\n  left: `{:?}`\n right: `{:?}`",
            stringify!($a), stringify!($b), lhs, rhs,
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (lhs, rhs) = (&$a, &$b);
        $crate::prop_assert!(
            lhs == rhs,
            "assertion failed: `{} == {}`\n  left: `{:?}`\n right: `{:?}`\n{}",
            stringify!($a), stringify!($b), lhs, rhs, format!($($fmt)*),
        );
    }};
}

/// Rejects the current case (a fresh one is drawn) when `cond` fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn draws<S: Strategy>(name: &str, s: S, k: usize) -> Vec<S::Value> {
        let mut rng = TestRng::deterministic(name);
        (0..k).map(|_| s.generate(&mut rng)).collect()
    }

    /// The first values each strategy form the suites use draws from a
    /// fixed seed, as the vendored `proptest` subset this kit replaced
    /// drew them. With `tests/rng_known_answers.rs` this pins the cases
    /// every property suite sees.
    #[test]
    fn strategies_draw_their_known_answers() {
        assert_eq!(draws("usize", 0usize..7, 6), [3, 4, 4, 2, 4, 0]);
        assert_eq!(draws("usize_incl", 1usize..=4, 6), [4, 4, 2, 2, 4, 3]);
        assert_eq!(draws("u64", 0u64..1 << 16, 4), [45653, 58978, 23268, 7501]);
        assert_eq!(draws("u8", 0u8..3, 6), [1, 0, 0, 1, 2, 2]);
        assert_eq!(draws("i32", -5i32..5, 6), [2, -2, 1, 0, 2, 4]);
        assert_eq!(
            draws("f64", -1.0f64..1.0, 3),
            [
                0.7874364495353183,
                0.016263860395686613,
                0.11518271049814777
            ]
        );
        assert_eq!(
            draws("tuple", (0usize..3, 0u8..2, -1.0f64..1.0), 3),
            [
                (2, 1, -0.3071651623566276),
                (1, 1, 0.22920218101067502),
                (1, 1, -0.6152552950592347)
            ]
        );
        assert_eq!(
            draws("vec", prop::collection::vec(0u8..2, 1..6), 3),
            [vec![1], vec![1, 1, 1, 0], vec![1, 0]]
        );
        assert_eq!(
            draws("vec_incl", prop::collection::vec(0usize..10, 2..=4), 3),
            [vec![0, 3, 5], vec![5, 8, 8, 4], vec![8, 9, 3, 8]]
        );
        assert_eq!(
            draws(
                "oneof",
                prop_oneof![Just(1usize), (10usize..20).prop_map(|x| x * 2)],
                8
            ),
            [1, 1, 1, 34, 1, 1, 1, 1]
        );
        // (chars, sum of code points) of each string
        let strings: Vec<(usize, u64)> = draws("string", ".{0,200}", 3)
            .iter()
            .map(|s| (s.chars().count(), s.chars().map(|c| c as u64).sum()))
            .collect();
        assert_eq!(strings, [(121, 337402), (116, 349573), (101, 254862)]);
        assert_eq!(draws("any_u8", any::<u8>(), 6), [26, 31, 245, 51, 246, 2]);
        assert_eq!(
            draws("any_u64", any::<u64>(), 3),
            [
                16539651259991224862,
                10702640148480706052,
                11984768075888848761
            ]
        );
    }

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        for _ in 0..500 {
            assert!((0usize..7).generate(&mut rng) < 7);
            assert!((-1.0..1.0).contains(&(-1.0f64..1.0).generate(&mut rng)));
            assert!(".{0,5}".generate(&mut rng).chars().count() <= 5);
            let xs = prop::collection::vec(0u8..2, 1..4).generate(&mut rng);
            assert!(!xs.is_empty() && xs.len() < 4 && xs.iter().all(|&x| x < 2));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_end_to_end(x in 0usize..100, y in any::<u64>()) {
            prop_assume!(x != 99);
            prop_assert!(x < 100);
            prop_assert_eq!(x + (y % 2) as usize >= x, true);
        }
    }
}
