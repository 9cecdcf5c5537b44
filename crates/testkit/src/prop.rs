//! The in-tree property runner: the `proptest!` surface the workspace's
//! suites use, drawing every case from [`SimRng`].
//!
//! A property named `f` draws its cases from one stream seeded by
//! folding the bytes of `"f"` into `0xC0FF_EE00` (`seed * 31 + byte`),
//! so a suite runs the same cases in every build and on every host.
//! There is no shrinking: a failing case panics with its case index,
//! the generated inputs, the suite's witnessed requirement IDs and the
//! `PROPTEST_CASES` budget in force, which is everything needed to
//! rerun it.
//!
//! ```
//! use st_testkit::prop::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(16))]
//!     fn addition_commutes(a in 0u32..1000, b in any::<u16>()) {
//!         prop_assert_eq!(a + u32::from(b), u32::from(b) + a);
//!     }
//! }
//! # addition_commutes();
//! ```

use crate::differential::resolve_cases;
use st_sim::SimRng;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Range;

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value from `rng`.
    fn sample(&self, rng: &mut SimRng) -> Self::Value;

    /// A strategy generating `f` of this one's values.
    fn prop_map<O, F>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        strategy::Map { source: self, f }
    }
}

pub mod strategy {
    //! Strategy combinators.
    use super::{SimRng, Strategy};

    /// [`Strategy::prop_map`] output.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(super) source: S,
        pub(super) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut SimRng) -> O {
            (self.f)(self.source.sample(rng))
        }
    }
}

macro_rules! int_strategies {
    ($($t:ty),*) => {$(
        /// Uniform over the half-open range.
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }

        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SimRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
int_strategies!(u8, u16, u32, u64, usize);

/// Types with a whole-type strategy ([`any`]).
pub trait Arbitrary {
    /// Draws one value from `rng`.
    fn arbitrary(rng: &mut SimRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SimRng) -> bool {
        rng.bool()
    }
}

/// The strategy behind [`any`].
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

/// Uniform over the whole of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut SimRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident $idx:tt),+))*) => {$(
        /// Each element drawn in order.
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut SimRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

pub mod collection {
    //! Collection strategies.
    use super::{SimRng, Strategy};
    use std::ops::Range;

    /// Accepted lengths for [`vec()`]: a fixed length or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange(r)
        }
    }

    /// The strategy behind [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` of values from `element`; its length is drawn from `size`
    /// first (one draw, also for a fixed length).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut SimRng) -> Vec<S::Value> {
            let len = self.size.0.clone().sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling from explicit option lists.
    use super::{SimRng, Strategy};

    /// The strategy behind [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T>(Vec<T>);

    /// Uniformly one of `options`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs options");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut SimRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }
}

/// Runner configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Cases to run.
    pub cases: u32,
    /// Requirement IDs the suite witnesses, named in a failure message.
    pub witnessed: &'static [&'static str],
}

impl ProptestConfig {
    /// A fixed case count, whatever `PROPTEST_CASES` says.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            witnessed: &[],
        }
    }
}

impl Default for ProptestConfig {
    /// `PROPTEST_CASES` when set and usable, else 256 cases.
    fn default() -> Self {
        ProptestConfig::with_cases(resolve_cases(256))
    }
}

/// A failed property case.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failure with message `msg`.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

/// Runs `config.cases` samples of `strategy` through `body`; panics on
/// the first failing case with everything needed to rerun it.
pub fn run<S>(
    name: &str,
    config: &ProptestConfig,
    strategy: &S,
    body: impl Fn(S::Value) -> Result<(), TestCaseError>,
) where
    S: Strategy,
    S::Value: Debug + Clone,
{
    let seed = name.bytes().fold(0xC0FF_EE00u64, |s, b| {
        s.wrapping_mul(31).wrapping_add(u64::from(b))
    });
    let mut rng = SimRng::seed_from_u64(seed);
    for case in 0..config.cases {
        let value = strategy.sample(&mut rng);
        if let Err(TestCaseError(msg)) = body(value.clone()) {
            panic!(
                "property '{name}' failed at case {case}: {msg}\n\
                 inputs: {value:#?}\n\
                 witnessed requirement IDs: [{}] (conformance/requirements.toml)\n\
                 case budget in force: PROPTEST_CASES={} (cases are deterministic per \
                 property name; rerun with the same budget to reproduce)",
                config.witnessed.join(", "),
                config.cases,
            );
        }
    }
}

pub mod prelude {
    //! Glob import for property suites.
    pub use super::{any, ProptestConfig, Strategy};
    pub use crate::prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares property tests: `fn name(pat in strategy, ..) { body }`,
/// optionally preceded by `#![proptest_config(expr)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::prop::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::prop::ProptestConfig = $cfg;
                $crate::prop::run(
                    stringify!($name),
                    &config,
                    &($($strat,)+),
                    |($($arg,)+)| {
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::prop::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {:?} == {:?}: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 7, witnessed: &["ST-DET-001", "ST-EQ-002"] })]
        fn always_fails(x in 0u64..100) {
            prop_assert!(x >= 100, "x = {}", x);
        }
    }

    #[test]
    fn a_failing_case_names_the_witnessed_ids_and_the_budget() {
        let payload = std::panic::catch_unwind(always_fails).unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            msg.contains("property 'always_fails' failed at case 0"),
            "{msg}"
        );
        assert!(msg.contains("x = "), "{msg}");
        assert!(msg.contains("[ST-DET-001, ST-EQ-002]"), "{msg}");
        assert!(msg.contains("PROPTEST_CASES=7"), "{msg}");
    }
}
