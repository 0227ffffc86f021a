//! Offline shim for the `proptest` crate.
//!
//! The build environment has no network access, so the workspace vendors a
//! minimal API-compatible subset of `proptest` 1.x: the [`proptest!`] macro,
//! the [`strategy::Strategy`] trait with the combinators this workspace uses
//! (`prop_map`, `prop_recursive`, `boxed`, tuples, ranges, [`prop_oneof!`],
//! `collection::vec`, `collection::btree_map`), `any::<bool>()` and the
//! `prop_assert*` macros.
//!
//! Differences from upstream, by design of the shim:
//!
//! * **No shrinking.** A failing case panics with the generated inputs in the
//!   panic message (via the assertion text) but is not minimized.
//! * **Deterministic generation.** Case `i` of test `t` is seeded from
//!   `(hash(t), i)`, so failures reproduce without persistence files;
//!   `*.proptest-regressions` files are ignored.

pub mod strategy {
    //! Value-generation strategies.

    use rand::Rng;
    use std::sync::Arc;

    /// A deterministic pseudo-random source for strategies.
    pub type TestRng = rand::rngs::SmallRng;

    /// Generates values of type `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + Send + Sync + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }

        /// Recursive strategy: values are built from `self` (leaves) by
        /// applying `recurse` up to `depth` times. `desired_size` and
        /// `expected_branch_size` are accepted for API compatibility but
        /// only `depth` shapes generation in this shim.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> Recursive<Self::Value>
        where
            Self: Sized + Send + Sync + 'static,
            R: Strategy<Value = Self::Value> + Send + Sync + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R + Send + Sync + 'static,
        {
            Recursive {
                leaf: self.boxed(),
                branch: Arc::new(move |inner| recurse(inner).boxed()),
                depth,
            }
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<V>(Arc<dyn Strategy<Value = V> + Send + Sync>);

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy(self.0.clone())
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate(rng)
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

    /// See [`Strategy::prop_recursive`].
    pub struct Recursive<V> {
        leaf: BoxedStrategy<V>,
        branch: Arc<dyn Fn(BoxedStrategy<V>) -> BoxedStrategy<V> + Send + Sync>,
        depth: u32,
    }

    impl<V: 'static> Strategy for Recursive<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let levels = rng.gen_range(0..=self.depth);
            let mut s = self.leaf.clone();
            for _ in 0..levels {
                s = (self.branch)(s);
            }
            s.generate(rng)
        }
    }

    /// Always generates a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among type-erased alternatives (see [`prop_oneof!`]).
    ///
    /// [`prop_oneof!`]: crate::prop_oneof
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Chooses uniformly among `options`.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!options.is_empty(), "prop_oneof! of zero strategies");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.gen_range(0..self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident/$i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A/0)
        (A/0, B/1)
        (A/0, B/1, C/2)
        (A/0, B/1, C/2, D/3)
        (A/0, B/1, C/2, D/3, E/4)
        (A/0, B/1, C/2, D/3, E/4, F/5)
    }
}

pub mod arbitrary {
    //! The `any::<T>()` entry point.

    use crate::strategy::{Strategy, TestRng};
    use rand::Rng;
    use std::marker::PhantomData;

    /// Strategy for "any value of `T`" (see [`any`]).
    pub struct Any<T>(PhantomData<T>);

    /// The canonical strategy for type `T`.
    pub fn any<T>() -> Any<T> {
        Any(PhantomData)
    }

    impl Strategy for Any<bool> {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen_bool(0.5)
        }
    }

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(<$t>::MIN..=<$t>::MAX)
                }
            }
        )*};
    }

    impl_any_int!(u8, u16, u32, i8, i16, i32, i64);
}

pub mod collection {
    //! Strategies for collections.

    use crate::strategy::{Strategy, TestRng};
    use rand::Rng;
    use std::collections::BTreeMap;

    /// A size specification: an exact size or a half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_incl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi_incl: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_incl: r.end - 1 }
        }
    }

    /// Vectors of `lo..=hi` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi_incl);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Maps of `lo..=hi` entries with keys from `key`, values from `value`.
    /// Key collisions are retried a bounded number of times, so maps may come
    /// out smaller than `lo` when the key space is nearly exhausted.
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V> {
        BTreeMapStrategy { key, value, size: size.into() }
    }

    /// See [`btree_map`].
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi_incl);
            let mut out = BTreeMap::new();
            let mut attempts = 0;
            while out.len() < n && attempts < 8 * n + 32 {
                out.insert(self.key.generate(rng), self.value.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod test_runner {
    //! Per-test configuration and deterministic case seeding.

    use rand::SeedableRng;

    /// Configuration block for a [`proptest!`] body.
    ///
    /// [`proptest!`]: crate::proptest
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// Drives the cases of one property (used by the [`proptest!`] macro).
    ///
    /// [`proptest!`]: crate::proptest
    pub struct TestRunner {
        config: ProptestConfig,
        base_seed: u64,
        case: u64,
    }

    impl TestRunner {
        /// Runner for the property named `name` under `config`.
        pub fn new(config: ProptestConfig, name: &str) -> TestRunner {
            // FNV-1a over the test name: stable across runs and platforms.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRunner { config, base_seed: h, case: 0 }
        }

        /// Number of cases to run.
        pub fn cases(&self) -> u32 {
            self.config.cases
        }

        /// Deterministic RNG for the next case.
        pub fn next_rng(&mut self) -> crate::strategy::TestRng {
            let seed = self.base_seed ^ self.case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.case += 1;
            crate::strategy::TestRng::seed_from_u64(seed)
        }
    }
}

/// Defines property tests: `fn name(arg in strategy, ...) { body }` blocks,
/// optionally preceded by `#![proptest_config(expr)]`.
#[macro_export]
macro_rules! proptest {
    (@run ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut runner =
                    $crate::test_runner::TestRunner::new(config, stringify!($name));
                for _case in 0..runner.cases() {
                    let mut prop_rng = runner.next_rng();
                    $(let $arg =
                        $crate::strategy::Strategy::generate(&($strat), &mut prop_rng);)*
                    $body
                }
            }
        )*
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// `assert!` under a name the `proptest` API exposes (no shrinking here).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a name the `proptest` API exposes.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a name the `proptest` API exposes.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice among strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}

/// Common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirror of upstream's `prop` module path (`prop::collection::...`).
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn tree_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
        prop::collection::vec(prop::collection::vec(0u8..10, 0..3), 0..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in -5i64..6, y in 0usize..4) {
            prop_assert!((-5..6).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn vec_sizes_respected(v in prop::collection::vec(0u32..100, 2..7)) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            prop_assert!(v.iter().all(|x| *x < 100));
        }

        #[test]
        fn oneof_covers_all(tag in prop_oneof![Just(0u8), Just(1u8), Just(2u8)]) {
            prop_assert!(tag <= 2);
        }

        #[test]
        fn maps_respect_bounds(
            m in prop::collection::btree_map(0u16..50, 0i32..5, 1..6),
            mut n in prop::collection::btree_map(0u16..50, 0i32..5, 3),
        ) {
            prop_assert!(!m.is_empty() && m.len() < 6);
            n.clear();
            prop_assert!(n.is_empty());
        }

        #[test]
        fn nested_collections(t in tree_strategy()) {
            prop_assert!(t.len() < 4);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::{ProptestConfig, TestRunner};
        let sample = || {
            let mut r = TestRunner::new(ProptestConfig::with_cases(4), "det");
            let strat = prop::collection::vec(0u64..1000, 1..9);
            (0..4).map(|_| strat.generate(&mut r.next_rng())).collect::<Vec<_>>()
        };
        assert_eq!(sample(), sample());
    }
}
