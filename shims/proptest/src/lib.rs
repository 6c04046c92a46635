//! Offline stand-in for [proptest 1](https://docs.rs/proptest) (see
//! `shims/README.md`). Supports what the workspace's property tests use:
//! the `proptest!` macro with `#![proptest_config(...)]`, `prop_assert!` /
//! `prop_assert_eq!`, and primitive `Range` strategies (`0u64..1000`,
//! `1e-10f64..1e-2`, ...).
//!
//! Cases are drawn deterministically from one SplitMix64 stream with a
//! fixed seed, so failures reproduce exactly. There is no shrinking — a
//! failure names its case index and prints every drawn value instead. The
//! draws are not real proptest's: a case seen here does not reproduce there.

pub mod test_runner {
    /// Deterministic per-run value source handed to strategies.
    pub struct TestRunner {
        cases: u32,
        state: u64,
    }

    impl TestRunner {
        pub fn new(config: crate::prelude::ProptestConfig) -> Self {
            TestRunner {
                cases: config.cases,
                state: 0x9E37_79B9_7F4A_7C15,
            }
        }

        pub fn cases(&self) -> u32 {
            self.cases
        }

        /// Next draw of the run's one stream (called once per generated
        /// argument, so arguments draw distinct values while staying
        /// reproducible).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Failure raised by `prop_assert!`-style macros.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRunner;
    use std::ops::Range;

    /// Value generator. Real proptest strategies are lazy trees with
    /// shrinking; the shim only needs "draw a uniform value in a range".
    pub trait Strategy {
        type Value;
        fn pick(&self, runner: &mut TestRunner) -> Self::Value;
    }

    macro_rules! impl_int_range {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn pick(&self, runner: &mut TestRunner) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end - self.start) as u128;
                    self.start + (runner.next_u64() as u128 % span) as $t
                }
            }
        )*};
    }

    impl_int_range!(u8, u16, u32, u64, usize, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn pick(&self, runner: &mut TestRunner) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            let unit = (runner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            self.start + unit * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn pick(&self, runner: &mut TestRunner) -> f32 {
            assert!(self.start < self.end, "empty strategy range");
            let unit = (runner.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32);
            self.start + unit * (self.end - self.start)
        }
    }
}

pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, proptest};

    /// Run configuration (`cases` only — the rest of real proptest's knobs
    /// are unused by the workspace).
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::prelude::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal: expand each `#[test] fn name(args in strategies) { body }`
/// item into a plain test running `cases` deterministic draws.
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let mut runner = $crate::test_runner::TestRunner::new(config);
            for __case in 0..runner.cases() {
                $(let $arg = $crate::strategy::Strategy::pick(&($strat), &mut runner);)+
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body Ok(()) })();
                if let ::std::result::Result::Err(e) = __outcome {
                    panic!(
                        "proptest case {} of {} failed: {}\n  inputs: {}",
                        __case,
                        runner.cases(),
                        e,
                        [$(format!(concat!(stringify!($arg), " = {:?}"), $arg)),+].join(", "),
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Draws respect range bounds and the harness runs cases.
        #[test]
        fn ranges_respected(n in 1usize..10, x in -2.0f64..3.0, s in 5u64..6) {
            prop_assert!((1..10).contains(&n));
            prop_assert!((-2.0..3.0).contains(&x));
            prop_assert_eq!(s, 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Not a test itself: fails on the first draw of `n` at or above 50.
        fn fails_on_large_draws(n in 0usize..100, x in 0.0f64..1.0) {
            prop_assert!(n < 50 || x < 0.0, "n = {} is too large", n);
        }
    }

    #[test]
    fn failure_names_case_index_and_drawn_values() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRunner;
        // Replay the runner to find which case must fail, and with what.
        let mut runner = TestRunner::new(ProptestConfig::with_cases(64));
        let (case, n, x) = (0..64)
            .map(|case| {
                let n = (0usize..100).pick(&mut runner);
                (case, n, (0.0f64..1.0).pick(&mut runner))
            })
            .find(|&(_, n, _)| n >= 50)
            .expect("some draw of 64 is at least 50");
        let payload = std::panic::catch_unwind(fails_on_large_draws).unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains(&format!("case {case} of 64 failed")), "{msg}");
        assert!(msg.contains(&format!("n = {n:?}, x = {x:?}")), "{msg}");
    }

    #[test]
    fn draws_are_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRunner;
        let mut a = TestRunner::new(ProptestConfig::with_cases(4));
        let mut b = TestRunner::new(ProptestConfig::with_cases(4));
        for _ in 0..32 {
            assert_eq!((0u64..100).pick(&mut a), (0u64..100).pick(&mut b));
        }
    }
}
