//! Quantiles and the floor estimator, on synthetic samples.

use liair_benchmark::stats::{floor_of_trials, median, p25, quantile, trial_spread};

#[test]
fn quantile_interpolates_between_order_statistics() {
    let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
    assert_eq!(quantile(&xs, 0.0), 1.0);
    assert_eq!(quantile(&xs, 0.25), 2.0);
    assert_eq!(median(&xs), 3.0);
    assert!((quantile(&xs, 0.9) - 4.6).abs() < 1e-12);
    assert_eq!(quantile(&xs, 1.0), 5.0);
    assert_eq!(quantile(&[7.0], 0.25), 7.0);
    assert!(quantile(&[], 0.5).is_nan());
}

/// A trial of `n` units of `base` seconds with a small deterministic ripple;
/// the units in `burst` are slowed by `by`.
fn trial(n: usize, base: f64, burst: std::ops::Range<usize>, by: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let ripple = 1.0 + 0.002 * ((i * 7 % 5) as f64 - 2.0) / 2.0;
            let slow = if burst.contains(&i) { 1.0 + by } else { 1.0 };
            base * ripple * slow
        })
        .collect()
}

#[test]
fn floor_ignores_interference_bursts_and_a_slow_process() {
    // Trial 0: a +15% episode covers 60% of the units. Trial 1: the whole
    // process sits 5% high. Trial 2: a short +12% burst.
    let trials = [
        trial(10, 0.5, 2..8, 0.15),
        trial(10, 0.5 * 1.05, 0..0, 0.0),
        trial(10, 0.5, 0..2, 0.12),
    ];
    let floor = floor_of_trials(&trials);
    assert!((floor / 0.5 - 1.0).abs() < 0.005, "floor {floor}");

    // The median of per-trial medians is what the episodes move.
    let medians: Vec<f64> = trials.iter().map(|t| median(t)).collect();
    assert!(median(&medians) / 0.5 - 1.0 > 0.04);

    // A burst that covers a whole trial still cannot reach the floor.
    let mut worse = trials.to_vec();
    worse[0] = trial(10, 0.5, 0..10, 0.15);
    assert!((floor_of_trials(&worse) / floor - 1.0).abs() < 0.005);
}

#[test]
fn trial_spread_is_largest_over_smallest_lower_quartile() {
    let trials = [vec![1.0; 8], vec![1.1; 8], vec![1.05; 8]];
    assert!((trial_spread(&trials) - 0.1).abs() < 1e-12);
    assert_eq!(p25(&trials[1]), 1.1);
}
