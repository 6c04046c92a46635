//! Quantiles and the floor estimator.
//!
//! Interference on a shared host only ever adds time, and it arrives in
//! episodes that outlast a trial, so the median of a trial moves with the
//! episode it landed in. The lower quartile of a trial is taken from the
//! quiet units, and the smallest lower quartile over several fresh
//! processes also shrugs off a whole slow process (page placement, a
//! differently timed autotune).

/// The `q`-quantile (`0 <= q <= 1`) of `xs` by linear interpolation between
/// order statistics; NaN on an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Lower quartile of one trial's per-unit times.
pub fn p25(xs: &[f64]) -> f64 {
    quantile(xs, 0.25)
}

/// Median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Smallest value of a sample; NaN when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Largest value of a sample; NaN when empty.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

/// The floor estimator: the smallest, over the trials, of each trial's
/// lower-quartile per-unit time.
pub fn floor_of_trials(trials: &[Vec<f64>]) -> f64 {
    min(&trials.iter().map(|t| p25(t)).collect::<Vec<_>>())
}

/// Largest over smallest per-trial lower quartile, minus one: how far apart
/// the fresh processes of one run landed.
pub fn trial_spread(trials: &[Vec<f64>]) -> f64 {
    let q: Vec<f64> = trials.iter().map(|t| p25(t)).collect();
    max(&q) / min(&q) - 1.0
}

/// Time `calls` invocations of `f` one by one and return the lower
/// quartile of the per-call seconds (the micro-benchmark rule).
pub fn time_calls(calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    p25(&samples)
}
