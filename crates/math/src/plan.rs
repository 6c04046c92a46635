//! Planned 1-D FFTs with a process-wide plan cache.
//!
//! The seed implementation rebuilt the twiddle table `e^{±2πik/n}` on every
//! 1-D call — `O(n²)` table traffic per 3-D grid since `fft3` issues one
//! line transform per row. An [`FftPlan`] hoists everything that depends
//! only on the length out of the transform:
//!
//! * the forward/inverse twiddle tables,
//! * the bit-reversal permutation (power-of-two lengths),
//! * for Bluestein lengths: the chirp sequence **and its forward FFT**
//!   (the seed re-FFT'd the chirp on every non-power-of-two call — two of
//!   the three `m`-point transforms per call were pure overhead).
//!
//! Plans are cached process-wide in [`plan`] keyed by length, so the first
//! transform of a given size pays the setup and every later one (any
//! thread) reuses it — the serial analogue of FFTW-style planning the
//! BG/Q paper leans on for its node kernel. The cache is **bounded**: a
//! multi-tenant serve process sees many distinct grid sizes over its
//! lifetime, so beyond [`DEFAULT_PLAN_CACHE_CAPACITY`] entries the
//! least-recently used plan is evicted (in-flight `Arc`s keep evicted
//! plans alive until their last user drops them — eviction only forgets,
//! it never invalidates). [`plan_cache_stats`] exposes hit/miss/eviction counters
//! for regression tests, the engine's `BuildProfile`, and perf triage.
//!
//! Steady-state transforms are allocation-free: the Bluestein convolution
//! scratch lives in a grow-only thread local.

use crate::complex::Complex64;
use crate::simd::{self, SimdLevel};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A planned 1-D transform of fixed length.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    /// `e^{-2πik/n}` for `k < n/2` (forward sign).
    tw_fwd: Vec<Complex64>,
    /// `e^{+2πik/n}` for `k < n/2`.
    tw_inv: Vec<Complex64>,
    /// Bit-reversal permutation; empty unless `n` is a power of two.
    bitrev: Vec<u32>,
    /// Chirp-z machinery for non-power-of-two lengths.
    bluestein: Option<Bluestein>,
}

#[derive(Debug)]
struct Bluestein {
    /// Convolution length: next power of two ≥ 2n−1.
    m: usize,
    /// Forward chirp `e^{-iπ j²/n}` (inverse uses the conjugate).
    chirp: Vec<Complex64>,
    /// FFT_m of the wrapped conjugate chirp (forward transforms).
    spec_fwd: Vec<Complex64>,
    /// FFT_m of the wrapped chirp (inverse transforms).
    spec_inv: Vec<Complex64>,
    /// The power-of-two sub-plan driving the cyclic convolution.
    sub: Arc<FftPlan>,
}

thread_local! {
    /// Grow-only Bluestein convolution scratch (per thread, reused across
    /// calls — zero allocations once warmed up).
    static CONV_SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

impl FftPlan {
    fn build(n: usize) -> FftPlan {
        assert!(n >= 1, "FFT length must be positive");
        let tw_fwd = twiddle_table(n, false);
        let tw_inv = twiddle_table(n, true);
        if n.is_power_of_two() {
            let shift = usize::BITS - n.trailing_zeros();
            let bitrev = if n > 1 {
                (0..n).map(|i| (i.reverse_bits() >> shift) as u32).collect()
            } else {
                Vec::new()
            };
            return FftPlan {
                n,
                tw_fwd,
                tw_inv,
                bitrev,
                bluestein: None,
            };
        }
        // Bluestein setup. Quadratic phase reduced mod 2n to preserve
        // precision at large indices.
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let jsq = (j as u128 * j as u128 % (2 * n as u128)) as f64;
                Complex64::cis(-std::f64::consts::PI * jsq / n as f64)
            })
            .collect();
        let m = (2 * n - 1).next_power_of_two();
        let sub = plan(m);
        let mut b_fwd = vec![Complex64::ZERO; m];
        let mut b_inv = vec![Complex64::ZERO; m];
        for j in 0..n {
            b_fwd[j] = chirp[j].conj();
            b_inv[j] = chirp[j];
            if j > 0 {
                b_fwd[m - j] = chirp[j].conj();
                b_inv[m - j] = chirp[j];
            }
        }
        // Chirp spectra are part of the cached plan: build them at the Off
        // level so the plan is identical no matter which level built it
        // (levels are bit-identical anyway; this makes it true by fiat).
        sub.pow2_transform(SimdLevel::Off, &mut b_fwd, false);
        sub.pow2_transform(SimdLevel::Off, &mut b_inv, false);
        FftPlan {
            n,
            tw_fwd,
            tw_inv,
            bitrev: Vec::new(),
            bluestein: Some(Bluestein {
                m,
                chirp,
                spec_fwd: b_fwd,
                spec_inv: b_inv,
                sub,
            }),
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate length-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// In-place forward DFT `X_k = Σ_j x_j e^{-2πijk/n}` (unnormalized).
    pub fn fft(&self, data: &mut [Complex64]) {
        self.fft_with(simd::level(), data);
    }

    /// [`FftPlan::fft`] at an explicit SIMD level.
    pub fn fft_with(&self, level: SimdLevel, data: &mut [Complex64]) {
        self.transform(level, data, false);
    }

    /// In-place inverse DFT with `1/n` normalization.
    pub fn ifft(&self, data: &mut [Complex64]) {
        self.ifft_with(simd::level(), data);
    }

    /// [`FftPlan::ifft`] at an explicit SIMD level.
    pub fn ifft_with(&self, level: SimdLevel, data: &mut [Complex64]) {
        self.transform(level, data, true);
        simd::scale_complex_with(level, data, 1.0 / self.n as f64);
    }

    /// [`FftPlan::fft_with`] or [`FftPlan::ifft_with`] by flag — one line
    /// of a 3-D axis loop, which runs both directions.
    #[inline]
    pub(crate) fn line(&self, level: SimdLevel, inverse: bool, data: &mut [Complex64]) {
        if inverse {
            self.ifft_with(level, data);
        } else {
            self.fft_with(level, data);
        }
    }

    fn transform(&self, level: SimdLevel, data: &mut [Complex64], inverse: bool) {
        assert_eq!(data.len(), self.n, "data length does not match plan");
        if self.n <= 1 {
            return;
        }
        if self.bluestein.is_none() {
            self.pow2_transform(level, data, inverse);
        } else {
            self.bluestein_transform(level, data, inverse);
        }
    }

    /// Iterative radix-2 Cooley–Tukey using the cached permutation and
    /// twiddles (`n` power of two). The butterfly passes dispatch through
    /// [`simd::butterfly_pass_with`]; every level is bit-identical.
    fn pow2_transform(&self, level: SimdLevel, data: &mut [Complex64], inverse: bool) {
        let n = self.n;
        debug_assert!(n.is_power_of_two() && data.len() == n);
        for (i, &jr) in self.bitrev.iter().enumerate() {
            let j = jr as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        let tw = if inverse { &self.tw_inv } else { &self.tw_fwd };
        let mut len = 2;
        while len <= n {
            simd::butterfly_pass_with(level, data, tw, len, n / len);
            len *= 2;
        }
    }

    /// Bluestein chirp-z via one cached-spectrum cyclic convolution: only
    /// two `m`-point transforms per call (the seed needed three, plus two
    /// fresh `m`-point buffers; here the single scratch is thread-local).
    fn bluestein_transform(&self, level: SimdLevel, data: &mut [Complex64], inverse: bool) {
        let bs = self.bluestein.as_ref().expect("bluestein plan");
        CONV_SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            if buf.len() < bs.m {
                buf.resize(bs.m, Complex64::ZERO);
            }
            let a = &mut buf[..bs.m];
            for j in 0..self.n {
                let c = if inverse {
                    bs.chirp[j].conj()
                } else {
                    bs.chirp[j]
                };
                a[j] = data[j] * c;
            }
            a[self.n..].fill(Complex64::ZERO);
            bs.sub.pow2_transform(level, a, false);
            let spec = if inverse { &bs.spec_inv } else { &bs.spec_fwd };
            for (x, s) in a.iter_mut().zip(spec) {
                *x *= *s;
            }
            bs.sub.pow2_transform(level, a, true);
            let inv_m = 1.0 / bs.m as f64;
            for k in 0..self.n {
                let c = if inverse {
                    bs.chirp[k].conj()
                } else {
                    bs.chirp[k]
                };
                data[k] = a[k].scale(inv_m) * c;
            }
        });
    }
}

fn twiddle_table(n: usize, inverse: bool) -> Vec<Complex64> {
    let sign = if inverse { 1.0 } else { -1.0 };
    let step = sign * 2.0 * std::f64::consts::PI / n as f64;
    (0..n / 2)
        .map(|k| Complex64::cis(step * k as f64))
        .collect()
}

/// Default bound on distinct cached lengths. A 3-D transform touches at
/// most three lengths plus their Bluestein sub-lengths, so this comfortably
/// covers dozens of concurrently active grid shapes.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

#[derive(Debug)]
struct PlanEntry {
    plan: Arc<FftPlan>,
    /// Logical clock of the most recent lookup; smallest value = LRU.
    last_use: u64,
}

#[derive(Debug)]
struct PlanCache {
    entries: HashMap<usize, PlanEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache {
            entries: HashMap::new(),
            capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl PlanCache {
    /// Evict least-recently-used entries until at most `capacity` remain,
    /// never evicting `keep` (the entry the caller is about to hand out).
    fn enforce_bound(&mut self, keep: usize) {
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    self.entries.remove(&k);
                    self.evictions += 1;
                }
                None => break, // capacity 0 with only `keep` present
            }
        }
    }
}

static PLAN_CACHE: OnceLock<Mutex<PlanCache>> = OnceLock::new();

fn cache() -> &'static Mutex<PlanCache> {
    PLAN_CACHE.get_or_init(Default::default)
}

/// Fetch (or build and cache) the plan for length `n`. Hot callers that
/// transform many same-length lines should fetch once and reuse the `Arc`
/// rather than paying the cache lock per line.
pub fn plan(n: usize) -> Arc<FftPlan> {
    {
        let mut c = cache().lock().unwrap();
        c.tick += 1;
        let tick = c.tick;
        if let Some(e) = c.entries.get_mut(&n) {
            e.last_use = tick;
            let out = Arc::clone(&e.plan);
            c.hits += 1;
            return out;
        }
        c.misses += 1;
    }
    // Build outside the lock: Bluestein setup recurses into `plan(m)`.
    let built = Arc::new(FftPlan::build(n));
    let mut c = cache().lock().unwrap();
    c.tick += 1;
    let tick = c.tick;
    let out = Arc::clone(
        &c.entries
            .entry(n)
            .or_insert(PlanEntry {
                plan: built,
                last_use: tick,
            })
            .plan,
    );
    c.enforce_bound(n);
    out
}

/// Plan-cache observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Plans dropped by the LRU bound (cumulative).
    pub evictions: u64,
    /// Distinct lengths currently cached.
    pub plans: usize,
    /// Current cache bound.
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Counter deltas `self − earlier` (for per-build / per-job windows).
    pub fn since(&self, earlier: &PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            plans: self.plans,
            capacity: self.capacity,
        }
    }
}

/// Snapshot of the process-wide plan-cache counters.
pub fn plan_cache_stats() -> PlanCacheStats {
    let c = cache().lock().unwrap();
    PlanCacheStats {
        hits: c.hits,
        misses: c.misses,
        evictions: c.evictions,
        plans: c.entries.len(),
        capacity: c.capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_reference;
    use crate::rng::SplitMix64;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect()
    }

    #[test]
    fn planned_transform_matches_reference() {
        for &n in &[2usize, 7, 16, 48, 77, 96, 128] {
            let p = plan(n);
            let x = random_signal(n, n as u64);
            let want = dft_reference(&x, false);
            let mut got = x.clone();
            p.fft(&mut got);
            let err = got
                .iter()
                .zip(&want)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-8 * n as f64, "n={n}: err {err}");
            p.ifft(&mut got);
            let rt = got
                .iter()
                .zip(&x)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(rt < 1e-10, "n={n} roundtrip err {rt}");
        }
    }

    #[test]
    fn repeated_odd_length_transforms_reuse_the_plan() {
        // Regression: the seed rebuilt the Bluestein chirp and re-FFT'd it
        // on every odd-length call. With the cache, every lookup of the
        // same length must return the *same* plan object.
        let first = plan(77);
        for _ in 0..10 {
            let again = plan(77);
            assert!(
                Arc::ptr_eq(&first, &again),
                "plan(77) rebuilt instead of reused"
            );
            let mut x = random_signal(77, 3);
            again.fft(&mut x);
        }
        // And the cache counters move in the right direction: at least ten
        // hits for this length, monotone totals.
        let stats = plan_cache_stats();
        assert!(stats.hits >= 10, "{stats:?}");
        assert!(stats.plans >= 1);
    }

    #[test]
    fn eviction_is_lru_and_counted() {
        // Drive the LRU policy on a local cache instance: the global one is
        // shared with concurrently running tests that assert plan identity,
        // so shrinking its capacity here would race them.
        let mut c = PlanCache {
            capacity: 3,
            ..Default::default()
        };
        for &n in &[8usize, 16, 32] {
            c.tick += 1;
            let tick = c.tick;
            c.entries.insert(
                n,
                PlanEntry {
                    plan: Arc::new(FftPlan::build(n)),
                    last_use: tick,
                },
            );
        }
        // Touch 8 so 16 becomes the LRU, then overflow with 64.
        c.tick += 1;
        let tick = c.tick;
        c.entries.get_mut(&8).unwrap().last_use = tick;
        c.tick += 1;
        let tick = c.tick;
        c.entries.insert(
            64,
            PlanEntry {
                plan: Arc::new(FftPlan::build(64)),
                last_use: tick,
            },
        );
        c.enforce_bound(64);
        assert_eq!(c.entries.len(), 3);
        assert!(!c.entries.contains_key(&16), "LRU entry should be evicted");
        assert!(c.entries.contains_key(&8));
        assert!(c.entries.contains_key(&64));
        assert_eq!(c.evictions, 1);
        // The just-inserted key is never its own victim, even at capacity 0.
        c.capacity = 0;
        c.capacity = c.capacity.max(1);
        c.enforce_bound(64);
        assert!(c.entries.contains_key(&64));
    }

    #[test]
    fn stats_since_windows_the_counters() {
        let a = plan_cache_stats();
        plan(2053);
        plan(2053);
        let b = plan_cache_stats();
        let d = b.since(&a);
        assert!(d.misses >= 1, "{d:?}");
        assert!(d.hits >= 1, "{d:?}");
    }

    #[test]
    fn bluestein_spectrum_is_precomputed_once() {
        // The chirp spectrum lives in the plan: two transforms of the same
        // odd length must not rebuild it (checked via pointer identity of
        // the cached plan and by exactness of repeated results).
        let p = plan(45);
        let x = random_signal(45, 9);
        let mut a = x.clone();
        let mut b = x.clone();
        p.fft(&mut a);
        p.fft(&mut b);
        for (u, v) in a.iter().zip(&b) {
            assert_eq!(u.re, v.re);
            assert_eq!(u.im, v.im);
        }
    }
}
