//! Planned 1-D FFTs over rows of pencils, with a process-wide plan cache.
//!
//! An [`FftPlan`] of length `n` transforms `n` **rows** of `row_len`
//! contiguous complex values — `row_len` independent pencils at once, one
//! broadcast twiddle per butterfly, every load and store a contiguous run.
//! That is the shape the strided axes of a 3-D grid already have (an
//! `x`-slab is `ny` rows of `nz` values), so the 3-D drivers stream
//! instead of gathering one pencil at a time; a single pencil is the
//! `row_len = 1` case.
//!
//! * Every length is `2ᵃ3ᵇ5ᶜ` and runs **mixed-radix (4, 2, 3, 5)
//!   Stockham autosort passes**: each pass reads one buffer and writes the
//!   other in the order the next pass wants, so there is no bit-reversal
//!   and no in-place scatter. Both directions share the kernels (a
//!   const-generic conjugate), and a caller's `1/n` rides on the last pass,
//!   which has no twiddles. [`plan`] rejects any other length — the grids
//!   the workspace builds are all `2ᵃ3ᵇ5ᶜ`, as in plane-wave codes, and
//!   [`crate::rfft::supported`] states the rule for a 3-D grid.
//! * Every plan also carries the untangle twiddles that make it the packed
//!   half of a real transform of length `2n` ([`crate::rfft`]), so real
//!   transforms have no plan type and no cache of their own.
//!
//! A pencil's result depends only on the pencil: the same operations run in
//! the same order whatever `row_len`, column or block it is transformed in
//! (tested bit for bit), which is what the cross-backend bit-identity of
//! the exchange engine rests on. No kernel here branches on a SIMD level.
//!
//! Plans are cached process-wide in [`plan`] keyed by length, so the first
//! transform of a given size pays the setup and every later one (any
//! thread) reuses it. The cache is **bounded**: a multi-tenant serve
//! process sees many distinct grid sizes over its lifetime, so beyond
//! [`DEFAULT_PLAN_CACHE_CAPACITY`] entries the least-recently used plan is
//! evicted (in-flight `Arc`s keep evicted plans alive until their last user
//! drops them — eviction only forgets, it never invalidates).
//! [`plan_cache_stats`] exposes hit/miss/eviction counters for regression
//! tests, the benchmark's `math.plan_cache_misses`, and perf triage — the
//! one source of them (builds keep no per-build copy).
//!
//! Steady-state transforms are allocation-free: all work space is one
//! grow-only thread-local buffer.
//!
//! [`dft_reference`] is the naive `O(n²)` DFT the tests hold every plan
//! against.

use crate::complex::Complex64;
use std::array;
use std::cell::RefCell;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex, OnceLock};

/// A planned 1-D transform of fixed length.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    /// Stockham passes in execution order (empty for `n = 1`).
    passes: Vec<Pass>,
    /// Forward twiddles of every pass, concatenated (`Pass::tw` indexes in).
    twiddles: Vec<Complex64>,
    /// `e^{-2πik/2n}` for `k ≤ n`: the r2c untangle twiddles of the real
    /// transform of length `2n` this plan is the packed half of.
    untangle: Vec<Complex64>,
}

/// One radix-`radix` Stockham pass over a sub-transform of length
/// `radix·m`.
#[derive(Debug, Clone, Copy)]
struct Pass {
    radix: usize,
    m: usize,
    /// Offset of this pass's `m·(radix−1)` twiddles `w^{p·j}` (`p < m`,
    /// `1 ≤ j < radix`, `w = e^{-2πi/(radix·m)}`).
    tw: usize,
}

thread_local! {
    /// Grow-only transform work space (per thread, reused across calls —
    /// zero allocations once warmed up).
    static SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on `len` elements of this thread's grow-only FFT work space.
/// Not re-entrant: `f` must not transform through another `with_scratch`.
pub(crate) fn with_scratch<T>(len: usize, f: impl FnOnce(&mut [Complex64]) -> T) -> T {
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, Complex64::ZERO);
        }
        f(&mut buf[..len])
    })
}

/// `true` when `n` is `2ᵃ3ᵇ5ᶜ` (`n ≥ 1`): the lengths [`plan`] accepts.
pub(crate) fn is_smooth(mut n: usize) -> bool {
    for p in [2, 3, 5] {
        while n > 0 && n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

/// A `2ᵃ3ᵇ5ᶜ` length as a product of radices 4, 2, 3, 5 (at most one 2).
fn radices(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for r in [4, 2, 3, 5] {
        while n.is_multiple_of(r) {
            out.push(r);
            n /= r;
        }
    }
    out
}

impl FftPlan {
    fn build(n: usize) -> FftPlan {
        let untangle = (0..=n)
            .map(|k| Complex64::cis(-PI * k as f64 / n as f64))
            .collect();
        let mut plan = FftPlan {
            n,
            passes: Vec::new(),
            twiddles: Vec::new(),
            untangle,
        };
        let mut len = n;
        for radix in radices(n) {
            let m = len / radix;
            plan.passes.push(Pass {
                radix,
                m,
                tw: plan.twiddles.len(),
            });
            let step = -2.0 * PI / len as f64;
            for p in 0..m {
                for j in 1..radix {
                    plan.twiddles.push(Complex64::cis(step * (p * j) as f64));
                }
            }
            len = m;
        }
        plan
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
        self.fft_rows(data, 1);
    }

    /// In-place inverse DFT with `1/n` normalization.
    pub fn ifft(&self, data: &mut [Complex64]) {
        self.ifft_rows(data, 1);
    }

    /// [`FftPlan::fft`] of `row_len` pencils at once: `data` is `n` rows of
    /// `row_len` values and column `c` of every row is one pencil. Each
    /// pencil's result is bit-identical to transforming it alone.
    pub fn fft_rows(&self, data: &mut [Complex64], row_len: usize) {
        with_scratch(self.work_len(row_len), |work| {
            self.rows(false, 1.0, data, row_len, work)
        });
    }

    /// [`FftPlan::ifft`] of `row_len` pencils at once (see
    /// [`FftPlan::fft_rows`]).
    pub fn ifft_rows(&self, data: &mut [Complex64], row_len: usize) {
        with_scratch(self.work_len(row_len), |work| {
            self.rows(true, 1.0 / self.n as f64, data, row_len, work)
        });
    }

    /// The r2c untangle twiddles `e^{-2πik/2n}`, `k ≤ n`.
    pub(crate) fn untangle(&self) -> &[Complex64] {
        &self.untangle
    }

    /// Work space [`FftPlan::rows`] needs for rows of `row_len`.
    pub(crate) fn work_len(&self, row_len: usize) -> usize {
        2 * self.n * row_len
    }

    /// Transform the `n` rows of `row_len` in `data` in place — forward, or
    /// the unnormalized inverse — and multiply the result by `scale`.
    /// `work` holds at least [`FftPlan::work_len`] elements.
    pub(crate) fn rows(
        &self,
        inverse: bool,
        scale: f64,
        data: &mut [Complex64],
        row_len: usize,
        work: &mut [Complex64],
    ) {
        assert_eq!(data.len(), self.n * row_len, "data does not match plan");
        let work = &mut work[..self.work_len(row_len)];
        if self.passes.is_empty() {
            if scale != 1.0 {
                data.iter_mut().for_each(|z| *z = z.scale(scale));
            }
        } else if inverse {
            self.stockham::<true>(scale, data, row_len, work);
        } else {
            self.stockham::<false>(scale, data, row_len, work);
        }
    }

    /// The pass chain `data → a → b → … → data`: the first pass reads
    /// `data`, the last writes it, the ones between ping-pong in `work`.
    fn stockham<const INV: bool>(
        &self,
        scale: f64,
        data: &mut [Complex64],
        row_len: usize,
        work: &mut [Complex64],
    ) {
        let (mut a, mut b) = work.split_at_mut(data.len());
        let last = self.passes.len() - 1;
        let mut l = row_len;
        for (k, pass) in self.passes.iter().enumerate() {
            let tw = &self.twiddles[pass.tw..];
            match (k == 0, k == last) {
                (true, true) => {
                    a.copy_from_slice(data);
                    pass.run::<INV>(a, data, l, tw, scale);
                }
                (true, false) => pass.run::<INV>(data, a, l, tw, 1.0),
                (false, true) => pass.run::<INV>(a, data, l, tw, scale),
                (false, false) => {
                    pass.run::<INV>(a, b, l, tw, 1.0);
                    std::mem::swap(&mut a, &mut b);
                }
            }
            l *= pass.radix;
        }
    }
}

impl Pass {
    fn run<const INV: bool>(
        &self,
        src: &[Complex64],
        dst: &mut [Complex64],
        l: usize,
        tw: &[Complex64],
        scale: f64,
    ) {
        match self.radix {
            2 => pass::<2, INV>(src, dst, self.m, l, tw, scale),
            3 => pass::<3, INV>(src, dst, self.m, l, tw, scale),
            4 => pass::<4, INV>(src, dst, self.m, l, tw, scale),
            5 => pass::<5, INV>(src, dst, self.m, l, tw, scale),
            r => unreachable!("radix {r} is never planned"),
        }
    }
}

/// One decimation-in-frequency Stockham pass: for each `p < m`, the `R`
/// input runs `src[(p + m·j)·l ..][..l]` are combined by a radix-`R`
/// butterfly and written, twiddled by `w^{p·j}`, to the adjacent output
/// runs `dst[(R·p + j)·l ..][..l]`. `l` is (product of earlier radices) ·
/// `row_len`, so every run is contiguous and shares one twiddle. `scale`
/// is applied on the twiddle-free `p = 0` runs — all of a last pass
/// (`m = 1`), the only one handed a `scale ≠ 1`.
fn pass<const R: usize, const INV: bool>(
    src: &[Complex64],
    dst: &mut [Complex64],
    m: usize,
    l: usize,
    tw: &[Complex64],
    scale: f64,
) {
    assert_eq!(src.len(), R * m * l);
    assert_eq!(dst.len(), R * m * l);
    for (p, out) in dst.chunks_exact_mut(R * l).enumerate() {
        let ins: [&[Complex64]; R] = array::from_fn(|j| &src[(p + m * j) * l..][..l]);
        let mut runs = out.chunks_exact_mut(l);
        let outs: [&mut [Complex64]; R] = array::from_fn(|_| runs.next().expect("R output runs"));
        if p > 0 {
            let w: [Complex64; R] = array::from_fn(|j| match j {
                0 => Complex64::ONE,
                _ if INV => tw[p * (R - 1) + j - 1].conj(),
                _ => tw[p * (R - 1) + j - 1],
            });
            butterflies::<R, INV>(ins, outs, |j, y| if j == 0 { y } else { y * w[j] });
        } else if scale != 1.0 {
            butterflies::<R, INV>(ins, outs, |_, y| y.scale(scale));
        } else {
            butterflies::<R, INV>(ins, outs, |_, y| y);
        }
    }
}

/// The inner loop of a pass: one butterfly per element of the runs, output
/// `j` post-processed by `post(j, ·)`.
#[inline(always)]
fn butterflies<const R: usize, const INV: bool>(
    ins: [&[Complex64]; R],
    outs: [&mut [Complex64]; R],
    post: impl Fn(usize, Complex64) -> Complex64,
) {
    for q in 0..ins[0].len() {
        let y = butterfly::<R, INV>(array::from_fn(|j| ins[j][q]));
        for j in 0..R {
            outs[j][q] = post(j, y[j]);
        }
    }
}

/// The `R`-point DFT `y_k = Σ_j a_j e^{∓2πijk/R}` (`−` forward, `+`
/// inverse), `R ∈ {2, 3, 4, 5}`.
#[inline(always)]
fn butterfly<const R: usize, const INV: bool>(a: [Complex64; R]) -> [Complex64; R] {
    // Multiply by −i (forward) or +i (inverse): the only place the
    // direction enters a butterfly.
    let rot = |z: Complex64| {
        if INV {
            Complex64::new(-z.im, z.re)
        } else {
            Complex64::new(z.im, -z.re)
        }
    };
    let mut y = [Complex64::ZERO; R];
    match R {
        2 => {
            y[0] = a[0] + a[1];
            y[1] = a[0] - a[1];
        }
        3 => {
            const S3: f64 = 0.866_025_403_784_438_6; // sin(2π/3)
            let t = a[1] + a[2];
            let u = a[0] - t.scale(0.5);
            let v = rot((a[1] - a[2]).scale(S3));
            y[0] = a[0] + t;
            y[1] = u + v;
            y[2] = u - v;
        }
        4 => {
            let (t0, t1) = (a[0] + a[2], a[0] - a[2]);
            let (t2, t3) = (a[1] + a[3], rot(a[1] - a[3]));
            y[0] = t0 + t2;
            y[1] = t1 + t3;
            y[2] = t0 - t2;
            y[3] = t1 - t3;
        }
        5 => {
            const C1: f64 = 0.309_016_994_374_947_45; // cos(2π/5)
            const C2: f64 = -0.809_016_994_374_947_5; // cos(4π/5)
            const S1: f64 = 0.951_056_516_295_153_5; // sin(2π/5)
            const S2: f64 = 0.587_785_252_292_473_1; // sin(4π/5)
            let (t1, t2) = (a[1] + a[4], a[2] + a[3]);
            let (t3, t4) = (a[1] - a[4], a[2] - a[3]);
            let m1 = a[0] + t1.scale(C1) + t2.scale(C2);
            let m2 = a[0] + t1.scale(C2) + t2.scale(C1);
            let n1 = rot(t3.scale(S1) + t4.scale(S2));
            let n2 = rot(t3.scale(S2) - t4.scale(S1));
            y[0] = a[0] + t1 + t2;
            y[1] = m1 + n1;
            y[2] = m2 + n2;
            y[3] = m2 - n2;
            y[4] = m1 - n1;
        }
        _ => unreachable!("radix {R} is never planned"),
    }
    y
}

/// Default bound on distinct cached lengths. A 3-D real transform touches
/// at most three (`nx`, `ny` and the packed `nz/2`), so this comfortably
/// covers a dozen concurrently active grid shapes.
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
///
/// Panics unless `n` is `2ᵃ3ᵇ5ᶜ`.
pub fn plan(n: usize) -> Arc<FftPlan> {
    assert!(is_smooth(n), "FFT length {n} is not 2ᵃ3ᵇ5ᶜ");
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
    let plan = Arc::new(FftPlan::build(n));
    let entry = PlanEntry {
        plan: Arc::clone(&plan),
        last_use: tick,
    };
    c.entries.insert(n, entry);
    c.enforce_bound(n);
    plan
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
    /// Counter deltas `self − earlier`: the lookups made between two reads.
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

/// Out-of-place naive DFT, `O(n²)`: the oracle the transforms are tested
/// against. Unnormalized in both directions.
pub fn dft_reference(input: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = input.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n)
        .map(|k| {
            let mut acc = Complex64::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let ang = sign * 2.0 * PI * (j * k % n) as f64 / n as f64;
                acc += x * Complex64::cis(ang);
            }
            acc
        })
        .collect()
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
    use crate::rng::SplitMix64;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn planned_transform_matches_reference() {
        for &n in &[2usize, 15, 16, 48, 75, 96, 128] {
            let p = plan(n);
            let x = random_signal(n, n as u64);
            let mut got = x.clone();
            p.fft(&mut got);
            let err = max_err(&got, &dft_reference(&x, false));
            assert!(err < 1e-12 * n as f64, "n={n}: err {err}");
            p.ifft(&mut got);
            let rt = max_err(&got, &x);
            assert!(rt < 1e-13, "n={n} roundtrip err {rt}");
        }
    }

    #[test]
    fn repeated_odd_length_transforms_reuse_the_plan() {
        // Every lookup of the same length must return the *same* plan
        // object: the twiddles are built once, not per call.
        let first = plan(75);
        for _ in 0..10 {
            let again = plan(75);
            assert!(
                Arc::ptr_eq(&first, &again),
                "plan(75) rebuilt instead of reused"
            );
            let mut x = random_signal(75, 3);
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
        // The just-inserted key is never its own victim, even at capacity 0:
        // 32 and 8 go, 64 survives alone.
        c.capacity = 0;
        c.enforce_bound(64);
        assert_eq!(c.entries.keys().collect::<Vec<_>>(), [&64]);
        assert_eq!(c.evictions, 3);
    }

    #[test]
    fn stats_since_windows_the_counters() {
        let a = plan_cache_stats();
        plan(1875);
        plan(1875);
        let b = plan_cache_stats();
        let d = b.since(&a);
        assert!(d.misses >= 1, "{d:?}");
        assert!(d.hits >= 1, "{d:?}");
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut x = vec![Complex64::ZERO; 32];
        x[0] = Complex64::ONE;
        plan(32).fft(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_has_single_bin() {
        // x_j = e^{2πi·3j/n} transforms to n·δ_{k,3} (with the e^{-..}
        // convention the +3 tone lands in bin 3).
        let n = 32;
        let mut x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(2.0 * PI * 3.0 * j as f64 / n as f64))
            .collect();
        plan(n).fft(&mut x);
        for (k, z) in x.iter().enumerate() {
            let expect = if k == 3 { n as f64 } else { 0.0 };
            assert!((z.re - expect).abs() < 1e-9 && z.im.abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 128;
        let x = random_signal(n, 99);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x.clone();
        plan(n).fft(&mut y);
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-10 * time_energy);
    }
}
