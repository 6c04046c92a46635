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
//! * Lengths `2ᵃ3ᵇ5ᶜ` run **mixed-radix (4, 2, 3, 5) Stockham autosort
//!   passes**: each pass reads one buffer and writes the other in the order
//!   the next pass wants, so there is no bit-reversal and no in-place
//!   scatter. Both directions share the kernels (a const-generic conjugate),
//!   and a caller's `1/n` rides on the last pass, which has no twiddles.
//! * Lengths with a prime factor ≥ 7 fall back to Bluestein's chirp-z on a
//!   power-of-two plan of the same kind; the chirp and its spectrum (with
//!   the convolution's `1/m` folded in) are part of the cached plan.
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
//! tests, the engine's `BuildProfile`, and perf triage.
//!
//! Steady-state transforms are allocation-free: all work space is one
//! grow-only thread-local buffer.

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
    /// Stockham passes in execution order (empty for `n = 1` and for
    /// Bluestein lengths).
    passes: Vec<Pass>,
    /// Forward twiddles of every pass, concatenated (`Pass::tw` indexes in).
    twiddles: Vec<Complex64>,
    /// `e^{-2πik/2n}` for `k ≤ n`: the r2c untangle twiddles of the real
    /// transform of length `2n` this plan is the packed half of.
    untangle: Vec<Complex64>,
    /// Chirp-z machinery for lengths with a prime factor ≥ 7.
    bluestein: Option<Bluestein>,
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

#[derive(Debug)]
struct Bluestein {
    /// Convolution length: next power of two ≥ 2n−1.
    m: usize,
    /// Forward chirp `e^{-iπ j²/n}` (inverse uses the conjugate).
    chirp: Vec<Complex64>,
    /// `FFT_m` of the wrapped conjugate chirp, times `1/m`; the inverse
    /// transform's spectrum is its conjugate (the wrapped chirp is even).
    spec: Vec<Complex64>,
    /// The power-of-two plan driving the cyclic convolution.
    sub: Arc<FftPlan>,
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

/// `n` as a product of radices 4, 2, 3, 5 (at most one 2), or `None` when
/// a prime factor ≥ 7 is left over.
fn radices(mut n: usize) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    for r in [4, 2, 3, 5] {
        while n.is_multiple_of(r) {
            out.push(r);
            n /= r;
        }
    }
    (n == 1).then_some(out)
}

impl FftPlan {
    fn build(n: usize) -> FftPlan {
        assert!(n >= 1, "FFT length must be positive");
        let untangle = (0..=n)
            .map(|k| Complex64::cis(-PI * k as f64 / n as f64))
            .collect();
        let mut plan = FftPlan {
            n,
            passes: Vec::new(),
            twiddles: Vec::new(),
            untangle,
            bluestein: None,
        };
        let Some(radices) = radices(n) else {
            plan.bluestein = Some(Bluestein::build(n));
            return plan;
        };
        let mut len = n;
        for radix in radices {
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

    /// `true` when this length runs Bluestein's chirp-z (a prime factor
    /// ≥ 7) instead of mixed-radix passes.
    pub fn is_bluestein(&self) -> bool {
        self.bluestein.is_some()
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
        match &self.bluestein {
            None => 2 * self.n * row_len,
            Some(bs) => bs.m * row_len + bs.sub.work_len(row_len),
        }
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
        if let Some(bs) = &self.bluestein {
            bs.rows(inverse, scale, data, row_len, work);
        } else if self.passes.is_empty() {
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

impl Bluestein {
    fn build(n: usize) -> Bluestein {
        // Quadratic phase reduced mod 2n to preserve precision at large
        // indices.
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let jsq = (j as u128 * j as u128 % (2 * n as u128)) as f64;
                Complex64::cis(-PI * jsq / n as f64)
            })
            .collect();
        let m = (2 * n - 1).next_power_of_two();
        let sub = plan(m);
        let mut spec = vec![Complex64::ZERO; m];
        for j in 0..n {
            spec[j] = chirp[j].conj();
            spec[(m - j) % m] = chirp[j].conj();
        }
        let mut work = vec![Complex64::ZERO; sub.work_len(1)];
        sub.rows(false, 1.0 / m as f64, &mut spec, 1, &mut work);
        Bluestein {
            m,
            chirp,
            spec,
            sub,
        }
    }

    /// Chirp-z as one cyclic convolution against the cached spectrum, all
    /// `row_len` pencils at once: `work` is the `m` padded rows followed by
    /// the sub-plan's own work space.
    fn rows(
        &self,
        inverse: bool,
        scale: f64,
        data: &mut [Complex64],
        row_len: usize,
        work: &mut [Complex64],
    ) {
        let conj_if = |z: Complex64| if inverse { z.conj() } else { z };
        let (a, sub_work) = work.split_at_mut(self.m * row_len);
        let (head, pad) = a.split_at_mut(data.len());
        let rows = head
            .chunks_exact_mut(row_len)
            .zip(data.chunks_exact(row_len));
        for ((out, row), &c) in rows.zip(&self.chirp) {
            let c = conj_if(c);
            for (o, &x) in out.iter_mut().zip(row) {
                *o = x * c;
            }
        }
        pad.fill(Complex64::ZERO);
        self.sub.rows(false, 1.0, a, row_len, sub_work);
        for (row, &s) in a.chunks_exact_mut(row_len).zip(&self.spec) {
            let s = conj_if(s);
            row.iter_mut().for_each(|x| *x *= s);
        }
        self.sub.rows(true, 1.0, a, row_len, sub_work);
        let rows = data.chunks_exact_mut(row_len).zip(a.chunks_exact(row_len));
        for ((out, row), &c) in rows.zip(&self.chirp) {
            let c = conj_if(c).scale(scale);
            for (o, &x) in out.iter_mut().zip(row) {
                *o = x * c;
            }
        }
    }
}

/// Default bound on distinct cached lengths. A 3-D real transform touches
/// at most four (three axes plus the packed `nz/2`), and a Bluestein length
/// one more, so this comfortably covers a dozen concurrently active grid
/// shapes.
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

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn planned_transform_matches_reference() {
        for &n in &[2usize, 7, 16, 48, 77, 96, 128] {
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
        // Regression: the seed rebuilt the Bluestein chirp and re-FFT'd it
        // on every call of such a length. With the cache, every lookup of the
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
        // prime-factor-7 length must not rebuild it (checked by exactness
        // of repeated results).
        let p = plan(49);
        assert!(p.is_bluestein());
        let x = random_signal(49, 9);
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
