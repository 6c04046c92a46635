//! Offline stand-in for [rayon](https://docs.rs/rayon) exposing exactly the
//! subset of its API this workspace uses (see `shims/README.md` for why the
//! shim layer exists: the build container has no network access and no
//! crates-io cache, so external dependencies are patched to local crates).
//!
//! The shim is a real data-parallel executor, not a sequential fake: work is
//! split into `min(threads, items)` contiguous blocks and each block runs on
//! a `std::thread::scope` thread. Results are collected in input order, so
//! the semantics match rayon's indexed parallel iterators. Two deliberate
//! simplifications:
//!
//! * threads are spawned per top-level call instead of pooled — call sites in
//!   this workspace are coarse-grained (one call per FFT axis, per pair
//!   batch, per shell loop), so spawn overhead is noise;
//! * nested parallelism runs sequentially on the worker thread (rayon would
//!   work-steal); this keeps the pair-parallel exchange loops free of
//!   oversubscription, which is also what we want from real rayon.
//!
//! `ThreadPoolBuilder::num_threads(n)` is honored by `ThreadPool::install`
//! via a thread-local override, which is how the node-threading experiment
//! sweeps 1..64 "hardware threads".

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

thread_local! {
    /// Set inside worker threads: nested parallel calls degrade to
    /// sequential execution instead of oversubscribing.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Thread-count override installed by `ThreadPool::install`.
    static THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Threads a parallel call may use: 1 inside a worker, else the
/// `ThreadPool::install` override, else the host's parallelism. The host
/// value is read once per process: `available_parallelism` reads cgroup
/// files on every call, which small parallel calls would pay each time.
fn pool_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    THREADS_OVERRIDE.with(|t| t.get()).unwrap_or_else(|| {
        *HOST_THREADS.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Split `n` items into at most `pool_threads()` contiguous block ranges.
fn blocks(n: usize) -> Vec<Range<usize>> {
    let threads = pool_threads().max(1).min(n.max(1));
    let chunk = n.div_ceil(threads.max(1)).max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

/// Run one closure per block on scoped threads and collect per-block results
/// in block order. The engine every adapter funnels into.
fn run_blocks<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let blocks = blocks(n);
    if blocks.len() <= 1 {
        return blocks.into_iter().map(&f).collect();
    }
    let mut out: Vec<Option<R>> = blocks.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|range| {
                let f = &f;
                s.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    f(range)
                })
            })
            .collect();
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("rayon-shim worker panicked"));
        }
    });
    out.into_iter().map(|o| o.unwrap()).collect()
}

/// `collect()` target abstraction (rayon's `FromParallelIterator`, reduced
/// to the one collection the workspace collects into).
pub trait FromParVec<T> {
    fn from_par_vec(v: Vec<T>) -> Self;
}

impl<T> FromParVec<T> for Vec<T> {
    fn from_par_vec(v: Vec<T>) -> Self {
        v
    }
}

// ---------------------------------------------------------------------------
// Borrowed-slice iterators: `.par_iter()`
// ---------------------------------------------------------------------------

pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSlice<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParSliceMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
    {
        ParSliceMap {
            slice: self.slice,
            f,
        }
    }

    pub fn zip<U: Sync>(self, other: &'a [U]) -> ParZip<'a, T, U> {
        ParZip {
            a: self.slice,
            b: other,
        }
    }
}

pub struct ParSliceMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParSliceMap<'a, T, F> {
    pub fn sum<S>(self) -> S
    where
        F: Fn(&'a T) -> S + Sync,
        S: Send + std::iter::Sum<S>,
    {
        let f = &self.f;
        run_blocks(self.slice.len(), |r| self.slice[r].iter().map(f).sum::<S>())
            .into_iter()
            .sum()
    }

    pub fn collect<R, C>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: FromParVec<R>,
    {
        let f = &self.f;
        let parts = run_blocks(self.slice.len(), |r| {
            self.slice[r].iter().map(f).collect::<Vec<R>>()
        });
        C::from_par_vec(parts.into_iter().flatten().collect())
    }
}

pub struct ParZip<'a, T, U> {
    a: &'a [T],
    b: &'a [U],
}

impl<'a, T: Sync, U: Sync> ParZip<'a, T, U> {
    pub fn map<R, F>(self, f: F) -> ParZipMap<'a, T, U, F>
    where
        F: Fn((&'a T, &'a U)) -> R + Sync,
    {
        ParZipMap {
            a: self.a,
            b: self.b,
            f,
        }
    }
}

pub struct ParZipMap<'a, T, U, F> {
    a: &'a [T],
    b: &'a [U],
    f: F,
}

impl<'a, T: Sync, U: Sync, F> ParZipMap<'a, T, U, F> {
    pub fn sum<S>(self) -> S
    where
        F: Fn((&'a T, &'a U)) -> S + Sync,
        S: Send + std::iter::Sum<S>,
    {
        let n = self.a.len().min(self.b.len());
        let f = &self.f;
        run_blocks(n, |r| {
            self.a[r.clone()]
                .iter()
                .zip(self.b[r].iter())
                .map(f)
                .sum::<S>()
        })
        .into_iter()
        .sum()
    }
}

// ---------------------------------------------------------------------------
// Mutable chunk iterators: `.par_chunks_mut(n)`
// ---------------------------------------------------------------------------

pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.for_each_init(|| (), |(), c| f(c));
    }

    pub fn for_each_init<S, INIT, F>(self, init: INIT, f: F)
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, &mut [T]) + Sync,
    {
        let chunks: Vec<&mut [T]> = self.slice.chunks_mut(self.chunk).collect();
        par_for_each_owned(chunks, init, |s, c| f(s, c));
    }

    pub fn enumerate(self) -> ParChunksMutEnumerate<'a, T> {
        ParChunksMutEnumerate {
            slice: self.slice,
            chunk: self.chunk,
        }
    }
}

pub struct ParChunksMutEnumerate<'a, T> {
    slice: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParChunksMutEnumerate<'a, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let chunks: Vec<(usize, &mut [T])> =
            self.slice.chunks_mut(self.chunk).enumerate().collect();
        par_for_each_owned(chunks, || (), |(), pair| f(pair));
    }

    pub fn map_init<S, R, INIT, F>(
        self,
        init: INIT,
        f: F,
    ) -> ParVecMapInit<(usize, &'a mut [T]), INIT, F>
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, (usize, &'a mut [T])) -> R + Sync,
    {
        let items = self.slice.chunks_mut(self.chunk).enumerate().collect();
        ParVec { items }.map_init(init, f)
    }
}

// ---------------------------------------------------------------------------
// Borrowed chunk iterators: `.par_chunks(n)`
// ---------------------------------------------------------------------------

pub struct ParChunks<'a, T> {
    slice: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> ParChunks<'a, T> {
    pub fn map<R, F>(self, f: F) -> ParChunksMap<'a, T, F>
    where
        F: Fn(&'a [T]) -> R + Sync,
    {
        ParChunksMap {
            slice: self.slice,
            chunk: self.chunk,
            f,
        }
    }

    pub fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> ParChunksMapInit<'a, T, INIT, F>
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, &'a [T]) -> R + Sync,
    {
        ParChunksMapInit {
            slice: self.slice,
            chunk: self.chunk,
            init,
            f,
        }
    }
}

pub struct ParChunksMap<'a, T, F> {
    slice: &'a [T],
    chunk: usize,
    f: F,
}

impl<'a, T: Sync, F> ParChunksMap<'a, T, F> {
    pub fn sum<S>(self) -> S
    where
        F: Fn(&'a [T]) -> S + Sync,
        S: Send + std::iter::Sum<S>,
    {
        let nchunks = self.slice.len().div_ceil(self.chunk.max(1));
        let f = &self.f;
        run_blocks(nchunks, |r| {
            self.slice
                .chunks(self.chunk)
                .skip(r.start)
                .take(r.len())
                .map(f)
                .sum::<S>()
        })
        .into_iter()
        .sum()
    }
}

pub struct ParChunksMapInit<'a, T, INIT, F> {
    slice: &'a [T],
    chunk: usize,
    init: INIT,
    f: F,
}

impl<'a, T: Sync, INIT, F> ParChunksMapInit<'a, T, INIT, F> {
    pub fn sum<S, ST>(self) -> S
    where
        INIT: Fn() -> ST + Sync,
        F: Fn(&mut ST, &'a [T]) -> S + Sync,
        S: Send + std::iter::Sum<S>,
    {
        let nchunks = self.slice.len().div_ceil(self.chunk.max(1));
        let init = &self.init;
        let f = &self.f;
        run_blocks(nchunks, |r| {
            let mut state = init();
            self.slice
                .chunks(self.chunk)
                .skip(r.start)
                .take(r.len())
                .map(|c| f(&mut state, c))
                .sum::<S>()
        })
        .into_iter()
        .sum()
    }
}

// ---------------------------------------------------------------------------
// Owned-item engine (used by chunk iterators and range flat-maps)
// ---------------------------------------------------------------------------

/// Distribute owned items over worker threads with one `init()` state per
/// block, preserving nothing (for_each).
fn par_for_each_owned<T, S, INIT, F>(items: Vec<T>, init: INIT, f: F)
where
    T: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) + Sync,
{
    let _ = par_map_owned(items, init, |s, item| f(s, item));
}

/// Distribute owned items over worker threads, mapping each through `f` with
/// per-block state; results come back in input order.
fn par_map_owned<T, S, R, INIT, F>(items: Vec<T>, init: INIT, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n = items.len();
    let ranges = blocks(n);
    if ranges.len() <= 1 {
        let mut state = init();
        return items.into_iter().map(|x| f(&mut state, x)).collect();
    }
    // Carve the Vec into per-block sub-vecs (cheap pointer moves).
    let mut items = items;
    let mut parts: Vec<Vec<T>> = Vec::with_capacity(ranges.len());
    for range in ranges.iter().rev() {
        parts.push(items.split_off(range.start));
    }
    parts.push(items);
    parts.reverse();
    parts.remove(0); // the now-empty head
    let results = run_blocks_owned(parts, |part| {
        let mut state = init();
        part.into_iter()
            .map(|x| f(&mut state, x))
            .collect::<Vec<R>>()
    });
    results.into_iter().flatten().collect()
}

/// As [`run_blocks`] but the work arrives as owned per-block payloads.
fn run_blocks_owned<T, R, F>(parts: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = parts.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                let f = &f;
                s.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    f(part)
                })
            })
            .collect();
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("rayon-shim worker panicked"));
        }
    });
    out.into_iter().map(|o| o.unwrap()).collect()
}

// ---------------------------------------------------------------------------
// Range iterators: `(0..n).into_par_iter()`
// ---------------------------------------------------------------------------

pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    pub fn map<R, F>(self, f: F) -> ParRangeMap<F>
    where
        F: Fn(usize) -> R + Sync,
    {
        ParRangeMap {
            range: self.range,
            f,
        }
    }

    pub fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> ParRangeMapInit<INIT, F>
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        ParRangeMapInit {
            range: self.range,
            init,
            f,
        }
    }

    /// rayon's `flat_map_iter`: expand each index through a serial iterator.
    /// The shim materializes the expansion (index generation is cheap at
    /// every call site in this workspace) and hands the owned items to the
    /// block engine.
    pub fn flat_map_iter<I, F>(self, f: F) -> ParVec<I::Item>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(usize) -> I,
    {
        ParVec {
            items: self.range.flat_map(f).collect(),
        }
    }
}

pub struct ParRangeMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParRangeMap<F> {
    pub fn collect<R, C>(self) -> C
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
        C: FromParVec<R>,
    {
        let f = &self.f;
        let start = self.range.start;
        let parts = run_blocks(self.range.len(), |r| {
            (start + r.start..start + r.end).map(f).collect::<Vec<R>>()
        });
        C::from_par_vec(parts.into_iter().flatten().collect())
    }

    pub fn sum<S>(self) -> S
    where
        F: Fn(usize) -> S + Sync,
        S: Send + std::iter::Sum<S>,
    {
        let f = &self.f;
        let start = self.range.start;
        run_blocks(self.range.len(), |r| {
            (start + r.start..start + r.end).map(f).sum::<S>()
        })
        .into_iter()
        .sum()
    }

    pub fn reduce<R, ID, OP>(self, identity: ID, op: OP) -> R
    where
        F: Fn(usize) -> R + Sync,
        R: Send,
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        let f = &self.f;
        let start = self.range.start;
        let parts = run_blocks(self.range.len(), |r| {
            (start + r.start..start + r.end)
                .map(f)
                .fold(identity(), &op)
        });
        parts.into_iter().fold(identity(), op)
    }
}

pub struct ParRangeMapInit<INIT, F> {
    range: Range<usize>,
    init: INIT,
    f: F,
}

impl<INIT, F> ParRangeMapInit<INIT, F> {
    pub fn collect<S, R, C>(self) -> C
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
        R: Send,
        C: FromParVec<R>,
    {
        let f = &self.f;
        let init = &self.init;
        let start = self.range.start;
        let parts = run_blocks(self.range.len(), |r| {
            let mut state = init();
            (start + r.start..start + r.end)
                .map(|i| f(&mut state, i))
                .collect::<Vec<R>>()
        });
        C::from_par_vec(parts.into_iter().flatten().collect())
    }

    pub fn reduce<S, R, ID, OP>(self, identity: ID, op: OP) -> R
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
        R: Send,
        ID: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        let f = &self.f;
        let init = &self.init;
        let start = self.range.start;
        let parts = run_blocks(self.range.len(), |r| {
            let mut state = init();
            (start + r.start..start + r.end)
                .map(|i| f(&mut state, i))
                .fold(identity(), &op)
        });
        parts.into_iter().fold(identity(), op)
    }
}

/// Owned items awaiting parallel consumption (product of `flat_map_iter`).
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Send> ParVec<T> {
    pub fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> ParVecMapInit<T, INIT, F>
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        ParVecMapInit {
            items: self.items,
            init,
            f,
        }
    }
}

pub struct ParVecMapInit<T, INIT, F> {
    items: Vec<T>,
    init: INIT,
    f: F,
}

impl<T: Send, INIT, F> ParVecMapInit<T, INIT, F> {
    pub fn collect<S, R, C>(self) -> C
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
        R: Send,
        C: FromParVec<R>,
    {
        C::from_par_vec(par_map_owned(self.items, self.init, self.f))
    }
}

// ---------------------------------------------------------------------------
// Entry-point extension traits (rayon's prelude surface)
// ---------------------------------------------------------------------------

pub trait ParallelSlice<T> {
    fn par_iter(&self) -> ParSlice<'_, T>;
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T>;
}

pub trait ParallelSliceMut<T> {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
}

impl<T> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { slice: self }
    }
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunks { slice: self, chunk }
    }
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        assert!(chunk > 0, "chunk size must be positive");
        ParChunksMut { slice: self, chunk }
    }
}

impl<T> ParallelSlice<T> for Vec<T> {
    fn par_iter(&self) -> ParSlice<'_, T> {
        self.as_slice().par_iter()
    }
    fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T> {
        self.as_slice().par_chunks(chunk)
    }
}

impl<T> ParallelSliceMut<T> for Vec<T> {
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        self.as_mut_slice().par_chunks_mut(chunk)
    }
}

pub trait IntoParallelIterator {
    type ParIter;
    fn into_par_iter(self) -> Self::ParIter;
}

impl IntoParallelIterator for Range<usize> {
    type ParIter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

// ---------------------------------------------------------------------------
// Thread pools
// ---------------------------------------------------------------------------

/// Builder mirroring `rayon::ThreadPoolBuilder` for explicit thread counts.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type of [`ThreadPoolBuilder::build`] (the shim cannot fail).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A "pool" that scopes a thread-count override; workers are still spawned
/// per parallel call.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    pub fn install<R, F: FnOnce() -> R>(&self, f: F) -> R {
        let prev = THREADS_OVERRIDE.with(|t| t.replace(self.num_threads));
        let out = f();
        THREADS_OVERRIDE.with(|t| t.set(prev));
        out
    }
}

/// `rayon::join`: run both closures, in parallel when worthwhile.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if pool_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(|| {
            IN_WORKER.with(|w| w.set(true));
            b()
        });
        let ra = a();
        (ra, hb.join().expect("rayon-shim join worker panicked"))
    })
}

/// Current effective parallelism (mirrors `rayon::current_num_threads`).
pub fn current_num_threads() -> usize {
    pool_threads()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn par_iter_map_sum_matches_serial() {
        let v: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let par: f64 = v.par_iter().map(|&x| x * 2.0).sum();
        let ser: f64 = v.iter().map(|&x| x * 2.0).sum();
        assert_eq!(par, ser);
    }

    #[test]
    fn par_chunks_mut_covers_all_chunks_in_order() {
        let mut v = vec![0usize; 1000];
        v.par_chunks_mut(7).enumerate().for_each(|(i, c)| {
            for x in c.iter_mut() {
                *x = i;
            }
        });
        for (j, &x) in v.iter().enumerate() {
            assert_eq!(x, j / 7);
        }
    }

    #[test]
    fn range_map_collect_preserves_order() {
        let out: Vec<usize> = (0..997).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(out.len(), 997);
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, i * 3);
        }
    }

    #[test]
    fn map_init_reduce_matches_serial() {
        let total: f64 = (0..1000)
            .into_par_iter()
            .map_init(|| 0u32, |_state, i| i as f64)
            .reduce(|| 0.0, |a, b| a + b);
        assert_eq!(total, (0..1000).sum::<usize>() as f64);
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
    }

    #[test]
    fn install_wins_over_the_cached_host_count_and_nesting_stays_sequential() {
        // Read the host count first, so it is cached before the override.
        let host = current_num_threads();
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let (outer, inner) = pool.install(|| {
            let inner: Vec<usize> = (0..6)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect();
            (current_num_threads(), inner)
        });
        assert_eq!(outer, 3);
        // Six items over three threads: every item ran on a worker.
        assert!(inner.iter().all(|&n| n == 1), "{inner:?}");
        assert_eq!(current_num_threads(), host);
    }

    #[test]
    fn nested_parallelism_degrades_to_sequential() {
        let out: Vec<usize> = (0..8)
            .into_par_iter()
            .map(|_| current_num_threads())
            .collect();
        // Inside workers the effective parallelism is 1 (no oversubscription)
        // unless the whole call ran inline on the caller.
        assert!(out.iter().all(|&n| n == 1 || out.len() == 1));
    }
}
