//! Counting-allocator proof that the `ExchangeEngine::energy` pair loop is
//! allocation-free **per pair** in steady state: with the thread count
//! pinned, the total number of heap allocations per call is a constant
//! (per-worker scratch, thread spawn bookkeeping) that does not grow with
//! the number of pairs evaluated — and that the all-clean incremental
//! rebuild performs *zero* heap allocations outright.

use liair_basis::Cell;
use liair_core::screening::{OrbitalInfo, Pair, PairList};
use liair_core::{EngineScratch, ExchangeEngine, ExecBackend, HfxResult, IncrementalExchange};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::rng::SplitMix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The allocation counter is process-global, so the tests in this binary
/// must not overlap: one test's warm-up would land in the other's
/// measured window.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOC_CALLS.load(Ordering::SeqCst)
}

fn pair_list(n_orb: usize, n_pairs: usize) -> PairList {
    let mut pairs = Vec::with_capacity(n_pairs);
    for k in 0..n_pairs {
        let i = (k % n_orb) as u32;
        let j = ((k / n_orb + k) % n_orb) as u32;
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        let weight = if i == j { 1.0 } else { 2.0 };
        pairs.push(Pair {
            i,
            j,
            weight,
            bound: 1.0,
        });
    }
    PairList {
        pairs,
        n_candidates: n_pairs,
        considered: n_pairs,
        eps: 0.0,
    }
}

#[test]
fn energy_allocations_do_not_scale_with_pair_count() {
    let _guard = SERIAL.lock().unwrap();
    let grid = RealGrid::cubic(Cell::cubic(10.0), 24);
    let solver = PoissonSolver::isolated(grid);
    let mut rng = SplitMix64::new(5);
    let orbitals: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect())
        .collect();
    let few = pair_list(4, 6);
    let many = pair_list(4, 30);

    // Single worker so the per-call constant (scratch init, thread spawn)
    // is identical between runs regardless of machine core count.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let run = |pairs: &PairList| -> (HfxResult, u64) {
        let before = alloc_count();
        let result = pool.install(|| ExchangeEngine::new(&grid, &solver).energy(&orbitals, pairs));
        (result, alloc_count() - before)
    };

    // Warm-up: FFT plans and kernel tables all primed.
    let (warm, _) = run(&few);
    assert!(warm.energy.is_finite());

    let (r_few, d_few) = run(&few);
    let (r_many, d_many) = run(&many);
    assert_eq!(r_few.profile.pairs_computed, 6);
    assert_eq!(r_many.profile.pairs_computed, 30);
    assert!(r_few.energy.is_finite() && r_many.energy.is_finite());
    // 5× the pairs, same allocation count: the steady-state loop itself
    // performs zero per-pair heap allocations.
    assert_eq!(
        d_few, d_many,
        "allocations scale with pair count ({d_few} for 6 pairs vs {d_many} for 30)"
    );
}

#[test]
fn all_clean_incremental_rebuild_is_allocation_free() {
    // Steady state of the incremental path: nothing moved since the last
    // build, every pair is clean, the energy comes straight out of the
    // cache — and not a single heap allocation happens. (No rayon pool is
    // involved: with an empty dirty list the parallel recompute is never
    // entered, so this runs entirely on the calling thread.)
    let _guard = SERIAL.lock().unwrap();
    let grid = RealGrid::cubic(Cell::cubic(10.0), 24);
    let solver = PoissonSolver::isolated(grid);
    let mut rng = SplitMix64::new(7);
    let orbitals: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect())
        .collect();
    let infos = vec![
        OrbitalInfo {
            center: liair_math::Vec3::ZERO,
            spread: 1.0,
        };
        4
    ];
    let pairs = liair_core::build_pair_list(&infos, 0.0, None);

    let mut inc = IncrementalExchange::new(1e-6, 0);
    // Prime (everything dirty) and then one warm all-clean rebuild so any
    // lazily grown scratch has reached its final size.
    let primed = inc.exchange_energy(&grid, &solver, &orbitals, &infos, &pairs);
    assert_eq!(primed.profile.pairs_computed, pairs.len());
    let warm = inc.exchange_energy(&grid, &solver, &orbitals, &infos, &pairs);
    assert_eq!(warm.profile.pairs_reused, pairs.len());

    let before = alloc_count();
    let r = inc.exchange_energy(&grid, &solver, &orbitals, &infos, &pairs);
    let delta = alloc_count() - before;
    assert_eq!(r.profile.pairs_reused, pairs.len());
    assert_eq!(r.profile.pairs_computed, 0);
    assert_eq!(r.energy, warm.energy);
    assert_eq!(
        delta, 0,
        "all-clean incremental rebuild performed {delta} heap allocations"
    );
}

#[test]
fn warm_serial_engine_build_is_allocation_free() {
    // The strongest steady-state claim: with a caller-owned
    // [`EngineScratch`] already grown to the working size, a full serial
    // exchange build through the engine performs *zero* heap allocations —
    // no per-pair, no per-build. 24³ and 48³ are the mixed-radix sizes the
    // benchmark builds on.
    let _guard = SERIAL.lock().unwrap();
    for n in [24usize, 48] {
        let grid = RealGrid::cubic(Cell::cubic(10.0), n);
        let solver = PoissonSolver::isolated(grid);
        let mut rng = SplitMix64::new(11);
        let orbitals: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect())
            .collect();
        let pairs = pair_list(4, 10);
        let engine = ExchangeEngine::builder(&grid, &solver)
            .backend(ExecBackend::Serial)
            .build()
            .expect("serial engine configuration is always valid");
        let mut scratch = EngineScratch::new();

        // Warm-up: grows the scratch, primes FFT plans and kernel tables.
        let warm = engine.energy_into(&orbitals, &pairs, &mut scratch);
        assert!(warm.energy.is_finite());
        assert!(warm.profile.is_populated());

        let before = alloc_count();
        let r = engine.energy_into(&orbitals, &pairs, &mut scratch);
        let delta = alloc_count() - before;
        assert_eq!(
            r.energy, warm.energy,
            "{n}³: steady-state rebuild changed the energy"
        );
        assert_eq!(r.profile.steady_allocs, 0, "engine reported scratch growth");
        assert_eq!(
            delta, 0,
            "{n}³: warm serial engine build performed {delta} heap allocations"
        );
    }
}
