//! Counting-allocator proof that the steady-state pair-Poisson work units
//! perform **zero** heap allocations: after one warm-up call (plan build,
//! grow-once scratch), repeated solves through a reused
//! [`PoissonWorkspace`] / [`PatchScratch`] must not touch the allocator.

use liair_basis::Cell;
use liair_grid::{
    isolated_patch_solver, patch_pair_energy_ws, PatchScratch, PoissonSolver, PoissonWorkspace,
    RealGrid,
};
use liair_math::rng::SplitMix64;
use liair_math::Vec3;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread. Every path measured here runs on
    /// the calling thread, and a per-thread count keeps the other tests of
    /// this binary and the harness's own bookkeeping (spawning the next
    /// test, printing a result) out of a measured window.
    static ALLOC_CALLS: Counter<u64> = const { Counter::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may allocate after its locals.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised cell with no destructor, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOC_CALLS.with(Counter::get)
}

fn random_field(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_f64() - 0.5).collect()
}

#[test]
fn pair_energy_paths_are_allocation_free_after_warmup() {
    // 32³, the mixed-radix 24³ / 48³ and the radix-5 20³ share one
    // grow-only block of thread-local work space.
    for n in [32usize, 24, 48, 20] {
        let grid = RealGrid::cubic(Cell::cubic(12.0), n);
        let solver = PoissonSolver::isolated(grid);
        let a = random_field(grid.len(), 1);
        let mut ws = PoissonWorkspace::new();

        // Warm-up: builds FFT plans, grows workspace + thread-local scratch.
        let e_single = solver.exchange_pair_energy(&a, &mut ws);
        solver.solve_into(&a, &mut ws);

        let before = alloc_count();
        let mut acc = 0.0;
        for _ in 0..10 {
            acc += solver.exchange_pair_energy(&a, &mut ws);
            acc += solver.solve_into(&a, &mut ws)[0];
        }
        let delta = alloc_count() - before;
        assert_eq!(
            delta, 0,
            "n={n}: {delta} heap allocations in 10 steady-state pair solves"
        );
        // The warm-up results stay live so the loop above is not optimized out.
        assert!(acc.is_finite() && e_single >= 0.0);
    }
}

/// The energy-only pair path on its own: the contraction works strictly
/// in the caller's workspace, so it adds no heap traffic to the hot loop.
#[test]
fn simd_pair_paths_are_allocation_free_after_warmup() {
    let grid = RealGrid::cubic(Cell::cubic(12.0), 32);
    let solver = PoissonSolver::isolated(grid);
    let a = random_field(grid.len(), 5);
    let mut ws = PoissonWorkspace::new();
    // Warm-up: plans, grow-once workspace, scratch.
    let warm = solver.exchange_pair_energy(&a, &mut ws);

    let before = alloc_count();
    let mut acc = 0.0;
    for _ in 0..10 {
        acc += solver.exchange_pair_energy(&a, &mut ws);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "{delta} heap allocations in 10 steady-state energy-only pair solves"
    );
    assert!(acc.is_finite() && warm >= 0.0);
}

#[test]
fn patched_pair_path_is_allocation_free_after_warmup() {
    let parent = RealGrid::cubic(Cell::cubic(16.0), 32);
    let phi_i = random_field(parent.len(), 3);
    let phi_j = random_field(parent.len(), 4);
    let mid = Vec3::splat(8.0);
    let mut scratch = PatchScratch::new();

    // Warm-up builds the cached patch solver and grows the scratch.
    let warm = patch_pair_energy_ws(&parent, &phi_i, &phi_j, mid, 8, &mut scratch);
    // Verify the solver cache is actually primed for this shape.
    let patch = liair_grid::Patch::plan(&parent, mid, 8);
    let _solver = isolated_patch_solver(patch.grid);

    let before = alloc_count();
    let mut acc = 0.0;
    for k in 0..10 {
        // Shift the midpoint so gather offsets vary (same patch shape).
        let m = Vec3::new(8.0 + 0.1 * k as f64, 8.0, 8.0);
        acc += patch_pair_energy_ws(&parent, &phi_i, &phi_j, m, 8, &mut scratch);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "{delta} heap allocations in 10 steady-state patched pair solves"
    );
    assert!(acc.is_finite() && warm >= 0.0);
}
