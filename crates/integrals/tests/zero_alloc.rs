//! Counting-allocator proof that a warm ERI quartet evaluation performs
//! **zero** heap allocations: after one warm-up pass (the Boys grid, the
//! grow-once scratch and output block), `EriEngine::shell_quartet_into`
//! on every quartet class from (ss|ss) to (pp|pp) must not touch the
//! allocator.

use liair_basis::{systems, Basis};
use liair_integrals::eri::{EriEngine, EriScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread, so the other tests of this
    /// binary and the harness's own bookkeeping stay out of a measured
    /// window.
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

#[test]
fn warm_quartets_are_allocation_free() {
    // Water/STO-3G: O 1s, 2s, 2p and two H 1s — every s/p class occurs.
    let basis = Basis::sto3g(&systems::water());
    let engine = EriEngine::new(&basis);
    let nsh = basis.shells.len();
    let quartets: Vec<[usize; 4]> = (0..nsh * nsh * nsh * nsh)
        .map(|i| {
            [
                i / (nsh * nsh * nsh),
                i / (nsh * nsh) % nsh,
                i / nsh % nsh,
                i % nsh,
            ]
        })
        .collect();
    let classes: std::collections::BTreeSet<[usize; 4]> = quartets
        .iter()
        .map(|q| q.map(|s| basis.shells[s].l))
        .collect();
    assert_eq!(classes.len(), 16, "every (ss|ss) … (pp|pp) class");

    let (mut scratch, mut out) = (EriScratch::default(), Vec::new());
    let mut warm = 0.0;
    for &[a, b, c, d] in &quartets {
        engine.shell_quartet_into(a, b, c, d, &mut scratch, &mut out);
        warm += out[0];
    }

    let before = alloc_count();
    let mut acc = 0.0;
    for _ in 0..3 {
        for &[a, b, c, d] in &quartets {
            engine.shell_quartet_into(a, b, c, d, &mut scratch, &mut out);
            acc += out[0];
        }
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta,
        0,
        "{delta} heap allocations in {} warm quartet evaluations",
        3 * quartets.len()
    );
    assert!(acc.is_finite() && warm.is_finite());
}
