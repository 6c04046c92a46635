//! The staged exchange-build engine — the only way to run an exchange
//! build.
//!
//! Full-cell pair energies, patched pair energies, the K operator and the
//! incremental dirty-set recompute (`crate::incremental`) are methods of
//! one [`ExchangeEngine`], which owns the scratch lifetimes, the pair
//! kernel and the reduction order of one staged pipeline:
//!
//! 1. **pair source** — a screened [`PairList`], an explicit dirty slice
//!    (incremental), or the `(occupied j, AO ν)` K-task list;
//! 2. **execute** — an [`ExecBackend`]: serial, rayon, or message-passing
//!    over `liair-runtime` ranks, all running the *identical* per-pair
//!    kernel (one r2c transform + Parseval contraction per pair);
//! 3. **accumulate** — per-pair contributions reassembled in canonical
//!    pair-list order and summed sequentially, or per-task K columns
//!    accumulated in canonical task order — so every backend produces the
//!    same floating-point sequence, which is what makes the cross-driver
//!    equivalence suite exact rather than tolerance-based.
//!
//! Every build returns the same [`BuildProfile`]: per-phase wall times (AO
//! eval, FFT, kernel multiply, execute, reduce) and work counters (pairs
//! considered/screened/computed/reused, bytes reduced, steady-state
//! allocations, steal and fault traffic) — the only place those counts
//! live.
//!
//! Everything that steers a build is an argument: the grid and its
//! full-cell Poisson solver to [`ExchangeEngine::new`] /
//! [`ExchangeEngine::builder`], the backend and an optional fault plan to
//! the [`EngineBuilder`]. Nothing is read from the process environment, so
//! two engines in one process never influence each other.

pub(crate) mod kpath;
pub(crate) mod pipeline;
pub mod profile;

pub use kpath::KBuildOutcome;
pub use profile::BuildProfile;
// The fault plan appears in the builder's public API; re-export it so
// engine users need not depend on the runtime crate.
pub use liair_runtime::FaultPlan;

use crate::balance::BalanceStrategy;
use crate::error::{Error, Result};
use crate::hfx::HfxResult;
use crate::screening::{OrbitalInfo, Pair, PairList};
use liair_grid::patch::{patch_pair_energy_ws, PatchScratch};
use liair_grid::{KernelTimings, PoissonSolver, PoissonWorkspace, RealGrid};
use liair_math::simd;
use rayon::prelude::*;
use std::time::Instant;

/// How the execute stage runs its chunk list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// One worker, ascending chunk order — the reference execution and the
    /// strict zero-allocation path ([`ExchangeEngine::energy_into`]).
    Serial,
    /// Rayon work-stealing over chunks (the shared-memory production
    /// path). Results are collected in chunk order, so the reduction is
    /// deterministic regardless of the steal schedule.
    Rayon,
    /// Message-passing over `nranks` virtual ranks of the
    /// `liair-runtime` threaded backend, scheduled by the streaming
    /// pipeline of `engine::pipeline`: the head of the chunk list is assigned up
    /// front by `strategy` (no coordination traffic), the tail feeds a
    /// root-owned steal queue, finished chunks stream to the root while
    /// ranks keep computing, and a straggler's share is re-issued as soon
    /// as its timeout fires. Canonical-order reassembly keeps the result
    /// bit-identical to [`ExecBackend::Serial`].
    Comm {
        /// Virtual rank count.
        nranks: usize,
        /// Static chunk-assignment strategy.
        strategy: BalanceStrategy,
    },
}

/// The unified exchange-build driver: borrow a grid and its Poisson
/// solver, pick a backend, and every exchange product — pair energies,
/// patched pair energies, the K operator — comes out of the same staged
/// pipeline with the same [`BuildProfile`] instrumentation.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeEngine<'a> {
    grid: &'a RealGrid,
    /// Full-cell Poisson solver (patches solve on their own per-shape
    /// cached solvers).
    solver: &'a PoissonSolver,
    backend: ExecBackend,
    /// Deterministic fault plan the `Comm` backend runs under (`None` =
    /// clean, the default).
    fault: Option<FaultPlan>,
}

/// Fluent, validated construction of an [`ExchangeEngine`] — the one
/// place its knobs (backend, fault plan) compose: an engine whose
/// configuration [`EngineBuilder::build`] has not checked yet, so invalid
/// ones come back as typed errors instead of panicking mid-build.
#[derive(Debug, Clone, Copy)]
pub struct EngineBuilder<'a>(ExchangeEngine<'a>);

impl<'a> EngineBuilder<'a> {
    /// Run the execute stage on this backend (default: rayon).
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.0.backend = backend;
        self
    }

    /// Run the distributed backend under this deterministic fault plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.0.fault = Some(plan);
        self
    }

    /// Run fault-free (the default): clears a plan set earlier on this
    /// builder.
    pub fn no_faults(mut self) -> Self {
        self.0.fault = None;
        self
    }

    /// Validate and produce the engine.
    pub fn build(self) -> Result<ExchangeEngine<'a>> {
        if let ExecBackend::Comm { nranks: 0, .. } = self.0.backend {
            return Err(Error::InvalidConfig(
                "Comm backend needs at least one rank".into(),
            ));
        }
        if let Some(plan) = self.0.fault {
            plan.validate().map_err(Error::Comm)?;
        }
        Ok(self.0)
    }
}

/// Per-worker scratch of the pair loop and the K task loop alike: one
/// pair density plus the Poisson workspace. Grow-once, reused across all
/// items a worker takes.
#[derive(Debug, Default)]
pub(crate) struct HfxScratch {
    rho: Vec<f64>,
    ws: PoissonWorkspace,
}

impl HfxScratch {
    /// Size the density buffer for an `n`-point grid; returns whether it
    /// actually grew (a steady-state build reports 0 growth events).
    fn ensure(&mut self, n: usize) -> bool {
        if self.rho.len() != n {
            self.rho.resize(n, 0.0);
            true
        } else {
            false
        }
    }
}

/// Caller-owned scratch for [`ExchangeEngine::energy_into`]: the pair
/// scratch plus the contribution vector, so a warm repeat build performs
/// zero heap allocations.
#[derive(Debug, Default)]
pub struct EngineScratch {
    pair: HfxScratch,
    contribs: Vec<f64>,
}

impl EngineScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The weighted contribution `−w (ij|ij)` of one pair: form `ρ_ij`, one
/// r2c transform, one Parseval contraction. A pure function of the pair
/// and its two orbitals — every backend, chunk position and dirty-set
/// slice produces the same bits for it.
fn eval_pair(sc: &mut HfxScratch, p: &Pair, solver: &PoissonSolver, orbitals: &[Vec<f64>]) -> f64 {
    simd::mul_into(
        &mut sc.rho,
        &orbitals[p.i as usize],
        &orbitals[p.j as usize],
    );
    -p.weight * solver.exchange_pair_energy(&sc.rho, &mut sc.ws)
}

/// The energy path's work item as [`ExchangeEngine::execute`] takes it:
/// chunk `ci` is pairs `2·ci` and `2·ci + 1` of `pairs` (second slot 0 for
/// an odd tail) on an `n`-point grid.
fn pair_chunk<'p>(
    n: usize,
    solver: &'p PoissonSolver,
    orbitals: &'p [Vec<f64>],
    pairs: &'p [Pair],
) -> impl Fn(&mut HfxScratch, usize, &mut [f64]) -> (KernelTimings, usize) + Send + Sync + 'p {
    move |sc, ci, out| {
        let grew = sc.ensure(n) as usize;
        out[0] = eval_pair(sc, &pairs[2 * ci], solver, orbitals);
        out[1] = pairs
            .get(2 * ci + 1)
            .map_or(0.0, |p| eval_pair(sc, p, solver, orbitals));
        (sc.ws.take_timings(), grew)
    }
}

/// Where a pair's patch sits and how many parent-grid points per axis it
/// must span: centred on the minimum-image midpoint of the two orbital
/// centres, covering their minimum-image separation plus three spreads
/// per orbital plus `margin` Bohr on either side. The patch gather wraps
/// periodically, so a pair that straddles the cell boundary gets the same
/// patch as its interior twin (raw coordinates would hand it a patch as
/// large as the cell, centred mid-cell: right energy, no saving).
fn patch_geometry(
    grid: &RealGrid,
    a: &OrbitalInfo,
    b: &OrbitalInfo,
    margin: f64,
) -> (liair_math::Vec3, usize) {
    let d = grid.cell.min_image(a.center, b.center);
    let phys = d.norm() + 3.0 * (a.spread + b.spread) + 2.0 * margin;
    let extent = ((phys / grid.spacing().x).ceil() as usize).max(8);
    (a.center + d * 0.5, extent)
}

/// The serial arm of [`ExchangeEngine::execute`], on caller-owned scratch
/// and output — which makes it the whole execute stage of
/// [`ExchangeEngine::energy_into`] too.
fn run_serial<S, F>(
    sc: &mut S,
    flat: &mut [f64],
    width: usize,
    eval: &F,
    profile: &mut BuildProfile,
) where
    F: Fn(&mut S, usize, &mut [f64]) -> (KernelTimings, usize),
{
    for (i, out) in flat.chunks_exact_mut(width).enumerate() {
        let (t, grew) = eval(sc, i, out);
        profile.note_kernel(t, grew);
    }
}

impl<'a> ExchangeEngine<'a> {
    /// Engine over `grid`/`solver` in the default configuration: rayon
    /// backend (the shared-memory production default), no fault plan.
    /// Shorthand for `ExchangeEngine::builder(grid, solver).build()`.
    pub fn new(grid: &'a RealGrid, solver: &'a PoissonSolver) -> Self {
        ExchangeEngine {
            grid,
            solver,
            backend: ExecBackend::Rayon,
            fault: None,
        }
    }

    /// Fluent, validated configuration — the front door for the knobs
    /// (backend, fault plan).
    pub fn builder(grid: &'a RealGrid, solver: &'a PoissonSolver) -> EngineBuilder<'a> {
        EngineBuilder(Self::new(grid, solver))
    }

    /// Validate the orbital set against the engine's grid.
    fn validate_orbitals(&self, orbitals: &[Vec<f64>]) -> Result<()> {
        if orbitals.is_empty() {
            return Err(Error::EmptyOrbitals);
        }
        let expected = self.grid.len();
        for (idx, o) in orbitals.iter().enumerate() {
            if o.len() != expected {
                return Err(Error::OrbitalSizeMismatch {
                    expected,
                    got: o.len(),
                    orbital: idx,
                });
            }
        }
        Ok(())
    }

    /// Execute stage — the one place the engine dispatches on its
    /// [`ExecBackend`]: run items `0..nitems` and return their outputs as
    /// one flat vector, `width` words per item *in canonical item order*,
    /// accumulating kernel timings and scratch-growth counts into
    /// `profile`. `eval` fills item `i`'s `width`-word slot and is the
    /// identical closure on every backend; with canonical-order
    /// reassembly that is what makes the backends bit-identical. The
    /// energy paths run two-pair chunks (`width` 2 — a scheduling grain
    /// only: what a rank is assigned, streams and steals), the K path one
    /// `nao`-word column per `(j, ν)` task.
    fn execute<S, I, F>(
        &self,
        nitems: usize,
        width: usize,
        init: I,
        eval: F,
        profile: &mut BuildProfile,
    ) -> Result<Vec<f64>>
    where
        S: Send,
        I: Fn() -> S + Send + Sync,
        F: Fn(&mut S, usize, &mut [f64]) -> (KernelTimings, usize) + Send + Sync,
    {
        match self.backend {
            ExecBackend::Serial => {
                let mut flat = vec![0.0; nitems * width];
                run_serial(&mut init(), &mut flat, width, &eval, profile);
                Ok(flat)
            }
            ExecBackend::Rayon => {
                let mut flat = vec![0.0; nitems * width];
                let notes: Vec<(KernelTimings, usize)> = flat
                    .par_chunks_mut(width)
                    .enumerate()
                    .map_init(&init, |sc, (i, out)| eval(sc, i, out))
                    .collect();
                for (t, grew) in notes {
                    profile.note_kernel(t, grew);
                }
                Ok(flat)
            }
            ExecBackend::Comm { nranks, strategy } => {
                let job = pipeline::PipelineJob {
                    nitems,
                    width,
                    nranks,
                    strategy,
                    fault: self.fault,
                };
                pipeline::run_pipelined(&job, &init, &eval, profile)
            }
        }
    }

    /// Per-pair weighted contributions `−w_ij (ij|ij)` over an explicit
    /// pair slice, in pair order — the recompute stage the incremental
    /// build points at its dirty set. Fills the execute-phase fields of
    /// `profile` (times, growth); the caller owns the counters.
    pub fn pair_contribs(
        &self,
        orbitals: &[Vec<f64>],
        pairs: &[Pair],
        profile: &mut BuildProfile,
    ) -> Vec<f64> {
        self.try_pair_contribs(orbitals, pairs, profile)
            .unwrap_or_else(|e| panic!("exchange pair build failed: {e}"))
    }

    /// Fallible twin of [`ExchangeEngine::pair_contribs`]: orbital-shape
    /// and configuration problems, and unrecovered communication
    /// failures, come back as typed [`Error`]s.
    pub fn try_pair_contribs(
        &self,
        orbitals: &[Vec<f64>],
        pairs: &[Pair],
        profile: &mut BuildProfile,
    ) -> Result<Vec<f64>> {
        // An empty dirty set of an empty orbital set is a valid (empty)
        // build; pairs always need their orbitals.
        if !(orbitals.is_empty() && pairs.is_empty()) {
            self.validate_orbitals(orbitals)?;
        }
        let n = self.grid.len();
        let t0 = Instant::now();
        let mut contribs = self.execute(
            pairs.len().div_ceil(2),
            2,
            HfxScratch::default,
            pair_chunk(n, self.solver, orbitals, pairs),
            profile,
        )?;
        // The last chunk's second slot is padding when the pair count is
        // odd.
        contribs.truncate(pairs.len());
        profile.t_exec_s += t0.elapsed().as_secs_f64();
        Ok(contribs)
    }

    /// Full-cell exchange energy over a screened pair list: execute on the
    /// configured backend, then reduce with an ordered sequential sum (the
    /// same floating-point sequence on every backend).
    pub fn energy(&self, orbitals: &[Vec<f64>], pairs: &PairList) -> HfxResult {
        self.try_energy(orbitals, pairs)
            .unwrap_or_else(|e| panic!("exchange build failed: {e}"))
    }

    /// Fallible twin of [`ExchangeEngine::energy`].
    pub fn try_energy(&self, orbitals: &[Vec<f64>], pairs: &PairList) -> Result<HfxResult> {
        self.validate_orbitals(orbitals)?;
        let mut profile = BuildProfile::default();
        let contribs = self.try_pair_contribs(orbitals, &pairs.pairs, &mut profile)?;
        Ok(self.finish_energy(&contribs, pairs, profile))
    }

    /// Exchange energy over *pair-local patches* instead of full-cell
    /// transforms (the compact-representation path): same staging, with a
    /// per-worker [`PatchScratch`] and per-shape cached patch solvers.
    /// The patch spans the minimum-image center separation plus three
    /// spreads per orbital plus `margin` Bohr on either side; the margin
    /// controls the error against [`ExchangeEngine::energy`] (zero once
    /// every patch is clamped to the cell).
    pub fn energy_patched(
        &self,
        orbitals: &[Vec<f64>],
        infos: &[OrbitalInfo],
        pairs: &PairList,
        margin: f64,
    ) -> HfxResult {
        self.try_energy_patched(orbitals, infos, pairs, margin)
            .unwrap_or_else(|e| panic!("patched exchange build failed: {e}"))
    }

    /// Fallible twin of [`ExchangeEngine::energy_patched`].
    pub fn try_energy_patched(
        &self,
        orbitals: &[Vec<f64>],
        infos: &[OrbitalInfo],
        pairs: &PairList,
        margin: f64,
    ) -> Result<HfxResult> {
        if orbitals.len() != infos.len() {
            return Err(Error::InvalidConfig(format!(
                "{} orbitals but {} OrbitalInfo records",
                orbitals.len(),
                infos.len()
            )));
        }
        self.validate_orbitals(orbitals)?;
        let grid = self.grid;
        let plist = &pairs.pairs;
        let mut profile = BuildProfile::default();
        let t0 = Instant::now();
        let mut contribs = self.execute(
            plist.len().div_ceil(2),
            2,
            PatchScratch::new,
            |scratch, ci, out| {
                let chunk = &plist[2 * ci..(2 * ci + 2).min(plist.len())];
                for (slot, p) in out.iter_mut().zip(chunk) {
                    let (i, j) = (p.i as usize, p.j as usize);
                    let (midpoint, extent) = patch_geometry(grid, &infos[i], &infos[j], margin);
                    let e_pair = patch_pair_energy_ws(
                        grid,
                        &orbitals[i],
                        &orbitals[j],
                        midpoint,
                        extent,
                        scratch,
                    );
                    *slot = -p.weight * e_pair;
                }
                (scratch.take_timings(), 0)
            },
            &mut profile,
        )?;
        contribs.truncate(plist.len());
        profile.t_exec_s += t0.elapsed().as_secs_f64();
        Ok(self.finish_energy(&contribs, pairs, profile))
    }

    /// Strict zero-allocation energy build: serial execution into a
    /// caller-owned [`EngineScratch`]. A warm repeat build (same grid,
    /// same pair count) performs no heap allocations at all — the property
    /// the counting-allocator test pins down.
    pub fn energy_into(
        &self,
        orbitals: &[Vec<f64>],
        pairs: &PairList,
        scratch: &mut EngineScratch,
    ) -> HfxResult {
        self.try_energy_into(orbitals, pairs, scratch)
            .unwrap_or_else(|e| panic!("exchange build failed: {e}"))
    }

    /// Fallible twin of [`ExchangeEngine::energy_into`].
    pub fn try_energy_into(
        &self,
        orbitals: &[Vec<f64>],
        pairs: &PairList,
        scratch: &mut EngineScratch,
    ) -> Result<HfxResult> {
        self.validate_orbitals(orbitals)?;
        let npairs = pairs.len();
        let padded = 2 * npairs.div_ceil(2);
        let mut profile = BuildProfile::default();
        let t0 = Instant::now();
        profile.steady_allocs += (padded > scratch.contribs.capacity()) as usize;
        scratch.contribs.clear();
        scratch.contribs.resize(padded, 0.0);
        run_serial(
            &mut scratch.pair,
            &mut scratch.contribs,
            2,
            &pair_chunk(self.grid.len(), self.solver, orbitals, &pairs.pairs),
            &mut profile,
        );
        scratch.contribs.truncate(npairs);
        profile.t_exec_s += t0.elapsed().as_secs_f64();
        Ok(self.finish_energy(&scratch.contribs, pairs, profile))
    }

    /// Reduce stage of the energy paths: ordered sequential sum of the
    /// canonical contribution vector, plus the profile counters every
    /// build reports.
    fn finish_energy(
        &self,
        contribs: &[f64],
        pairs: &PairList,
        mut profile: BuildProfile,
    ) -> HfxResult {
        let tr = Instant::now();
        let energy: f64 = contribs.iter().sum();
        profile.t_reduce_s += tr.elapsed().as_secs_f64();
        profile.bytes_reduced += std::mem::size_of_val(contribs);
        profile.pairs_computed = pairs.len();
        profile.pairs_screened = pairs.n_candidates - pairs.len();
        profile.pairs_considered = pairs.considered;
        HfxResult { energy, profile }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_grid::patch::Patch;
    use liair_math::Vec3;

    #[test]
    fn boundary_straddling_pair_gets_its_interior_twins_patch() {
        // Three sites per axis, 4.4 Bohr apart, periodic: the (2, 0) bond
        // crosses the cell boundary and is the same bond as (0, 1).
        let a = 4.4;
        let grid = RealGrid::cubic(liair_basis::Cell::cubic(3.0 * a), 20);
        let site = |i: usize| OrbitalInfo {
            center: Vec3::new((i as f64 + 0.5) * a, 0.5 * a, 0.5 * a),
            spread: 0.7,
        };
        for margin in [0.0, 1.0] {
            let (mid_in, ext_in) = patch_geometry(&grid, &site(0), &site(1), margin);
            let (mid_out, ext_out) = patch_geometry(&grid, &site(2), &site(0), margin);
            assert_eq!(ext_in, ext_out, "margin {margin}");
            // Centred on the bond, in the minimum image.
            for (mid, end) in [(mid_in, site(0)), (mid_out, site(0)), (mid_out, site(2))] {
                let r = grid.cell.distance(mid, end.center);
                assert!((r - 0.5 * a).abs() < 1e-12, "margin {margin}: {r}");
            }
        }
        // Under the raw-coordinate rule this patch was the whole cell.
        let (mid, ext) = patch_geometry(&grid, &site(2), &site(0), 0.0);
        assert!(Patch::plan(&grid, mid, ext).extent < grid.dims.0);
    }
}
