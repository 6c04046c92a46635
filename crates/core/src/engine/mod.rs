//! The staged exchange-build engine — the only way to run an exchange
//! build.
//!
//! Full-cell pair energies, patched pair energies, the K operator and the
//! incremental dirty-set recompute (`crate::incremental`) are methods of
//! one [`ExchangeEngine`], which owns the scratch lifetimes, the pair
//! kernel and the reduction order of one staged pipeline:
//!
//! 1. **pair source** — a screened [`PairList`] of orbital pairs
//!    `(i ≤ j)`, or an explicit dirty slice of one (incremental); the
//!    energy and the K operator share it;
//! 2. **execute** — an [`ExecBackend`]: serial, rayon, or message-passing
//!    over `liair-runtime` ranks, all running the *identical* per-pair
//!    kernel: one Poisson problem per pair, contracted to `−w (ij|ij)`
//!    for the energy or projected on the AOs and their gradients
//!    (`8·nao` words) for K;
//! 3. **accumulate** — per-pair outputs reassembled in canonical
//!    pair-list order and summed sequentially (the energy, or K's
//!    `B = K C` and exchange gradient before the ACE assembly of
//!    `engine::kpath`) — so every
//!    backend produces the same floating-point sequence, which is what
//!    makes the cross-backend equivalence suite exact rather than
//!    tolerance-based.
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

pub use kpath::{BasisOnGrid, KBuildOutcome};
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
    /// One worker, ascending chunk order — the reference execution.
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

/// The thread count the calling thread's rayon loops run on
/// ([`ExecBackend::Rayon`] builds among them): the pool it installed, else
/// the host's.
pub fn rayon_threads() -> usize {
    rayon::current_num_threads()
}

/// Run `f` with its rayon loops on `threads` threads. A thread working
/// for another (a serve worker) passes the submitter's [`rayon_threads`],
/// which no plain thread inherits.
pub fn with_rayon_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a rayon pool of any positive size builds")
        .install(f)
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

/// Per-worker scratch of the energy and K pair items alike: one pair
/// density plus the Poisson workspace. Grow-once, reused across all items
/// a worker takes.
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

/// What a pair item computes: the energy path's weighted `−w (ij|ij)`
/// over these orbital fields (one word per pair), or the K path's AO
/// projections over this build's orbitals (`8·nao` words per pair, see
/// `engine::kpath`).
pub(crate) enum PairWork<'s> {
    Energy(&'s [Vec<f64>]),
    Operator(&'s kpath::KBuildSetup<'s>),
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
    /// pair per `8·nao`-word item.
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
                let mut sc = init();
                for (i, out) in flat.chunks_exact_mut(width).enumerate() {
                    let (t, grew) = eval(&mut sc, i, out);
                    profile.note_kernel(t, grew);
                }
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

    /// Per-pair outputs over an explicit pair slice, in slice order,
    /// `work`'s width per pair — the recompute stage of every build, the
    /// incremental one pointed at its dirty set. Fills the execute-phase
    /// fields of `profile` (times, growth); the caller owns the counters.
    /// Orbital-shape problems and unrecovered communication failures come
    /// back as typed [`Error`]s; an empty slice runs nothing.
    pub(crate) fn pair_contribs(
        &self,
        work: PairWork,
        pairs: &[Pair],
        profile: &mut BuildProfile,
    ) -> Result<Vec<f64>> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let (n, solver) = (self.grid.len(), self.solver);
        let t0 = Instant::now();
        let out = match work {
            PairWork::Energy(orbitals) => {
                self.validate_orbitals(orbitals)?;
                let mut contribs = self.execute(
                    pairs.len().div_ceil(2),
                    2,
                    HfxScratch::default,
                    pair_chunk(n, solver, orbitals, pairs),
                    profile,
                )?;
                // The last chunk's second slot is padding when the pair
                // count is odd.
                contribs.truncate(pairs.len());
                contribs
            }
            PairWork::Operator(setup) => self.execute(
                pairs.len(),
                kpath::k_item_width(setup.nao()),
                HfxScratch::default,
                kpath::k_pair_item(self.grid, solver, setup, pairs),
                profile,
            )?,
        };
        profile.t_exec_s += t0.elapsed().as_secs_f64();
        Ok(out)
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
        let contribs =
            self.pair_contribs(PairWork::Energy(orbitals), &pairs.pairs, &mut profile)?;
        Ok(self.finish_energy(&contribs, pairs, profile))
    }

    /// Exchange energy over *pair-local patches* instead of full-cell
    /// transforms (the compact-representation path): same staging, with a
    /// per-worker [`PatchScratch`] and per-shape cached patch solvers.
    /// The patch spans the minimum-image center separation plus three
    /// spreads per orbital plus `margin` Bohr on either side; the margin
    /// controls the error against [`ExchangeEngine::energy`] (zero once
    /// every patch is clamped to the cell). Orbital-shape problems and
    /// unrecovered communication failures come back as typed [`Error`]s.
    pub fn energy_patched(
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
        profile.count_pairs(pairs, pairs.len(), 0);
        HfxResult { energy, profile }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalExchange;
    use crate::screening::source_pairs;
    use liair_basis::{Atom, Basis, Cell, Element, Molecule};
    use liair_grid::patch::Patch;
    use liair_math::rng::SplitMix64;
    use liair_math::{Mat, Vec3};

    /// Normalized Gaussian (exponent 1.1) at `c`, periodic on `grid`.
    fn gaussian(grid: &RealGrid, c: Vec3) -> Vec<f64> {
        let norm = (2.2 / std::f64::consts::PI).powf(0.75);
        (0..grid.len())
            .map(|i| {
                let d = grid.cell.min_image(c, grid.point_flat(i));
                norm * (-1.1 * d.norm_sqr()).exp()
            })
            .collect()
    }

    /// Four Gaussians at random centres of a 14-Bohr cell on a 16³ grid,
    /// every pair kept.
    fn four_gaussians() -> (
        RealGrid,
        PoissonSolver,
        Vec<Vec<f64>>,
        Vec<OrbitalInfo>,
        PairList,
    ) {
        let grid = RealGrid::cubic(Cell::cubic(14.0), 16);
        let mut rng = SplitMix64::new(171);
        let infos: Vec<OrbitalInfo> = (0..4)
            .map(|_| OrbitalInfo {
                center: Vec3::new(
                    rng.range_f64(4.0, 10.0),
                    rng.range_f64(4.0, 10.0),
                    rng.range_f64(4.0, 10.0),
                ),
                spread: 0.7,
            })
            .collect();
        let fields = infos.iter().map(|o| gaussian(&grid, o.center)).collect();
        let pairs = source_pairs(&infos, 0.0, Some(&grid.cell));
        (grid, PoissonSolver::isolated(grid), fields, infos, pairs)
    }

    /// The backends the slice-independence contract is held on, each with
    /// an optional fault plan.
    fn backends_and_faults() -> Vec<(ExecBackend, Option<FaultPlan>)> {
        let mut out = vec![(ExecBackend::Serial, None), (ExecBackend::Rayon, None)];
        for nranks in [1, 2, 3] {
            let b = ExecBackend::Comm {
                nranks,
                strategy: BalanceStrategy::GreedyLpt,
            };
            out.push((b, None));
            out.push((b, Some(FaultPlan::with_stalls(13))));
        }
        out
    }

    fn engine<'a>(
        grid: &'a RealGrid,
        solver: &'a PoissonSolver,
        backend: ExecBackend,
        fault: Option<FaultPlan>,
    ) -> ExchangeEngine<'a> {
        let mut b = ExchangeEngine::builder(grid, solver).backend(backend);
        if let Some(plan) = fault {
            b = b.fault_plan(plan);
        }
        b.build().unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|c| c.to_bits()).collect()
    }

    /// Every sub-slice of `all` (so every pair meets every chunk position
    /// and partner; odd-length prefixes are the `0..end` rows) and the
    /// reversed list give the full build's outputs, `width` words per pair.
    fn assert_slice_independent(
        what: &str,
        width: usize,
        all: &[Pair],
        full: &[f64],
        run: impl Fn(&[Pair]) -> Vec<f64>,
    ) {
        assert_eq!(bits(&run(all)), bits(full), "{what}: full list");
        for start in 0..all.len() {
            for end in start + 1..=all.len() {
                assert_eq!(
                    bits(&run(&all[start..end])),
                    bits(&full[start * width..end * width]),
                    "{what}: slice {start}..{end}"
                );
            }
        }
        let reversed: Vec<Pair> = all.iter().rev().copied().collect();
        let want: Vec<f64> = full.chunks_exact(width).rev().flatten().copied().collect();
        assert_eq!(bits(&run(&reversed)), bits(&want), "{what}: reversed list");
    }

    #[test]
    fn pair_contribution_is_slice_independent() {
        // A pair's output is a pure function of the pair: whichever slice
        // of the list it is evaluated in, at whichever position, on
        // whichever backend, it carries the same bits — the energy path's
        // contribution and the K path's AO projections alike. 16³ is a
        // grid where a chunk-partner-dependent kernel shows up in the last
        // 1–2 bits.
        let (grid, solver, fields, infos, pairs) = four_gaussians();
        let all = &pairs.pairs;
        let serial = engine(&grid, &solver, ExecBackend::Serial, None);
        let contribs = |e: &ExchangeEngine, orbs: &[Vec<f64>], slice: &[Pair]| {
            e.pair_contribs(PairWork::Energy(orbs), slice, &mut BuildProfile::default())
                .unwrap()
        };
        let full = contribs(&serial, &fields, all);

        // K items over four hand-placed bond orbitals of an H₈ chain.
        let mut mol = Molecule::new();
        for k in 0..8 {
            mol.atoms.push(Atom {
                element: Element::H,
                pos: Vec3::new(3.0 + 3.0 * (k / 2) as f64 + 1.4 * (k % 2) as f64, 5.0, 5.0),
            });
        }
        let basis = Basis::sto3g(&mol);
        let mut c_occ = Mat::zeros(basis.nao(), 4);
        for k in 0..4 {
            c_occ[(2 * k, k)] = 0.6;
            c_occ[(2 * k + 1, k)] = 0.6;
        }
        let kgrid = RealGrid::new(Cell::orthorhombic(16.0, 10.0, 10.0), (16, 8, 8));
        let ksolver = PoissonSolver::isolated(kgrid);
        let on_grid = kpath::BasisOnGrid::new(&basis, &kgrid);
        let setup = kpath::k_build_setup(&on_grid, &c_occ, 4, 0.0);
        let kpairs = setup.pairs(0.0);
        let width = kpath::k_item_width(setup.nao());
        let items = |e: &ExchangeEngine, slice: &[Pair]| {
            e.pair_contribs(
                PairWork::Operator(&setup),
                slice,
                &mut BuildProfile::default(),
            )
            .unwrap()
        };
        let kfull = items(
            &engine(&kgrid, &ksolver, ExecBackend::Serial, None),
            &kpairs.pairs,
        );

        for (backend, fault) in backends_and_faults() {
            let what = format!("{backend:?} fault={}", fault.is_some());
            let e = engine(&grid, &solver, backend, fault);
            assert_slice_independent(&what, 1, all, &full, |slice| contribs(&e, &fields, slice));
            let ke = engine(&kgrid, &ksolver, backend, fault);
            assert_slice_independent(
                &format!("K {what}"),
                width,
                &kpairs.pairs,
                &kfull,
                |slice| items(&ke, slice),
            );
        }

        // Warm incremental build with a partial dirty set: move one orbital,
        // so only its pairs are recomputed — as a short list with different
        // chunk partners than in the full one. (The tolerance is the
        // smallest that still reuses: eps_inc = 0 would recompute
        // everything and hide the dirty slice.) Every contribution the
        // cache then holds must be the from-scratch build's, bit for bit; a
        // one-pair list reads one cached entry back as the build's energy.
        let mut moved = fields.clone();
        moved[1] = gaussian(&grid, infos[1].center + Vec3::new(0.3, -0.2, 0.1));
        let scratch = contribs(&serial, &moved, all);
        let clean_backends = backends_and_faults()
            .into_iter()
            .filter(|(_, fault)| fault.is_none());
        for (backend, _) in clean_backends {
            let mut inc = IncrementalExchange::new(1e-12, 0);
            inc.set_backend(backend);
            inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs)
                .expect("fault-free build");
            let warm = inc
                .exchange_energy(&grid, &solver, &moved, &infos, &pairs)
                .expect("fault-free build");
            let touching = all.iter().filter(|p| p.i == 1 || p.j == 1).count();
            assert_eq!(warm.profile.pairs_computed, touching, "{backend:?}");
            assert_eq!(
                warm.profile.pairs_reused,
                all.len() - touching,
                "{backend:?}"
            );
            for (p, want) in all.iter().zip(&scratch) {
                let one = PairList {
                    pairs: vec![*p],
                    ..pairs.clone()
                };
                let held = inc
                    .exchange_energy(&grid, &solver, &moved, &infos, &one)
                    .expect("fault-free build");
                assert_eq!(
                    held.profile.pairs_reused, 1,
                    "{backend:?}: ({}, {})",
                    p.i, p.j
                );
                assert_eq!(
                    held.energy.to_bits(),
                    want.to_bits(),
                    "{backend:?}: cached ({}, {}) is not the from-scratch contribution",
                    p.i,
                    p.j
                );
            }
        }
    }

    #[test]
    fn pair_contribs_rejects_malformed_orbitals_on_every_backend() {
        // Shape problems are typed errors before the execute stage starts,
        // on every backend (on `Comm` before any rank is launched).
        let (grid, solver, fields, _, pairs) = four_gaussians();
        let mut short = fields.clone();
        short[2].pop();
        let mismatch = Error::OrbitalSizeMismatch {
            expected: grid.len(),
            got: grid.len() - 1,
            orbital: 2,
        };
        let none: Vec<Vec<f64>> = Vec::new();
        let comm2 = ExecBackend::Comm {
            nranks: 2,
            strategy: BalanceStrategy::GreedyLpt,
        };
        for backend in [ExecBackend::Serial, ExecBackend::Rayon, comm2] {
            let e = engine(&grid, &solver, backend, None);
            let mut profile = BuildProfile::default();
            for (bad, err) in [(&short, &mismatch), (&none, &Error::EmptyOrbitals)] {
                let got = e.pair_contribs(PairWork::Energy(bad), &pairs.pairs, &mut profile);
                assert_eq!(got.as_ref(), Err(err), "{backend:?}");
            }
            // An empty slice runs nothing, so there is nothing to check.
            assert_eq!(
                e.pair_contribs(PairWork::Energy(&none), &[], &mut profile),
                Ok(vec![])
            );
        }
    }

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
