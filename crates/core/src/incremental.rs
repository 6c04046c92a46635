//! Incremental exact exchange: dirty-pair tracking and contribution caching
//! across SCF iterations and MD steps.
//!
//! The pair-screened exchange build exploits locality in *space* (distant
//! orbital pairs are dropped); this module exploits the matching locality
//! in *time*: between consecutive SCF iterations — and especially between
//! consecutive MD steps — most localized orbitals barely move, yet the
//! from-scratch builds re-solve one Poisson problem per surviving pair
//! every call.
//!
//! [`IncrementalExchange`] persists per-pair state across builds:
//!
//! * **energy path** — for each screened pair `(i, j)` the weighted
//!   contribution `−w_ij (ij|ij)` is cached;
//! * **operator path** — for each occupied orbital `j` the (unsymmetrized)
//!   K-matrix contribution `ΔK_j = Σ_ν` column of `(μ j | j ν)` tasks is
//!   cached, so a clean orbital re-enters `K` without a single Poisson
//!   solve.
//!
//! Each cached entry carries a [`Fingerprint`] of the orbital(s) it was
//! computed from: localization center, spread, and a coarse 4×4×4
//! grid-coefficient mass signature (per-cell `∫ φ²`). On the next build a
//! pair/orbital is **clean** when its fingerprint distance from the cached
//! state stays within the tolerance `eps_inc` (cached contribution reused)
//! and **dirty** otherwise (recomputed through the workspace fast path,
//! rayon-parallel over the dirty work only).
//!
//! Three rules bound the error:
//!
//! 1. *Invalidation* — dirtiness is measured against the fingerprint the
//!    cached contribution was **computed at**, not the previous build, so
//!    slow drift accumulates in the comparison and eventually triggers a
//!    recompute instead of being reused forever;
//! 2. *Global invalidation* — any change of grid shape, basis size,
//!    orbital count, or screening threshold discards the whole cache;
//! 3. *Cadence* — `rebuild_every > 0` forces a full recompute every
//!    N builds, bounding worst-case drift regardless of the tolerance.
//!
//! `eps_inc = 0` disables reuse entirely: every pair is dirty and the
//! build is exactly the from-scratch one (bit-identical for the operator
//! path — property-tested).

use crate::engine::{BasisOnGrid, BuildProfile, ExchangeEngine, ExecBackend, KBuildOutcome};
use crate::hfx::HfxResult;
use crate::screening::{OrbitalInfo, Pair, PairList};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::{Mat, Vec3};
use std::collections::HashMap;
use std::time::Instant;

/// Cells per axis of the coarse mass signature (4³ = 64 cells).
const SIG_PER_AXIS: usize = 4;
/// Total signature cells.
const SIG_CELLS: usize = SIG_PER_AXIS * SIG_PER_AXIS * SIG_PER_AXIS;

/// Coarse, sign-invariant summary of one orbital field used to decide
/// whether a cached contribution is still valid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    /// Localization center (Bohr); `Vec3::ZERO` when unknown.
    pub center: Vec3,
    /// Localization spread (Bohr); `1.0` when unknown.
    pub spread: f64,
    /// Total mass `∫ φ² dV`.
    pub mass: f64,
    /// Per-coarse-cell mass `∫_cell φ² dV` (quadratic in φ, so invariant
    /// under the arbitrary sign the eigensolver/localizer assigns).
    sig: [f64; SIG_CELLS],
}

impl Fingerprint {
    /// Fingerprint an orbital field sampled on `grid`. `info` supplies the
    /// localization center/spread when the caller has them.
    pub fn of_field(grid: &RealGrid, field: &[f64], info: Option<&OrbitalInfo>) -> Self {
        assert_eq!(field.len(), grid.len());
        let (nx, ny, nz) = grid.dims;
        let mut sig = [0.0; SIG_CELLS];
        let mut idx = 0;
        for ix in 0..nx {
            let cx = ix * SIG_PER_AXIS / nx;
            for iy in 0..ny {
                let cy = iy * SIG_PER_AXIS / ny;
                let row = (cx * SIG_PER_AXIS + cy) * SIG_PER_AXIS;
                for iz in 0..nz {
                    let cz = iz * SIG_PER_AXIS / nz;
                    let v = field[idx];
                    sig[row + cz] += v * v;
                    idx += 1;
                }
            }
        }
        let dvol = grid.dvol();
        let mut mass = 0.0;
        for s in sig.iter_mut() {
            *s *= dvol;
            mass += *s;
        }
        let (center, spread) = match info {
            Some(o) => (o.center, o.spread.max(0.3)),
            None => (Vec3::ZERO, 1.0),
        };
        Fingerprint {
            center,
            spread,
            mass,
            sig,
        }
    }

    /// Dimensionless distance between two fingerprints: relative movement
    /// of the coarse mass distribution plus center displacement in units
    /// of the spread. ~0 for an unchanged orbital, O(1) for a relocated
    /// one; a uniform amplitude change `φ → (1+γ)φ` scores ≈ 2γ.
    pub fn distance(&self, other: &Fingerprint) -> f64 {
        let mut dd = 0.0;
        for (a, b) in self.sig.iter().zip(&other.sig) {
            let d = a - b;
            dd += d * d;
        }
        let scale = self.mass.max(other.mass).max(1e-300);
        let d_field = dd.sqrt() / scale;
        let d_center = self.center.distance(other.center) / self.spread.max(other.spread);
        d_field + d_center
    }
}

/// Deterministic reuse counters accumulated across the builds of one
/// [`IncrementalExchange`] ([`IncrementalExchange::totals`]). One build's
/// counts are in the [`BuildProfile`] it returns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IncStats {
    /// Pairs (or operator tasks) whose cached contribution was reused.
    pub pairs_reused: usize,
    /// Pairs (or operator tasks) recomputed through the workspace path.
    pub pairs_recomputed: usize,
    /// Pairs invalidated wholesale (cache miss, cadence, or a global
    /// invalidation — grid/basis/ε change) rather than by fingerprint.
    pub pairs_invalidated: usize,
}

impl IncStats {
    /// Add another build's counters into this accumulator.
    pub fn accumulate(&mut self, other: &IncStats) {
        self.pairs_reused += other.pairs_reused;
        self.pairs_recomputed += other.pairs_recomputed;
        self.pairs_invalidated += other.pairs_invalidated;
    }

    /// The counters accumulated since a previous cumulative snapshot
    /// `baseline` — the work attributable to what ran between the two
    /// reads (e.g. one MD outer step against the trajectory totals).
    pub fn since(&self, baseline: &IncStats) -> IncStats {
        IncStats {
            pairs_reused: self.pairs_reused.saturating_sub(baseline.pairs_reused),
            pairs_recomputed: self
                .pairs_recomputed
                .saturating_sub(baseline.pairs_recomputed),
            pairs_invalidated: self
                .pairs_invalidated
                .saturating_sub(baseline.pairs_invalidated),
        }
    }
}

/// Cached state of the pair-energy path.
struct EnergyCache {
    dims: (usize, usize, usize),
    norb: usize,
    eps_screen: f64,
    /// Fingerprint each cached contribution was computed at.
    fps: Vec<Fingerprint>,
    /// `(i, j) → −w_ij (ij|ij)` exactly as the from-scratch loop computes it.
    contrib: HashMap<(u32, u32), f64>,
    builds_since_full: usize,
}

/// Cached state of the K-operator path.
struct KCache {
    dims: (usize, usize, usize),
    nao: usize,
    nocc: usize,
    eps_screen: f64,
    fps: Vec<Fingerprint>,
    /// Unsymmetrized `ΔK_j` per occupied orbital (`K = Σ_j ΔK_j`).
    contribs: Vec<Mat>,
    /// Evaluated (unscreened) task count behind each cached `ΔK_j`.
    tasks: Vec<usize>,
    builds_since_full: usize,
}

/// Persistent incremental-exchange state. One instance lives across the
/// SCF iterations of a driver (and across the MD steps of a trajectory)
/// and owns both the energy-path and operator-path caches.
pub struct IncrementalExchange {
    /// Clean/dirty fingerprint tolerance. `0` disables reuse (every build
    /// is from scratch); typical SCF values are 1e-4..1e-2.
    pub eps_inc: f64,
    /// Force a full rebuild every N builds (`0` = never force). Bounds
    /// error drift independently of `eps_inc`.
    pub rebuild_every: usize,
    energy: Option<EnergyCache>,
    k: Option<KCache>,
    /// Cumulative counters across all builds since construction.
    pub totals: IncStats,
    /// Execution backend of the dirty recompute (None = rayon). The serve
    /// scheduler points this at its rank-pool lease
    /// (`ExecBackend::Comm { nranks, .. }`); engine bit-identity across
    /// backends means the cache stays valid across backend changes.
    backend: Option<ExecBackend>,
    // Grow-once scratch reused across builds (zero allocations in the
    // all-clean steady state).
    fp_scratch: Vec<Fingerprint>,
    dirty_orb: Vec<bool>,
    dirty_pairs: Vec<Pair>,
    dirty_slots: Vec<usize>,
}

impl std::fmt::Debug for IncrementalExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalExchange")
            .field("eps_inc", &self.eps_inc)
            .field("rebuild_every", &self.rebuild_every)
            .field("totals", &self.totals)
            .finish()
    }
}

/// The clean/dirty gate of both paths. `valid` is the baseline of a cache
/// whose key still matches this build — the fingerprints its entries were
/// computed at and its builds since the last full one — or `None` when the
/// key moved (grid, orbital count, ε) or nothing is cached. Marks in
/// `dirty` every orbital of `now` whose fingerprint moved more than
/// `eps_inc` from that baseline and returns whether the build is *full*
/// (everything dirty): no valid cache, the rebuild cadence is due, or
/// reuse is off (`eps_inc ≤ 0`). Allocates only when `dirty` grows.
fn mark_dirty(
    eps_inc: f64,
    rebuild_every: usize,
    valid: Option<(&[Fingerprint], usize)>,
    now: &[Fingerprint],
    dirty: &mut Vec<bool>,
) -> bool {
    let cadence_due = |since_full: usize| rebuild_every > 0 && since_full + 1 >= rebuild_every;
    let baseline = valid
        .filter(|&(_, since_full)| eps_inc > 0.0 && !cadence_due(since_full))
        .map(|(fps, _)| fps);
    dirty.clear();
    match baseline {
        Some(fps) => dirty.extend(fps.iter().zip(now).map(|(c, n)| c.distance(n) > eps_inc)),
        None => dirty.resize(now.len(), true),
    }
    baseline.is_none()
}

impl IncrementalExchange {
    /// Fresh state with tolerance `eps_inc` and full-rebuild cadence
    /// `rebuild_every` (`0` = no forced rebuilds).
    pub fn new(eps_inc: f64, rebuild_every: usize) -> Self {
        assert!(eps_inc >= 0.0, "eps_inc must be non-negative");
        Self {
            eps_inc,
            rebuild_every,
            energy: None,
            k: None,
            totals: IncStats::default(),
            backend: None,
            fp_scratch: Vec::new(),
            dirty_orb: Vec::new(),
            dirty_pairs: Vec::new(),
            dirty_slots: Vec::new(),
        }
    }

    /// Route the dirty recompute through `backend` instead of the default
    /// rayon pool. This does *not* invalidate the cache: every backend
    /// produces bit-identical contributions (a pair's contribution is a
    /// pure function of the pair), so cached entries remain exact.
    pub fn set_backend(&mut self, backend: ExecBackend) {
        self.backend = Some(backend);
    }

    /// The configured engine over `grid`/`solver` (rayon backend unless
    /// one was set).
    fn engine<'a>(&self, grid: &'a RealGrid, solver: &'a PoissonSolver) -> ExchangeEngine<'a> {
        let mut builder = ExchangeEngine::builder(grid, solver);
        if let Some(b) = self.backend {
            builder = builder.backend(b);
        }
        builder
            .build()
            .expect("a default engine over the configured backend is a valid configuration")
    }

    /// Incremental twin of [`ExchangeEngine::energy`]: clean pairs
    /// are summed from the cache, dirty pairs are recomputed
    /// (rayon-parallel over the dirty work only) and re-cached. `infos`
    /// supplies per-orbital centers/spreads for the fingerprints (same
    /// length as `orbitals`).
    pub fn exchange_energy(
        &mut self,
        grid: &RealGrid,
        solver: &PoissonSolver,
        orbitals: &[Vec<f64>],
        infos: &[OrbitalInfo],
        pairs: &PairList,
    ) -> HfxResult {
        assert_eq!(orbitals.len(), infos.len());
        let norb = orbitals.len();
        self.fingerprint_all(grid, orbitals, Some(infos));

        let valid = self
            .energy
            .as_ref()
            .filter(|c| c.dims == grid.dims && c.norb == norb && c.eps_screen == pairs.eps)
            .map(|c| (c.fps.as_slice(), c.builds_since_full));
        let full = mark_dirty(
            self.eps_inc,
            self.rebuild_every,
            valid,
            &self.fp_scratch,
            &mut self.dirty_orb,
        );

        // Classify pairs; sum clean contributions straight from the cache.
        self.dirty_pairs.clear();
        let mut clean_sum = 0.0;
        let mut reused = 0;
        let mut invalidated = 0;
        for p in &pairs.pairs {
            let key = (p.i, p.j);
            let cached = if full {
                None
            } else {
                self.energy
                    .as_ref()
                    .expect("a non-full build implies a validated energy cache")
                    .contrib
                    .get(&key)
                    .copied()
            };
            match cached {
                Some(c) if !self.dirty_orb[p.i as usize] && !self.dirty_orb[p.j as usize] => {
                    clean_sum += c;
                    reused += 1;
                }
                _ => {
                    if full || cached.is_none() {
                        invalidated += 1;
                    }
                    self.dirty_pairs.push(*p);
                }
            }
        }

        // Recompute the dirty pairs through the engine. A contribution is
        // a pure function of its pair, so whichever subset is dirty, each
        // recomputed entry carries the bits a from-scratch build gives it.
        let n_dirty = self.dirty_pairs.len();
        let mut profile = BuildProfile::default();
        let contribs = if n_dirty > 0 {
            self.engine(grid, solver)
                .pair_contribs(orbitals, &self.dirty_pairs, &mut profile)
        } else {
            Vec::new()
        };

        // Install the recomputed contributions. A full build starts a
        // fresh cache; the steady all-clean rebuild touches nothing here
        // (no allocations).
        if full || self.energy.is_none() {
            self.energy = Some(EnergyCache {
                dims: grid.dims,
                norb,
                eps_screen: pairs.eps,
                fps: self.fp_scratch.clone(),
                contrib: HashMap::new(),
                builds_since_full: 0,
            });
        }
        let cache = self
            .energy
            .as_mut()
            .expect("the energy cache was just installed above");
        let mut dirty_sum = 0.0;
        for (p, c) in self.dirty_pairs.iter().zip(&contribs) {
            cache.contrib.insert((p.i, p.j), *c);
            dirty_sum += *c;
        }
        // Refresh the fingerprint baselines of *dirty* orbitals only (all
        // their pairs were just recomputed). Clean orbitals keep the
        // fingerprint their cached data was computed at, so slow drift
        // accumulates in the comparison instead of being re-baselined away.
        for (j, &d) in self.dirty_orb.iter().enumerate() {
            if d {
                cache.fps[j] = self.fp_scratch[j];
            }
        }
        cache.builds_since_full = if full { 0 } else { cache.builds_since_full + 1 };

        self.totals.accumulate(&IncStats {
            pairs_reused: reused,
            pairs_recomputed: n_dirty,
            pairs_invalidated: invalidated,
        });
        profile.pairs_computed = n_dirty;
        profile.pairs_reused = reused;
        profile.pairs_screened = pairs.n_candidates - pairs.len();
        profile.bytes_reduced += contribs.len() * std::mem::size_of::<f64>();
        HfxResult {
            energy: clean_sum + dirty_sum,
            profile,
        }
    }

    /// Incremental twin of [`ExchangeEngine::k_operator`]: the
    /// `(occupied j, AO ν)` Poisson tasks of a clean orbital are replaced
    /// by its cached `ΔK_j`; dirty orbitals re-run their surviving tasks
    /// (rayon-parallel over dirty tasks only). With `eps_inc = 0` the
    /// result is bit-identical to the from-scratch build. `fields` is the
    /// basis on the cache's grid, `solver` that grid's Poisson solver.
    ///
    /// The profile splits the build's `nocc · nao` tasks into
    /// `pairs_computed` (dirty orbitals' surviving tasks), `pairs_reused`
    /// (clean orbitals' cached ones) and `pairs_screened`; computed plus
    /// reused equals the from-scratch build's `pairs_computed`.
    pub fn exchange_operator(
        &mut self,
        fields: &BasisOnGrid,
        c_occ: &Mat,
        nocc: usize,
        solver: &PoissonSolver,
        eps: f64,
    ) -> KBuildOutcome {
        let grid = fields.grid;
        let mut profile = BuildProfile::default();
        let t_ao = Instant::now();
        let setup = crate::engine::kpath::k_build_setup(fields, c_occ, nocc, eps);
        profile.t_ao_eval_s += t_ao.elapsed().as_secs_f64();
        let nao = setup.nao;
        let infos = (!setup.orb_info.is_empty()).then_some(setup.orb_info.as_slice());
        self.fingerprint_all(grid, &setup.orbitals, infos);

        let valid = self
            .k
            .as_ref()
            .filter(|c| {
                c.dims == grid.dims && c.nao == nao && c.nocc == nocc && c.eps_screen == eps
            })
            .map(|c| (c.fps.as_slice(), c.builds_since_full));
        let full = mark_dirty(
            self.eps_inc,
            self.rebuild_every,
            valid,
            &self.fp_scratch,
            &mut self.dirty_orb,
        );
        self.dirty_slots.clear();
        self.dirty_slots
            .extend((0..nocc).filter(|&j| self.dirty_orb[j]));

        let dirty_results = self
            .engine(grid, solver)
            .k_orbital_contribs(&setup, eps, &self.dirty_slots, &mut profile)
            .unwrap_or_else(|e| panic!("incremental K rebuild failed: {e}"));

        // Install recomputed contributions, then assemble K = Σ_j ΔK_j in
        // ascending-j order (the same floating-point sequence as the
        // from-scratch task accumulation).
        if full || self.k.is_none() {
            self.k = Some(KCache {
                dims: grid.dims,
                nao,
                nocc,
                eps_screen: eps,
                fps: self.fp_scratch.clone(),
                contribs: vec![Mat::zeros(nao, nao); nocc],
                tasks: vec![0; nocc],
                builds_since_full: 0,
            });
        }
        let cache = self
            .k
            .as_mut()
            .expect("the K cache was just installed above");
        for (j, dk, evaluated) in dirty_results {
            cache.contribs[j] = dk;
            cache.tasks[j] = evaluated;
            cache.fps[j] = self.fp_scratch[j];
        }
        // The dirty orbitals' tasks were counted by the rebuild; a clean
        // orbital's cached tasks are reused and its screened ones stay
        // screened.
        let mut k = Mat::zeros(nao, nao);
        for j in 0..nocc {
            k.axpy(1.0, &cache.contribs[j]);
            if !self.dirty_orb[j] {
                profile.pairs_reused += cache.tasks[j];
                profile.pairs_screened += nao - cache.tasks[j];
            }
        }
        crate::engine::kpath::symmetrize(&mut k);

        cache.builds_since_full = if full { 0 } else { cache.builds_since_full + 1 };
        self.totals.accumulate(&IncStats {
            pairs_reused: profile.pairs_reused,
            pairs_recomputed: profile.pairs_computed,
            pairs_invalidated: if full { profile.pairs_computed } else { 0 },
        });
        KBuildOutcome { k, profile }
    }

    /// Compute fingerprints for all orbital fields into the reusable
    /// scratch (no allocations once the scratch has the right length).
    fn fingerprint_all(
        &mut self,
        grid: &RealGrid,
        orbitals: &[Vec<f64>],
        infos: Option<&[OrbitalInfo]>,
    ) {
        let n = orbitals.len();
        if self.fp_scratch.len() != n {
            self.fp_scratch.resize(
                n,
                Fingerprint {
                    center: Vec3::ZERO,
                    spread: 1.0,
                    mass: 0.0,
                    sig: [0.0; SIG_CELLS],
                },
            );
        }
        for (j, field) in orbitals.iter().enumerate() {
            let info = infos.map(|i| &i[j]);
            self.fp_scratch[j] = Fingerprint::of_field(grid, field, info);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screening::build_pair_list;
    use liair_basis::Cell;
    use liair_math::rng::SplitMix64;

    fn gaussian_field(grid: &RealGrid, center: Vec3, sigma: f64) -> Vec<f64> {
        (0..grid.len())
            .map(|p| {
                let r = grid.point_flat(p);
                let d2 = r.distance(center).powi(2);
                (-d2 / (2.0 * sigma * sigma)).exp()
            })
            .collect()
    }

    fn test_setup() -> (RealGrid, PoissonSolver, Vec<Vec<f64>>, Vec<OrbitalInfo>) {
        let grid = RealGrid::cubic(Cell::cubic(12.0), 20);
        let solver = PoissonSolver::isolated(grid);
        let centers = [
            Vec3::new(4.0, 6.0, 6.0),
            Vec3::new(6.0, 6.0, 6.0),
            Vec3::new(8.0, 6.0, 6.0),
        ];
        let fields: Vec<Vec<f64>> = centers
            .iter()
            .map(|&c| gaussian_field(&grid, c, 1.0))
            .collect();
        let infos: Vec<OrbitalInfo> = centers
            .iter()
            .map(|&c| OrbitalInfo {
                center: c,
                spread: 1.0,
            })
            .collect();
        (grid, solver, fields, infos)
    }

    #[test]
    fn identical_rebuild_reuses_everything() {
        let (grid, solver, fields, infos) = test_setup();
        let pairs = build_pair_list(&infos, 0.0, None);
        let mut inc = IncrementalExchange::new(1e-6, 0);
        let first = inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
        assert_eq!(first.profile.pairs_computed, pairs.len());
        assert_eq!(first.profile.pairs_reused, 0);
        let second = inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
        assert_eq!(second.profile.pairs_reused, pairs.len());
        assert_eq!(second.profile.pairs_computed, 0);
        assert_eq!(second.energy, first.energy);
        assert!(inc.totals.pairs_reused == pairs.len());
    }

    #[test]
    fn moved_orbital_dirties_only_its_pairs() {
        let (grid, solver, mut fields, mut infos) = test_setup();
        let pairs = build_pair_list(&infos, 0.0, None);
        let mut inc = IncrementalExchange::new(1e-4, 0);
        inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
        // Move orbital 2 by a Bohr: its 3 pairs (0,2) (1,2) (2,2) go dirty,
        // the other 3 stay clean.
        infos[2].center = Vec3::new(9.0, 6.0, 6.0);
        fields[2] = gaussian_field(&grid, infos[2].center, 1.0);
        let r = inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
        assert_eq!(r.profile.pairs_computed, 3);
        assert_eq!(r.profile.pairs_reused, 3);
        // And the result matches a from-scratch build closely.
        let scratch = ExchangeEngine::new(&grid, &solver).energy(&fields, &pairs);
        assert!(
            (r.energy - scratch.energy).abs() < 1e-12,
            "{} vs {}",
            r.energy,
            scratch.energy
        );
    }

    #[test]
    fn cadence_forces_full_rebuild() {
        let (grid, solver, fields, infos) = test_setup();
        let pairs = build_pair_list(&infos, 0.0, None);
        let mut inc = IncrementalExchange::new(1e-4, 2);
        inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
        let a = inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
        assert_eq!(a.profile.pairs_reused, pairs.len());
        let b = inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
        // Next build hits the every-2 cadence: everything recomputed.
        assert_eq!(b.profile.pairs_computed, pairs.len(), "{:?}", b.profile);
    }

    #[test]
    fn grid_change_invalidates_globally() {
        let (grid, solver, fields, infos) = test_setup();
        let pairs = build_pair_list(&infos, 0.0, None);
        let mut inc = IncrementalExchange::new(1e-4, 0);
        inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
        let grid2 = RealGrid::cubic(Cell::cubic(12.0), 24);
        let solver2 = PoissonSolver::isolated(grid2);
        let fields2: Vec<Vec<f64>> = infos
            .iter()
            .map(|o| gaussian_field(&grid2, o.center, 1.0))
            .collect();
        let before = inc.totals;
        let r = inc.exchange_energy(&grid2, &solver2, &fields2, &infos, &pairs);
        assert_eq!(r.profile.pairs_reused, 0);
        assert_eq!(inc.totals.since(&before).pairs_invalidated, pairs.len());
    }

    #[test]
    fn fingerprint_is_sign_invariant_and_scales() {
        let grid = RealGrid::cubic(Cell::cubic(10.0), 16);
        let f = gaussian_field(&grid, Vec3::new(5.0, 5.0, 5.0), 1.2);
        let neg: Vec<f64> = f.iter().map(|v| -v).collect();
        let a = Fingerprint::of_field(&grid, &f, None);
        let b = Fingerprint::of_field(&grid, &neg, None);
        assert!(a.distance(&b) < 1e-14, "sign flip must be invisible");
        // A 1% amplitude change scores ≈ 2% distance.
        let scaled: Vec<f64> = f.iter().map(|v| 1.01 * v).collect();
        let c = Fingerprint::of_field(&grid, &scaled, None);
        let d = a.distance(&c);
        assert!(d > 5e-3 && d < 5e-2, "distance {d}");
    }

    #[test]
    fn random_fields_match_scratch_when_dirty() {
        // eps_inc = 0: every build recomputes; energies equal from-scratch.
        let grid = RealGrid::cubic(Cell::cubic(8.0), 16);
        let solver = PoissonSolver::isolated(grid);
        let mut rng = SplitMix64::new(42);
        let fields: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect())
            .collect();
        let infos = vec![
            OrbitalInfo {
                center: Vec3::ZERO,
                spread: 1.0,
            };
            3
        ];
        let pairs = build_pair_list(&infos, 0.0, None);
        let mut inc = IncrementalExchange::new(0.0, 0);
        let a = inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
        let b = ExchangeEngine::new(&grid, &solver).energy(&fields, &pairs);
        assert!((a.energy - b.energy).abs() <= 1e-12 * b.energy.abs());
        assert_eq!(a.profile.pairs_reused, 0);
    }
}
