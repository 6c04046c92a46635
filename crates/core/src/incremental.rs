//! Incremental exact exchange: dirty-pair tracking and pair-output caching
//! across SCF iterations and MD steps.
//!
//! The pair-screened exchange build exploits locality in *space* (distant
//! orbital pairs are dropped); this module exploits the matching locality
//! in *time*: between consecutive SCF iterations — and especially between
//! consecutive MD steps — most localized orbitals barely move, yet the
//! from-scratch builds re-solve one Poisson problem per surviving pair
//! every call.
//!
//! [`IncrementalExchange`] keeps one cache keyed by orbital pair `(i, j)`.
//! Each entry is the pair's execute-stage output: the weighted energy
//! contribution `−w_ij (ij|ij)` (one word) for an energy build, the
//! projections of `ψ_j v_ij` and `ψ_i v_ij` onto the AOs and their
//! gradients (`8·nao` words) for a K build.
//! Both builds run one routine — classify every pair, recompute the dirty
//! ones as one slice through the engine, install them — and then reduce
//! the cached entries in canonical pair order: summed for the energy,
//! assembled into the ACE operator for K.
//!
//! Each orbital's cached state carries a [`Fingerprint`] of the field its
//! entries were computed from: localization center, spread, and a coarse
//! 4×4×4 grid-coefficient mass signature (per-cell `∫ φ²`). On the next
//! build an orbital is **clean** when its fingerprint distance from that
//! state stays within the tolerance `eps_inc` and **dirty** otherwise; a
//! pair is reused when both its orbitals are clean, and recomputed
//! otherwise. A K build assembles its operator with the coefficients each
//! orbital's entries were computed with, so an all-clean K build returns
//! the previous operator exactly. A K entry is linear in each orbital's
//! sign, which the eigensolver does not fix: a clean orbital that comes
//! back negated is negated again before the build, so that it matches its
//! entries.
//!
//! Three rules bound the error:
//!
//! 1. *Invalidation* — dirtiness is measured against the fingerprint the
//!    cached entries were **computed at**, not the previous build, so
//!    slow drift accumulates in the comparison and eventually triggers a
//!    recompute instead of being reused forever;
//! 2. *Global invalidation* — any change of grid shape, orbital count,
//!    screening threshold or entry width (energy vs K, basis size)
//!    discards the whole cache;
//! 3. *Cadence* — `rebuild_every > 0` forces a full recompute every
//!    N builds, bounding worst-case drift regardless of the tolerance.
//!
//! `eps_inc = 0` disables reuse entirely: every pair is dirty and the
//! build is exactly the from-scratch one (bit-identical — property-tested).

use crate::engine::kpath::{ace_operator, k_build_setup, k_item_width};
use crate::engine::{
    BasisOnGrid, BuildProfile, ExchangeEngine, ExecBackend, KBuildOutcome, PairWork,
};
use crate::error::Result;
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

/// Coarse summary of one orbital field used to decide whether a cached
/// entry is still valid: sign-invariant for the clean/dirty distance, plus
/// a signed signature that tells a negated orbital apart.
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
    /// Per-coarse-cell amplitude `∫_cell φ dV` (linear in φ: the sign).
    lin: [f64; SIG_CELLS],
}

impl Fingerprint {
    /// Fingerprint an orbital field sampled on `grid`. `info` supplies the
    /// localization center/spread when the caller has them.
    pub fn of_field(grid: &RealGrid, field: &[f64], info: Option<&OrbitalInfo>) -> Self {
        assert_eq!(field.len(), grid.len());
        let (nx, ny, nz) = grid.dims;
        let mut sig = [0.0; SIG_CELLS];
        let mut lin = [0.0; SIG_CELLS];
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
                    lin[row + cz] += v;
                    idx += 1;
                }
            }
        }
        let dvol = grid.dvol();
        let mut mass = 0.0;
        for (s, l) in sig.iter_mut().zip(lin.iter_mut()) {
            *s *= dvol;
            *l *= dvol;
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
            lin,
        }
    }

    /// Dimensionless distance between two fingerprints: relative movement
    /// of the coarse mass distribution plus center displacement in units
    /// of the spread. ~0 for an unchanged orbital, O(1) for a relocated
    /// one; a uniform amplitude change `φ → (1+γ)φ` scores ≈ 2γ. Blind to
    /// the sign.
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

    /// Whether two fingerprints of (nearly) the same orbital have the same
    /// sign rather than opposite ones.
    pub fn same_sign(&self, other: &Fingerprint) -> bool {
        let dot: f64 = self.lin.iter().zip(&other.lin).map(|(a, b)| a * b).sum();
        dot >= 0.0
    }
}

/// Deterministic reuse counters accumulated across the builds of one
/// [`IncrementalExchange`] ([`IncrementalExchange::totals`]). One build's
/// counts are in the [`BuildProfile`] it returns.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IncStats {
    /// Pairs whose cached entry was reused.
    pub pairs_reused: usize,
    /// Pairs recomputed through the engine.
    pub pairs_recomputed: usize,
    /// Pairs invalidated wholesale (cache miss, cadence, or a global
    /// invalidation — grid/ε/entry-width change) rather than by
    /// fingerprint.
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

/// What a cache was filled for. A build with another key discards it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CacheKey {
    dims: (usize, usize, usize),
    norb: usize,
    eps_screen: f64,
    /// Words per entry: 1 for an energy build, `8·nao` for a K build.
    width: usize,
}

/// The pair-keyed cache of one [`IncrementalExchange`].
struct PairCache {
    key: CacheKey,
    /// Fingerprint each orbital's cached entries were computed at.
    fps: Vec<Fingerprint>,
    /// `(i, j)` → offset of the pair's entry in `values`.
    slots: HashMap<(u32, u32), usize>,
    /// Entries exactly as the from-scratch execute stage produces them.
    values: Vec<f64>,
    builds_since_full: usize,
}

impl PairCache {
    fn entry(&self, p: &Pair) -> &[f64] {
        let at = self.slots[&(p.i, p.j)];
        &self.values[at..at + self.key.width]
    }
}

/// Persistent incremental-exchange state. One instance lives across the
/// SCF iterations of a driver (and across the MD steps of a trajectory)
/// and owns one pair-keyed cache.
pub struct IncrementalExchange {
    /// Clean/dirty fingerprint tolerance. `0` disables reuse (every build
    /// is from scratch); typical SCF values are 1e-4..1e-2.
    pub eps_inc: f64,
    /// Force a full rebuild every N builds (`0` = never force). Bounds
    /// error drift independently of `eps_inc`.
    pub rebuild_every: usize,
    cache: Option<PairCache>,
    /// Coefficients (`nao × nocc`) each orbital's cached K items were
    /// computed with: the `C` of the ACE assembly.
    k_coeffs: Mat,
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
    flipped: Vec<bool>,
    dirty_pairs: Vec<Pair>,
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

/// The clean/dirty gate. `valid` is the baseline of a cache whose key
/// still matches this build — the fingerprints its entries were computed
/// at and its builds since the last full one — or `None` when the key
/// moved (grid, orbital count, ε, width) or nothing is cached. Marks in
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
            cache: None,
            k_coeffs: Mat::zeros(0, 0),
            totals: IncStats::default(),
            backend: None,
            fp_scratch: Vec::new(),
            dirty_orb: Vec::new(),
            flipped: Vec::new(),
            dirty_pairs: Vec::new(),
        }
    }

    /// Route the dirty recompute through `backend` instead of the default
    /// rayon pool. This does *not* invalidate the cache: every backend
    /// produces bit-identical entries (a pair's output is a pure function
    /// of the pair), so cached entries remain exact.
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

    /// Incremental twin of [`ExchangeEngine::energy`]: clean pairs come
    /// from the cache, dirty pairs are recomputed (parallel over the dirty
    /// work only) and re-cached, and the energy is their sum in canonical
    /// pair order. `infos` supplies per-orbital centers/spreads for the
    /// fingerprints (same length as `orbitals`). Orbital-shape problems
    /// and unrecovered communication failures of the recompute come back
    /// as typed [`Error`](crate::Error)s.
    pub fn exchange_energy(
        &mut self,
        grid: &RealGrid,
        solver: &PoissonSolver,
        orbitals: &[Vec<f64>],
        infos: &[OrbitalInfo],
        pairs: &PairList,
    ) -> Result<HfxResult> {
        if orbitals.len() != infos.len() {
            return Err(crate::Error::InvalidConfig(format!(
                "{} orbitals but {} OrbitalInfo records",
                orbitals.len(),
                infos.len()
            )));
        }
        self.fingerprint_all(grid, orbitals, infos);
        let key = CacheKey {
            dims: grid.dims,
            norb: orbitals.len(),
            eps_screen: pairs.eps,
            width: 1,
        };
        let engine = self.engine(grid, solver);
        let profile = self.refresh(key, pairs, |dirty, _, profile| {
            engine.pair_contribs(PairWork::Energy(orbitals), dirty, profile)
        })?;
        let cache = self.cache.as_ref().expect("refresh installs the cache");
        Ok(HfxResult {
            energy: pairs.pairs.iter().map(|p| cache.entry(p)[0]).sum(),
            profile,
        })
    }

    /// Incremental twin of [`ExchangeEngine::k_operator`]: the pair items
    /// of clean pairs come from the cache, dirty pairs re-run their
    /// Poisson solves (parallel over the dirty pairs only), and the ACE
    /// operator and the exchange gradient are assembled from all of them
    /// in canonical pair order, with each orbital's coefficients as of its
    /// last recompute. With `eps_inc = 0` the result is bit-identical to
    /// the from-scratch build. `fields` is the basis on the cache's grid, `solver` that
    /// grid's Poisson solver.
    ///
    /// The profile splits the build's `nocc(nocc+1)/2` candidate pairs
    /// into `pairs_computed`, `pairs_reused` and `pairs_screened`;
    /// computed plus reused equals the from-scratch build's
    /// `pairs_computed`.
    pub fn exchange_operator(
        &mut self,
        fields: &BasisOnGrid,
        c_occ: &Mat,
        nocc: usize,
        solver: &PoissonSolver,
        eps: f64,
    ) -> Result<KBuildOutcome> {
        let grid = fields.grid;
        let t_ao = Instant::now();
        let mut setup = k_build_setup(fields, c_occ, nocc, eps);
        let t_ao_eval_s = t_ao.elapsed().as_secs_f64();
        self.fingerprint_all(grid, &setup.orbitals, &setup.infos);
        let pairs = setup.pairs(eps);
        let key = CacheKey {
            dims: grid.dims,
            norb: nocc,
            eps_screen: eps,
            width: k_item_width(setup.nao()),
        };
        let engine = self.engine(grid, solver);
        let mut profile = self.refresh(key, &pairs, |dirty, flipped, profile| {
            setup.align(flipped);
            engine.pair_contribs(PairWork::Operator(&setup), dirty, profile)
        })?;
        profile.t_ao_eval_s += t_ao_eval_s;
        // A dirty orbital's items were all just computed from its current
        // coefficients (a full build marks every orbital dirty).
        let nao = setup.nao();
        if (self.k_coeffs.nrows(), self.k_coeffs.ncols()) != (nao, nocc) {
            self.k_coeffs = Mat::zeros(nao, nocc);
        }
        for (i, _) in self.dirty_orb.iter().enumerate().filter(|(_, &d)| d) {
            for mu in 0..nao {
                self.k_coeffs[(mu, i)] = setup.c[(mu, i)];
            }
        }
        let cache = self.cache.as_ref().expect("refresh installs the cache");
        let items = pairs.pairs.iter().map(|p| cache.entry(p));
        ace_operator(fields, &self.k_coeffs, &pairs, items, profile)
    }

    /// The one routine under both builds, on the fingerprints of the
    /// build's orbitals in `fp_scratch`: classify every pair of `pairs`
    /// (reused when it has an entry and both orbitals are clean), hand the
    /// dirty ones to `recompute` as one slice in canonical order, together
    /// with the clean orbitals whose sign differs from their entries', and
    /// install what it returns, `key.width` words per pair. Afterwards the
    /// cache holds an entry for every pair of `pairs`. Returns the build's
    /// profile with its counters set.
    fn refresh(
        &mut self,
        key: CacheKey,
        pairs: &PairList,
        recompute: impl FnOnce(&[Pair], &[bool], &mut BuildProfile) -> Result<Vec<f64>>,
    ) -> Result<BuildProfile> {
        let valid = self.cache.as_ref().filter(|c| c.key == key);
        let full = mark_dirty(
            self.eps_inc,
            self.rebuild_every,
            valid.map(|c| (c.fps.as_slice(), c.builds_since_full)),
            &self.fp_scratch,
            &mut self.dirty_orb,
        );
        let valid = valid.filter(|_| !full);
        self.flipped.clear();
        match valid {
            Some(c) => self.flipped.extend(
                (c.fps.iter().zip(&self.fp_scratch).zip(&self.dirty_orb))
                    .map(|((then, now), &dirty)| !dirty && !now.same_sign(then)),
            ),
            None => self.flipped.resize(self.fp_scratch.len(), false),
        }
        self.dirty_pairs.clear();
        let (mut reused, mut invalidated) = (0, 0);
        for p in &pairs.pairs {
            let cached = valid.is_some_and(|c| c.slots.contains_key(&(p.i, p.j)));
            if cached && !self.dirty_orb[p.i as usize] && !self.dirty_orb[p.j as usize] {
                reused += 1;
            } else {
                invalidated += !cached as usize;
                self.dirty_pairs.push(*p);
            }
        }

        // A pair's output is a pure function of the pair, so whichever
        // subset is dirty, each recomputed entry carries the bits a
        // from-scratch build gives it.
        let mut profile = BuildProfile::default();
        let fresh = recompute(&self.dirty_pairs, &self.flipped, &mut profile)?;

        // A full build starts a fresh cache; the steady all-clean rebuild
        // touches nothing here (no allocations).
        if full {
            self.cache = Some(PairCache {
                key,
                fps: self.fp_scratch.clone(),
                slots: HashMap::new(),
                values: Vec::new(),
                builds_since_full: 0,
            });
        }
        let cache = self
            .cache
            .as_mut()
            .expect("a non-full build implies a validated cache");
        for (p, out) in self.dirty_pairs.iter().zip(fresh.chunks_exact(key.width)) {
            match cache.slots.get(&(p.i, p.j)) {
                Some(&at) => cache.values[at..at + key.width].copy_from_slice(out),
                None => {
                    cache.slots.insert((p.i, p.j), cache.values.len());
                    cache.values.extend_from_slice(out);
                }
            }
        }
        // Refresh the fingerprint baselines of *dirty* orbitals only (all
        // their pairs were just recomputed). Clean orbitals keep the
        // fingerprint their cached entries were computed at, so slow drift
        // accumulates in the comparison instead of being re-baselined away.
        for (j, &d) in self.dirty_orb.iter().enumerate() {
            if d {
                cache.fps[j] = self.fp_scratch[j];
            }
        }
        cache.builds_since_full = if full { 0 } else { cache.builds_since_full + 1 };

        let n_dirty = self.dirty_pairs.len();
        self.totals.accumulate(&IncStats {
            pairs_reused: reused,
            pairs_recomputed: n_dirty,
            pairs_invalidated: invalidated,
        });
        profile.count_pairs(pairs, n_dirty, reused);
        profile.bytes_reduced += std::mem::size_of_val(&fresh[..]);
        Ok(profile)
    }

    /// Compute fingerprints for all orbital fields into the reusable
    /// scratch (no allocations once the scratch has the right length).
    fn fingerprint_all(&mut self, grid: &RealGrid, orbitals: &[Vec<f64>], infos: &[OrbitalInfo]) {
        self.fp_scratch.clear();
        self.fp_scratch.extend(
            orbitals
                .iter()
                .zip(infos)
                .map(|(field, info)| Fingerprint::of_field(grid, field, Some(info))),
        );
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
        let first = inc
            .exchange_energy(&grid, &solver, &fields, &infos, &pairs)
            .expect("fault-free build");
        assert_eq!(first.profile.pairs_computed, pairs.len());
        assert_eq!(first.profile.pairs_reused, 0);
        let second = inc
            .exchange_energy(&grid, &solver, &fields, &infos, &pairs)
            .expect("fault-free build");
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
        inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs)
            .expect("fault-free build");
        // Move orbital 2 by a Bohr: its 3 pairs (0,2) (1,2) (2,2) go dirty,
        // the other 3 stay clean.
        infos[2].center = Vec3::new(9.0, 6.0, 6.0);
        fields[2] = gaussian_field(&grid, infos[2].center, 1.0);
        let r = inc
            .exchange_energy(&grid, &solver, &fields, &infos, &pairs)
            .expect("fault-free build");
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
        inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs)
            .expect("fault-free build");
        let a = inc
            .exchange_energy(&grid, &solver, &fields, &infos, &pairs)
            .expect("fault-free build");
        assert_eq!(a.profile.pairs_reused, pairs.len());
        let b = inc
            .exchange_energy(&grid, &solver, &fields, &infos, &pairs)
            .expect("fault-free build");
        // Next build hits the every-2 cadence: everything recomputed.
        assert_eq!(b.profile.pairs_computed, pairs.len(), "{:?}", b.profile);
    }

    #[test]
    fn grid_change_invalidates_globally() {
        let (grid, solver, fields, infos) = test_setup();
        let pairs = build_pair_list(&infos, 0.0, None);
        let mut inc = IncrementalExchange::new(1e-4, 0);
        inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs)
            .expect("fault-free build");
        let grid2 = RealGrid::cubic(Cell::cubic(12.0), 24);
        let solver2 = PoissonSolver::isolated(grid2);
        let fields2: Vec<Vec<f64>> = infos
            .iter()
            .map(|o| gaussian_field(&grid2, o.center, 1.0))
            .collect();
        let before = inc.totals;
        let r = inc
            .exchange_energy(&grid2, &solver2, &fields2, &infos, &pairs)
            .expect("fault-free build");
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
        let a = inc
            .exchange_energy(&grid, &solver, &fields, &infos, &pairs)
            .expect("fault-free build");
        let b = ExchangeEngine::new(&grid, &solver).energy(&fields, &pairs);
        assert!((a.energy - b.energy).abs() <= 1e-12 * b.energy.abs());
        assert_eq!(a.profile.pairs_reused, 0);
    }

    #[test]
    fn a_negated_clean_orbital_keeps_its_cached_k_items() {
        // The eigensolver fixes no sign. Orbital 1 stays clean but comes
        // back negated while orbital 0 moves, so pair (0, 1) is recomputed:
        // with orbital 1 negated back first, the build is the one without
        // the sign flip, to the bit. All clean, a build is the previous one.
        let edge = 12.0;
        let mut mol = liair_basis::systems::lih();
        mol.translate(Vec3::splat(edge / 2.0) - mol.centroid());
        let basis = liair_basis::Basis::sto3g(&mol);
        let scf = liair_scf::rhf(&mol, &basis, &liair_scf::ScfOptions::default());
        let grid = RealGrid::cubic(Cell::cubic(edge), 16);
        let solver = PoissonSolver::isolated(grid);
        let fields = BasisOnGrid::new(&basis, &grid);
        let scaled = |c: &Mat, col: usize, f: f64| {
            let mut c = c.clone();
            for mu in 0..c.nrows() {
                c[(mu, col)] *= f;
            }
            c
        };
        let moved = scaled(&scf.c, 0, 1.01);
        let moved_negated = scaled(&moved, 1, -1.0);
        let build = |inc: &mut IncrementalExchange, c: &Mat| {
            inc.exchange_operator(&fields, c, scf.nocc, &solver, 0.0)
                .expect("fault-free build")
        };
        let mut plain = IncrementalExchange::new(1e-6, 0);
        let first = build(&mut plain, &scf.c);
        let want = build(&mut plain, &moved).k;
        let mut flipped = IncrementalExchange::new(1e-6, 0);
        build(&mut flipped, &scf.c);
        let got = build(&mut flipped, &moved_negated);
        assert_eq!(got.profile.pairs_computed, 2, "(0, 0) and (0, 1)");
        assert_eq!(got.profile.pairs_reused, 1, "(1, 1)");
        assert_eq!(got.k.sub(&want).fro_norm(), 0.0);

        let mut clean = IncrementalExchange::new(1e-6, 0);
        build(&mut clean, &scf.c);
        let again = build(&mut clean, &scaled(&scf.c, 1, -1.0));
        assert_eq!(again.profile.pairs_reused, 3);
        assert_eq!(again.k.sub(&first.k).fro_norm(), 0.0);
    }
}
