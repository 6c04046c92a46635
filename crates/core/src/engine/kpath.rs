//! The K-operator stage of the engine: `K_{μν} = Σ_j (μj|jν)` built as
//! one Poisson solve per `(occupied j, AO ν)` task, on any
//! [`ExecBackend`](super::ExecBackend).
//!
//! The task list is canonical (j-major, ν-ascending, ε-screened), per-task
//! output columns are reassembled in that order on every backend, each
//! orbital's `ΔK_j` accumulates its columns in task order, and `K = Σ_j
//! ΔK_j` sums ascending-j before the final symmetrization — the fixed
//! floating-point sequence that makes the rayon build, the message-passing
//! build, and the incremental build with `eps_inc = 0` bit-identical.
//! The AO fields are the caller's [`BasisOnGrid`], evaluated once per
//! geometry; a build evaluates only its orbital fields from them.

use super::{BuildProfile, ExchangeEngine, HfxScratch};
use crate::error::Result;
use crate::screening::OrbitalInfo;
use liair_basis::Basis;
use liair_grid::{ao_values, orbitals_from_aos, RealGrid};
use liair_math::Mat;
use std::time::Instant;

/// One orbital's index `j`, its unsymmetrized `ΔK_j` contribution, and the
/// number of its `(j, ν)` tasks that survived the ε screen.
pub(crate) type OrbitalContrib = (usize, Mat, usize);

/// A basis evaluated on a grid: the AO fields and AO screening metadata
/// every K build at one geometry shares, so the SCF iterations there
/// evaluate the basis once.
pub struct BasisOnGrid<'a> {
    pub(crate) basis: &'a Basis,
    pub(crate) grid: &'a RealGrid,
    pub(crate) aos: Vec<Vec<f64>>,
    /// Center and spread of each AO's most diffuse primitive.
    pub(crate) ao_info: Vec<OrbitalInfo>,
}

impl<'a> BasisOnGrid<'a> {
    /// Evaluate `basis` (in the grid's box frame) on `grid`.
    pub fn new(basis: &'a Basis, grid: &'a RealGrid) -> Self {
        let ao_info = basis
            .aos
            .iter()
            .map(|ao| {
                let sh = &basis.shells[ao.shell];
                let alpha_min = sh.prims.iter().map(|p| p.exp).fold(f64::INFINITY, f64::min);
                OrbitalInfo {
                    center: sh.center,
                    spread: (1.0 / (2.0 * alpha_min)).sqrt().max(0.3),
                }
            })
            .collect();
        BasisOnGrid {
            basis,
            grid,
            aos: ao_values(basis, grid),
            ao_info,
        }
    }
}

/// Everything the per-orbital K tasks need that does not depend on which
/// orbitals are dirty: the caller's AO fields plus the orbital fields and
/// screening metadata. Shared by the from-scratch and incremental builds.
pub(crate) struct KBuildSetup<'a> {
    pub(crate) fields: &'a BasisOnGrid<'a>,
    pub(crate) nao: usize,
    pub(crate) nocc: usize,
    /// Localization centers/spreads of the (localized) occupied orbitals;
    /// empty when `eps = 0` (no localization, nothing to screen).
    pub(crate) orb_info: Vec<OrbitalInfo>,
    /// Occupied orbital fields on the grid (localized when `eps > 0`).
    pub(crate) orbitals: Vec<Vec<f64>>,
}

/// Evaluate the orbital fields and screening metadata for a K build.
///
/// Canonical orbitals are delocalized and unscreenable; K is invariant
/// under rotations within the occupied space, so when screening is on we
/// localize first (exactly what the paper's scheme does each step).
pub(crate) fn k_build_setup<'a>(
    fields: &'a BasisOnGrid<'a>,
    c_occ: &Mat,
    nocc: usize,
    eps: f64,
) -> KBuildSetup<'a> {
    let nao = fields.aos.len();
    assert_eq!(c_occ.nrows(), nao);
    assert!(nocc <= c_occ.ncols());
    let (c_work, orb_info) = if eps > 0.0 {
        let loc = liair_grid::foster_boys(fields.basis, c_occ, nocc, 60);
        let orbs: Vec<OrbitalInfo> = loc
            .centers
            .iter()
            .zip(&loc.spreads)
            .map(|(&center, &s)| OrbitalInfo {
                center,
                spread: s.max(0.3),
            })
            .collect();
        (loc.c_loc, orbs)
    } else {
        (c_occ.clone(), Vec::new())
    };
    let orbitals = orbitals_from_aos(&fields.aos, &c_work, nocc);
    KBuildSetup {
        fields,
        nao,
        nocc,
        orb_info,
        orbitals,
    }
}

/// Average away the 1e-6-level asymmetry grid quadrature leaves in K.
pub(crate) fn symmetrize(k: &mut Mat) {
    let nao = k.nrows();
    for mu in 0..nao {
        for nu in (mu + 1)..nao {
            let s = 0.5 * (k[(mu, nu)] + k[(nu, mu)]);
            k[(mu, nu)] = s;
            k[(nu, mu)] = s;
        }
    }
}

/// Output of [`ExchangeEngine::k_operator`].
#[derive(Debug, Clone)]
pub struct KBuildOutcome {
    /// The symmetrized exchange operator `Σ_j (μj|jν)`.
    pub k: Mat,
    /// Per-phase instrumentation and task counts of this build: of the
    /// `nocc · nao` `(j, ν)` tasks, `pairs_computed` ran a Poisson solve,
    /// `pairs_reused` came from an incremental cache and `pairs_screened`
    /// were dropped by the ε screen.
    pub profile: BuildProfile,
}

impl ExchangeEngine<'_> {
    /// Build the AO-basis exchange operator on the configured backend.
    ///
    /// `fields` is the basis evaluated on this engine's grid; `c_occ`
    /// holds the occupied MO coefficients (`nao × nocc`) in that same
    /// (box-centered) basis; `eps` drops `(j, ν)` tasks whose
    /// Gaussian-overlap bound falls below it (localizing first when
    /// `eps > 0`).
    pub fn k_operator(
        &self,
        fields: &BasisOnGrid,
        c_occ: &Mat,
        nocc: usize,
        eps: f64,
    ) -> KBuildOutcome {
        self.try_k_operator(fields, c_occ, nocc, eps)
            .unwrap_or_else(|e| panic!("K-operator build failed: {e}"))
    }

    /// Fallible twin of [`ExchangeEngine::k_operator`].
    pub fn try_k_operator(
        &self,
        fields: &BasisOnGrid,
        c_occ: &Mat,
        nocc: usize,
        eps: f64,
    ) -> Result<KBuildOutcome> {
        assert_eq!(fields.grid, self.grid, "fields evaluated on another grid");
        let mut profile = BuildProfile::default();
        let t_ao = Instant::now();
        let setup = k_build_setup(fields, c_occ, nocc, eps);
        profile.t_ao_eval_s += t_ao.elapsed().as_secs_f64();
        let slots: Vec<usize> = (0..nocc).collect();
        let results = self.k_orbital_contribs(&setup, eps, &slots, &mut profile)?;
        let tr = Instant::now();
        let mut k = Mat::zeros(setup.nao, setup.nao);
        for (_, dk, _) in &results {
            k.axpy(1.0, dk);
        }
        symmetrize(&mut k);
        profile.t_reduce_s += tr.elapsed().as_secs_f64();
        profile.bytes_reduced += results.len() * setup.nao * setup.nao * std::mem::size_of::<f64>();
        Ok(KBuildOutcome { k, profile })
    }

    /// Run the surviving `(j, ν)` Poisson tasks of the orbitals in `slots`
    /// on the configured backend and return, per requested orbital, its
    /// unsymmetrized contribution `ΔK_j` plus its evaluated-task count.
    /// `K = Σ_j ΔK_j` over all occupied orbitals. Execute-phase profile
    /// fields and the requested orbitals' computed/screened task counts
    /// are accumulated into `profile`.
    pub(crate) fn k_orbital_contribs(
        &self,
        setup: &KBuildSetup,
        eps: f64,
        slots: &[usize],
        profile: &mut BuildProfile,
    ) -> Result<Vec<OrbitalContrib>> {
        let nao = setup.nao;
        // For each (j, ν): v_jν = Poisson[φ_j χ_ν]; then
        // K_μν += ∫ χ_μ φ_j v_jν — the pair-task structure of the energy
        // path. The task list is canonical: j-major, ν-ascending. With a
        // finite ε the AOs are binned once and each dirty orbital inspects
        // only AOs within its cutoff radius (`cross_tasks`, the
        // locality-first source of the incremental dirty set); the partner
        // sets — and therefore the canonical order — are exactly the brute
        // filter's.
        let tasks: Vec<(usize, usize)> = if eps <= 0.0 {
            profile.pairs_considered += slots.len() * nao;
            slots
                .iter()
                .flat_map(|&j| (0..nao).map(move |nu| (j, nu)))
                .collect()
        } else if eps > 1.0 {
            // Every bound is ≤ 1: nothing survives, nothing to inspect.
            Vec::new()
        } else {
            let (tasks, inspected) =
                crate::screening::cross_tasks(&setup.orb_info, slots, &setup.fields.ao_info, eps);
            profile.pairs_considered += inspected;
            tasks
        };
        // One item per task; its output is column ν of ΔK_j,
        // `⟨χ_μ φ_j | v_jν⟩` for every μ.
        let (npts, aos) = (self.grid.len(), &setup.fields.aos);
        let dvol = self.grid.dvol();
        let solver = self.solver;
        let t0 = Instant::now();
        let cols = self.execute(
            tasks.len(),
            nao,
            HfxScratch::default,
            |sc, t, col| {
                let (j, nu) = tasks[t];
                let grew = sc.ensure(npts) as usize;
                let HfxScratch { rho, ws } = sc;
                for ((r, &a), &b) in rho.iter_mut().zip(&setup.orbitals[j]).zip(&aos[nu]) {
                    *r = a * b;
                }
                let v = solver.solve_into(rho, ws);
                for (mu, c) in col.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for p in 0..npts {
                        acc += aos[mu][p] * setup.orbitals[j][p] * v[p];
                    }
                    *c = acc * dvol;
                }
                (sc.ws.take_timings(), grew)
            },
            profile,
        )?;
        profile.t_exec_s += t0.elapsed().as_secs_f64();
        profile.pairs_computed += tasks.len();
        profile.pairs_screened += slots.len() * nao - tasks.len();
        let mut slot_of = vec![usize::MAX; setup.nocc];
        for (s, &j) in slots.iter().enumerate() {
            slot_of[j] = s;
        }
        let mut out: Vec<OrbitalContrib> = slots
            .iter()
            .map(|&j| (j, Mat::zeros(nao, nao), 0))
            .collect();
        // Accumulate columns in canonical task order — the fixed sequence
        // shared by every backend and the incremental rebuild.
        for (col, &(j, nu)) in cols.chunks_exact(nao).zip(&tasks) {
            let (_, dk, evaluated) = &mut out[slot_of[j]];
            for mu in 0..nao {
                dk[(mu, nu)] += col[mu];
            }
            *evaluated += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::BasisOnGrid;
    use crate::engine::ExchangeEngine;
    use liair_basis::{systems, Basis, Cell, Molecule};
    use liair_grid::{PoissonSolver, RealGrid};
    use liair_scf::{rhf, ScfOptions, ScfResult};

    /// Converged H₂ RHF, and a copy of the molecule centered in a cubic
    /// box of `edge` Bohr.
    fn h2_in_box(edge: f64) -> (ScfResult, Molecule) {
        let mol = systems::h2();
        let scf = rhf(&mol, &Basis::sto3g(&mol), &ScfOptions::default());
        let mut mol_c = mol.clone();
        mol_c.translate(liair_math::Vec3::splat(edge / 2.0) - mol.centroid());
        (scf, mol_c)
    }

    #[test]
    fn grid_k_matches_analytic_k() {
        // Build K on the grid for the converged H2 density and compare to
        // the analytic K(D)/2 (K(D) contracts the doubled density).
        let edge = 16.0;
        let (scf, mol_c) = h2_in_box(edge);
        let basis = Basis::sto3g(&mol_c);
        let grid = RealGrid::cubic(Cell::cubic(edge), 64);
        let solver = PoissonSolver::isolated(grid);
        let k_grid = ExchangeEngine::new(&grid, &solver)
            .k_operator(&BasisOnGrid::new(&basis, &grid), &scf.c, scf.nocc, 0.0)
            .k;
        // Analytic: K(D) with D = 2CCᵀ equals 2 × Σ_j (μj|jν).
        let (_, k_an) = liair_integrals::build_jk(&basis, &scf.density, 0.0);
        let err = k_grid.scale(2.0).sub(&k_an).fro_norm() / k_an.fro_norm();
        assert!(err < 5e-3, "relative K error {err}");
    }

    #[test]
    fn grid_k_is_symmetric_and_psd_on_diagonal() {
        let edge = 14.0;
        let (scf, mol_c) = h2_in_box(edge);
        let basis = Basis::sto3g(&mol_c);
        let grid = RealGrid::cubic(Cell::cubic(edge), 48);
        let solver = PoissonSolver::isolated(grid);
        let k = ExchangeEngine::new(&grid, &solver)
            .k_operator(&BasisOnGrid::new(&basis, &grid), &scf.c, scf.nocc, 0.0)
            .k;
        assert!(k.asymmetry() < 1e-12); // symmetrized by construction
        for i in 0..basis.nao() {
            assert!(k[(i, i)] > 0.0, "K[{i},{i}] = {}", k[(i, i)]);
        }
    }
}
