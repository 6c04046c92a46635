//! `bench-mts` — trajectory-level throughput from r-RESPA multiple time
//! stepping: MD time-to-solution and energy-conservation drift at
//! `n_inner ∈ {1, 2, 4, 8}`, with per-outer-step incremental-exchange
//! reuse counters. Two tiers (see EXPERIMENTS.md):
//!
//! * `h2-bomd` — genuinely ab initio r-RESPA BOMD: the LDA surrogate SCF
//!   as the fast force ([`XcForces`]), the grid-exchange SCF with one warm
//!   incremental cache as the outer full force ([`IncrementalGridForces`]
//!   via [`HfxDeltaForces`]), both analytic gradients. All-electron
//!   grid SCF converges only for hydrogenic systems (DESIGN.md), so this
//!   tier runs the smallest real molecule end to end.
//! * `box-li2o2` / `complex-pc` — the `liair-basis::systems` electrolyte
//!   boxes under the PBE0-flavoured *model* split Hamiltonian
//!   `E = E_FF + E_xc[n_model] + a_x·E_x^model`: one Gaussian valence
//!   proxy orbital per heavy atom,
//!   the LDA term on the box grid as the fast part, and the exact-
//!   exchange term through the real engine's incremental energy path
//!   with one warm cache per finite-difference slot as the slow part.
//!
//! Acceptance: ≥3× time-to-solution vs `n_inner = 1` on an electrolyte
//! box at matched (within-bound) drift. A second table keeps the
//! per-outer-step record (fast/slow seconds, reuse counters) of every run.

use crate::{Datum, Table};
use liair_basis::{systems, Cell, Element, Molecule};
use liair_core::screening::{build_pair_list, OrbitalInfo, PairList};
use liair_core::{IncSchedule, IncStats, IncrementalExchange};
use liair_grid::{density_on_grid, PoissonSolver, RealGrid};
use liair_math::Vec3;
use liair_md::mts::{MtsOptions, MtsOuterRecord, SplitForceProvider};
use liair_md::{
    ForceField, ForceProvider, HfxDeltaForces, IncrementalGridForces, MdOptions, MdState,
    Thermostat, XcForces,
};
use liair_xc::Functional;
use std::sync::Mutex;
use std::time::Instant;

/// L²-normalized Gaussian valence-proxy orbital (unit mass ⇒ pair
/// energies on the sub-Hartree scale of real localized orbitals, so the
/// model exchange term is a perturbation, not the dominant attraction).
fn gaussian_field(grid: &RealGrid, center: Vec3, sigma: f64) -> Vec<f64> {
    let norm = (std::f64::consts::PI * sigma * sigma).powf(-0.75);
    (0..grid.len())
        .map(|p| {
            let d2 = grid.point_flat(p).distance(center).powi(2);
            norm * (-d2 / (2.0 * sigma * sigma)).exp()
        })
        .collect()
}

/// The model split Hamiltonian for the electrolyte boxes: classical force
/// field + grid-LDA of the Gaussian valence-proxy density as the fast
/// part, `a_x · E_x` of the proxy orbitals through the incremental
/// exchange engine as the slow part. Energy-conserving by construction
/// (every term is a function of the positions; model forces are central
/// differences), so NVE drift is a fair integrator diagnostic.
struct ModelElectrolyteSplit {
    ff: ForceField,
    grid: RealGrid,
    solver: PoissonSolver,
    /// Valence-proxy orbital width (Bohr).
    sigma: f64,
    /// Exact-exchange admixture (PBE0's 0.25).
    hfx_fraction: f64,
    /// Exchange-free surrogate for the fast DFT term.
    xc: Functional,
    /// Coupling of the grid-xc term. Bare LDA of the proxy density is
    /// collapse-prone — merging blobs lower `∫ρ^{4/3}` by ~1 Ha with no
    /// kinetic/Hartree counterweight, which overwhelms the Morse bonds —
    /// so the model keeps it as a weak perturbation.
    xc_scale: f64,
    /// FD displacement for the model terms (Bohr).
    h: f64,
    /// Heavy atoms (the FD slots move atoms; the model exchange has no H
    /// dependence, so H slow forces are exactly zero).
    heavy: Vec<usize>,
    /// Proxy orbitals as (heavy-atom index, rigid local offset): O gets 3
    /// lone-pair-like proxies, C 2, Li 1 — the multiple-valence-orbital-
    /// per-atom structure of the real Wannier-localized systems, and the
    /// thing that gives the exchange term its pair-quadratic workload.
    orbs: Vec<(usize, Vec3)>,
    /// Pair list frozen at the initial geometry (orbitals move little
    /// over the short benchmark trajectories).
    pairs: PairList,
    /// One warm incremental cache per FD slot (slot 0 = undisplaced), so
    /// slot `k` of outer step `t + 1` diffs against slot `k` of step `t`.
    slots: Mutex<Vec<IncrementalExchange>>,
}

impl ModelElectrolyteSplit {
    fn new(mol: &Molecule, cell: Cell, n_grid: usize, eps_inc: f64) -> Self {
        // Narrow enough that cross-pair exchange attraction is a
        // perturbation on the force field (wider proxies overwhelm the
        // Morse bonds and the cluster collapses into the model's
        // exchange well).
        let sigma = 1.0;
        let grid = RealGrid::cubic(cell, n_grid);
        let solver = PoissonSolver::isolated(grid);
        let heavy: Vec<usize> = mol
            .atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.element != Element::H)
            .map(|(i, _)| i)
            .collect();
        // Rigid per-element valence-proxy offsets (axes-aligned, 0.7 Bohr
        // — lone-pair scale; rigid ⇒ orbital centers remain a function of
        // atom positions and the model stays conservative).
        let d = 0.7;
        let mut orbs: Vec<(usize, Vec3)> = Vec::new();
        for &i in &heavy {
            let n_val = match mol.atoms[i].element {
                Element::Li | Element::Na => 1,
                Element::O | Element::S | Element::N => 3,
                _ => 2,
            };
            let offsets = [
                Vec3::new(d, 0.0, 0.0),
                Vec3::new(-d * 0.5, d * 0.75, 0.0),
                Vec3::new(-d * 0.5, -d * 0.75, 0.0),
            ];
            for off in offsets.iter().take(n_val) {
                orbs.push((i, *off));
            }
        }
        let infos: Vec<OrbitalInfo> = orbs
            .iter()
            .map(|&(i, off)| OrbitalInfo {
                center: mol.atoms[i].pos + off,
                spread: sigma,
            })
            .collect();
        let pairs = build_pair_list(&infos, 1e-4, None);
        let nslots = 1 + 6 * heavy.len();
        Self {
            ff: ForceField::from_molecule(mol, Some(&cell)),
            grid,
            solver,
            sigma,
            hfx_fraction: Functional::Pbe0.hfx_fraction(),
            // LDA rather than PBE (PBE0 less its exact exchange): the
            // surrogate's job is to be cheap and exchange-free, and PBE's
            // FFT gradient would dominate the inner-step cost at this grid.
            xc: Functional::Lda,
            xc_scale: 0.1,
            // Large enough that an eps_inc-level stale-value mismatch
            // between a slot pair's +h and −h caches is not amplified
            // into an O(mismatch/h) force error; the O(h²) FD truncation
            // is negligible against the model force scale.
            h: 2e-2,
            heavy,
            orbs,
            pairs,
            slots: Mutex::new(
                (0..nslots)
                    .map(|_| IncrementalExchange::new(eps_inc, 0))
                    .collect(),
            ),
        }
    }

    fn infos(&self, mol: &Molecule) -> Vec<OrbitalInfo> {
        self.orbs
            .iter()
            .map(|&(i, off)| OrbitalInfo {
                center: mol.atoms[i].pos + off,
                spread: self.sigma,
            })
            .collect()
    }

    fn base_fields(&self, mol: &Molecule) -> Vec<Vec<f64>> {
        self.orbs
            .iter()
            .map(|&(i, off)| gaussian_field(&self.grid, mol.atoms[i].pos + off, self.sigma))
            .collect()
    }

    /// Cumulative reuse counters over every FD slot.
    fn reuse(&self) -> IncStats {
        let slots = self.slots.lock().unwrap();
        let mut t = IncStats::default();
        for s in slots.iter() {
            t.accumulate(&s.totals);
        }
        t
    }
}

impl SplitForceProvider for ModelElectrolyteSplit {
    fn fast_forces(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        let (e_ff, mut forces) = self.ff.energy_forces(mol, cell);
        let fields = self.base_fields(mol);
        let rho = density_on_grid(&fields);
        let e_xc = self.xc_scale * self.xc.xc_energy(&self.grid, &rho);
        // Analytic grid force of the (LDA) xc term: with the grid points
        // fixed and ∂φ²/∂c = 2φ²(r − c)/σ², the exact derivative of the
        // grid sum is dE/dc = Σ_p v_xc(ρ_p) · 2φ_p² (r_p − c)/σ² · dvol —
        // one v_xc field plus a first moment per proxy orbital, instead
        // of 6 FD energy evaluations per heavy atom.
        let vxc = Functional::lda_vxc_field(&rho);
        let dvol = self.grid.dvol();
        for (k, &(atom, off)) in self.orbs.iter().enumerate() {
            let c = mol.atoms[atom].pos + off;
            let mut dedc = Vec3::ZERO;
            for p in 0..self.grid.len() {
                let w = vxc[p] * 2.0 * fields[k][p] * fields[k][p];
                dedc += (self.grid.point_flat(p) - c) * w;
            }
            forces[atom] -= dedc * (self.xc_scale * dvol / (self.sigma * self.sigma));
        }
        (e_ff + e_xc, forces)
    }

    fn slow_correction(
        &self,
        mol: &Molecule,
        _cell: Option<&Cell>,
        _fast: (f64, &[Vec3]),
    ) -> (f64, Vec<Vec3>) {
        let infos0 = self.infos(mol);
        let base = self.base_fields(mol);
        let mut slots = self.slots.lock().unwrap();
        let e0 = self.hfx_fraction
            * slots[0]
                .exchange_energy(&self.grid, &self.solver, &base, &infos0, &self.pairs)
                .expect("a clean rayon build over grid-sized fields cannot fail")
                .energy;
        // Sequential FD over the heavy atoms: each displaced slot diffs
        // against the same displacement of the previous outer step.
        let mut forces = vec![Vec3::ZERO; mol.natoms()];
        let mut work = base.clone();
        let mut infos = infos0.clone();
        for (a, &atom) in self.heavy.iter().enumerate() {
            // Every orbital riding on this atom moves with the FD
            // displacement (rigid offsets).
            let mine: Vec<usize> = (0..self.orbs.len())
                .filter(|&k| self.orbs[k].0 == atom)
                .collect();
            for axis in 0..3 {
                let mut e_pm = [0.0; 2];
                for (sign, e) in e_pm.iter_mut().enumerate() {
                    let mut shift = Vec3::ZERO;
                    shift[axis] = if sign == 0 { self.h } else { -self.h };
                    for &k in &mine {
                        let c = mol.atoms[atom].pos + self.orbs[k].1 + shift;
                        work[k] = gaussian_field(&self.grid, c, self.sigma);
                        infos[k] = OrbitalInfo {
                            center: c,
                            spread: self.sigma,
                        };
                    }
                    let slot = 1 + a * 6 + axis * 2 + sign;
                    *e = self.hfx_fraction
                        * slots[slot]
                            .exchange_energy(&self.grid, &self.solver, &work, &infos, &self.pairs)
                            .expect("a clean rayon build over grid-sized fields cannot fail")
                            .energy;
                }
                for &k in &mine {
                    work[k] = base[k].clone();
                    infos[k] = infos0[k];
                }
                forces[atom][axis] = -(e_pm[0] - e_pm[1]) / (2.0 * self.h);
            }
        }
        (e0, forces)
    }

    fn reuse_totals(&self) -> Option<IncStats> {
        Some(self.reuse())
    }
}

/// Classical pre-equilibration: the `systems` builders place molecules at
/// idealized lattice/complex geometries that sit ~Ha-scale strained on
/// the force field; an unthermostatted 4-atom cluster would convert that
/// strain into tens-of-thousands-K chaos. A short seeded Berendsen run on
/// the bare force field relaxes the strain, deterministically, so every
/// `n_inner` production run starts from the same gentle configuration.
fn relax_classical(mol: &Molecule, cell: Option<&Cell>, steps: usize) -> Molecule {
    let ff = ForceField::from_molecule(mol, cell);
    let mut state = MdState::new(mol.clone(), cell.copied(), &ff);
    state.thermalize_seeded(150.0, Some(11));
    let opts = MdOptions {
        dt: 15.0,
        thermostat: Thermostat::Berendsen {
            t_target: 150.0,
            tau: 200.0,
        },
        ..Default::default()
    };
    state.run(&ff, &opts, steps);
    state.mol
}

/// Relaxation surface for the *model* split Hamiltonian: the analytic
/// fast forces plus a closed-form stand-in for the slow exchange term.
/// For two equal-width L²-normalized Gaussians the exchange integral has
/// the exact free-space value `(ij|ij) = S² √(2/π)/σ` with overlap
/// `S = exp(−d²/4σ²)`, so the full model surface can be relaxed at
/// force-field cost. Without this stage the exchange term (repulsive,
/// `+a_x·E_x`) sits ~0.1 Ha off its balance point against the Morse
/// bonds, and the NVE production run slides downhill into multi-1000-K
/// chaos no integrator can conserve.
struct ModelRelax<'a>(&'a ModelElectrolyteSplit);

impl ForceProvider for ModelRelax<'_> {
    fn compute(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        let m = self.0;
        let (mut e, mut forces) = m.fast_forces(mol, cell);
        let coef = m.hfx_fraction * (2.0 / std::f64::consts::PI).sqrt() / m.sigma;
        let inv_s2 = 1.0 / (m.sigma * m.sigma);
        for p in &m.pairs.pairs {
            let (ai, oi) = m.orbs[p.i as usize];
            let (aj, oj) = m.orbs[p.j as usize];
            let dvec = (mol.atoms[ai].pos + oi) - (mol.atoms[aj].pos + oj);
            let d2 = dvec.dot(dvec);
            let s2 = (-0.5 * d2 * inv_s2).exp();
            e += coef * p.weight * s2;
            // F_i = −∂E/∂c_i = +coef·w·S²·(c_i − c_j)/σ²; same-atom pairs
            // (rigid offsets) cancel identically.
            let g = coef * p.weight * s2 * inv_s2;
            forces[ai] += dvec * g;
            forces[aj] -= dvec * g;
        }
        (e, forces)
    }
}

/// Second pre-equilibration stage, on the model surface (fast term +
/// closed-form exchange), so production NVE starts near a *model*
/// equilibrium rather than a force-field one. The residual mismatch —
/// grid-quadrature Poisson exchange vs the free-space closed form — is a
/// few mHa, a perturbation the integrator can carry.
fn relax_model(
    split: &ModelElectrolyteSplit,
    mol: &Molecule,
    cell: Option<&Cell>,
    steps: usize,
) -> Molecule {
    let prov = ModelRelax(split);
    let mut state = MdState::new(mol.clone(), cell.copied(), &prov);
    state.thermalize_seeded(150.0, Some(12));
    let opts = MdOptions {
        dt: 10.0,
        thermostat: Thermostat::Berendsen {
            t_target: 150.0,
            tau: 150.0,
        },
        ..Default::default()
    };
    state.run(&prov, &opts, steps);
    state.mol
}

/// One benchmark trajectory: `n_total / n_inner` outer steps, NVE.
struct RunResult {
    t_total_s: f64,
    drift: f64,
    log: Vec<MtsOuterRecord>,
}

fn run_one<S: SplitForceProvider>(
    mol: &Molecule,
    cell: Option<Cell>,
    provider: &S,
    dt: f64,
    n_inner: usize,
    n_total: usize,
    seed: u64,
) -> RunResult {
    let mut state = MdState::new_split(mol.clone(), cell, provider);
    state.thermalize_seeded(300.0, Some(seed));
    let e0 = state.total_energy();
    let opts = MdOptions {
        dt,
        thermostat: Thermostat::None,
        mts: MtsOptions { n_inner },
    };
    let n_outer = n_total / n_inner;
    let t0 = Instant::now();
    let log = state.run_mts_logged(provider, &opts, n_outer);
    let t_total_s = t0.elapsed().as_secs_f64();
    let drift = log
        .iter()
        .map(|r| (r.conserved - e0).abs())
        .fold(0.0, f64::max);
    RunResult {
        t_total_s,
        drift,
        log,
    }
}

struct SweepRow {
    n_inner: usize,
    r: RunResult,
}

/// All inner steps run at this time step (a.u.).
const DT: f64 = 10.0;

/// Run the experiment; `fast` shrinks grids, trajectory lengths, and the
/// system list.
pub fn bench_mts(fast: bool) -> Vec<Table> {
    let n_inners = [1usize, 2, 4, 8];
    let mut table = Table::measured(
        "bench-mts — r-RESPA MD time-to-solution vs n_inner",
        &[
            "system",
            "n_inner",
            "steps",
            "t_total [s]",
            "per inner step [ms]",
            "speedup",
            "drift [Ha]",
            "matched",
            "reused/recomputed",
        ],
    );
    let mut outer = Table::measured(
        "bench-mts — per-outer-step record",
        &[
            "system",
            "n_inner",
            "step",
            "t_fast [s]",
            "t_slow [s]",
            "pairs reused",
            "pairs recomputed",
            "pairs invalidated",
        ],
    );
    let mut electrolyte_best = 0.0f64;

    // --- Tier 1: real r-RESPA BOMD on H2 (grid SCF scale) ---
    let (h2_grid, h2_edge, h2_total) = if fast { (16, 10.0, 8) } else { (24, 12.0, 16) };
    let mut h2 = systems::h2();
    h2.atoms[1].pos.x = 1.5;
    let h2_rows: Vec<SweepRow> = n_inners
        .iter()
        .map(|&n_inner| {
            let split = HfxDeltaForces {
                fast: XcForces::new(Functional::Lda),
                full: IncrementalGridForces::new(h2_grid, h2_edge, IncSchedule::fixed(1e-4, 0)),
            };
            let r = run_one(&h2, None, &split, DT, n_inner, h2_total, 7);
            SweepRow { n_inner, r }
        })
        .collect();
    push_rows(
        &mut table, &mut outer, "h2-bomd", h2_total, &h2_rows, &mut 0.0,
    );

    // --- Tier 2: electrolyte boxes under the model split Hamiltonian ---
    let (box_grid, n_total) = if fast { (20, 32) } else { (24, 64) };
    let mut boxes: Vec<(&str, Molecule, Cell, usize)> = Vec::new();
    let (mol_box, cell_box) = systems::electrolyte_box(systems::Solvent::PropyleneCarbonate, 1, 7);
    boxes.push(("box-li2o2", mol_box, cell_box, n_total));
    if !fast {
        // The solvent·Li2O2 contact complex in a padded box.
        let mut complex = systems::li2o2_complex(systems::Solvent::PropyleneCarbonate, 3.8);
        let span = complex
            .atoms
            .iter()
            .flat_map(|a| (0..3).map(move |ax| a.pos[ax]))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
        let edge = (span.1 - span.0) + 12.0;
        let cell = Cell::cubic(edge);
        complex.translate(Vec3::splat(edge / 2.0) - complex.centroid());
        // ~25 proxy orbitals → 67 FD slots; a short trajectory keeps the
        // n_inner = 1 baseline of this system to minutes, not hours.
        boxes.push(("complex-pc", complex, cell, 16));
    }
    for (name, mol, cell, n_total) in &boxes {
        let n_total = *n_total;
        let mol = relax_classical(mol, Some(cell), 600);
        // Re-relax on the model surface (closed-form exchange stand-in);
        // the throwaway split only supplies geometry/pair structure.
        let relax_split = ModelElectrolyteSplit::new(&mol, *cell, box_grid, 1e-2);
        let mol = relax_model(&relax_split, &mol, Some(cell), 400);
        let rows: Vec<SweepRow> = n_inners
            .iter()
            .map(|&n_inner| {
                let split = ModelElectrolyteSplit::new(&mol, *cell, box_grid, 1e-2);
                let r = run_one(&mol, Some(*cell), &split, DT, n_inner, n_total, 7);
                SweepRow { n_inner, r }
            })
            .collect();
        push_rows(
            &mut table,
            &mut outer,
            name,
            n_total,
            &rows,
            &mut electrolyte_best,
        );
    }

    table.note = format!(
        "dt = {DT} a.u. per inner step; matched = drift <= max(3x drift(n_inner=1), 1e-3 Ha); best matched electrolyte speedup {electrolyte_best:.1}x (target >= 3x)"
    );
    vec![table, outer]
}

/// Append one system's sweep to the summary and per-outer-step tables and
/// fold its best matched-drift speedup into `best` (used for the
/// electrolyte acceptance line).
fn push_rows(
    table: &mut Table,
    outer: &mut Table,
    system: &str,
    n_total: usize,
    rows: &[SweepRow],
    best: &mut f64,
) {
    let t1 = rows[0].r.t_total_s;
    let drift1 = rows[0].r.drift;
    let bound = (3.0 * drift1).max(1e-3);
    for row in rows {
        let speedup = t1 / row.r.t_total_s.max(1e-12);
        let matched = row.r.drift <= bound;
        if matched {
            *best = best.max(speedup);
        }
        let mut totals = IncStats::default();
        for rec in &row.r.log {
            let inc = rec.inc.unwrap_or_default();
            totals.accumulate(&inc);
            outer.row(vec![
                system.into(),
                row.n_inner.into(),
                rec.step_count.into(),
                Datum::fixed(rec.times.t_fast_s, 4),
                Datum::fixed(rec.times.t_slow_s, 4),
                inc.pairs_reused.into(),
                inc.pairs_recomputed.into(),
                inc.pairs_invalidated.into(),
            ]);
        }
        table.row(vec![
            system.into(),
            row.n_inner.into(),
            format!("{}x{}", n_total / row.n_inner, row.n_inner).into(),
            Datum::fixed(row.r.t_total_s, 3),
            Datum::fixed(row.r.t_total_s * 1e3 / n_total as f64, 1),
            Datum::shown(speedup, format!("{speedup:.2}x")),
            Datum::sci(row.r.drift, 2),
            matched.into(),
            format!("{}/{}", totals.pairs_reused, totals.pairs_recomputed).into(),
        ]);
    }
}
