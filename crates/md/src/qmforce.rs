//! Quantum force providers for hybrid-functional Born–Oppenheimer MD under
//! r-RESPA multiple time stepping:
//!
//! * [`XcForces`] — the exchange-free LDA/GGA surrogate, paid every inner
//!   step;
//! * [`IncrementalGridForces`] — the grid-exchange SCF with one
//!   incremental-exchange cache per finite-difference slot, paid every
//!   outer step;
//! * [`HfxDeltaForces`] — their difference as the integrator's slow force.
//!
//! Every force is a central finite difference of an SCF energy, at 6N+1
//! energy evaluations per geometry. The slow term is amortized by the
//! outer step and by the incremental caches, as in the MTS treatment of
//! hybrid functionals, so no analytic nuclear gradient is needed.
//!
//! The settings are constants: displacements of 1e-2 Bohr (grid SCF) and
//! 1e-3 Bohr (surrogate), screening at ε = 1e-4, and
//! `ScfOptions::default()` for both SCFs. The grid SCF is an
//! `ScfSession::with_exchange` whose K is the slot's
//! `IncrementalExchange::exchange_operator`, so it has the session's DIIS
//! and convergence test, and the AO fields it contracts are evaluated
//! once per geometry. What a caller chooses is the grid, the box, the
//! reuse tolerance and the surrogate functional.

use crate::integrator::ForceProvider;
use crate::mts::SplitForceProvider;
use liair_basis::{Basis, Cell, Molecule};
use liair_core::{BasisOnGrid, IncSchedule, IncrementalExchange};
use liair_math::{Mat, Vec3};
use liair_scf::{ScfOptions, ScfSession};

/// Finite-difference displacement of [`IncrementalGridForces`] (Bohr).
const GRID_FD_STEP: f64 = 1e-2;
/// Pair-screening threshold of [`IncrementalGridForces`]' grid SCF (also
/// turns on localization).
const GRID_EPS: f64 = 1e-4;
/// Finite-difference displacement of [`XcForces`] (Bohr).
const XC_FD_STEP: f64 = 1e-3;

/// Born–Oppenheimer forces from the *grid-exchange* SCF with an
/// incremental-exchange cache per finite-difference slot — the MD setting
/// the incremental scheme is built for: between consecutive steps (and
/// between the `±h` displacements of one step) the localized orbitals
/// barely move, so most pair-Poisson solves are replaced by cache hits.
///
/// The box frame is **fixed at the first call** (molecule centered once,
/// never re-centered): a drifting frame would move every orbital field in
/// grid coordinates and defeat the fingerprint comparison. Each of the
/// `6N + 1` energy evaluations per step owns its own
/// [`liair_core::IncrementalExchange`] and warm-starts from its previous
/// converged orbitals, so slot `k` of step `t + 1` diffs against slot `k`
/// of step `t`.
pub struct IncrementalGridForces {
    /// Grid points per axis.
    pub n: usize,
    /// Fixed cubic box edge (Bohr); must contain the trajectory.
    pub edge: f64,
    /// Reuse tolerance and rebuild cadence each slot's cache is built with.
    inc_schedule: IncSchedule,
    state: std::sync::Mutex<IncGridState>,
}

struct IncGridState {
    /// `(shift, grid, solver)` frozen at the first call.
    frame: Option<(Vec3, liair_grid::RealGrid, liair_grid::PoissonSolver)>,
    /// One cache + warm-start orbitals per FD slot (slot 0 = undisplaced).
    slots: Vec<(IncrementalExchange, Option<Mat>)>,
}

impl IncrementalGridForces {
    /// A provider with the given grid/box and reuse settings.
    pub fn new(n: usize, edge: f64, inc_schedule: IncSchedule) -> Self {
        Self {
            n,
            edge,
            inc_schedule,
            state: std::sync::Mutex::new(IncGridState {
                frame: None,
                slots: Vec::new(),
            }),
        }
    }

    /// Cumulative reuse counters over every slot since construction.
    pub fn reuse_totals(&self) -> liair_core::IncStats {
        let st = self.state.lock().unwrap();
        let mut t = liair_core::IncStats::default();
        for (inc, _) in &st.slots {
            t.accumulate(&inc.totals);
        }
        t
    }

    /// One grid SCF in the fixed frame using (and updating) slot `slot`:
    /// an RHF session whose K is the slot cache's grid operator, started
    /// from the slot's previous orbitals. The AO fields live as long as
    /// the SCF: a slot keeps none between calls.
    fn slot_energy(&self, st: &mut IncGridState, mol_c: &Molecule, slot: usize) -> f64 {
        let (_, grid, solver) = st.frame.as_ref().unwrap();
        let (inc, guess) = &mut st.slots[slot];
        let basis = Basis::sto3g(mol_c);
        let on_grid = BasisOnGrid::new(&basis, grid);
        let nocc = mol_c.nocc();
        // The grid builds Σ_j (μj|jν); the session's K(D) is twice that.
        let mut exchange = |c_occ: &Mat| {
            inc.exchange_operator(&on_grid, c_occ, nocc, solver, GRID_EPS)
                .k
                .scale(2.0)
        };
        let opts = ScfOptions::default();
        let r = ScfSession::with_exchange(mol_c, &basis, &opts, &mut exchange, guess.as_ref())
            .run_to_completion();
        assert!(r.converged, "grid SCF failed for {}", mol_c.formula());
        *guess = Some(r.c);
        r.energy
    }
}

impl ForceProvider for IncrementalGridForces {
    fn compute(&self, mol: &Molecule, _cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        let mut st = self.state.lock().unwrap();
        if st.frame.is_none() {
            let shift = Vec3::splat(self.edge / 2.0) - mol.centroid();
            let grid = liair_grid::RealGrid::cubic(Cell::cubic(self.edge), self.n);
            let solver = liair_grid::PoissonSolver::isolated(grid);
            st.frame = Some((shift, grid, solver));
        }
        let nslots = 1 + 6 * mol.natoms();
        if st.slots.len() != nslots {
            let IncSchedule {
                eps_inc,
                rebuild_every,
            } = self.inc_schedule;
            st.slots = (0..nslots)
                .map(|_| (IncrementalExchange::new(eps_inc, rebuild_every), None))
                .collect();
        }
        let shift = st.frame.as_ref().unwrap().0;
        let mut mol_c = mol.clone();
        mol_c.translate(shift);

        let e0 = self.slot_energy(&mut st, &mol_c, 0);
        // Sequential FD loop: each displaced geometry diffs against the
        // *same* displacement of the previous step, where almost nothing
        // moved — the incremental caches turn most of the 6N extra SCFs
        // into cache-dominated reruns.
        let mut forces = vec![Vec3::ZERO; mol.natoms()];
        for atom in 0..mol.natoms() {
            for axis in 0..3 {
                let mut ep_em = [0.0; 2];
                for (sign, e) in ep_em.iter_mut().enumerate() {
                    let mut m = mol_c.clone();
                    m.atoms[atom].pos[axis] += [GRID_FD_STEP, -GRID_FD_STEP][sign];
                    let slot = 1 + atom * 6 + axis * 2 + sign;
                    *e = self.slot_energy(&mut st, &m, slot);
                }
                forces[atom][axis] = -(ep_em[0] - ep_em[1]) / (2.0 * GRID_FD_STEP);
            }
        }
        (e0, forces)
    }
}

/// GGA/LDA Born–Oppenheimer forces — the *fast* half of the MTS force
/// splitting. The energy is an analytic RKS-LDA SCF on the Becke
/// molecular quadrature (`liair-grid::MolGrid`), optionally with a GGA
/// energy evaluated post-SCF on the converged LDA density (the repo's
/// GGA convention — see DESIGN.md); forces are rayon-parallel central
/// differences. This path never touches the exchange engine, which is
/// the whole point of paying it every inner step.
pub struct XcForces {
    /// The exchange-free surrogate functional (`Lda` or `Pbe`; construct
    /// from a hybrid target with `Functional::mts_fast()`).
    pub functional: liair_xc::Functional,
}

impl XcForces {
    /// A provider for the given surrogate functional. Panics if the
    /// functional carries exact exchange — pass `target.mts_fast()` for
    /// hybrids.
    pub fn new(functional: liair_xc::Functional) -> Self {
        assert!(
            functional.hfx_fraction() == 0.0,
            "fast MTS forces must be exchange-free; use Functional::mts_fast() ({} given)",
            functional.name()
        );
        Self { functional }
    }

    /// Surrogate energy at one geometry.
    fn energy(&self, mol: &Molecule) -> f64 {
        let basis = liair_basis::Basis::sto3g(mol);
        let opts = liair_scf::ScfOptions::default();
        let res = liair_scf::rks_lda(mol, &basis, &opts);
        assert!(res.converged, "fast-force SCF failed for {}", mol.formula());
        if self.functional == liair_xc::Functional::Lda {
            res.energy
        } else {
            liair_scf::functional_energy(mol, &basis, &res, self.functional, &opts)
        }
    }
}

impl ForceProvider for XcForces {
    fn compute(&self, mol: &Molecule, _cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        let e0 = self.energy(mol);
        use rayon::prelude::*;
        let forces: Vec<Vec3> = (0..mol.natoms())
            .into_par_iter()
            .map(|atom| {
                let mut f = Vec3::ZERO;
                for axis in 0..3 {
                    let mut plus = mol.clone();
                    plus.atoms[atom].pos[axis] += XC_FD_STEP;
                    let mut minus = mol.clone();
                    minus.atoms[atom].pos[axis] -= XC_FD_STEP;
                    f[axis] = -(self.energy(&plus) - self.energy(&minus)) / (2.0 * XC_FD_STEP);
                }
                f
            })
            .collect();
        (e0, forces)
    }
}

/// The r-RESPA force split for hybrid-functional MD: `fast` is the
/// exchange-free surrogate ([`XcForces`]), `full` is the grid-exchange
/// SCF with per-slot incremental caches ([`IncrementalGridForces`]), and
/// the slow correction is their difference at the outer geometry —
/// reusing the fast result the integrator just computed, so one outer
/// step pays exactly one full evaluation. Consecutive outer steps
/// warm-start the same incremental caches, and
/// [`SplitForceProvider::reuse_totals`] exposes the counters for the
/// trajectory log.
pub struct HfxDeltaForces {
    /// Inner-step surrogate provider.
    pub fast: XcForces,
    /// Outer-step full (hybrid/HFX) provider.
    pub full: IncrementalGridForces,
}

impl SplitForceProvider for HfxDeltaForces {
    fn fast_forces(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        self.fast.compute(mol, cell)
    }

    fn slow_correction(
        &self,
        mol: &Molecule,
        cell: Option<&Cell>,
        fast: (f64, &[Vec3]),
    ) -> (f64, Vec<Vec3>) {
        let (e_full, f_full) = self.full.compute(mol, cell);
        let forces = f_full.iter().zip(fast.1).map(|(a, b)| *a - *b).collect();
        (e_full - fast.0, forces)
    }

    fn reuse_totals(&self) -> Option<liair_core::IncStats> {
        Some(self.full.reuse_totals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::{MdOptions, MdState, Thermostat};
    use crate::mts::MtsOptions;
    use liair_basis::systems;

    #[test]
    fn incremental_grid_forces_reuse_across_steps() {
        // Grid-exchange BOMD provider with per-slot incremental caches: a
        // compressed H2 pushes apart, and a repeated step (nothing moved)
        // is served almost entirely from the caches.
        let sched = liair_core::IncSchedule::fixed(1e-4, 0);
        let provider = IncrementalGridForces::new(20, 12.0, sched);
        let mut short = systems::h2();
        short.atoms[1].pos.x = 1.1;
        let (e1, f1) = provider.compute(&short, None);
        assert!(e1.is_finite());
        assert!(f1[1].x > 0.0, "compressed: {}", f1[1].x);
        let t1 = provider.reuse_totals();
        // Identical geometry: every FD slot diffs against itself.
        let (e2, f2) = provider.compute(&short, None);
        let t2 = provider.reuse_totals();
        assert!(
            (e1 - e2).abs() < 1e-8,
            "repeat step energy moved: {e1} vs {e2}"
        );
        assert!(
            (f1[1].x - f2[1].x).abs() < 1e-6,
            "repeat step force moved: {} vs {}",
            f1[1].x,
            f2[1].x
        );
        assert!(
            t2.pairs_reused > t1.pairs_reused,
            "no cross-step reuse: {t1:?} then {t2:?}"
        );
    }

    #[test]
    fn incremental_grid_forces_are_pinned() {
        // Stretched H₂ on the benchmark's 24³ grid in a 12 Bohr box. The
        // bits were recorded on x86-64 Linux; 1e-14 relative leaves room
        // only for another platform's FFT twiddles (its `sin`/`cos`).
        let mut mol = systems::h2();
        mol.atoms[1].pos.x = 1.5;
        let provider =
            IncrementalGridForces::new(24, 12.0, liair_core::IncSchedule::fixed(1e-4, 0));
        let (e, f) = provider.compute(&mol, None);
        for (got, want) in [
            (e, f64::from_bits(0xbff1_ca71_fc16_0efe)),
            (f[1].x, f64::from_bits(0xbfb2_002d_b82a_c360)),
        ] {
            assert!(
                (got - want).abs() <= 1e-14 * want.abs(),
                "{got:.17e} ({:#x}) vs {want:.17e}",
                got.to_bits()
            );
        }
    }

    #[test]
    fn xc_forces_are_pinned() {
        let mut mol = systems::h2();
        mol.atoms[1].pos.x = 1.5;
        let (_, f) = XcForces::new(liair_xc::Functional::Lda).compute(&mol, None);
        let want = -4.312_777_195_969_453e-2;
        assert!((f[1].x - want).abs() <= 1e-10, "{:.17e}", f[1].x);
    }

    #[test]
    fn xc_forces_bracket_lda_equilibrium() {
        // The LDA surrogate is a genuine potential surface: compressed H2
        // pushes apart, stretched pulls together, and the FD forces are
        // consistent with the energy (sign test around the minimum).
        let provider = XcForces::new(liair_xc::Functional::Lda);
        let mut short = systems::h2();
        short.atoms[1].pos.x = 1.1;
        let (e_short, f_short) = provider.compute(&short, None);
        assert!(e_short.is_finite());
        assert!(f_short[1].x > 0.0, "compressed: {}", f_short[1].x);
        let mut long = systems::h2();
        long.atoms[1].pos.x = 2.2;
        let (_, f_long) = provider.compute(&long, None);
        assert!(f_long[1].x < 0.0, "stretched: {}", f_long[1].x);
    }

    #[test]
    #[should_panic(expected = "exchange-free")]
    fn xc_forces_reject_hybrids() {
        let _ = XcForces::new(liair_xc::Functional::Pbe0);
    }

    #[test]
    fn mts_bomd_h2_runs_and_reuses_cache() {
        // The real thing end to end: H2 r-RESPA BOMD with the LDA
        // surrogate inner force and the grid-exchange SCF as the outer
        // full force, per-slot incremental caches warm-started across
        // outer steps. Checks energy sanity, per-outer-step reuse
        // counters in the log, and bounded drift at outer boundaries.
        let sched = liair_core::IncSchedule::fixed(1e-4, 0);
        let split = HfxDeltaForces {
            fast: XcForces::new(liair_xc::Functional::Lda),
            full: IncrementalGridForces::new(16, 10.0, sched),
        };
        let mut mol = systems::h2();
        mol.atoms[1].pos.x = 1.5;
        let mut state = MdState::new_split(mol, None, &split);
        let e0 = state.total_energy();
        let opts = MdOptions {
            dt: 10.0,
            thermostat: Thermostat::None,
            mts: MtsOptions { n_inner: 2 },
        };
        let log = state.run_mts_logged(&split, &opts, 3);
        assert_eq!(state.step_count, 6);
        let drift = log
            .iter()
            .map(|r| (r.conserved - e0).abs())
            .fold(0.0, f64::max);
        assert!(drift < 5e-3, "MTS BOMD drift {drift} Ha");
        // Outer steps after the first must reuse the warm caches.
        let inc_last = log.last().unwrap().inc.expect("slow path carries a cache");
        assert!(
            inc_last.pairs_reused > 0,
            "no cross-outer-step reuse: {inc_last:?}"
        );
    }
}
