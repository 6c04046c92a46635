//! Quantum force providers for hybrid-functional Born–Oppenheimer MD under
//! r-RESPA multiple time stepping:
//!
//! * [`XcForces`] — the exchange-free RKS-LDA surrogate, paid every inner
//!   step;
//! * [`IncrementalGridForces`] — the grid-exchange SCF with one
//!   incremental-exchange cache, paid every outer step;
//! * [`HfxDeltaForces`] — their difference as the integrator's slow force.
//!
//! Both forces are analytic: one SCF and its nuclear gradient
//! (`ScfSession::gradient`) per geometry, from what the converged session
//! holds. The grid SCF's exchange term comes from one more K build at the
//! converged orbitals, whose pair items carry the projections onto the AO
//! gradients (clean pairs are read from the cache).
//!
//! The settings are constants: screening at ε = 1e-4 and
//! `ScfOptions::default()` for both SCFs. The grid SCF is an
//! `ScfSession::with_exchange` whose K is the cache's
//! `IncrementalExchange::exchange_operator`, so it has the session's DIIS
//! and convergence test and builds the analytic J alone. The AO fields it
//! contracts are evaluated once per geometry, by tensor-product
//! collocation (`nx + ny + nz` exponentials per primitive, not one per
//! grid point). The surrogate's RKS-LDA SCFs also build J alone, and
//! evaluate the LDA energy density and potential together, once per
//! Becke point per iteration. What a caller chooses is the grid, the box
//! and the reuse tolerance.

use crate::integrator::ForceProvider;
use liair_basis::{Basis, Cell, Molecule};
use liair_core::{BasisOnGrid, IncSchedule, IncrementalExchange};
use liair_math::{Mat, Vec3};
use liair_scf::{Method, ScfOptions, ScfSession};
use std::cell::RefCell;

/// Pair-screening threshold of [`IncrementalGridForces`]' grid SCF (also
/// turns on localization).
const GRID_EPS: f64 = 1e-4;

/// Born–Oppenheimer forces from the *grid-exchange* SCF with one
/// incremental-exchange cache — the MD setting the incremental scheme is
/// built for: between consecutive steps the localized orbitals barely
/// move, so most pair-Poisson solves are replaced by cache hits.
///
/// The box frame is **fixed at the first call** (molecule centered once,
/// never re-centered): a drifting frame would move every orbital field in
/// grid coordinates and defeat the fingerprint comparison. Each call
/// warm-starts from the previous call's converged orbitals, and its K
/// builds diff against the previous call's cache.
pub struct IncrementalGridForces {
    /// Grid points per axis.
    pub n: usize,
    /// Fixed cubic box edge (Bohr); must contain the trajectory.
    pub edge: f64,
    state: std::sync::Mutex<IncGridState>,
}

struct IncGridState {
    /// `(shift, grid, solver)` frozen at the first call.
    frame: Option<(Vec3, liair_grid::RealGrid, liair_grid::PoissonSolver)>,
    inc: IncrementalExchange,
    /// The previous call's converged orbitals.
    guess: Option<Mat>,
}

impl IncrementalGridForces {
    /// A provider with the given grid/box and reuse settings.
    pub fn new(n: usize, edge: f64, inc_schedule: IncSchedule) -> Self {
        let IncSchedule {
            eps_inc,
            rebuild_every,
        } = inc_schedule;
        Self {
            n,
            edge,
            state: std::sync::Mutex::new(IncGridState {
                frame: None,
                inc: IncrementalExchange::new(eps_inc, rebuild_every),
                guess: None,
            }),
        }
    }

    /// Cumulative reuse counters of the cache since construction.
    pub fn reuse_totals(&self) -> liair_core::IncStats {
        self.state.lock().unwrap().inc.totals
    }
}

impl ForceProvider for IncrementalGridForces {
    /// One grid SCF in the fixed frame, an RHF session whose K is the
    /// cache's grid operator, then one more K build at its converged
    /// orbitals for the exchange term of its gradient. The AO fields live
    /// as long as the call.
    fn compute(&self, mol: &Molecule, _cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        let mut guard = self.state.lock().unwrap();
        let IncGridState { frame, inc, guess } = &mut *guard;
        let (shift, grid, solver) = frame.get_or_insert_with(|| {
            let grid = liair_grid::RealGrid::cubic(Cell::cubic(self.edge), self.n);
            let solver = liair_grid::PoissonSolver::isolated(grid);
            (Vec3::splat(self.edge / 2.0) - mol.centroid(), grid, solver)
        });
        let mut mol_c = mol.clone();
        mol_c.translate(*shift);
        let basis = Basis::sto3g(&mol_c);
        let on_grid = BasisOnGrid::new(&basis, grid);
        let nocc = mol_c.nocc();
        let inc = RefCell::new(inc);
        let k_build = |c_occ: &Mat| {
            inc.borrow_mut()
                .exchange_operator(&on_grid, c_occ, nocc, solver, GRID_EPS)
                .expect(
                    "the rayon backend has no messages to lose, and the occupied \
                     exchange matrix of real orbitals is positive",
                )
        };
        // The grid builds Σ_j (μj|jν); the session's K(D) is twice that.
        let mut exchange = |c_occ: &Mat| k_build(c_occ).k.scale(2.0);
        let opts = ScfOptions::default();
        // Another molecule's orbitals are no guess.
        let start = guess.as_ref().filter(|c| c.nrows() == basis.nao());
        let mut scf = ScfSession::with_exchange(&mol_c, &basis, &opts, &mut exchange, start);
        while scf.step() {}
        assert!(scf.converged(), "grid SCF failed for {}", mol_c.formula());
        let exchange_term = k_build(&scf.occupied_orbitals()).gradient;
        let forces = scf
            .gradient(Some(&exchange_term))
            .into_iter()
            .map(|g| -g)
            .collect();
        let energy = scf.energy();
        *guess = Some(scf.into_result().c);
        (energy, forces)
    }
}

/// RKS-LDA Born–Oppenheimer forces — the *fast* half of the MTS force
/// splitting. One SCF on the Becke molecular quadrature
/// (`liair-grid::MolGrid`) per geometry, and the forces are its analytic
/// gradient, the exact derivative of that quadrature energy. This path
/// never touches the exchange engine, which is the whole point of paying
/// it every inner step. LDA is the one functional whose SCF energy here
/// is variational and so has an analytic gradient (PBE is only ever
/// evaluated post-SCF).
pub struct XcForces;

impl XcForces {
    /// A provider for the given surrogate functional. Panics for any
    /// functional other than `Functional::Lda`: hybrids carry exact
    /// exchange, and a GGA has no self-consistent energy to differentiate.
    pub fn new(functional: liair_xc::Functional) -> Self {
        assert!(
            functional == liair_xc::Functional::Lda,
            "fast MTS forces must be exchange-free RKS-LDA ({} given)",
            functional.name()
        );
        Self
    }
}

impl ForceProvider for XcForces {
    fn compute(&self, mol: &Molecule, _cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        let basis = Basis::sto3g(mol);
        let mut scf = ScfSession::new(mol, &basis, &ScfOptions::default(), Method::RksLda);
        while scf.step() {}
        assert!(
            scf.converged(),
            "fast-force SCF failed for {}",
            mol.formula()
        );
        let forces = scf.gradient(None).into_iter().map(|g| -g).collect();
        (scf.energy(), forces)
    }
}

/// The r-RESPA force split for hybrid-functional MD: `fast` is the
/// exchange-free surrogate ([`XcForces`]), `full` is the grid-exchange
/// SCF with its incremental cache ([`IncrementalGridForces`]), and
/// the slow correction is their difference at the outer geometry —
/// reusing the fast result the integrator just computed, so one outer
/// step pays exactly one full evaluation. Consecutive outer steps
/// warm-start the same incremental cache, and
/// [`ForceProvider::reuse_totals`] exposes the counters for the
/// trajectory log.
pub struct HfxDeltaForces {
    /// Inner-step surrogate provider.
    pub fast: XcForces,
    /// Outer-step full (hybrid/HFX) provider.
    pub full: IncrementalGridForces,
}

impl ForceProvider for HfxDeltaForces {
    fn compute(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        self.fast.compute(mol, cell)
    }

    fn slow_correction(
        &self,
        mol: &Molecule,
        cell: Option<&Cell>,
        fast: (f64, &[Vec3]),
    ) -> Option<(f64, Vec<Vec3>)> {
        let (e_full, f_full) = self.full.compute(mol, cell);
        let forces = f_full.iter().zip(fast.1).map(|(a, b)| *a - *b).collect();
        Some((e_full - fast.0, forces))
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
        // Grid-exchange BOMD provider with one incremental cache: a
        // compressed H2 pushes apart, and a repeated step (nothing moved)
        // is served almost entirely from the cache.
        let sched = liair_core::IncSchedule::fixed(1e-4, 0);
        let provider = IncrementalGridForces::new(20, 12.0, sched);
        let mut short = systems::h2();
        short.atoms[1].pos.x = 1.1;
        let (e1, f1) = provider.compute(&short, None);
        assert!(e1.is_finite());
        assert!(f1[1].x > 0.0, "compressed: {}", f1[1].x);
        let t1 = provider.reuse_totals();
        // Identical geometry: the K builds diff against the first call's.
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
        // only for another platform's FFT twiddles (its `sin`/`cos`). The
        // energy is the one the 6N+1-point central difference pinned (its
        // K items' AO words did not change). The analytic force moved from
        // that difference's 0xbfb2002db866cc20 (−7.031522514e-2) by
        // −1.952e-5 Ha/Bohr: the difference's O(h²) truncation at h = 1e-2.
        let mut mol = systems::h2();
        mol.atoms[1].pos.x = 1.5;
        let provider =
            IncrementalGridForces::new(24, 12.0, liair_core::IncSchedule::fixed(1e-4, 0));
        let (e, f) = provider.compute(&mol, None);
        for (got, want) in [
            (e, f64::from_bits(0xbff1_ca71_fc16_0ed6)),
            (f[1].x, f64::from_bits(0xbfb2_0175_3418_b55c)),
        ] {
            assert!(
                (got - want).abs() <= 1e-14 * want.abs(),
                "{got:.17e} ({:#x}) vs {want:.17e}",
                got.to_bits()
            );
        }
    }

    #[test]
    fn one_grid_force_is_one_scf_and_one_gradient_build() {
        // H₂ has one orbital pair, so each K build counts one pair: a call
        // adds the SCF's iterations plus the gradient's build, where the
        // central difference ran 13 SCFs. The iterations are those of the
        // same SCF run alone (the provider's first call has no guess and
        // a cold cache).
        let (n, edge, eps) = (24, 12.0, 1e-4);
        let mut mol = systems::h2();
        mol.atoms[1].pos.x = 1.5;
        let provider = IncrementalGridForces::new(n, edge, liair_core::IncSchedule::fixed(eps, 0));
        provider.compute(&mol, None);
        let totals = provider.reuse_totals();

        mol.translate(Vec3::splat(edge / 2.0) - mol.centroid());
        let grid = liair_grid::RealGrid::cubic(Cell::cubic(edge), n);
        let solver = liair_grid::PoissonSolver::isolated(grid);
        let basis = Basis::sto3g(&mol);
        let on_grid = BasisOnGrid::new(&basis, &grid);
        let mut inc = IncrementalExchange::new(eps, 0);
        let mut k = |c: &Mat| {
            inc.exchange_operator(&on_grid, c, 1, &solver, GRID_EPS)
                .expect("fault-free build")
                .k
                .scale(2.0)
        };
        let scf = ScfSession::with_exchange(&mol, &basis, &ScfOptions::default(), &mut k, None)
            .run_to_completion();
        assert_eq!(
            totals.pairs_reused + totals.pairs_recomputed,
            scf.iterations + 1,
            "{totals:?}"
        );
    }

    #[test]
    fn mts_conserves_energy_to_second_order_in_the_step() {
        // NVE r-RESPA on `HfxDeltaForces` at n_inner = 2: stretched H₂
        // released from rest for 100 a.u. (a third of a vibration), the
        // production reuse tolerance. The largest |E(t) − E(0)| over the
        // outer boundaries is the integrator's own O(dt²) error: a quarter
        // at half the step (9.947e-6 and 2.487e-6 Ha when recorded, ratio
        // 3.9996). The 1e-2 Bohr central differences of the grid energy
        // this force replaced read 1.695e-5 and 1.037e-5, ratio 1.63: a
        // floor of their own.
        let drift = |dt: f64| {
            let split = HfxDeltaForces {
                fast: XcForces::new(liair_xc::Functional::Lda),
                full: IncrementalGridForces::new(24, 12.0, liair_core::IncSchedule::fixed(1e-4, 0)),
            };
            let mut mol = systems::h2();
            mol.atoms[1].pos.x = 1.5;
            let mut state = MdState::new(mol, None, &split);
            let e0 = state.total_energy();
            let opts = MdOptions {
                dt,
                thermostat: Thermostat::None,
                mts: MtsOptions { n_inner: 2 },
            };
            let mut drift: f64 = 0.0;
            for _ in 0..(100.0 / (2.0 * dt)) as usize {
                state.step(&split, &opts);
                drift = drift.max((state.total_energy() - e0).abs());
            }
            drift
        };
        let (coarse, fine) = (drift(2.5), drift(1.25));
        let ratio = coarse / fine;
        eprintln!("MTS drift {coarse:e} / {fine:e} = {ratio}");
        assert!(coarse < 2e-5, "NVE drift {coarse:e} Ha at dt = 2.5");
        assert!(
            (ratio - 4.0).abs() < 0.05,
            "drift ratio {ratio} ({coarse:e}, {fine:e})"
        );
    }

    /// The forces `XcForces` took before they were analytic: central
    /// differences of the RKS-LDA energy, 1e-3 Bohr each way.
    fn xc_fd_oracle(mol: &Molecule) -> Vec<Vec3> {
        let energy = |m: &Molecule| {
            let res = liair_scf::rks_lda(m, &Basis::sto3g(m), &ScfOptions::default());
            assert!(res.converged);
            res.energy
        };
        let h = 1e-3;
        (0..mol.natoms())
            .map(|atom| {
                let mut f = Vec3::ZERO;
                for axis in 0..3 {
                    let at = |step: f64| {
                        let mut m = mol.clone();
                        m.atoms[atom].pos[axis] += step;
                        energy(&m)
                    };
                    f[axis] = -(at(h) - at(-h)) / (2.0 * h);
                }
                f
            })
            .collect()
    }

    #[test]
    fn xc_forces_match_the_finite_difference_oracle_and_sum_to_zero() {
        // Both at the default SCF settings (energy_tol 1e-9 Ha), so the
        // oracle carries its own O(h²) truncation and its energies'
        // convergence noise over 2h; the bound covers both (the largest
        // |F − F_FD| per atom read 2.6e-7, 2.3e-8 and 5.2e-7 Ha/Bohr on
        // H₂, LiH and water when recorded). The energy is the SCF's own.
        let provider = XcForces::new(liair_xc::Functional::Lda);
        for mol in [systems::h2(), systems::lih(), systems::water()] {
            let (e, f) = provider.compute(&mol, None);
            let res = liair_scf::rks_lda(&mol, &Basis::sto3g(&mol), &ScfOptions::default());
            assert_eq!(e.to_bits(), res.energy.to_bits(), "{}", mol.formula());
            let oracle = xc_fd_oracle(&mol);
            for (atom, (a, b)) in f.iter().zip(&oracle).enumerate() {
                let err = (*a - *b).norm();
                assert!(
                    err < 2e-6,
                    "{} atom {atom}: {a:?} vs FD {b:?}",
                    mol.formula()
                );
            }
            let total = f.iter().fold(Vec3::ZERO, |a, g| a + *g);
            assert!(total.norm() < 1e-10, "{}: Σ F = {total:?}", mol.formula());
        }
    }

    #[test]
    fn xc_forces_are_pinned() {
        // Stretched H₂, the benchmark's molecule, on the pruned XC grid.
        // The unpruned 40 × 8 grid read −4.312795633236516e-2, 1.1e-4
        // Ha/Bohr from a dense 80 × 16 grid's force; this one is at most
        // 4.3e-6 from it.
        let mut mol = systems::h2();
        mol.atoms[1].pos.x = 1.5;
        let (_, f) = XcForces::new(liair_xc::Functional::Lda).compute(&mol, None);
        let want = -4.301_555_021_705_999_5e-2;
        assert!((f[1].x - want).abs() <= 1e-10, "{:.17e}", f[1].x);
    }

    #[test]
    fn xc_forces_conserve_energy_on_a_single_time_step() {
        // Plain velocity Verlet on the analytic LDA forces alone: stretched
        // H₂ released from rest for 100 a.u. (a third of a vibration). The
        // largest |E(t) − E(0)| is Verlet's own O(dt²) error: under 2e-6
        // Ha at dt = 2.5, and a quarter of that at half the step (1.881e-6
        // and 4.704e-7 when recorded, ratio 3.999). The forces add no
        // floor of their own: the 1e-3 Bohr central differences they
        // replaced read 1.909e-6 and 4.977e-7, ratio 3.835.
        let provider = XcForces::new(liair_xc::Functional::Lda);
        let drift = |dt: f64| {
            let mut mol = systems::h2();
            mol.atoms[1].pos.x = 1.5;
            let mut state = MdState::new(mol, None, &provider);
            let e0 = state.total_energy();
            let opts = MdOptions {
                dt,
                thermostat: Thermostat::None,
                mts: MtsOptions { n_inner: 1 },
            };
            let mut drift: f64 = 0.0;
            for _ in 0..(100.0 / dt) as usize {
                state.step(&provider, &opts);
                drift = drift.max((state.total_energy() - e0).abs());
            }
            drift
        };
        let (coarse, fine) = (drift(2.5), drift(1.25));
        assert!(coarse < 2e-6, "NVE drift {coarse:e} Ha at dt = 2.5");
        let ratio = coarse / fine;
        assert!(
            (ratio - 4.0).abs() < 0.05,
            "drift ratio {ratio} ({coarse:e}, {fine:e})"
        );
    }

    #[test]
    #[should_panic(expected = "exchange-free RKS-LDA")]
    fn xc_forces_reject_gga() {
        let _ = XcForces::new(liair_xc::Functional::Pbe);
    }

    #[test]
    fn xc_forces_bracket_lda_equilibrium() {
        // The LDA surrogate is a genuine potential surface: compressed H2
        // pushes apart, stretched pulls together (sign test around the
        // minimum).
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
        let mut state = MdState::new(mol, None, &split);
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
