//! r-RESPA multiple time stepping: amortize the expensive exact-exchange
//! (HFX) force over several cheap GGA/LDA steps.
//!
//! Hybrid-functional BOMD pays the full HFX price every step even though
//! the *difference* between the hybrid and its exchange-free surrogate
//! varies slowly along the trajectory (Mandal et al., PAPERS.md). The
//! reversible reference-system propagator (r-RESPA, Tuckerman–Berne–
//! Martyna) splits the force accordingly:
//!
//! * **fast** — the exchange-free surrogate force (`XcForces`, RKS-LDA
//!   with its analytic gradient), evaluated every inner step of size `dt`;
//! * **slow** — the correction `F_full − F_fast`, applied as an impulse
//!   `n_inner · F_slow` folded into the opening and closing half-kicks of
//!   each outer step of size `n_inner · dt`.
//!
//! [`MdState::step`] is the only MD step. Without a slow correction
//! ([`ForceProvider::slow_correction`] returns `None`) the slow force stays
//! zero, and at `n_inner = 1` the step is plain velocity Verlet bit for
//! bit: the impulse weight is exactly `1.0`, and the zero impulse could
//! only turn a `−0.0` velocity into `+0.0`, which no velocity here is.
//! Property tests hold the step to the velocity-Verlet step it replaced,
//! kept as a `#[cfg(test)]` oracle.
//!
//! Thermostats act on the outer timestep: Nosé–Hoover half-steps bracket
//! the whole outer step (so its conserved quantity
//! [`MdState::nose_hoover_conserved`] remains the drift diagnostic), and
//! Berendsen rescales once per outer step.
//!
//! The total energy on the MTS trajectory is `E_fast + E_slow` with the
//! slow part re-evaluated only at outer boundaries; between boundaries
//! [`MdState::potential`] carries the fast potential plus the *last*
//! slow correction (the r-RESPA approximation). Judge drift at outer
//! boundaries, where both parts are fresh — [`MdState::run_mts_logged`]
//! records exactly those, along with per-outer-step incremental-exchange
//! reuse counters when the slow path carries an incremental-exchange
//! cache ([`ForceProvider::reuse_totals`]).

use crate::forcefield::ForceField;
use crate::integrator::{ForceProvider, MdOptions, MdState, Thermostat};
use liair_basis::{Cell, Molecule};
use liair_core::IncStats;
use liair_math::Vec3;
use std::time::Instant;

/// Multiple-time-stepping controls (carried on
/// [`MdOptions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MtsOptions {
    /// Inner (fast-force) steps per outer (slow-correction) step. `1`
    /// without a slow correction is plain velocity Verlet.
    pub n_inner: usize,
}

impl Default for MtsOptions {
    fn default() -> Self {
        Self { n_inner: 1 }
    }
}

/// Wall-clock split of one outer step.
#[derive(Debug, Clone, Copy, Default)]
pub struct MtsStepTimes {
    /// Total time in [`ForceProvider::compute`] over the `n_inner` inner
    /// steps.
    pub t_fast_s: f64,
    /// Time in the single [`ForceProvider::slow_correction`] evaluation.
    pub t_slow_s: f64,
}

/// One outer step of the trajectory log (see
/// [`MdState::run_mts_logged`]).
#[derive(Debug, Clone)]
pub struct MtsOuterRecord {
    /// Inner steps completed after this outer step.
    pub step_count: usize,
    /// Total potential (fast + fresh slow) at the outer boundary.
    pub potential: f64,
    /// The conserved quantity at the outer boundary: total energy for
    /// NVE/Berendsen, the Nosé–Hoover extended energy under NH.
    pub conserved: f64,
    /// Instantaneous temperature (K).
    pub temperature: f64,
    /// Wall-clock split of this outer step.
    pub times: MtsStepTimes,
    /// Incremental-exchange counters attributable to this outer step
    /// (delta of [`ForceProvider::reuse_totals`] across the step).
    pub inc: Option<IncStats>,
}

impl MdState {
    /// [`MdState::new`] under its split-provider name, kept only for the
    /// `mts-bomd` benchmark workload that calls it (ROADMAP item 8).
    pub fn new_split<F: ForceProvider>(mol: Molecule, cell: Option<Cell>, provider: &F) -> MdState {
        MdState::new(mol, cell, provider)
    }

    /// One r-RESPA **outer** step: `opts.mts.n_inner` velocity-Verlet
    /// inner steps of size `opts.dt` under [`ForceProvider::compute`],
    /// with the slow impulse `n_inner · F_slow` folded into the opening
    /// and closing half-kicks, and the thermostat applied on the outer
    /// timestep. Without a slow correction this is plain velocity Verlet.
    /// Advances [`MdState::step_count`] by `n_inner`. Returns the
    /// wall-clock split between fast and slow evaluations.
    pub fn step<F: ForceProvider>(&mut self, provider: &F, opts: &MdOptions) -> MtsStepTimes {
        let n = opts.mts.n_inner;
        assert!(n >= 1, "MtsOptions::n_inner must be >= 1");
        let dt = opts.dt;
        let kick = n as f64; // slow impulse weight (1.0 ⇒ bitwise plain VV)
        let dt_outer = kick * dt;
        let mut times = MtsStepTimes::default();
        if let Thermostat::NoseHoover { t_target, tau } = opts.thermostat {
            self.nose_hoover_half(dt_outer, t_target, tau);
        }
        for k in 0..n {
            // Half kick + drift; the outer step's opening kick carries
            // the slow impulse.
            let opening = (k == 0).then_some(kick);
            for i in 0..self.mol.natoms() {
                let f = self.kick_force(i, opening);
                self.velocities[i] += f * (0.5 * dt / self.masses[i]);
                self.mol.atoms[i].pos += self.velocities[i] * dt;
            }
            let t0 = Instant::now();
            let (e_fast, f_fast) = provider.compute(&self.mol, self.cell.as_ref());
            times.t_fast_s += t0.elapsed().as_secs_f64();
            self.forces = f_fast;
            // The outer boundary refreshes the slow correction and closes
            // with the impulse-carrying half kick; an interior inner step
            // closes with the fast force alone, and the cached slow
            // potential keeps `total_energy` meaningful.
            let closing = (k == n - 1).then_some(kick);
            if closing.is_some() {
                let t0 = Instant::now();
                let slow =
                    provider.slow_correction(&self.mol, self.cell.as_ref(), (e_fast, &self.forces));
                times.t_slow_s += t0.elapsed().as_secs_f64();
                if let Some((e_slow, f_slow)) = slow {
                    self.forces_slow = f_slow;
                    self.potential_slow = e_slow;
                }
            }
            self.potential = e_fast + self.potential_slow;
            for i in 0..self.mol.natoms() {
                let f = self.kick_force(i, closing);
                self.velocities[i] += f * (0.5 * dt / self.masses[i]);
            }
        }
        self.end_of_step_thermostat(dt_outer, opts.thermostat);
        self.step_count += n;
        times
    }

    /// The force on atom `i` in a half kick: the cached fast force, plus
    /// the slow impulse `kick · F_slow` when the kick opens or closes an
    /// outer step.
    fn kick_force(&self, i: usize, kick: Option<f64>) -> Vec3 {
        match kick {
            Some(w) => self.forces[i] + self.forces_slow[i] * w,
            None => self.forces[i],
        }
    }

    /// Run `n_outer` outer steps (`n_outer · n_inner` inner steps).
    pub fn run<F: ForceProvider>(&mut self, provider: &F, opts: &MdOptions, n_outer: usize) {
        for _ in 0..n_outer {
            self.step(provider, opts);
        }
    }

    /// Run `n_outer` outer steps recording one [`MtsOuterRecord`] per
    /// outer boundary — conserved quantity, wall-clock split, and the
    /// per-outer-step incremental-exchange reuse counters.
    pub fn run_mts_logged<F: ForceProvider>(
        &mut self,
        provider: &F,
        opts: &MdOptions,
        n_outer: usize,
    ) -> Vec<MtsOuterRecord> {
        let mut log = Vec::with_capacity(n_outer);
        let mut base = provider.reuse_totals();
        for _ in 0..n_outer {
            let times = self.step(provider, opts);
            let now = provider.reuse_totals();
            let inc = match (&base, &now) {
                (Some(b), Some(n)) => Some(n.since(b)),
                _ => None,
            };
            base = now;
            let conserved = match opts.thermostat {
                Thermostat::NoseHoover { t_target, tau } => {
                    self.nose_hoover_conserved(t_target, tau)
                }
                _ => self.total_energy(),
            };
            log.push(MtsOuterRecord {
                step_count: self.step_count,
                potential: self.potential,
                conserved,
                temperature: self.temperature(),
                times,
                inc,
            });
        }
        log
    }
}

/// The deterministic force split of the classical MD jobs and of the step's
/// oracle tests: the force field as the fast part, a weak quartic
/// tether to each atom's *initial* position as the slow correction
/// (smooth, conservative, nonzero). Reconstructable from the initial
/// geometry alone — which is why [`crate::MdCheckpoint`] never serializes
/// the provider.
pub struct TetherSplit {
    ff: ForceField,
    anchors: Vec<Vec3>,
    k: f64,
}

impl TetherSplit {
    /// Split anchored at `mol`'s current positions, with tether stiffness
    /// `k` (`E = k/4 · |r − r₀|⁴` per atom).
    pub fn new(mol: &Molecule, cell: Option<&Cell>, k: f64) -> TetherSplit {
        TetherSplit {
            ff: ForceField::from_molecule(mol, cell),
            anchors: mol.atoms.iter().map(|a| a.pos).collect(),
            k,
        }
    }
}

impl ForceProvider for TetherSplit {
    fn compute(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        self.ff.energy_forces(mol, cell)
    }

    fn slow_correction(
        &self,
        mol: &Molecule,
        _cell: Option<&Cell>,
        _fast: (f64, &[Vec3]),
    ) -> Option<(f64, Vec<Vec3>)> {
        let mut e = 0.0;
        let forces = mol
            .atoms
            .iter()
            .zip(&self.anchors)
            .map(|(a, &r0)| {
                let d = a.pos - r0;
                let r2 = d.norm_sqr();
                e += 0.25 * self.k * r2 * r2;
                -d * (self.k * r2)
            })
            .collect();
        Some((e, forces))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_basis::systems;
    use proptest::prelude::*;

    impl MdState {
        /// The velocity-Verlet step that [`MdState::step`] replaced,
        /// verbatim: the step must match it bit for bit at `n_inner = 1`
        /// without a slow force.
        fn velocity_verlet_oracle<F: ForceProvider>(&mut self, provider: &F, opts: &MdOptions) {
            let dt = opts.dt;
            if let Thermostat::NoseHoover { t_target, tau } = opts.thermostat {
                self.nose_hoover_half(dt, t_target, tau);
            }
            // Half kick + drift.
            for i in 0..self.mol.natoms() {
                self.velocities[i] += self.forces[i] * (0.5 * dt / self.masses[i]);
                self.mol.atoms[i].pos += self.velocities[i] * dt;
            }
            // New forces + half kick.
            let (pot, forces) = provider.compute(&self.mol, self.cell.as_ref());
            self.potential = pot;
            self.forces = forces;
            for i in 0..self.mol.natoms() {
                self.velocities[i] += self.forces[i] * (0.5 * dt / self.masses[i]);
            }
            // Thermostat.
            self.end_of_step_thermostat(dt, opts.thermostat);
            self.step_count += 1;
        }
    }

    /// A split provider's two parts summed into one unsplit force: the
    /// single-time-step reference of the split.
    struct Summed<'a, F: ForceProvider>(&'a F);

    impl<F: ForceProvider> ForceProvider for Summed<'_, F> {
        fn compute(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
            let (e_fast, f_fast) = self.0.compute(mol, cell);
            let (e_slow, f_slow) = self
                .0
                .slow_correction(mol, cell, (e_fast, &f_fast))
                .expect("a split provider");
            let forces = f_fast.iter().zip(&f_slow).map(|(a, b)| *a + *b).collect();
            (e_fast + e_slow, forces)
        }
    }

    fn thermostat_for(idx: usize, t_target: f64, tau: f64) -> Thermostat {
        match idx % 3 {
            0 => Thermostat::None,
            1 => Thermostat::Berendsen { t_target, tau },
            _ => Thermostat::NoseHoover { t_target, tau },
        }
    }

    /// Positions, velocities, potential, thermostat variables, step count
    /// and both conserved quantities agree to the bit.
    fn bitwise_eq(a: &MdState, b: &MdState, t_target: f64, tau: f64) -> bool {
        a.potential.to_bits() == b.potential.to_bits()
            && a.nh_xi.to_bits() == b.nh_xi.to_bits()
            && a.nh_eta.to_bits() == b.nh_eta.to_bits()
            && a.step_count == b.step_count
            && a.mol
                .atoms
                .iter()
                .zip(&b.mol.atoms)
                .all(|(x, y)| (0..3).all(|ax| x.pos[ax].to_bits() == y.pos[ax].to_bits()))
            && a.velocities
                .iter()
                .zip(&b.velocities)
                .all(|(x, y)| (0..3).all(|ax| x[ax].to_bits() == y[ax].to_bits()))
            // Functions of the state above, but what the drift
            // comparisons of bench-mts and the NH oracle are built on.
            && a.total_energy().to_bits() == b.total_energy().to_bits()
            && a.nose_hoover_conserved(t_target, tau).to_bits()
                == b.nose_hoover_conserved(t_target, tau).to_bits()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// r-RESPA at `n_inner = 1` on the split is the velocity-Verlet
        /// oracle on the summed split, for arbitrary geometries, seeds,
        /// timesteps and thermostats.
        #[test]
        fn n_inner_1_is_bitwise_plain_velocity_verlet(
            seed in 0u64..10_000,
            dt in 5.0f64..25.0,
            steps in 1usize..8,
            thermo in 0usize..3,
            t_target in 100.0f64..500.0,
            tau in 100.0f64..600.0,
        ) {
            let (mol, cell) = systems::water_box(2, seed);
            let split = TetherSplit::new(&mol, Some(&cell), 1e-4);
            let mut mts = MdState::new(mol.clone(), Some(cell), &split);
            let mut plain = MdState::new(mol, Some(cell), &Summed(&split));
            mts.thermalize_seeded(t_target, Some(seed));
            plain.thermalize_seeded(t_target, Some(seed));
            let thermostat = thermostat_for(thermo, t_target, tau);
            let opts = MdOptions {
                dt,
                thermostat,
                mts: MtsOptions { n_inner: 1 },
            };
            for step in 0..steps {
                mts.step(&split, &opts);
                plain.velocity_verlet_oracle(&Summed(&split), &opts);
                prop_assert!(
                    bitwise_eq(&mts, &plain, t_target, tau),
                    "diverged at step {} under {:?}", step, thermostat
                );
            }
        }

        /// The step on a bare force field (no slow correction: the
        /// degradation assay and the classical relaxations) is the
        /// velocity-Verlet oracle under every thermostat. Without a
        /// thermostat `n_inner` is only a stride: one step of `n_inner`
        /// inner steps is `n_inner` oracle steps.
        #[test]
        fn unsplit_step_is_bitwise_plain_velocity_verlet(
            seed in 0u64..10_000,
            dt in 5.0f64..25.0,
            steps in 1usize..8,
            thermo in 0usize..3,
            n_inner_pow in 0u32..3,
            t_target in 100.0f64..500.0,
            tau in 100.0f64..600.0,
        ) {
            let (mol, cell) = systems::water_box(2, seed);
            let ff = ForceField::from_molecule(&mol, Some(&cell));
            let mut one = MdState::new(mol.clone(), Some(cell), &ff);
            let mut plain = MdState::new(mol, Some(cell), &ff);
            one.thermalize_seeded(t_target, Some(seed));
            plain.thermalize_seeded(t_target, Some(seed));
            let thermostat = thermostat_for(thermo, t_target, tau);
            let n_inner = if thermostat == Thermostat::None { 1 << n_inner_pow } else { 1 };
            let opts = MdOptions {
                dt,
                thermostat,
                mts: MtsOptions { n_inner },
            };
            for step in 0..steps {
                one.step(&ff, &opts);
                for _ in 0..n_inner {
                    plain.velocity_verlet_oracle(&ff, &opts);
                }
                prop_assert!(
                    bitwise_eq(&one, &plain, t_target, tau),
                    "diverged at step {} under {:?}, n_inner {}", step, thermostat, n_inner
                );
                prop_assert!(one.forces_slow.iter().all(|f| *f == Vec3::ZERO));
            }
        }
    }

    #[test]
    fn mts_nve_conserves_energy_at_n_inner_4() {
        let (mol, cell) = systems::water_box(2, 21);
        let split = TetherSplit::new(&mol, Some(&cell), 1e-4);
        let mut state = MdState::new(mol, Some(cell), &split);
        state.thermalize_seeded(300.0, Some(21));
        let e0 = state.total_energy();
        let opts = MdOptions {
            dt: 10.0,
            thermostat: Thermostat::None,
            mts: MtsOptions { n_inner: 4 },
        };
        let log = state.run_mts_logged(&split, &opts, 100);
        assert_eq!(state.step_count, 400);
        let drift = log
            .iter()
            .map(|r| (r.conserved - e0).abs())
            .fold(0.0, f64::max);
        assert!(
            drift < 5e-4,
            "MTS NVE drift {drift} Ha over 400 inner steps"
        );
    }

    #[test]
    fn mts_nose_hoover_conserves_extended_energy() {
        let (mol, cell) = systems::water_box(2, 31);
        let split = TetherSplit::new(&mol, Some(&cell), 1e-4);
        let mut state = MdState::new(mol, Some(cell), &split);
        state.thermalize_seeded(250.0, Some(31));
        let (t_target, tau) = (300.0, 400.0);
        let opts = MdOptions {
            dt: 10.0,
            thermostat: Thermostat::NoseHoover { t_target, tau },
            mts: MtsOptions { n_inner: 2 },
        };
        let h0 = state.nose_hoover_conserved(t_target, tau);
        state.run(&split, &opts, 200);
        let drift = (state.nose_hoover_conserved(t_target, tau) - h0).abs();
        assert!(drift < 5e-3, "NH-MTS conserved-quantity drift {drift}");
    }

    #[test]
    fn nose_hoover_drift_is_second_order_in_the_step() {
        // Isolated water under the tether split, Nosé–Hoover at 300 K with
        // τ = 400 a.u., 200 a.u. of trajectory. The largest |H′(t) − H′(0)|
        // over the outer boundaries is the integrator's own error: a
        // time-reversible step makes it O(dt²), a quarter at half the
        // step. (A closing half-step that repeated the opening one read
        // ratios 1.80–1.98, first order; at τ = 100 a.u. the ratios are
        // not yet asymptotic.)
        let (t_target, tau) = (300.0, 400.0);
        let drift = |dt: f64, n_inner: usize| {
            let mol = systems::water();
            let split = TetherSplit::new(&mol, None, 1e-4);
            let mut state = MdState::new(mol, None, &split);
            state.thermalize_seeded(250.0, Some(21));
            let h0 = state.nose_hoover_conserved(t_target, tau);
            let opts = MdOptions {
                dt,
                thermostat: Thermostat::NoseHoover { t_target, tau },
                mts: MtsOptions { n_inner },
            };
            let n_outer = (200.0 / (dt * n_inner as f64)).round() as usize;
            let log = state.run_mts_logged(&split, &opts, n_outer);
            log.iter()
                .map(|r| (r.conserved - h0).abs())
                .fold(0.0, f64::max)
        };
        for n_inner in [1, 2] {
            for dt in [4.0, 2.0] {
                let (coarse, fine) = (drift(dt, n_inner), drift(dt / 2.0, n_inner));
                let ratio = coarse / fine;
                eprintln!("n_inner {n_inner}, dt {dt}: {coarse:e} / {fine:e} = {ratio}");
                assert!(
                    (ratio - 4.0).abs() < 0.05,
                    "n_inner {n_inner}, dt {dt}: drift ratio {ratio} ({coarse:e}, {fine:e})"
                );
            }
        }
    }

    #[test]
    fn logged_runner_reports_outer_boundaries() {
        let (mol, cell) = systems::water_box(2, 5);
        let split = TetherSplit::new(&mol, Some(&cell), 1e-4);
        let mut state = MdState::new(mol, Some(cell), &split);
        state.thermalize_seeded(300.0, Some(5));
        let opts = MdOptions {
            dt: 10.0,
            thermostat: Thermostat::None,
            mts: MtsOptions { n_inner: 4 },
        };
        let log = state.run_mts_logged(&split, &opts, 3);
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.iter().map(|r| r.step_count).collect::<Vec<_>>(),
            vec![4, 8, 12]
        );
        // The toy split has no incremental cache.
        assert!(log.iter().all(|r| r.inc.is_none()));
    }
}
