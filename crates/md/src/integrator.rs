//! Velocity-Verlet molecular dynamics with thermostats.

use liair_basis::{Cell, Molecule, KB_HARTREE};
use liair_math::Vec3;
use liair_runtime::config::DEFAULT_MD_SEED;
use rand::Rng;

/// Anything that yields `(potential energy, forces)` for a geometry.
pub trait ForceProvider {
    /// Evaluate at the molecule's current positions.
    fn compute(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>);
}

impl ForceProvider for crate::forcefield::ForceField {
    fn compute(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        self.energy_forces(mol, cell)
    }
}

/// Temperature-control schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Thermostat {
    /// Microcanonical (no control).
    None,
    /// Berendsen weak coupling with time constant `tau` (a.u.).
    Berendsen { t_target: f64, tau: f64 },
    /// Nosé–Hoover with relaxation time `tau` (a.u.) — canonical sampling
    /// with a conserved extended-system energy (see
    /// [`MdState::nose_hoover_conserved`]).
    NoseHoover { t_target: f64, tau: f64 },
}

/// MD controls.
#[derive(Debug, Clone, Copy)]
pub struct MdOptions {
    /// Timestep in atomic time units (≈ 0.0242 fs each). On the MTS path
    /// this is the *inner* timestep; the outer step is `mts.n_inner · dt`.
    pub dt: f64,
    /// Thermostat.
    pub thermostat: Thermostat,
    /// Multiple-time-stepping controls, honored by
    /// [`MdState::step_mts`]/[`MdState::run_mts`] (the plain
    /// [`MdState::step`] path ignores them).
    pub mts: crate::mts::MtsOptions,
}

impl Default for MdOptions {
    fn default() -> Self {
        Self {
            dt: 20.0,
            thermostat: Thermostat::None,
            mts: crate::mts::MtsOptions::default(),
        }
    }
}

/// The propagated state.
#[derive(Debug, Clone)]
pub struct MdState {
    /// Current geometry.
    pub mol: Molecule,
    /// Optional periodic cell.
    pub cell: Option<Cell>,
    /// Velocities (Bohr / a.t.u.).
    pub velocities: Vec<Vec3>,
    /// Masses (a.u.).
    pub masses: Vec<f64>,
    /// Cached forces at the current positions.
    pub forces: Vec<Vec3>,
    /// Cached potential energy.
    pub potential: f64,
    /// Steps taken.
    pub step_count: usize,
    /// Nosé–Hoover friction variable ξ.
    pub nh_xi: f64,
    /// Nosé–Hoover position variable η (∫ξ dt), for the conserved quantity.
    pub nh_eta: f64,
    /// Cached slow-correction forces (MTS path only; on the plain path
    /// this stays zero and [`MdState::forces`] holds the full force). See
    /// [`crate::mts`].
    pub forces_slow: Vec<Vec3>,
    /// Cached slow-correction potential (MTS path only).
    pub potential_slow: f64,
}

impl MdState {
    /// Initialize at rest.
    pub fn new<F: ForceProvider>(mol: Molecule, cell: Option<Cell>, provider: &F) -> MdState {
        let masses: Vec<f64> = mol.atoms.iter().map(|a| a.element.mass_au()).collect();
        let (potential, forces) = provider.compute(&mol, cell.as_ref());
        let n = mol.natoms();
        MdState {
            mol,
            cell,
            velocities: vec![Vec3::ZERO; n],
            masses,
            forces,
            potential,
            step_count: 0,
            nh_xi: 0.0,
            nh_eta: 0.0,
            forces_slow: vec![Vec3::ZERO; n],
            potential_slow: 0.0,
        }
    }

    /// Degrees of freedom used for temperature control.
    fn dof(&self) -> f64 {
        (3 * self.mol.natoms()).saturating_sub(3).max(1) as f64
    }

    /// The conserved quantity of Nosé–Hoover dynamics:
    /// `H' = E_kin + E_pot + ½Q ξ² + g·kT·η`. Constant along an NH
    /// trajectory (use it like the NVE energy to judge integration
    /// quality). `Q = g·kT·τ²`.
    pub fn nose_hoover_conserved(&self, t_target: f64, tau: f64) -> f64 {
        let g = self.dof();
        let q = g * KB_HARTREE * t_target * tau * tau;
        self.total_energy()
            + 0.5 * q * self.nh_xi * self.nh_xi
            + g * KB_HARTREE * t_target * self.nh_eta
    }

    /// Draw Maxwell–Boltzmann velocities at temperature `t` (Kelvin) and
    /// remove the center-of-mass drift.
    pub fn thermalize<R: Rng>(&mut self, t: f64, rng: &mut R) {
        for (v, &m) in self.velocities.iter_mut().zip(&self.masses) {
            let sigma = (KB_HARTREE * t / m).sqrt();
            let mut gauss = || {
                let (u1, u2): (f64, f64) = (rng.gen::<f64>().max(1e-300), rng.gen());
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            *v = Vec3::new(sigma * gauss(), sigma * gauss(), sigma * gauss());
        }
        self.remove_com_motion();
    }

    /// Maxwell–Boltzmann initialization from a seed that is an argument,
    /// never ambient state: `Some(seed)` pins a specific stream, `None`
    /// means [`DEFAULT_MD_SEED`] — so every call is deterministic
    /// run-to-run. Jobs that carry a [`liair_runtime::SeedConfig`] resolve
    /// it first and pass `Some`.
    pub fn thermalize_seeded(&mut self, t: f64, seed: Option<u64>) {
        use rand::SeedableRng;
        let seed = seed.unwrap_or(DEFAULT_MD_SEED);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        self.thermalize(t, &mut rng);
    }

    /// Subtract the center-of-mass velocity.
    pub fn remove_com_motion(&mut self) {
        let mut p = Vec3::ZERO;
        let mut m_tot = 0.0;
        for (v, &m) in self.velocities.iter().zip(&self.masses) {
            p += *v * m;
            m_tot += m;
        }
        let v_com = p / m_tot;
        for v in &mut self.velocities {
            *v -= v_com;
        }
    }

    /// Kinetic energy (Hartree).
    pub fn kinetic(&self) -> f64 {
        self.velocities
            .iter()
            .zip(&self.masses)
            .map(|(v, &m)| 0.5 * m * v.norm_sqr())
            .sum()
    }

    /// Instantaneous temperature (Kelvin), 3N−3 degrees of freedom.
    pub fn temperature(&self) -> f64 {
        let dof = (3 * self.mol.natoms()).saturating_sub(3).max(1) as f64;
        2.0 * self.kinetic() / (dof * KB_HARTREE)
    }

    /// Total (conserved, NVE) energy.
    pub fn total_energy(&self) -> f64 {
        self.kinetic() + self.potential
    }

    /// Half-step of the Nosé–Hoover thermostat operator: advance ξ from
    /// the current kinetic energy, then scale velocities. The MTS path
    /// calls this with the *outer* timestep (`crate::mts`).
    pub(crate) fn nose_hoover_half(&mut self, dt: f64, t_target: f64, tau: f64) {
        let g = self.dof();
        let kt = KB_HARTREE * t_target;
        let q = g * kt * tau * tau;
        let xi_dot = (2.0 * self.kinetic() - g * kt) / q;
        self.nh_xi += 0.5 * dt * xi_dot;
        let scale = (-self.nh_xi * 0.5 * dt).exp();
        for v in &mut self.velocities {
            *v = *v * scale;
        }
        self.nh_eta += 0.5 * dt * self.nh_xi;
    }

    /// One velocity-Verlet step.
    pub fn step<F: ForceProvider>(&mut self, provider: &F, opts: &MdOptions) {
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

    /// The closing thermostat application of one (inner or outer) step —
    /// shared by the plain and MTS paths so the `n_inner = 1` equivalence
    /// is an identity of code, not of reimplementation.
    pub(crate) fn end_of_step_thermostat(&mut self, dt: f64, thermostat: Thermostat) {
        match thermostat {
            Thermostat::Berendsen { t_target, tau } => {
                let t_now = self.temperature().max(1e-10);
                let lambda = (1.0 + dt / tau * (t_target / t_now - 1.0)).max(0.0).sqrt();
                for v in &mut self.velocities {
                    *v = *v * lambda;
                }
            }
            Thermostat::NoseHoover { t_target, tau } => {
                self.nose_hoover_half(dt, t_target, tau);
            }
            Thermostat::None => {}
        }
    }

    /// Run `n` steps.
    pub fn run<F: ForceProvider>(&mut self, provider: &F, opts: &MdOptions, n: usize) {
        for _ in 0..n {
            self.step(provider, opts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::ForceField;
    use liair_basis::systems;
    use rand::SeedableRng;

    #[test]
    fn nve_conserves_energy() {
        let mol = systems::water();
        let ff = ForceField::from_molecule(&mol, None);
        let mut state = MdState::new(mol, None, &ff);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        state.thermalize(300.0, &mut rng);
        let e0 = state.total_energy();
        let opts = MdOptions {
            dt: 10.0,
            thermostat: Thermostat::None,
            ..Default::default()
        };
        state.run(&ff, &opts, 500);
        let drift = (state.total_energy() - e0).abs();
        assert!(drift < 2e-4, "energy drift {drift} Ha over 500 steps");
    }

    #[test]
    fn thermostat_reaches_target() {
        let (mol, cell) = systems::water_box(2, 11);
        let ff = ForceField::from_molecule(&mol, Some(&cell));
        let mut state = MdState::new(mol, Some(cell), &ff);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        state.thermalize(50.0, &mut rng);
        let opts = MdOptions {
            dt: 20.0,
            thermostat: Thermostat::Berendsen {
                t_target: 300.0,
                tau: 400.0,
            },
            ..Default::default()
        };
        state.run(&ff, &opts, 400);
        // Average over a window to smooth fluctuations.
        let mut t_acc = 0.0;
        for _ in 0..100 {
            state.step(&ff, &opts);
            t_acc += state.temperature();
        }
        let t_mean = t_acc / 100.0;
        assert!((t_mean - 300.0).abs() < 90.0, "T = {t_mean}");
    }

    #[test]
    fn thermalize_sets_temperature_and_zero_momentum() {
        let (mol, cell) = systems::water_box(2, 5);
        let ff = ForceField::from_molecule(&mol, Some(&cell));
        let mut state = MdState::new(mol, Some(cell), &ff);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        state.thermalize(400.0, &mut rng);
        assert!((state.temperature() - 400.0).abs() < 120.0);
        let p: Vec3 = state
            .velocities
            .iter()
            .zip(&state.masses)
            .fold(Vec3::ZERO, |acc, (v, &m)| acc + *v * m);
        assert!(p.norm() < 1e-9, "net momentum {}", p.norm());
    }

    #[test]
    fn nose_hoover_controls_temperature_and_conserves() {
        let (mol, cell) = systems::water_box(2, 21);
        let ff = ForceField::from_molecule(&mol, Some(&cell));
        let mut state = MdState::new(mol, Some(cell), &ff);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        state.thermalize(250.0, &mut rng);
        let (t_target, tau) = (350.0, 400.0);
        let opts = MdOptions {
            dt: 15.0,
            thermostat: Thermostat::NoseHoover { t_target, tau },
            ..Default::default()
        };
        let h0 = state.nose_hoover_conserved(t_target, tau);
        let mut t_acc = 0.0;
        let mut n_acc = 0;
        for step in 0..1500 {
            state.step(&ff, &opts);
            if step >= 500 {
                t_acc += state.temperature();
                n_acc += 1;
            }
        }
        let t_mean = t_acc / n_acc as f64;
        assert!((t_mean - t_target).abs() < 120.0, "mean T = {t_mean}");
        // The extended-system energy is the NH conserved quantity.
        let drift = (state.nose_hoover_conserved(t_target, tau) - h0).abs();
        assert!(drift < 5e-3, "NH conserved-quantity drift {drift}");
    }

    #[test]
    fn seed_convention_precedence_and_reproducibility() {
        // Same seed, same velocities; different seed, different velocities.
        let mol = systems::water();
        let ff = ForceField::from_molecule(&mol, None);
        let mut a = MdState::new(mol.clone(), None, &ff);
        let mut b = MdState::new(mol.clone(), None, &ff);
        let mut c = MdState::new(mol, None, &ff);
        a.thermalize_seeded(300.0, Some(9));
        b.thermalize_seeded(300.0, Some(9));
        c.thermalize_seeded(300.0, Some(10));
        assert_eq!(a.velocities, b.velocities);
        assert_ne!(a.velocities, c.velocities);
        // No seed is the default seed, not an ambient one.
        a.thermalize_seeded(300.0, None);
        b.thermalize_seeded(300.0, Some(DEFAULT_MD_SEED));
        assert_eq!(a.velocities, b.velocities);
    }

    #[test]
    fn time_reversal_retraces_trajectory() {
        // Integrate forward, flip velocities, integrate back: recover the
        // initial positions (velocity Verlet is symplectic/time-reversible).
        let mol = systems::water();
        let ff = ForceField::from_molecule(&mol, None);
        let mut state = MdState::new(mol.clone(), None, &ff);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        state.thermalize(200.0, &mut rng);
        let x0: Vec<Vec3> = state.mol.atoms.iter().map(|a| a.pos).collect();
        let opts = MdOptions {
            dt: 10.0,
            thermostat: Thermostat::None,
            ..Default::default()
        };
        state.run(&ff, &opts, 50);
        for v in &mut state.velocities {
            *v = -*v;
        }
        state.run(&ff, &opts, 50);
        for (a, &x) in state.mol.atoms.iter().zip(&x0) {
            assert!(
                a.pos.distance(x) < 1e-8,
                "retrace error {}",
                a.pos.distance(x)
            );
        }
    }
}
