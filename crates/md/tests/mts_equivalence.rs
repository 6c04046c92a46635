//! Property test: r-RESPA MTS with `n_inner = 1` is *bit-identical* —
//! positions, velocities, thermostat variables, and conserved quantity —
//! to the plain single-time-step velocity-Verlet path driving the summed
//! provider (the split's fast force plus its slow correction, with no slow
//! correction of its own), for arbitrary geometries, seeds, timesteps, and
//! thermostats. Through the public API only: [`MdState::step`] on an
//! unsplit provider is plain velocity Verlet, which `mts.rs`'s unit tests
//! hold to the retired velocity-Verlet step bit for bit.

use liair_basis::systems;
use liair_basis::{Cell, Molecule};
use liair_math::Vec3;
use liair_md::mts::{MtsOptions, TetherSplit};
use liair_md::{ForceProvider, MdOptions, MdState, Thermostat};
use proptest::prelude::*;

/// A split provider's two parts summed into one unsplit force.
struct Combined<'a, F: ForceProvider>(&'a F);

impl<F: ForceProvider> ForceProvider for Combined<'_, F> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mts_n_inner_1_bit_identical_to_plain_velocity_verlet(
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
        let mut plain = MdState::new(mol, Some(cell), &Combined(&split));
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
            plain.step(&Combined(&split), &opts);
            prop_assert_eq!(mts.step_count, plain.step_count);
            prop_assert!(
                mts.potential.to_bits() == plain.potential.to_bits(),
                "potential diverged at step {} under {:?}", step, thermostat
            );
            prop_assert_eq!(mts.nh_xi.to_bits(), plain.nh_xi.to_bits());
            prop_assert_eq!(mts.nh_eta.to_bits(), plain.nh_eta.to_bits());
            for i in 0..mts.mol.natoms() {
                for axis in 0..3 {
                    prop_assert!(
                        mts.mol.atoms[i].pos[axis].to_bits()
                            == plain.mol.atoms[i].pos[axis].to_bits(),
                        "position diverged: atom {}, axis {}, step {}", i, axis, step
                    );
                    prop_assert!(
                        mts.velocities[i][axis].to_bits()
                            == plain.velocities[i][axis].to_bits(),
                        "velocity diverged: atom {}, axis {}, step {}", i, axis, step
                    );
                }
            }
            // Conserved quantities are functions of bit-identical state,
            // but assert them directly too: they are what the drift
            // comparison of bench-mts is built on.
            prop_assert_eq!(
                mts.total_energy().to_bits(),
                plain.total_energy().to_bits()
            );
            prop_assert_eq!(
                mts.nose_hoover_conserved(t_target, tau).to_bits(),
                plain.nose_hoover_conserved(t_target, tau).to_bits()
            );
        }
    }
}
