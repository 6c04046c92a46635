//! Property test: r-RESPA MTS with `n_inner = 1` is *bit-identical* —
//! positions, velocities, thermostat variables, and conserved quantity —
//! to the plain single-time-step velocity-Verlet path driving the summed
//! ([`CombinedForces`]) provider, for arbitrary geometries, seeds,
//! timesteps, and thermostats. This is the safety rail that lets the MTS
//! path replace the plain one with zero behavioral risk at `n_inner = 1`.

use liair_basis::systems;
use liair_md::mts::{CombinedForces, MtsOptions, TetherSplit};
use liair_md::{MdOptions, MdState, Thermostat};
use proptest::prelude::*;

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
        let mut mts = MdState::new_split(mol.clone(), Some(cell), &split);
        let mut plain = MdState::new(mol, Some(cell), &CombinedForces(&split));
        mts.thermalize_seeded(t_target, Some(seed));
        plain.thermalize_seeded(t_target, Some(seed));
        let thermostat = thermostat_for(thermo, t_target, tau);
        let opts = MdOptions {
            dt,
            thermostat,
            mts: MtsOptions { n_inner: 1 },
        };
        for step in 0..steps {
            mts.step_mts(&split, &opts);
            plain.step(&CombinedForces(&split), &opts);
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
