//! Property test: serialize → deserialize → resume of MTS-MD state is
//! bit-identical to the uninterrupted trajectory, at every inner-step
//! count and thermostat.
//!
//! This is the safety rail under the serve layer's checkpoint/restart:
//! a preempted trajectory that resumes from [`MdCheckpoint`] bytes must
//! land on exactly the numbers the uninterrupted run produces — not
//! approximately, bitwise. The checkpoint captures cached fast and slow
//! forces, so the resumed propagator's first outer step consumes the
//! same floats the uninterrupted one would.

use liair_basis::systems;
use liair_md::mts::{MtsOptions, TetherSplit};
use liair_md::{MdCheckpoint, MdOptions, MdState, Thermostat};
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
    fn checkpoint_resume_is_bit_identical_at_every_n_inner(
        seed in 0u64..10_000,
        dt in 5.0f64..20.0,
        n_inner_pow in 0u32..4,          // n_inner ∈ {1, 2, 4, 8}
        outer_before in 1usize..4,       // outer steps before the cut
        outer_after in 1usize..4,        // outer steps after resuming
        thermo in 0usize..3,
        t_target in 100.0f64..500.0,
        tau in 100.0f64..600.0,
    ) {
        let n_inner = 1usize << n_inner_pow;
        let (mol, cell) = systems::water_box(2, seed);
        let split = TetherSplit::new(&mol, Some(&cell), 1e-4);
        let opts = MdOptions {
            dt,
            thermostat: thermostat_for(thermo, t_target, tau),
            mts: MtsOptions { n_inner },
        };

        // Uninterrupted reference.
        let mut reference = MdState::new(mol.clone(), Some(cell), &split);
        reference.thermalize_seeded(t_target, Some(seed));
        for _ in 0..(outer_before + outer_after) {
            reference.step(&split, &opts);
        }

        // Interrupted twin: run, checkpoint through *bytes*, drop the
        // live state, resume, finish.
        let mut live = MdState::new(mol, Some(cell), &split);
        live.thermalize_seeded(t_target, Some(seed));
        for _ in 0..outer_before {
            live.step(&split, &opts);
        }
        let bytes = MdCheckpoint::capture(&live).to_bytes();
        drop(live);
        let mut resumed = MdCheckpoint::from_bytes(&bytes)
            .expect("runner-written bytes round-trip")
            .restore();
        for _ in 0..outer_after {
            resumed.step(&split, &opts);
        }

        prop_assert!(
            MdCheckpoint::bitwise_eq(&resumed, &reference),
            "resume diverged: n_inner={}, thermostat={:?}, split {}+{}",
            n_inner,
            opts.thermostat,
            outer_before,
            outer_after
        );
        prop_assert_eq!(
            resumed.total_energy().to_bits(),
            reference.total_energy().to_bits()
        );
    }
}
