//! The lithium/air-battery application: electrolyte stability against
//! Li₂O₂ attack.
//!
//! For each candidate solvent this example computes, with the *real*
//! quantum-chemistry stack:
//!
//! * RHF and PBE0 interaction energies of the solvent·Li₂O₂ contact
//!   complex (stronger binding ⇒ stronger peroxide attack on that site),
//!   from one reaction job of the batch service per solvent;
//!
//! and with the reactive-flavoured classical MD:
//!
//! * the number of solvent bonds broken in a hot (900 K) trajectory of the
//!   complex — the degradation-event count.
//!
//! Propylene carbonate (the incumbent electrolyte) degrades; the ether/
//! sulfoxide candidates survive — the paper's chemistry conclusion.
//!
//! Run with: `cargo run --release --example battery_solvents` (add `--all`
//! for all four solvents; default runs PC and DMSO, ~5 minutes).

use liair::md::analysis::BondEvents;
use liair::prelude::*;
use liair::serve::run_reference;
use liair::serve::runner::COMPLEX_LI_O_DIST;

fn main() {
    let all = std::env::args().any(|a| a == "--all");
    let solvents: Vec<systems::Solvent> = if all {
        systems::Solvent::all().to_vec()
    } else {
        vec![systems::Solvent::PropyleneCarbonate, systems::Solvent::Dmso]
    };

    println!("== Li/air electrolyte screening (STO-3G, PBE0 post-SCF) ==\n");
    println!(
        "{:<6} {:>14} {:>14} {:>16} {:>12}",
        "solvent", "E_int RHF (mHa)", "E_int PBE0 (mHa)", "bonds broken@1200K", "verdict"
    );
    for s in solvents {
        // --- quantum interaction energies: one reaction job ---
        let spec = JobSpec::reaction(s, &[Functional::Pbe0])
            .build()
            .expect("a one-functional reaction spec is valid");
        let out = run_reference(&spec);
        assert!(out.converged, "SCF failed for {}", s.name());
        let e_int_rhf = out.final_energy;
        let e_int_pbe0 = out.observables.e_int_by_functional[0].1;

        // --- hot classical MD of the complex: degradation events ---
        let n_solvent = s.molecule().natoms();
        let complex = systems::li2o2_complex(s, COMPLEX_LI_O_DIST);
        let ff = ForceField::from_molecule(&complex, None);
        let mut state = MdState::new(complex, None, &ff);
        state.thermalize_seeded(1200.0, Some(2014));
        let opts = MdOptions {
            dt: 15.0,
            thermostat: Thermostat::Berendsen {
                t_target: 1200.0,
                tau: 500.0,
            },
            ..Default::default()
        };
        let mut events = BondEvents::default();
        for _ in 0..4000 {
            state.step(&ff, &opts);
            let broken: Vec<usize> = ff
                .broken_bonds(&state.mol, None, 1.5)
                .into_iter()
                .filter(|&b| ff.bonds[b].i < n_solvent && ff.bonds[b].j < n_solvent)
                .collect();
            events.record(&broken);
        }
        let verdict = if events.count() > 0 {
            "DEGRADES"
        } else {
            "stable"
        };
        println!(
            "{:<6} {:>14.1} {:>14.1} {:>16} {:>12}",
            s.name(),
            e_int_rhf * 1e3,
            e_int_pbe0 * 1e3,
            events.count(),
            verdict
        );
    }
    println!("\nMore negative interaction energy = stronger peroxide attack;");
    println!("broken solvent bonds in the hot trajectory = chemical degradation.");
}
