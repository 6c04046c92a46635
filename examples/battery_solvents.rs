//! The lithium/air-battery application: electrolyte stability against
//! Li₂O₂ attack.
//!
//! For each candidate solvent this example computes, with the *real*
//! quantum-chemistry stack:
//!
//! * RHF and PBE0 interaction energies of the solvent·Li₂O₂ contact
//!   complex (stronger binding ⇒ stronger peroxide attack on that site);
//!
//! and with the reactive-flavoured classical MD:
//!
//! * the number of solvent bonds broken in hot (1200 K) trajectories of
//!   the complex, summed over three seeds
//!   (`liair::md::analysis::degradation_events`),
//!
//! both from one reaction job of the batch service per solvent, the same
//! job and numbers as `tab-battery`.
//!
//! Propylene carbonate (the incumbent electrolyte) degrades; the ether/
//! sulfoxide candidates survive — the paper's chemistry conclusion.
//!
//! Run with: `cargo run --release --example battery_solvents` (add `--all`
//! for all four solvents; the default runs PC and DMSO in about 3.7 s on a
//! 2-core x86 host, `--all` in about 7.5 s).

use liair::prelude::*;
use liair::serve::run_reference;

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
        // --- one reaction job: interaction energies and degradation ---
        let spec = JobSpec::reaction(s, &[Functional::Pbe0])
            .build()
            .expect("a one-functional reaction spec is valid");
        let out = run_reference(&spec);
        assert!(out.converged, "SCF failed for {}", s.name());
        let e_int_rhf = out.final_energy;
        let e_int_pbe0 = out.observables.e_int_by_functional[0].1;
        let broken = out
            .observables
            .bonds_broken
            .expect("reaction jobs run the degradation assay");
        let verdict = if broken > 0 { "DEGRADES" } else { "stable" };
        println!(
            "{:<6} {:>14.1} {:>14.1} {:>16} {:>12}",
            s.name(),
            e_int_rhf * 1e3,
            e_int_pbe0 * 1e3,
            broken,
            verdict
        );
    }
    println!("\nMore negative interaction energy = stronger peroxide attack;");
    println!("broken solvent bonds in the hot trajectory = chemical degradation.");
}
