//! The application experiments.
//!
//! * `tab-battery` — the lithium/air chemistry result: interaction
//!   energies of each candidate solvent with the Li₂O₂ discharge product
//!   (RHF + PBE0, real SCF) and degradation events in hot reactive-MD
//!   trajectories of the contact complex, all from one serve reaction job
//!   per solvent. Propylene carbonate (the incumbent) should break bonds;
//!   the replacement candidates survive.
//! * `fig-md-water` — the MD substrate check: NVE conservation and the
//!   liquid structure of a periodic water box.

use crate::Table;
use liair_basis::{systems, Element};
use liair_md::analysis::{drift_per_step, rdf_peak, RdfAccumulator};
use liair_md::{ForceField, MdOptions, MdState, Thermostat};
use liair_serve::{run_reference, JobSpec};
use liair_xc::Functional;

/// Run the battery table; `fast` runs PC and DME only.
pub fn tab_battery(fast: bool) -> Vec<Table> {
    let solvents: Vec<systems::Solvent> = if fast {
        vec![systems::Solvent::PropyleneCarbonate, systems::Solvent::Dme]
    } else {
        systems::Solvent::all().to_vec()
    };

    let mut t = Table::measured(
        "tab-battery — solvent stability against Li2O2 (STO-3G)",
        &[
            "solvent",
            "E_int RHF [mHa]",
            "E_int PBE0 [mHa]",
            "bonds broken (1200K MD)",
            "verdict",
        ],
    );
    for s in solvents {
        let spec = JobSpec::reaction(s, &[Functional::Pbe0])
            .build()
            .expect("a one-functional reaction spec is valid");
        let out = run_reference(&spec);
        assert!(out.converged, "{} SCF failed", s.name());
        let e_int_rhf = out.final_energy;
        let e_int_pbe0 = out.observables.e_int_by_functional[0].1;
        let broken = out
            .observables
            .bonds_broken
            .expect("reaction jobs run the degradation assay");
        let verdict = if broken > 0 { "DEGRADES" } else { "stable" };
        t.row(vec![
            s.name().into(),
            format!("{:.1}", e_int_rhf * 1e3),
            format!("{:.1}", e_int_pbe0 * 1e3),
            format!("{broken}"),
            verdict.into(),
        ]);
    }
    t.note = "paper conclusion: PC degrades at the peroxide; alternative solvents show enhanced stability".into();
    vec![t]
}

/// Run the water-MD figure.
pub fn fig_md_water(fast: bool) -> Vec<Table> {
    let n_side = if fast { 2 } else { 3 };
    let (mol, cell) = systems::water_box(n_side, 42);
    let ff = ForceField::from_molecule(&mol, Some(&cell));
    let mut state = MdState::new(mol, Some(cell), &ff);
    state.thermalize_seeded(300.0, Some(7));
    let eq = MdOptions {
        dt: 15.0,
        thermostat: Thermostat::Berendsen {
            t_target: 300.0,
            tau: 300.0,
        },
        ..Default::default()
    };
    state.run(&ff, &eq, if fast { 500 } else { 1500 });
    let nve = MdOptions {
        dt: 15.0,
        thermostat: Thermostat::None,
        ..Default::default()
    };
    let mut rdf = RdfAccumulator::new(Element::O, Element::O, 12.0, 48);
    let mut energies = Vec::new();
    let prod = if fast { 800 } else { 2000 };
    for step in 0..prod {
        state.step(&ff, &nve);
        energies.push(state.total_energy());
        if step % 20 == 0 {
            rdf.add_frame(&state.mol, &state.cell.unwrap());
        }
    }
    let drift = drift_per_step(&energies);
    let g = rdf.finish(&state.mol, &state.cell.unwrap());
    let (r_peak, g_peak) = rdf_peak(&g);

    let mut t = Table::measured(
        &format!(
            "fig-md-water — {} H2O periodic box",
            n_side * n_side * n_side
        ),
        &["quantity", "value"],
    );
    t.row(vec!["NVE steps".into(), format!("{prod}")]);
    t.row(vec![
        "energy drift / step".into(),
        format!("{:.2e} Ha", drift),
    ]);
    t.row(vec![
        "final T".into(),
        format!("{:.0} K", state.temperature()),
    ]);
    t.row(vec![
        "g_OO first peak".into(),
        format!("{:.2} at r = {:.2} Bohr", g_peak, r_peak),
    ]);
    t.note = "the condensed-phase substrate the exchange workload samples from".into();
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md_water_figure_is_stable() {
        let t = &fig_md_water(true)[0];
        let drift_row = &t.rows[1];
        let drift: f64 = drift_row[1]
            .text()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(drift.abs() < 1e-5, "NVE drift {drift}");
    }
}
