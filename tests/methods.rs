//! Cross-crate integration of the MD substrate: the NVE drift baseline of
//! the force-field integrator, and an NVT frame feeding exchange-pair
//! screening, spanning basis / md / core.

use liair::prelude::*;

/// Pinned NVE energy-conservation baseline for the single-time-step
/// velocity-Verlet integrator on a small periodic box — the reference
/// the bench-mts drift comparison (EXPERIMENTS.md) is judged against.
/// The bound is ~2× the measured max |E(t) − E(0)| of this seeded
/// trajectory, so a regression of the integrator or the force field
/// shows up as a hard failure here before it muddies any MTS result.
#[test]
fn nve_drift_regression_water_box() {
    let (mol, cell) = systems::water_box(2, 11);
    let ff = liair::md::ForceField::from_molecule(&mol, Some(&cell));
    let mut state = MdState::new(mol, Some(cell), &ff);
    state.thermalize_seeded(300.0, Some(11));
    let opts = MdOptions {
        dt: 10.0,
        thermostat: Thermostat::None,
        ..Default::default()
    };
    let e0 = state.total_energy();
    let mut max_drift = 0.0f64;
    for _ in 0..400 {
        state.step(&ff, &opts);
        max_drift = max_drift.max((state.total_energy() - e0).abs());
    }
    assert!(
        max_drift < 4e-4,
        "NVE drift regression: max |dE| = {max_drift} Ha over 400 steps (pinned bound 4e-4)"
    );
}

/// Nosé–Hoover NVT and the screened pair workload compose: a thermostatted
/// water box frame feeds a screened pair list whose survival fraction
/// behaves like the lattice-start frame's.
#[test]
fn nvt_frame_feeds_screening() {
    use liair::md::analysis::drift_per_step;
    let (mol, cell) = systems::water_box(2, 17);
    let ff = liair::md::ForceField::from_molecule(&mol, Some(&cell));
    let mut state = MdState::new(mol, Some(cell), &ff);
    state.thermalize_seeded(300.0, Some(3));
    let opts = MdOptions {
        dt: 15.0,
        thermostat: Thermostat::NoseHoover {
            t_target: 300.0,
            tau: 400.0,
        },
        ..Default::default()
    };
    let mut h_series = Vec::new();
    for _ in 0..400 {
        state.step(&ff, &opts);
        h_series.push(state.nose_hoover_conserved(300.0, 400.0));
    }
    assert!(drift_per_step(&h_series).abs() < 1e-5, "NH conserved drift");
    // Screening on the evolved frame.
    let orbitals: Vec<OrbitalInfo> = state
        .mol
        .atoms
        .iter()
        .filter(|a| a.element == Element::O)
        .map(|a| OrbitalInfo {
            center: a.pos,
            spread: 1.5,
        })
        .collect();
    let pl = build_pair_list(&orbitals, 1e-4, Some(&state.cell.unwrap()));
    assert!(pl.survival() > 0.1 && pl.survival() <= 1.0);
}
