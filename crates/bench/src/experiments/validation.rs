//! `tab-hfx-validation`: the correctness table — SCF total energies against
//! literature values, and the grid pair-Poisson exchange against the
//! analytic Gaussian-integral reference.

use crate::Table;
use liair_basis::{systems, Basis};
use liair_core::hfx::{analytic_exchange, analytic_exchange_orbitals, grid_exchange_for_molecule};
use liair_scf::{rhf, ScfOptions};

/// Run the validation table.
pub fn tab_hfx_validation(fast: bool) -> Vec<Table> {
    let opts = ScfOptions::default();

    // --- SCF energies vs literature ---
    let mut t1 = Table::measured(
        "tab-hfx-validation — RHF/STO-3G total energies vs literature",
        &[
            "system",
            "E(this work) [Ha]",
            "E(literature) [Ha]",
            "|dE| [Ha]",
        ],
    );
    let cases: Vec<(&str, liair_basis::Molecule, f64)> = vec![
        ("H2 (R=1.4)", systems::h2(), -1.1167),
        ("He", systems::helium(), -2.8078),
        ("H2O", systems::water(), -74.963),
    ];
    for (name, mol, lit) in cases {
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &opts);
        assert!(scf.converged, "{name} did not converge");
        t1.row(vec![
            name.into(),
            format!("{:.5}", scf.energy),
            format!("{:.4}", lit),
            format!("{:.1e}", (scf.energy - lit).abs()),
        ]);
    }
    t1.note =
        "literature: Szabo & Ostlund (H2, He); standard STO-3G water near experiment geometry"
            .into();

    // --- grid vs analytic exchange ---
    let mut t2 = Table::measured(
        "tab-hfx-validation — grid pair-Poisson E_x vs analytic",
        &[
            "system",
            "grid",
            "E_x grid [Ha]",
            "E_x analytic [Ha]",
            "|err| [Ha]",
            "t_exec [s]",
            "t_fft [s]",
            "pairs comp/scr",
            "allocs",
        ],
    );
    let profile_cols = |p: &liair_core::BuildProfile| -> Vec<String> {
        vec![
            format!("{:.3}", p.t_exec_s),
            format!("{:.3}", p.t_fft_s),
            format!("{}/{}", p.pairs_computed, p.pairs_screened),
            format!("{}", p.steady_allocs),
        ]
    };
    {
        // H2: all orbitals, resolution sweep.
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &opts);
        let want = analytic_exchange(&basis, &scf.density, 0.0);
        let grids: &[usize] = if fast { &[32, 64] } else { &[24, 48, 96] };
        for &n in grids {
            let out = grid_exchange_for_molecule(&mol, &basis, &scf, n, 7.0, 0.0, 0.0);
            let mut row = vec![
                "H2".into(),
                format!("{n}^3"),
                format!("{:.6}", out.result.energy),
                format!("{:.6}", want),
                format!("{:.1e}", (out.result.energy - want).abs()),
            ];
            row.extend(profile_cols(&out.result.profile));
            t2.row(row);
        }
    }
    {
        // Water: valence-only (pseudopotential-style core filtering).
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &opts);
        let n = if fast { 64 } else { 80 };
        let out = grid_exchange_for_molecule(&mol, &basis, &scf, n, 7.0, 0.0, 0.4);
        let want = analytic_exchange_orbitals(&out.basis_centered, &out.c_kept, out.c_kept.ncols());
        let mut row = vec![
            "H2O (valence)".into(),
            format!("{n}^3"),
            format!("{:.6}", out.result.energy),
            format!("{:.6}", want),
            format!("{:.1e}", (out.result.energy - want).abs()),
        ];
        row.extend(profile_cols(&out.result.profile));
        t2.row(row);
    }
    t2.note =
        "same pair tasks the parallel scheme distributes; errors are pure grid resolution".into();
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_errors_are_small() {
        let tables = tab_hfx_validation(true);
        // SCF errors below 2 mHa.
        for row in &tables[0].rows {
            let err: f64 = row[3].text().parse().unwrap();
            assert!(err < 2e-3, "{row:?}");
        }
        // Grid errors below 20 mHa even at the fast resolutions.
        for row in &tables[1].rows {
            let err: f64 = row[4].text().parse().unwrap();
            assert!(err < 2e-2, "{row:?}");
            // Every build row carries a populated profile.
            let t_exec: f64 = row[5].text().parse().unwrap();
            assert!(t_exec > 0.0, "unpopulated profile in {row:?}");
            assert!(row[7].text().contains('/'), "{row:?}");
        }
    }
}
