//! `fig-screening-accuracy`: the "highly controllable manner" claim —
//! exchange-energy error and surviving pair count as functions of the
//! screening threshold ε.
//!
//! Two views:
//! * a *real* measurement on a hydrogen-molecule cluster: converge RHF,
//!   localize, evaluate the grid exchange at each ε and compare with the
//!   unscreened value;
//! * the surviving-pair statistics of the paper-scale condensed workload.

use crate::Table;
use liair_basis::{systems, Basis, Molecule};
use liair_core::hfx::grid_exchange_for_molecule;
use liair_core::Workload;
use liair_math::Vec3;
use liair_scf::{rhf, ScfOptions};

/// A row of `n` H₂ molecules spaced `gap` Bohr apart — localized orbitals
/// with a clean distance hierarchy of pair magnitudes.
pub fn h2_chain(n: usize, gap: f64) -> Molecule {
    let mut all = Molecule::new();
    for k in 0..n {
        let mut m = systems::h2();
        m.translate(Vec3::new(0.0, k as f64 * gap, 0.0));
        all.merge(&m);
    }
    all
}

/// Run the experiment.
pub fn fig_screening_accuracy(fast: bool) -> Vec<Table> {
    // --- real measurement ---
    let nmol = if fast { 3 } else { 5 };
    let grid_n = if fast { 48 } else { 72 };
    let mol = h2_chain(nmol, 4.5);
    let basis = Basis::sto3g(&mol);
    let scf = rhf(&mol, &basis, &ScfOptions::default());
    assert!(scf.converged);
    let reference = grid_exchange_for_molecule(&mol, &basis, &scf, grid_n, 6.0, 0.0, 0.0);
    let mut t1 = Table::measured(
        &format!("fig-screening-accuracy — (H2)x{nmol} chain, real grid exchange"),
        &["eps", "pairs kept", "of", "E_x [Ha]", "|dE_x| [Ha]"],
    );
    t1.row(vec![
        "0 (exact)".into(),
        format!("{}", reference.pairs.len()),
        format!("{}", reference.pairs.n_candidates),
        format!("{:.6}", reference.result.energy),
        "0".into(),
    ]);
    let eps_list: &[f64] = if fast {
        &[1e-4, 1e-2]
    } else {
        &[1e-8, 1e-6, 1e-4, 1e-2, 1e-1]
    };
    for &eps in eps_list {
        let out = grid_exchange_for_molecule(&mol, &basis, &scf, grid_n, 6.0, eps, 0.0);
        t1.row(vec![
            format!("{eps:.0e}"),
            format!("{}", out.pairs.len()),
            format!("{}", out.pairs.n_candidates),
            format!("{:.6}", out.result.energy),
            format!(
                "{:.2e}",
                (out.result.energy - reference.result.energy).abs()
            ),
        ]);
    }
    t1.note = "error grows monotonically and controllably with eps — the accuracy knob".into();

    // --- workload statistics ---
    let mut t2 = Table::measured(
        "fig-screening-accuracy — surviving pairs, condensed workload",
        &["eps", "pairs kept", "survival", "partners/orbital"],
    );
    let (norb, edge) = if fast { (256, 23.5) } else { (4096, 59.2) };
    for &eps in &[1e-10, 1e-8, 1e-6, 1e-4, 1e-2] {
        let w = Workload::condensed("sweep", norb, edge, 1.5, eps, 48, 128, 2014);
        t2.row(vec![
            format!("{eps:.0e}"),
            format!("{}", w.pairs.len()),
            format!("{:.2}%", w.pairs.survival() * 100.0),
            format!("{:.1}", w.partners_per_orbital()),
        ]);
    }
    t2.note = "linear-scaling pair counts in the condensed phase once eps > 0".into();
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_builder_is_closed_shell() {
        let m = h2_chain(4, 5.0);
        assert_eq!(m.natoms(), 8);
        assert_eq!(m.nocc(), 4);
    }

    #[test]
    fn screening_error_is_monotone_in_eps() {
        let tables = fig_screening_accuracy(true);
        let t = &tables[0];
        // Rows after the reference: |dE| non-decreasing with eps, pairs
        // non-increasing.
        let errs: Vec<f64> = t.rows[1..]
            .iter()
            .map(|r| r[4].text().parse::<f64>().unwrap())
            .collect();
        let kept: Vec<usize> = t.rows[1..]
            .iter()
            .map(|r| r[1].text().parse::<usize>().unwrap())
            .collect();
        for w in errs.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "errors not monotone: {errs:?}");
        }
        for w in kept.windows(2) {
            assert!(w[1] <= w[0], "pair counts not monotone: {kept:?}");
        }
        // And the loosest screening has a visible but bounded error.
        assert!(errs.last().unwrap() < &1.0);
    }
}
