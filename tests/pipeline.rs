//! End-to-end integration: SCF → localization → screening → grid exact
//! exchange → machine-scale simulation, across crate boundaries.

use liair::core::hfx::{analytic_exchange_orbitals, grid_exchange_for_molecule};
use liair::prelude::*;

/// The full molecular pipeline on a hydrogen-molecule dimer: converge RHF,
/// localize, screen, evaluate grid exchange, and match the analytic
/// orbital-pair reference.
#[test]
fn full_pipeline_h2_dimer() {
    let mut mol = systems::h2();
    let mut second = systems::h2();
    second.translate(Vec3::new(0.0, 5.0, 0.0));
    mol.merge(&second);

    let basis = Basis::sto3g(&mol);
    let scf = rhf(&mol, &basis, &ScfOptions::default());
    assert!(scf.converged);
    // Two H2 units: E ≈ 2 × E(H2) plus a small interaction.
    assert!(
        (scf.energy - 2.0 * (-1.1167)).abs() < 0.05,
        "E = {}",
        scf.energy
    );

    let out = grid_exchange_for_molecule(&mol, &basis, &scf, 64, 7.0, 0.0, 0.0);
    let want = analytic_exchange_orbitals(&out.basis_centered, &out.c_kept, out.c_kept.ncols());
    assert!(
        (out.result.energy - want).abs() < 5e-3,
        "grid {} vs analytic {}",
        out.result.energy,
        want
    );
}

/// The PBE0 hybrid total energy is consistent across code paths: the
/// breakdown identity E(PBE0) = E(RHF) − 0.75·E_x^{HF} + E_xc^{PBE0,DFT}
/// holds exactly on the same density.
#[test]
fn pbe0_identity_on_rhf_density() {
    let mol = systems::h2();
    let basis = Basis::sto3g(&mol);
    let mut session = ScfSession::new(&mol, &basis, &ScfOptions::default(), Method::Rhf);
    while session.step() {}
    let e = session.functional_energies(&[Functional::Pbe0, Functional::Hf, Functional::Pbe]);
    let (e_pbe0, e_hf, e_pbe) = (e[0], e[1], e[2]);
    let scf = session.into_result();
    // e_hf reproduces the RHF energy on the converged density.
    assert!((e_hf - scf.energy).abs() < 1e-8);
    // The hybrid's DFT-correlation pull puts it below bare HF…
    assert!(e_pbe0 < e_hf, "PBE0 {e_pbe0} not below HF {e_hf}");
    // …and within the exchange-admixture scale of PBE (25 % of E_x).
    assert!(
        (e_pbe0 - e_pbe).abs() < 0.25 * scf.breakdown.e_exchange.abs() + 1e-6,
        "PBE0 {e_pbe0} vs PBE {e_pbe}, Ex = {}",
        scf.breakdown.e_exchange
    );
}

/// The condensed workload pipeline: screening feeds the balancer feeds the
/// machine model, and the simulated build is deterministic.
#[test]
fn workload_to_simulation_deterministic() {
    use liair::bgq::collectives::CollectiveAlgo;
    let w = Workload::condensed("itest", 512, 30.0, 1.5, 1e-6, 32, 64, 11);
    let m = MachineConfig::bgq_racks(2);
    let a = simulate_hfx_build(&w, &m, Scheme::ours(), CollectiveAlgo::TorusPipelined);
    let b = simulate_hfx_build(&w, &m, Scheme::ours(), CollectiveAlgo::TorusPipelined);
    assert_eq!(a.time, b.time);
    assert_eq!(a.group_size, b.group_size);
    // And the machine threads line up with the partition.
    assert_eq!(a.threads, 2 * 1024 * 64);
}

/// Localization and screening interplay: screened exchange on the paper's
/// own accuracy knob stays within the bound predicted by the screening
/// model.
#[test]
fn screening_knob_controls_error_end_to_end() {
    let mol = liair_bench_chain(4);
    let basis = Basis::sto3g(&mol);
    let scf = rhf(&mol, &basis, &ScfOptions::default());
    let exact = grid_exchange_for_molecule(&mol, &basis, &scf, 48, 6.0, 0.0, 0.0);
    let mut last_err = 0.0;
    for eps in [1e-6, 1e-3, 1e-1] {
        let out = grid_exchange_for_molecule(&mol, &basis, &scf, 48, 6.0, eps, 0.0);
        let err = (out.result.energy - exact.result.energy).abs();
        assert!(err >= last_err - 1e-12, "error not monotone at eps={eps}");
        last_err = err;
    }
    // Even the loosest screening keeps the error far below the total.
    assert!(last_err < 0.05 * exact.result.energy.abs());
}

fn liair_bench_chain(n: usize) -> Molecule {
    let mut all = Molecule::new();
    for k in 0..n {
        let mut m = systems::h2();
        m.translate(Vec3::new(0.0, k as f64 * 4.5, 0.0));
        all.merge(&m);
    }
    all
}
