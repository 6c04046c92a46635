//! Property test: serialize → deserialize → resume of an SCF session is
//! bit-identical to the uninterrupted convergence, for every molecule,
//! Fock-build mode, and interruption point.
//!
//! The serve layer preempts SCF jobs at arbitrary iterations and resumes
//! them from [`ScfCheckpoint`] bytes; the resumed session must converge
//! to exactly the uninterrupted energy, density, and orbitals — the DIIS
//! history, incremental-Fock accumulators, and convergence bookkeeping
//! all have to survive the byte round trip intact. A session whose
//! exchange operator the caller supplies resumes the same way, with the
//! operator handed back, and only that way. (The grid operator's own
//! resume tests are in `liair-core`'s `tests/grid_session.rs`, where
//! `IncrementalExchange` lives.)

use liair_basis::{systems, Basis, Molecule};
use liair_math::codec::CodecError;
use liair_math::Mat;
use liair_scf::driver::{Method, ScfOptions};
use liair_scf::ScfSession;
use proptest::prelude::*;

fn molecule_for(idx: usize) -> Molecule {
    match idx % 4 {
        0 => systems::h2(),
        1 => systems::helium(),
        2 => systems::lih(),
        _ => systems::water(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scf_checkpoint_resume_is_bit_identical(
        mol_idx in 0usize..4,
        cut_after in 1usize..6,
        incremental_idx in 0usize..2,
    ) {
        let incremental_fock = incremental_idx == 1;
        let mol = molecule_for(mol_idx);
        let basis = Basis::sto3g(&mol);
        let opts = ScfOptions {
            incremental_fock,
            ..ScfOptions::default()
        };

        // Uninterrupted reference.
        let reference =
            ScfSession::new(&mol, &basis, &opts, Method::Rhf).run_to_completion();

        // Interrupted twin: step `cut_after` iterations (or fewer if it
        // converges first), checkpoint, drop, resume, finish.
        let mut live = ScfSession::new(&mol, &basis, &opts, Method::Rhf);
        for _ in 0..cut_after {
            if !live.step() {
                break;
            }
        }
        let ck = live.checkpoint();
        drop(live);
        let resumed = ScfSession::resume(&mol, &basis, &ck)
            .expect("runner-written bytes resume against the same basis")
            .run_to_completion();

        prop_assert!(reference.converged);
        prop_assert!(resumed.converged);
        prop_assert_eq!(resumed.energy.to_bits(), reference.energy.to_bits());
        prop_assert_eq!(resumed.density.nrows(), reference.density.nrows());
        for (a, b) in resumed
            .density
            .as_slice()
            .iter()
            .zip(reference.density.as_slice())
        {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in resumed
            .orbital_energies
            .iter()
            .zip(&reference.orbital_energies)
        {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// An exchange operator standing in for the grid one: the analytic K of
/// `D = 2 C_occ C_occᵀ`.
fn analytic_operator(basis: &Basis) -> impl FnMut(&Mat) -> Mat + '_ {
    move |c_occ: &Mat| {
        let d = c_occ.matmul(&c_occ.transpose()).scale(2.0);
        liair_integrals::build_jk(basis, &d, 1e-11).1
    }
}

#[test]
fn operator_session_resumes_bit_identically_after_every_iteration() {
    for mol in [systems::h2(), systems::lih()] {
        let basis = Basis::sto3g(&mol);
        let opts = ScfOptions::default();
        let mut k = analytic_operator(&basis);
        let reference =
            ScfSession::with_exchange(&mol, &basis, &opts, &mut k, None).run_to_completion();
        assert!(reference.converged);
        for cut in 1..reference.iterations {
            let mut k = analytic_operator(&basis);
            let mut live = ScfSession::with_exchange(&mol, &basis, &opts, &mut k, None);
            for _ in 0..cut {
                live.step();
            }
            let ck = live.checkpoint();
            drop(live);
            let mut k = analytic_operator(&basis);
            let resumed = ScfSession::resume_with_exchange(&mol, &basis, &ck, &mut k)
                .expect("own checkpoint resumes")
                .run_to_completion();
            assert_eq!(resumed.energy.to_bits(), reference.energy.to_bits());
            assert_eq!(resumed.iterations, reference.iterations);
            assert!(resumed
                .density
                .as_slice()
                .iter()
                .zip(reference.density.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}

#[test]
fn checkpoint_resumes_only_with_the_exchange_source_that_wrote_it() {
    // The operator is not in the stream, so a resume must not silently
    // swap it for the analytic build, or the analytic build for an
    // operator: both directions are a typed error.
    let mol = systems::h2();
    let basis = Basis::sto3g(&mol);
    let opts = ScfOptions::default();
    let mut analytic = ScfSession::new(&mol, &basis, &opts, Method::Rhf);
    analytic.step();
    let analytic_ck = analytic.checkpoint();
    let mut k = analytic_operator(&basis);
    let mut operator = ScfSession::with_exchange(&mol, &basis, &opts, &mut k, None);
    operator.step();
    let operator_ck = operator.checkpoint();
    drop(operator);

    assert!(matches!(
        ScfSession::resume(&mol, &basis, &operator_ck),
        Err(CodecError::BadMagic { .. })
    ));
    let mut k = analytic_operator(&basis);
    assert!(matches!(
        ScfSession::resume_with_exchange(&mol, &basis, &analytic_ck, &mut k),
        Err(CodecError::BadMagic { .. })
    ));
    // Each resumes through its own entry point.
    assert!(ScfSession::resume(&mol, &basis, &analytic_ck).is_ok());
    let mut k = analytic_operator(&basis);
    assert!(ScfSession::resume_with_exchange(&mol, &basis, &operator_ck, &mut k).is_ok());
}
