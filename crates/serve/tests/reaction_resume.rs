//! A disrupted reaction job resumes onto its uninterrupted numbers: the
//! complex SCF from its checkpoint, then the fragments and the
//! degradation assay rerun deterministically, so the final energy and
//! every observable (the bond-scission count among them) are bitwise
//! those of `run_reference`. The job converges a 50-AO RHF complex, so
//! this runs under the optimizer only (CI's release `liair-serve` step);
//! a debug build lists it as ignored.

use liair_basis::systems::Solvent;
use liair_basis::Basis;
use liair_serve::{run_job, run_reference, Attempt, Disruption, JobSpec};
use liair_xc::Functional;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "reaction jobs take minutes each unoptimized"
)]
fn disrupted_reaction_resumes_bit_identical() {
    // The smallest solvent by basis size, and the one functional that
    // needs no XC grid.
    let solvent = *Solvent::all()
        .iter()
        .min_by_key(|s| Basis::sto3g(&s.molecule()).nao())
        .expect("there are solvents");
    let spec = |disruption| {
        JobSpec::reaction(solvent, &[Functional::Hf])
            .tenant("t")
            .disruption(disruption)
            .build()
            .expect("a one-functional reaction spec is valid")
    };
    let reference = run_reference(&spec(Disruption::None));
    assert!(reference.converged);
    assert!(reference.observables.bonds_broken.is_some());
    for disruption in [
        Disruption::Preempt { at_step: 3 },
        Disruption::Fault { at_step: 3 },
    ] {
        let spec = spec(disruption);
        let ck = match run_job(&spec, None, 1, None) {
            Attempt::Preempted(ck) | Attempt::Faulted(ck) => ck,
            Attempt::Done(_) => panic!("{disruption:?} did not fire"),
        };
        let Attempt::Done(resumed) = run_job(&spec, Some(&ck), 1, None) else {
            panic!("resumed attempts run undisturbed");
        };
        assert_eq!(
            resumed.final_energy.to_bits(),
            reference.final_energy.to_bits(),
            "under {disruption:?}"
        );
        assert_eq!(resumed.steps, reference.steps, "under {disruption:?}");
        assert!(
            resumed.observables.bits_eq(&reference.observables),
            "under {disruption:?}: {:?} vs {:?}",
            resumed.observables,
            reference.observables
        );
    }
}
