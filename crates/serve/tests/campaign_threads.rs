//! The smoke screening campaign's canonical report is byte-identical
//! whatever the rayon thread count its jobs run under: the post-SCF
//! functionals, the XC quadrature and the J/K builds reduce their
//! parallel partials in a fixed order. Reaction members converge 50–60-AO
//! RHF complexes, so this runs under the optimizer only (CI's release
//! `liair-serve` step); a debug build lists it as ignored.

use liair_basis::systems::Solvent;
use liair_core::with_rayon_threads;
use liair_serve::campaign::{run_campaign, CampaignSpec};
use liair_serve::{ServiceConfig, TenantQuota};
use liair_xc::Functional;

/// `repro --smoke screen-solvents`' grid and service.
fn smoke() -> (ServiceConfig, CampaignSpec) {
    let cfg = ServiceConfig {
        max_workers: 4,
        pool_ranks: 8,
        cache_capacity: 8,
        quota: TenantQuota::default(),
    };
    let spec = CampaignSpec {
        solvents: vec![Solvent::EthyleneCarbonate, Solvent::PropyleneCarbonate],
        functionals: vec![Functional::Hf, Functional::Pbe0],
        concentrations: vec![2],
        seeds: vec![2014],
        n_outer: 5,
        n_inner: 2,
        temperature: 400.0,
        tenant: "screening".to_string(),
        priority: 0,
        disruptions: Vec::new(),
    };
    (cfg, spec)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "reaction jobs take minutes each unoptimized"
)]
fn smoke_campaign_report_does_not_depend_on_thread_count() {
    let (cfg, spec) = smoke();
    // A `rayon::ThreadPool::install` of `threads`; the service's workers
    // run their jobs under it.
    let on = |threads: usize| {
        with_rayon_threads(threads, || run_campaign(cfg.clone(), &spec))
            .expect("the smoke grid is valid")
            .canonical_json()
    };
    let one = on(1);
    assert!(one.contains("reaction:pc:HF+PBE0"), "{one}");
    for threads in 2..=4 {
        assert!(
            on(threads) == one,
            "canonical report drifted at {threads} threads"
        );
    }
}
