//! The campaign layer's acceptance property: one [`CampaignSpec`] with
//! fixed seeds produces a **byte-identical** canonical ranked report —
//! across worker counts (scheduling order must not leak into the
//! report) and under an injected disruption (checkpoint/resume must be
//! invisible in the physics).
//!
//! The grid here is solvation-only (`functionals: []`): reaction
//! members converge 50–60-AO RHF complexes, which belongs in the
//! release-mode `repro screen-solvents` bench, not a debug test.

use liair_basis::systems::Solvent;
use liair_serve::campaign::{run_campaign, CampaignSpec};
use liair_serve::{Disruption, ServiceConfig, TenantQuota};

fn grid() -> CampaignSpec {
    CampaignSpec {
        solvents: vec![Solvent::EthyleneCarbonate, Solvent::Dmso],
        functionals: vec![],
        concentrations: vec![2],
        seeds: vec![11, 12],
        n_outer: 5,
        n_inner: 2,
        temperature: 400.0,
        tenant: "campaign-test".to_string(),
        priority: 0,
        disruptions: vec![],
    }
}

fn cfg(max_workers: usize) -> ServiceConfig {
    ServiceConfig {
        max_workers,
        pool_ranks: 4,
        cache_capacity: 8,
        quota: TenantQuota::default(),
    }
}

#[test]
fn canonical_report_is_byte_identical_across_workers_and_disruption() {
    let baseline = run_campaign(cfg(1), &grid()).expect("campaign runs");
    assert_eq!(baseline.members.len(), 4, "2 solvents × 2 seeds");
    assert!(baseline.missing.is_empty());
    assert_eq!(baseline.ranking.len(), 2);
    // Bond scissions are the reaction members' assay: a campaign without
    // them reports no count.
    assert!(baseline.ranking.iter().all(|v| v.bonds_broken.is_none()));
    let canon = baseline.canonical_json();
    assert!(canon.contains("solvation:ec:n2#11"));

    // Worker-count sweep: completion order changes, the report must not.
    for workers in [2, 4] {
        let report = run_campaign(cfg(workers), &grid()).expect("campaign runs");
        assert_eq!(
            report.canonical_json(),
            canon,
            "canonical report drifted at {workers} workers"
        );
    }

    // One member faulted mid-trajectory: it resumes from its periodic
    // checkpoint, re-executes the lost steps, and the report — physics,
    // RDF histogram, ranking — is still byte-identical.
    let mut disrupted_spec = grid();
    disrupted_spec.disruptions = vec![(1, Disruption::Fault { at_step: 2 })];
    let disrupted = run_campaign(cfg(2), &disrupted_spec).expect("campaign runs");
    assert_eq!(
        disrupted.bit_identical_fraction, 1.0,
        "the resumed member must bit-match its uninterrupted reference"
    );
    assert!(disrupted.members.iter().any(|m| m.disruption.resumed));
    assert_eq!(
        disrupted.canonical_json(),
        canon,
        "a fault + resume leaked into the canonical report"
    );

    // The ranking is queryable and consistent with the verdict order.
    for (rank, verdict) in baseline.ranking.iter().enumerate() {
        assert_eq!(baseline.rank_of(verdict.solvent), Some(rank));
    }
}
