//! Short-soak smoke test: a few dozen mixed jobs through the full
//! service — admission, aged scheduling, rank leasing, cross-job caches,
//! checkpoint/restart — asserting the acceptance properties whose
//! timings the benchmark's `serve-mix` workload reports (`serve.*` rows
//! of `BENCHMARK.json`):
//!
//! * every admitted job completes;
//! * the repeated-system screening workload hits the cross-job cache;
//! * every disrupted job resumes from its checkpoint and lands bitwise
//!   on the uninterrupted final energy.

use liair_runtime::SeedConfig;
use liair_serve::{
    run_and_verify, Disruption, JobKind, JobSpec, ScfSystem, ServiceConfig, TenantQuota,
};

/// A deterministic mixed workload: `n` jobs cycling over tenants, kinds,
/// and a small set of screening systems (so repeats hit the cache), with
/// every 4th job disrupted.
fn mixed_jobs(n: usize) -> Vec<JobSpec> {
    let tenants = ["astra", "borel", "curie"];
    let scf_systems = [
        ScfSystem::H2,
        ScfSystem::Helium,
        ScfSystem::LiH,
        ScfSystem::Water,
    ];
    let screens = [("pc", 3u64), ("dmso", 5), ("dme", 7)];
    (0..n)
        .map(|i| {
            let tenant = tenants[i % tenants.len()];
            let kind = match i % 3 {
                0 => {
                    let (system, seed) = screens[(i / 3) % screens.len()];
                    JobKind::Screening {
                        system: system.to_string(),
                        extent: 16,
                        norb: 3,
                        seed,
                    }
                }
                1 => JobKind::Scf {
                    system: scf_systems[(i / 3) % scf_systems.len()],
                    incremental_fock: i % 6 == 1,
                },
                _ => JobKind::Md {
                    n_waters: 2,
                    n_outer: 5,
                    n_inner: 1 + (i / 3) % 3,
                    temperature: 300.0,
                },
            };
            // Screening jobs are single-build: disruption targets the
            // checkpointable kinds.
            let disruption = if i % 4 == 1 && i % 3 != 0 {
                if i % 8 == 1 {
                    Disruption::Preempt { at_step: 2 }
                } else {
                    Disruption::Fault { at_step: 3 }
                }
            } else {
                Disruption::None
            };
            // A disruption must fire before the job finishes: H₂/He
            // converge in 2-3 iterations, so disrupted SCF jobs run LiH
            // (which needs several more).
            let kind = match (kind, disruption) {
                (
                    JobKind::Scf {
                        incremental_fock, ..
                    },
                    d,
                ) if d.is_disruptive() => JobKind::Scf {
                    system: ScfSystem::LiH,
                    incremental_fock,
                },
                (kind, _) => kind,
            };
            JobSpec::builder(kind)
                .tenant(tenant)
                .priority((i % 5) as u32)
                .nranks(1 + i % 3)
                .seeds(SeedConfig::default().with_md_seed(100 + (i / 3) as u64 % 4))
                .disruption(disruption)
                .build()
                .expect("soak specs are valid")
        })
        .collect()
}

#[test]
fn short_soak_completes_hits_cache_and_resumes_bitwise() {
    let n = 36;
    let jobs = mixed_jobs(n);
    let n_disrupted = jobs.iter().filter(|j| j.disruption.is_disruptive()).count();
    assert!(n_disrupted >= 5, "workload must exercise disruption");
    let cfg = ServiceConfig {
        max_workers: 3,
        pool_ranks: 6,
        cache_capacity: 8,
        quota: TenantQuota::default(),
    };
    let report = run_and_verify(cfg, jobs);

    assert_eq!(report.completed.len(), n, "every admitted job completes");
    assert!(report.rejected.is_empty());

    // Cross-job cache: 12 screening jobs over 3 distinct systems — at
    // most one concurrent-miss per system beyond the cold one, so the
    // hit rate clears 50% comfortably.
    assert!(
        report.cache.hit_rate() > 0.5,
        "cache hit rate {} with {} hits / {} misses",
        report.cache.hit_rate(),
        report.cache.hits,
        report.cache.misses
    );

    // Checkpoint/restart: every disrupted job resumed (took >1 attempt)
    // and reproduced the uninterrupted final energy bitwise.
    assert_eq!(report.disrupted_jobs(), n_disrupted);
    assert_eq!(report.resumed_jobs(), n_disrupted);
    assert_eq!(report.bit_identical_fraction(), 1.0);

    // Leasing: ranks all came back, the pool was never oversubscribed.
    assert_eq!(report.pool.reclaimed, report.pool.granted);
    assert!(report.pool.peak_leased <= 6);

    // Latency accounting is populated and ordered.
    let p50 = report.latency_quantile(0.5);
    let p99 = report.latency_quantile(0.99);
    assert!(p50 > 0.0 && p99 >= p50);
}

#[test]
fn repeated_batches_warm_start_nothing_across_services() {
    // Each Service::run owns its caches: a fresh service starts cold
    // (cross-job, not cross-service — state is explicit, not ambient).
    let jobs = |_: usize| {
        vec![JobSpec::screening("pc", 16, 3, 3)
            .tenant("a")
            .build()
            .unwrap()]
    };
    let first = liair_serve::Service::new(ServiceConfig::default()).run(jobs(0));
    let second = liair_serve::Service::new(ServiceConfig::default()).run(jobs(1));
    assert_eq!(first.cache.misses, 1);
    assert_eq!(second.cache.misses, 1, "no ambient cross-service state");
    assert_eq!(
        first.completed[0].outcome.final_energy.to_bits(),
        second.completed[0].outcome.final_energy.to_bits()
    );
}
