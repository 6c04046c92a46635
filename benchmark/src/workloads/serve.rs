//! `serve-mix`: one unit is a fresh `Service` draining a deterministic
//! 96-job, 3-tenant batch of tiny jobs. Compute per job is small, so the
//! service's own layers (admission, aged queue, rank leases,
//! checkpoint/replay, cross-job cache pool) carry the unit.

use super::Workload;
use crate::layers;
use crate::stats::{quantile, time_calls};
use crate::trace::Tracer;
use liair::basis::systems::Solvent;
use liair::math::rfft::{half_len, rfft3_into};
use liair::math::rng::SplitMix64;
use liair::math::Complex64;
use liair::prelude::*;
use liair::serve::{run_reference, JobOutput, ScfSystem};

const JOBS: usize = 96;
const TENANTS: [&str; 3] = ["astra", "borel", "curie"];
const SCF_SYSTEMS: [ScfSystem; 4] = [
    ScfSystem::H2,
    ScfSystem::Helium,
    ScfSystem::LiH,
    ScfSystem::Water,
];
const SCREEN_SYSTEMS: [&str; 3] = ["pc", "dmso", "dme"];

pub struct ServeMix {
    jobs: Vec<JobSpec>,
    /// Uninterrupted single-rank reference output per distinct spec.
    references: Vec<(JobSpec, JobOutput)>,
    last: Option<ServiceReport>,
    /// Job latencies pooled over the units of the traced trial.
    latencies: Vec<f64>,
}

fn config() -> ServiceConfig {
    ServiceConfig {
        max_workers: 2,
        pool_ranks: 4,
        cache_capacity: 8,
        ..ServiceConfig::default()
    }
}

/// The batch: kinds cycle screening / SCF / MD / solvation, so the amount
/// of work does not depend on the seed; the seed draws every geometry and
/// velocity seed inside the jobs.
fn mixed_jobs(seed: u64) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let base = rng.next_u64() % 1_000_000;
    (0..JOBS)
        .map(|i| {
            let round = i / 4;
            // One job in 8 is preempted and one in 8 faults; only the
            // checkpointable kinds are disrupted, late enough to have a
            // checkpoint and early enough to fire before the job ends.
            let disruption = match i % 16 {
                1 | 11 => Disruption::Preempt { at_step: 2 },
                6 | 13 => Disruption::Fault { at_step: 3 },
                _ => Disruption::None,
            };
            let builder = match i % 4 {
                // Three repeated (system, seed) keys: later jobs of a key
                // find the earlier job's cache in the pool.
                0 => {
                    JobSpec::screening(SCREEN_SYSTEMS[round % 3], 16, 4, base + (round % 3) as u64)
                }
                // H₂ and He converge before a disruption could fire.
                1 if disruption.is_disruptive() => {
                    JobSpec::scf(ScfSystem::LiH).incremental_fock(round % 2 == 1)
                }
                1 => JobSpec::scf(SCF_SYSTEMS[round % 4]).incremental_fock(round % 2 == 1),
                2 => JobSpec::md(2, 5, 1 + round % 3).md_seed(base + (round % 4) as u64),
                _ => JobSpec::solvation(Solvent::EthyleneCarbonate, 2, base + (round % 2) as u64)
                    .steps(4, 2),
            };
            builder
                .tenant(TENANTS[i % 3])
                .priority((i % 5) as u32)
                .nranks(1 + i % 2)
                .disruption(disruption)
                .build()
                .expect("generated specs are valid")
        })
        .collect()
}

/// Same computation: the reference ignores who asked, how urgently, on how
/// many ranks, and whether the first attempt is disrupted.
fn same_work(a: &JobSpec, b: &JobSpec) -> bool {
    a.kind == b.kind && a.seeds == b.seeds
}

impl ServeMix {
    pub fn setup(seed: u64) -> Self {
        let jobs = mixed_jobs(seed);
        let mut references: Vec<(JobSpec, JobOutput)> = Vec::new();
        for job in &jobs {
            if !references.iter().any(|(spec, _)| same_work(spec, job)) {
                references.push((job.clone(), run_reference(job)));
            }
        }
        ServeMix {
            jobs,
            references,
            last: None,
            latencies: Vec::new(),
        }
    }

    /// Index into `references` of the entry for `spec`.
    fn reference_of(&self, spec: &JobSpec) -> usize {
        self.references
            .iter()
            .position(|(s, _)| same_work(s, spec))
            .expect("every submitted spec has a reference")
    }
}

impl Workload for ServeMix {
    fn unit(&mut self, tr: &mut Tracer) {
        let jobs = self.jobs.clone();
        let report = tr.span("serve.service_run", |tr| {
            let report = Service::new(config()).run(jobs);
            tr.count("completed", report.completed.len() as f64);
            tr.count("resumed", report.resumed_jobs() as f64);
            report
        });
        if tr.is_on() {
            self.latencies
                .extend(report.completed.iter().map(|r| r.latency_s));
        }
        self.last = Some(report);
    }

    fn check(&self) -> Result<(), String> {
        let report = self.last.as_ref().ok_or("no unit ran")?;
        if report.completed.len() != JOBS || !report.rejected.is_empty() {
            return Err(format!(
                "{} of {JOBS} jobs completed, {} rejected",
                report.completed.len(),
                report.rejected.len()
            ));
        }
        for job in &report.completed {
            let want = &self.references[self.reference_of(&job.spec)].1;
            if job.outcome.final_energy.to_bits() != want.final_energy.to_bits()
                || !job.observables.bits_eq(&want.observables)
            {
                return Err(format!(
                    "job {} ended at {:e}, its uninterrupted reference at {:e}",
                    job.spec.kind.label(),
                    job.outcome.final_energy,
                    want.final_energy
                ));
            }
        }
        Ok(())
    }

    fn layers(&mut self, tr: &mut Tracer, unit_s: f64) -> Vec<(&'static str, f64)> {
        let report = self.last.as_ref().expect("units ran");
        // What the batch costs with no service around it: every job's
        // uninterrupted single-rank run, one after another.
        let standalone: f64 = tr.span("serve.standalone_sum_s", |_| {
            let per_spec: Vec<f64> = self
                .references
                .iter()
                .map(|(spec, _)| {
                    time_calls(3, || {
                        std::hint::black_box(run_reference(spec));
                    })
                })
                .collect();
            self.jobs
                .iter()
                .map(|job| per_spec[self.reference_of(job)])
                .sum()
        });
        let dims = (16, 16, 16);
        let real = vec![1.0; 16 * 16 * 16];
        let mut half = vec![Complex64::ZERO; half_len(dims)];
        let fft16 = tr.span("math.rfft3_fwd_16_s", |_| {
            time_calls(200, || rfft3_into(&real, dims, &mut half))
        });
        let (scf_ck_s, scf_ck_bytes) = layers::scf_checkpoint_roundtrip(tr);
        let (md_ck_s, md_ck_bytes) = layers::md_checkpoint_roundtrip(tr);

        let done = &report.completed;
        let mut m = vec![
            ("serve.jobs_per_s", JOBS as f64 / unit_s),
            ("serve.latency_p50_s", quantile(&self.latencies, 0.5)),
            ("serve.latency_p90_s", quantile(&self.latencies, 0.9)),
            ("serve.latency_samples", self.latencies.len() as f64),
            ("serve.standalone_sum_s", standalone),
            ("serve.overhead_frac", unit_s / standalone - 1.0),
            ("serve.resumed", report.resumed_jobs() as f64),
            (
                "serve.attempts_total",
                done.iter().map(|r| r.disruption.attempts as f64).sum(),
            ),
            (
                "serve.checkpoint_bytes_max",
                done.iter()
                    .map(|r| r.disruption.checkpoint_bytes as f64)
                    .fold(0.0, f64::max),
            ),
            ("serve.rejected", report.rejected.len() as f64),
            ("serve.cache_hit_rate", report.cache.hit_rate()),
            ("core.cachepool_hits", report.cache.hits as f64),
            ("core.cachepool_misses", report.cache.misses as f64),
            ("runtime.pool_granted", report.pool.granted as f64),
            ("runtime.pool_peak_leased", report.pool.peak_leased as f64),
            ("math.rfft3_fwd_16_s", fft16),
            ("scf.checkpoint_roundtrip_s", scf_ck_s),
            ("scf.checkpoint_bytes", scf_ck_bytes),
            ("md.checkpoint_roundtrip_s", md_ck_s),
            ("md.checkpoint_bytes", md_ck_bytes),
        ];
        m.extend(layers::runtime_spmd(tr));
        m
    }
}
