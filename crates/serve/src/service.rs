//! The batch service: admission → queue → rank-pool lease → runner.
//!
//! [`Service::run`] drives a whole batch to completion over a fixed pool
//! of worker threads and a shared [`RankPool`]:
//!
//! 1. every submission passes per-tenant **admission** ([`crate::quota`]);
//!    rejected jobs never enter the queue;
//! 2. admitted jobs wait in the **aged priority queue** ([`crate::sched`]);
//! 3. the scheduler dispatches the best *leasable* job — the head job
//!    waits for its rank slice while smaller jobs backfill around it —
//!    attaching a [`liair_runtime::RankLease`] that travels with the work item and
//!    returns its ranks on drop, even if the worker panics;
//! 4. workers run attempts through [`crate::runner`]; preempted/faulted
//!    attempts come back with a checkpoint and are **requeued** (keeping
//!    their FIFO seq, so aging treats the wait fairly); the follow-up
//!    attempt resumes instead of restarting.
//!
//! Screening jobs share one [`ExchangeCachePool`] across tenants. Each
//! [`JobReport`] carries its job's [`BuildProfile`] — the job reused a
//! parked cache exactly when `profile.pairs_reused > 0` — and the batch's
//! latency quantiles, pool hit/miss counters ([`CachePoolStats`]) and
//! resume counts land in [`ServiceReport`].

use crate::job::{Disruption, JobSpec};
use crate::quota::{Admission, RejectReason, TenantQuota};
use crate::runner::{run_job, Attempt, JobCheckpoint, JobOutput, Observables};
use crate::sched::AgedQueue;
use liair_core::{BuildProfile, CachePoolStats, ExchangeCachePool};
use liair_runtime::{PoolStats, RankPool};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

/// Service-wide knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Concurrent worker threads (attempts in flight).
    pub max_workers: usize,
    /// Ranks in the shared pool leases are carved from.
    pub pool_ranks: usize,
    /// Cross-job exchange-cache capacity (parked caches).
    pub cache_capacity: usize,
    /// Default per-tenant quota.
    pub quota: TenantQuota,
    /// Priority points a waiting job gains per scheduling tick.
    pub aging_rate: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_workers: 4,
            pool_ranks: 8,
            cache_capacity: 16,
            quota: TenantQuota::default(),
            aging_rate: 1,
        }
    }
}

/// The physics a completed job produced — the stable, headline part of
/// a [`JobReport`]. Every field is a deterministic function of the spec
/// and is bit-compared by the verification layers.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's headline energy (converged SCF energy, final MD
    /// potential, screening exchange energy, reaction interaction
    /// energy).
    pub final_energy: f64,
    /// SCF iterations / MD inner steps / screening pairs in the list.
    pub steps: usize,
    /// SCF convergence flag (`true` for non-SCF kinds).
    pub converged: bool,
}

/// What failure injection did to a job, and whether the resumed result
/// was verified against an uninterrupted reference.
#[derive(Debug, Clone, Default)]
pub struct DisruptionRecord {
    /// Whether the spec injected a disruption.
    pub injected: bool,
    /// Attempts it took (1 = never disrupted).
    pub attempts: usize,
    /// Whether the job came back from a checkpoint at least once.
    pub resumed: bool,
    /// Largest checkpoint this job shipped between attempts (bytes).
    pub checkpoint_bytes: usize,
    /// `Some(true)` when [`run_and_verify`] bit-compared this resumed
    /// job against an uninterrupted reference and it matched;
    /// `Some(false)` on mismatch; `None` when no verification ran.
    pub bit_verified: Option<bool>,
}

/// Per-job accounting in the final report: the public result surface of
/// [`Service::run`] (re-exported through the `liair` facade).
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The spec as submitted.
    pub spec: JobSpec,
    /// The completed run's headline numbers.
    pub outcome: JobOutcome,
    /// Kind-specific physical observables.
    pub observables: Observables,
    /// The job's exchange-build instrumentation (screening jobs; default
    /// for the other kinds). Informational — *not* part of the
    /// deterministic surface: wall times vary, and scheduling decides which
    /// job warms a cache, so `pairs_reused > 0` marks the jobs that found
    /// one warm. [`ServiceReport::cache`] is the batch-level answer.
    pub profile: BuildProfile,
    /// Failure injection and resume accounting.
    pub disruption: DisruptionRecord,
    /// Submit → completion wall time (seconds).
    pub latency_s: f64,
}

/// Everything one batch produced.
#[derive(Debug)]
pub struct ServiceReport {
    /// Completed jobs, in completion order.
    pub completed: Vec<JobReport>,
    /// Rejected submissions and why.
    pub rejected: Vec<(JobSpec, RejectReason)>,
    /// Cross-job cache counters at the end of the batch.
    pub cache: CachePoolStats,
    /// Rank-pool counters at the end of the batch.
    pub pool: PoolStats,
    /// Whole-batch wall time (seconds).
    pub elapsed_s: f64,
}

impl ServiceReport {
    /// Completed jobs per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.completed.len() as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    /// The `q`-quantile of job latency (`0.99` for p99), 0.0 when empty.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.completed.iter().map(|r| r.latency_s).collect();
        lat.sort_by(|a, b| a.total_cmp(b));
        let idx = ((lat.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        lat[idx]
    }

    /// Jobs that were disrupted on their first attempt and later
    /// completed via a checkpoint resume.
    pub fn resumed_jobs(&self) -> usize {
        self.completed
            .iter()
            .filter(|r| r.disruption.resumed)
            .count()
    }

    /// Jobs whose spec injected a disruption (the resume denominator).
    pub fn disrupted_jobs(&self) -> usize {
        self.completed
            .iter()
            .filter(|r| r.disruption.injected)
            .count()
    }

    /// Fraction of bit-verified jobs that matched their uninterrupted
    /// reference (1.0 when nothing was verified — vacuous truth). Only
    /// meaningful after [`run_and_verify`].
    pub fn bit_identical_fraction(&self) -> f64 {
        let verified: Vec<bool> = self
            .completed
            .iter()
            .filter_map(|r| r.disruption.bit_verified)
            .collect();
        if verified.is_empty() {
            return 1.0;
        }
        verified.iter().filter(|&&ok| ok).count() as f64 / verified.len() as f64
    }
}

/// Work item traveling scheduler → worker. The lease rides along and is
/// dropped (ranks returned) when the attempt finishes.
struct WorkItem {
    id: usize,
    spec: JobSpec,
    checkpoint: Option<JobCheckpoint>,
    lease: liair_runtime::RankLease,
}

/// Result traveling worker → scheduler.
struct WorkDone {
    id: usize,
    attempt: Attempt,
}

/// In-flight bookkeeping per admitted job.
struct Tracked {
    spec: JobSpec,
    submitted: Instant,
    attempts: usize,
    resumed: bool,
    checkpoint_bytes: usize,
    checkpoint: Option<JobCheckpoint>,
    /// FIFO sequence from first enqueue, preserved across requeues.
    seq: Option<u64>,
}

/// The batch service. Construct, [`Service::run`] a batch, read the
/// report.
pub struct Service {
    cfg: ServiceConfig,
}

impl Service {
    /// A service with the given knobs.
    pub fn new(cfg: ServiceConfig) -> Service {
        Service { cfg }
    }

    /// Run `jobs` to completion and report.
    pub fn run(&self, jobs: Vec<JobSpec>) -> ServiceReport {
        let t_start = Instant::now();
        let pool = RankPool::new(self.cfg.pool_ranks);
        let cache = ExchangeCachePool::new(self.cfg.cache_capacity);
        let mut admission = Admission::new(self.cfg.quota);
        let mut rejected = Vec::new();
        let mut tracked: Vec<Tracked> = Vec::new();
        let mut queue: AgedQueue<usize> = AgedQueue::new(self.cfg.aging_rate);

        for spec in jobs {
            match admission.try_admit(&spec.tenant, spec.nranks, pool.total()) {
                Ok(()) => {
                    let id = tracked.len();
                    tracked.push(Tracked {
                        spec,
                        submitted: t_start, // overwritten below; placeholder
                        attempts: 0,
                        resumed: false,
                        checkpoint_bytes: 0,
                        checkpoint: None,
                        seq: None,
                    });
                    let t = tracked.last_mut().expect("just pushed");
                    t.submitted = Instant::now();
                    let seq = queue.push(id, t.spec.priority);
                    t.seq = Some(seq);
                }
                Err(reason) => rejected.push((spec, reason)),
            }
        }

        let (done_tx, done_rx) = mpsc::channel::<WorkDone>();
        let (work_tx, work_rx) = mpsc::channel::<WorkItem>();
        let work_rx = Mutex::new(work_rx);
        let mut completed: Vec<JobReport> = Vec::new();

        std::thread::scope(|scope| {
            for _ in 0..self.cfg.max_workers.max(1) {
                let done_tx = done_tx.clone();
                let work_rx = &work_rx;
                let cache = &cache;
                scope.spawn(move || {
                    loop {
                        // Hold the receiver lock only for the recv itself.
                        let item = match work_rx.lock().unwrap().recv() {
                            Ok(item) => item,
                            Err(_) => break, // scheduler hung up: drain done
                        };
                        let nranks = item.lease.nranks();
                        let attempt =
                            run_job(&item.spec, item.checkpoint.as_ref(), nranks, Some(cache));
                        drop(item.lease); // return ranks before reporting
                        if done_tx
                            .send(WorkDone {
                                id: item.id,
                                attempt,
                            })
                            .is_err()
                        {
                            break;
                        }
                    }
                });
            }
            drop(done_tx); // scheduler's own clones only via workers

            let mut inflight = 0usize;
            loop {
                // Dispatch while a worker slot and a leasable job exist.
                while inflight < self.cfg.max_workers.max(1) && !queue.is_empty() {
                    let popped = queue.pop_where(|&id| {
                        pool.available() >= tracked[id].spec.nranks.clamp(1, pool.total())
                    });
                    let Some((id, _priority, _seq)) = popped else {
                        break; // nothing leasable right now
                    };
                    let want = tracked[id].spec.nranks;
                    let lease = pool
                        .try_lease(want)
                        .expect("pop_where checked availability and we are the only leaser");
                    let t = &mut tracked[id];
                    t.attempts += 1;
                    let item = WorkItem {
                        id,
                        spec: t.spec.clone(),
                        checkpoint: t.checkpoint.take(),
                        lease,
                    };
                    work_tx
                        .send(item)
                        .expect("workers outlive the scheduler loop");
                    inflight += 1;
                }
                if inflight == 0 {
                    break; // queue empty (or head unleasable with nothing running — impossible: leases all returned)
                }
                let done = done_rx.recv().expect("a worker holds the sender");
                inflight -= 1;
                let t = &mut tracked[done.id];
                match done.attempt {
                    Attempt::Done(output) => {
                        admission.release(&t.spec.tenant);
                        let JobOutput {
                            final_energy,
                            steps,
                            converged,
                            observables,
                            profile,
                        } = output;
                        completed.push(JobReport {
                            spec: t.spec.clone(),
                            outcome: JobOutcome {
                                final_energy,
                                steps,
                                converged,
                            },
                            observables,
                            profile,
                            disruption: DisruptionRecord {
                                injected: t.spec.disruption.is_disruptive(),
                                attempts: t.attempts,
                                resumed: t.resumed,
                                checkpoint_bytes: t.checkpoint_bytes,
                                bit_verified: None,
                            },
                            latency_s: t.submitted.elapsed().as_secs_f64(),
                        });
                    }
                    Attempt::Preempted(ck) | Attempt::Faulted(ck) => {
                        t.checkpoint_bytes = t.checkpoint_bytes.max(ck.nbytes());
                        t.checkpoint = Some(ck);
                        t.resumed = true;
                        let seq = t.seq.expect("admitted jobs were enqueued");
                        queue.requeue(done.id, t.spec.priority, seq);
                    }
                }
            }
            drop(work_tx); // hang up: workers exit their recv loops
        });

        ServiceReport {
            completed,
            rejected,
            cache: cache.stats(),
            pool: pool.stats(),
            elapsed_s: t_start.elapsed().as_secs_f64(),
        }
    }
}

/// Convenience: run `jobs` under `cfg` and verify every resumed job
/// bitwise — headline energy *and* observables — against an
/// uninterrupted reference run (references are memoized per distinct
/// `(kind, seeds)`). Each resumed job's
/// [`DisruptionRecord::bit_verified`] is stamped with the result; read
/// the batch-level answer off
/// [`ServiceReport::bit_identical_fraction`].
pub fn run_and_verify(cfg: ServiceConfig, jobs: Vec<JobSpec>) -> ServiceReport {
    let mut report = Service::new(cfg).run(jobs);
    let mut references: Vec<(JobSpec, JobOutput)> = Vec::new();
    for job in report.completed.iter_mut().filter(|r| r.disruption.resumed) {
        let probe = JobSpec {
            disruption: Disruption::None,
            priority: 0,
            nranks: 1,
            ..job.spec.clone()
        };
        let reference = match references.iter().find(|(s, _)| *s == probe) {
            Some((_, out)) => out.clone(),
            None => {
                let out = crate::runner::run_reference(&probe);
                references.push((probe, out.clone()));
                out
            }
        };
        let ok = job.outcome.final_energy.to_bits() == reference.final_energy.to_bits()
            && job.observables.bits_eq(&reference.observables);
        job.disruption.bit_verified = Some(ok);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ScfSystem;
    use liair_runtime::SeedConfig;

    fn small_batch() -> Vec<JobSpec> {
        vec![
            JobSpec::scf(ScfSystem::H2).tenant("a").build().unwrap(),
            JobSpec::screening("pc", 16, 3, 1)
                .tenant("a")
                .build()
                .unwrap(),
            JobSpec::screening("pc", 16, 3, 1)
                .tenant("b")
                .priority(2)
                .build()
                .unwrap(),
            JobSpec::md(2, 4, 2)
                .tenant("b")
                .seeds(SeedConfig::default().with_md_seed(5))
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn batch_completes_and_shares_the_cache() {
        let report = Service::new(ServiceConfig {
            max_workers: 2,
            ..ServiceConfig::default()
        })
        .run(small_batch());
        assert_eq!(report.completed.len(), 4);
        assert!(report.rejected.is_empty());
        // Two identical screening jobs: the second hits the shared cache
        // (they may run concurrently under 2 workers only if dispatched
        // together — with 2 workers and 4 jobs the screening pair is
        // dispatched in different waves, so at least one checkout hits).
        assert_eq!(report.cache.misses + report.cache.hits, 2);
        assert!(report.pool.granted >= 4);
        assert!(report.elapsed_s > 0.0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn quota_rejections_surface_in_the_report() {
        let cfg = ServiceConfig {
            max_workers: 1,
            quota: TenantQuota {
                max_jobs: 1,
                max_ranks_per_job: 2,
            },
            ..ServiceConfig::default()
        };
        let jobs = vec![
            JobSpec::scf(ScfSystem::Helium).tenant("a").build().unwrap(),
            // Second job for the same tenant: over max_jobs.
            JobSpec::scf(ScfSystem::H2).tenant("a").build().unwrap(),
            // Over the per-job rank cap.
            JobSpec::scf(ScfSystem::H2)
                .tenant("b")
                .nranks(4)
                .build()
                .unwrap(),
        ];
        let report = Service::new(cfg).run(jobs);
        assert_eq!(report.completed.len(), 1);
        assert_eq!(report.rejected.len(), 2);
        assert!(report
            .rejected
            .iter()
            .any(|(_, r)| *r == crate::quota::RejectReason::TooManyJobs));
        assert!(report
            .rejected
            .iter()
            .any(|(_, r)| *r == crate::quota::RejectReason::RanksOverQuota));
    }

    #[test]
    fn disrupted_jobs_resume_and_verify_bit_identical() {
        let jobs = vec![
            JobSpec::scf(ScfSystem::LiH)
                .tenant("a")
                .disruption(crate::job::Disruption::Preempt { at_step: 3 })
                .build()
                .unwrap(),
            JobSpec::md(2, 5, 2)
                .tenant("b")
                .seeds(SeedConfig::default().with_md_seed(23))
                .disruption(crate::job::Disruption::Fault { at_step: 3 })
                .build()
                .unwrap(),
        ];
        let report = run_and_verify(
            ServiceConfig {
                max_workers: 2,
                ..ServiceConfig::default()
            },
            jobs,
        );
        assert_eq!(report.completed.len(), 2);
        assert_eq!(report.resumed_jobs(), 2);
        assert!(report
            .completed
            .iter()
            .all(|r| r.disruption.attempts == 2 && r.disruption.checkpoint_bytes > 0));
        assert!(report
            .completed
            .iter()
            .all(|r| r.disruption.bit_verified == Some(true)));
        assert_eq!(
            report.bit_identical_fraction(),
            1.0,
            "every resumed job must match bitwise"
        );
    }

    #[test]
    fn oversubscribed_ranks_serialize_via_leases() {
        // Pool of 2 ranks, every job wants 2: jobs must run one at a
        // time even with 4 workers — peak_leased never exceeds the pool.
        let jobs: Vec<JobSpec> = (0..4)
            .map(|i| {
                JobSpec::screening("dme", 16, 3, i)
                    .tenant("a")
                    .nranks(2)
                    .build()
                    .unwrap()
            })
            .collect();
        let report = Service::new(ServiceConfig {
            max_workers: 4,
            pool_ranks: 2,
            ..ServiceConfig::default()
        })
        .run(jobs);
        assert_eq!(report.completed.len(), 4);
        assert!(report.pool.peak_leased <= 2);
        assert_eq!(report.pool.reclaimed, report.pool.granted);
    }
}
