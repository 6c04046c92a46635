//! # liair-serve
//!
//! A multi-tenant batch job service over the exchange engine: the
//! operational layer that turns one-shot calculations into a shared
//! facility, the way a BG/Q partition is actually consumed — many users,
//! many job kinds, one rank pool.
//!
//! * [`job`] — job specifications: SCF convergence, MTS-MD trajectories,
//!   grid-exchange screening evaluations; per-job
//!   [`SeedConfig`](liair_runtime::SeedConfig). Tenants never race on the
//!   process environment because nothing beneath a job reads it: the MD
//!   seed travels in the spec, and the exchange engine a job builds takes
//!   its fault plan as a builder argument or runs clean;
//! * [`quota`] — per-tenant admission control (job-count and rank caps,
//!   rejection accounting);
//! * [`sched`] — priority queue with tick-based aging (no starvation,
//!   deterministic order) and small-job backfill;
//! * [`runner`] — attempt execution with bit-exact checkpoint/restart:
//!   preempted jobs resume from the exact preemption step, faulted jobs
//!   from the last periodic checkpoint, both landing bitwise on the
//!   uninterrupted numbers;
//! * [`service`] — the scheduler loop: admission → queue → rank-pool
//!   lease → worker threads, with the shared cross-job
//!   [`ExchangeCachePool`](liair_core::ExchangeCachePool) and the final
//!   [`service::ServiceReport`];
//! * [`campaign`] — the solvent-screening campaign driver: a
//!   [`campaign::CampaignSpec`] grid (solvents ×
//!   concentrations × seeds × functionals) fanned across the service,
//!   aggregated into a deterministic ranked stability report.
//!
//! See DESIGN.md ("The serve layer" and "The campaign layer") for the
//! architecture and the cache keying/eviction policy.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod job;
pub mod quota;
pub mod runner;
pub mod sched;
pub mod service;

pub use campaign::{run_campaign, CampaignReport, CampaignSpec, MemberRecord, SolventVerdict};
pub use job::{Disruption, JobBuilder, JobKind, JobSpec, ScfSystem, SpecError};
pub use quota::{Admission, RejectReason, TenantQuota};
pub use runner::{run_job, run_reference, Attempt, JobCheckpoint, JobOutput, Observables};
pub use sched::AgedQueue;
pub use service::{
    run_and_verify, DisruptionRecord, JobOutcome, JobReport, ProfileSummary, Service,
    ServiceConfig, ServiceReport,
};
