//! # liair-runtime
//!
//! A virtual-rank SPMD runtime — the stand-in for MPI (Rust MPI bindings
//! are too thin for this reproduction, per the calibration notes).
//!
//! [`Comm`] is the communication API, sized to its callers: word-vector
//! point-to-point transfers plus the two collectives something calls — a
//! rooted [`Comm::gather`] and [`Comm::allreduce_sum`], both over one
//! binomial tree (the flat root-based family lives on only as a cost
//! model in `liair-bgq`). Two implementations exist:
//!
//! * [`LocalComm`] under [`run_spmd_cfg`] — every rank an
//!   OS thread with crossbeam channels for transport; proves the
//!   *correctness* of the distributed algorithm at laptop scale;
//! * [`TorusComm`] — wraps a communicator and charges every transfer to a
//!   [`TrafficLog`] routed over `liair-bgq`'s 5-D torus, so the executed
//!   message pattern (not an assumed one) feeds the machine cost model.
//!
//! Point-to-point receives come in blocking ([`Comm::recv`]) and
//! non-blocking ([`Comm::try_recv`]) forms; the pipelined exchange engine
//! polls the latter between compute chunks so result reassembly and steal
//! requests make progress while every rank keeps computing.
//!
//! Failures are first-class: operations return [`CommResult`], and a
//! seeded deterministic [`FaultPlan`] can drop / delay / duplicate
//! messages and stall ranks, recovered by retransmission with exponential
//! backoff — or surfaced as [`CommError::Timeout`] for the caller to
//! degrade gracefully (the exchange engine re-issues a stalled rank's
//! chunks to survivors).

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops are the clearer idiom in this numeric code

pub mod comm;
pub mod config;
pub mod error;
pub mod fault;
pub mod pool;
pub mod topo;

pub use comm::{run_spmd_cfg, Comm, CommConfig, LocalComm, SpmdRun};
pub use config::SeedConfig;
pub use error::{CommError, CommResult};
pub use fault::{FaultInjector, FaultPlan, FaultStats, Verdict};
pub use pool::{PoolStats, RankLease, RankPool};
pub use topo::{fit_torus, TorusComm, TrafficLog};
