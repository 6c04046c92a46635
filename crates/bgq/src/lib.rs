//! # liair-bgq
//!
//! A model of the IBM Blue Gene/Q supercomputer — the substrate substitution
//! mandated by the reproduction environment (no 96-rack machine on hand):
//!
//! * [`torus`] — the 5-D torus interconnect: geometry, dimension-ordered
//!   routing distances, bisection widths;
//! * [`node`] — the per-node compute model: 16 cores × 4 SMT threads,
//!   4-wide (QPX-like) SIMD, with empirical thread/SMT/SIMD scaling curves;
//! * [`collectives`] — analytic cost models for broadcast / allreduce /
//!   gather / all-to-all on the torus, including a torus-aware dimension-pipelined
//!   algorithm and a topology-oblivious binomial tree (the mapping ablation);
//! * [`machine`] — partition presets from one node board to the full
//!   96-rack, 6,291,456-thread configuration of the paper;
//! * [`routing`] — dimension-ordered routing of a traffic demand set,
//!   link by link, for the congestion ablation and the runtime's routed
//!   traffic.
//!
//! These are prices, not a scheduler: `liair_core::simulate` turns the
//! *actual* task graphs produced by `liair-core` (real screening decisions,
//! real load-balancer assignments) into step times and per-phase
//! breakdowns, taking only the per-task durations and collective costs
//! from the models here.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops are the clearer idiom in this numeric code

pub mod collectives;
pub mod machine;
pub mod node;
pub mod routing;
pub mod torus;

pub use machine::MachineConfig;
pub use node::NodeModel;
pub use torus::Torus5D;
