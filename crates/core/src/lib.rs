//! # liair-core
//!
//! The paper's primary contribution: a communication-avoiding,
//! pair-distributed evaluation of Hartree–Fock exact exchange (HFX) for
//! condensed-phase ab initio MD, with controllable accuracy.
//!
//! The exchange energy over occupied orbitals decomposes into independent
//! orbital-pair terms `(ij|ij) = ∬ ρ_ij(r) ρ_ij(r') v_C`, each costing one
//! forward/inverse FFT pair on a small pair-local grid. The scheme:
//!
//! 1. **Localize** the occupied orbitals (`liair-grid::localize`) so pair
//!    magnitudes decay with center distance;
//! 2. **Screen** ([`screening`]) with a single accuracy knob ε — the
//!    surviving pair list is the task list;
//! 3. **Balance** ([`balance`]) tasks across ranks (greedy LPT by default);
//! 4. **Execute** ([`engine`]): node-local threaded FFTs per pair, partial
//!    energies/potentials combined by *one* reduction per build instead of
//!    per-FFT all-to-alls — this restructuring is the entire 10–20× win;
//! 5. At scale beyond the pair count, pairs are processed by small **node
//!    groups** ([`simulate`]) — the hierarchical second level of
//!    parallelism that keeps 6,291,456 threads busy.
//!
//! One staged driver runs every exchange build: [`engine::ExchangeEngine`]
//! owns the canonical pipeline (pair source → execute backend → ordered
//! accumulate), the one pair kernel, and the per-phase
//! [`engine::BuildProfile`] instrumentation. Its inputs are its arguments
//! — grid, solver, backend, optional fault plan; it reads nothing from the
//! environment. On [`ExecBackend::Comm`] the same algorithm runs over the
//! message-passing runtime (correctness at laptop scale, bit-identical to
//! the serial backend); [`simulate`] prices the same task lists on the
//! BG/Q model (performance at paper scale), alongside the two baselines
//! the paper compares against. [`incremental::IncrementalExchange`] is the
//! engine pointed at a dirty set.
//!
//! An SCF whose exchange is built entirely on the grid is not a loop of
//! this crate: it is `liair_scf::ScfSession::with_exchange` with a closure
//! over [`IncrementalExchange::exchange_operator`] that doubles its
//! `Σ_j (μj|jν)` into the session's `K(D)` convention (`liair-md`'s
//! `IncrementalGridForces` runs one per finite-difference slot).

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops are the clearer idiom in this numeric code

pub mod balance;
mod bins;
pub mod cachepool;
pub mod domain;
pub mod engine;
pub mod error;
pub mod hfx;
pub mod incremental;
pub mod screening;
pub mod simulate;
pub mod workload;

pub use balance::{assign_pairs, Assignment, BalanceStrategy};
pub use cachepool::{CachePoolStats, ExchangeCachePool, SystemKey};
pub use domain::{
    build_pair_list_sharded, exchange_halo, sharded_pair_list_spmd, DomainDecomposition,
    DomainGeometry,
};
pub use engine::{
    BasisOnGrid, BuildProfile, EngineBuilder, EngineScratch, ExchangeEngine, ExecBackend,
    FaultPlan, KBuildOutcome,
};
pub use error::{Error, Result};
pub use hfx::HfxResult;
pub use incremental::{Fingerprint, IncStats, IncrementalExchange};
pub use screening::{
    build_pair_list, build_pair_list_celllist, source_pairs, IncSchedule, OrbitalInfo, Pair,
    PairList,
};
pub use simulate::{simulate_hfx_build, Scheme, SimOutcome};
pub use workload::Workload;
