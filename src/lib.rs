//! # liair
//!
//! A reproduction of *"Shedding Light on Lithium/Air Batteries Using
//! Millions of Threads on the BG/Q Supercomputer"* (Weber, Bekas, Laino,
//! Curioni, Bertsch, Futral — IPDPS 2014) as a Rust workspace.
//!
//! The umbrella crate re-exports every subsystem:
//!
//! * [`math`] — FFTs, special functions, dense linear algebra;
//! * [`basis`] — molecules, Gaussian basis sets, periodic cells, the
//!   battery-study system builders;
//! * [`integrals`] — McMurchie–Davidson Gaussian integrals;
//! * [`grid`] — real-space grids, FFT Poisson solvers, Foster–Boys
//!   localization, Becke molecular quadrature;
//! * [`xc`] — LDA / PBE / PBE0 functionals;
//! * [`scf`] — closed-shell RHF / RKS drivers with checkpointable sessions;
//! * [`core`] — **the paper's contribution**: screened, load-balanced,
//!   pair-distributed exact exchange, with real executors and the BG/Q
//!   scale model;
//! * [`bgq`] — the 5-D-torus machine model;
//! * [`runtime`] — the SPMD message-passing runtime: point-to-point
//!   transfers plus binomial-tree `gather` / `allreduce_sum` behind the
//!   `Comm` trait, fault injection and torus traffic accounting;
//! * [`md`] — molecular dynamics for the electrolyte application;
//! * [`serve`] — the multi-tenant batch job service: admission quotas,
//!   priority-aged scheduling, rank-pool leasing, checkpoint/restart
//!   with bit-identical resume, keyed cross-job exchange caches, and
//!   the solvent-screening **campaign driver** that fans a solvents ×
//!   concentrations × seeds × functionals grid across the service into
//!   a deterministic ranked stability report.
//!
//! ## Quickstart
//!
//! ```
//! use liair::prelude::*;
//!
//! // RHF on a water molecule with the embedded STO-3G basis.
//! let mol = systems::water();
//! let basis = Basis::sto3g(&mol);
//! let scf = rhf(&mol, &basis, &ScfOptions::default());
//! assert!(scf.converged);
//! assert!((scf.energy - (-74.96)).abs() < 0.1);
//! ```
//!
//! ## The exchange engine
//!
//! Every exchange build is a method of one staged driver,
//! [`ExchangeEngine`](prelude::ExchangeEngine) — full-cell and patched pair
//! energies, the K operator — and everything that steers it is an
//! argument: the grid and its Poisson solver to `new` / `builder`, a
//! backend (`Serial`, `Rayon` or `Comm`) and an optional seeded fault plan
//! to the validated [`EngineBuilder`](prelude::EngineBuilder). Nothing is
//! read from the environment; without `fault_plan` a build runs clean.
//! The distributed backend streams results to the root over the
//! fault-tolerant [`runtime`] `Comm` layer while ranks keep computing, and
//! under a fault plan the build is still bit-identical (lost ranks' chunks
//! are re-issued to the survivors through the same kernel).
//!
//! ```
//! use liair::prelude::*;
//! # use liair::core::screening::build_pair_list;
//! # let grid = RealGrid::cubic(Cell::cubic(8.0), 12);
//! # let solver = PoissonSolver::isolated(grid);
//! # let orbitals: Vec<Vec<f64>> = vec![vec![0.01; grid.len()]; 2];
//! # let infos = vec![OrbitalInfo { center: Vec3::splat(4.0), spread: 0.7 }; 2];
//! # let pairs = build_pair_list(&infos, 0.0, Some(&grid.cell));
//! let engine = ExchangeEngine::builder(&grid, &solver)
//!     .backend(ExecBackend::Comm { nranks: 2, strategy: BalanceStrategy::GreedyLpt })
//!     .fault_plan(FaultPlan::messages_only(7))
//!     .build()
//!     .unwrap();
//! let out = engine.energy(&orbitals, &pairs);
//! assert!(out.energy <= 0.0);
//! ```

#![forbid(unsafe_code)]

pub use liair_basis as basis;
pub use liair_bgq as bgq;
pub use liair_core as core;
pub use liair_grid as grid;
pub use liair_integrals as integrals;
pub use liair_math as math;
pub use liair_md as md;
pub use liair_runtime as runtime;
pub use liair_scf as scf;
pub use liair_serve as serve;
pub use liair_xc as xc;

/// The most common imports in one place.
pub mod prelude {
    pub use liair_basis::{systems, Basis, Cell, Element, Molecule, ANGSTROM};
    pub use liair_bgq::{machine::scaling_series, MachineConfig};
    pub use liair_core::{
        build_pair_list, simulate_hfx_build, BalanceStrategy, BuildProfile, EngineBuilder,
        Error as CoreError, ExchangeEngine, ExecBackend, FaultPlan, IncrementalExchange,
        OrbitalInfo, Result as CoreResult, Scheme, Workload,
    };
    pub use liair_grid::{foster_boys, MolGrid, PoissonSolver, RealGrid};
    pub use liair_math::{Mat, Vec3};
    pub use liair_md::{
        CombinedForces, ForceField, HfxDeltaForces, IncrementalGridForces, MdOptions, MdState,
        MtsOptions, SplitForceProvider, Thermostat, XcForces,
    };
    pub use liair_runtime::{
        fit_torus, run_spmd_cfg, Comm, CommConfig, CommError, SeedConfig, SpmdRun, TrafficLog,
    };
    pub use liair_scf::{rhf, rks_lda, Method, ScfOptions, ScfResult, ScfSession};
    pub use liair_serve::{
        run_and_verify, run_campaign, CampaignReport, CampaignSpec, Disruption, JobKind, JobReport,
        JobSpec, Observables, Service, ServiceConfig, ServiceReport,
    };
    pub use liair_xc::Functional;
}
