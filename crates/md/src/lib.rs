//! # liair-md
//!
//! Molecular dynamics for the lithium/air-battery application study:
//!
//! * [`forcefield`] — a reactive-flavoured classical force field (Morse
//!   bonds that *can* dissociate, harmonic angles, Lennard-Jones, damped
//!   shifted-force Coulomb). The carbonate-ester C–O weakening encodes the
//!   known ring-opening degradation channel of cyclic carbonates under
//!   peroxide attack — the synthetic substitute for the paper's 96-rack
//!   PBE0 trajectories (see DESIGN.md);
//! * [`integrator`] — Berendsen/Nosé–Hoover thermostatting,
//!   Maxwell–Boltzmann initialization from an explicit seed
//!   ([`MdState::thermalize_seeded`]) and the one [`ForceProvider`] trait;
//! * [`mts`] — the one MD step, [`MdState::step`]: r-RESPA over cheap
//!   exchange-free forces every inner step and the exact-exchange
//!   correction as an outer-step impulse; velocity Verlet without one;
//! * [`analysis`] — radial distribution functions, the hot-MD degradation
//!   assay (the one bond-scission count), and energy-drift diagnostics;
//! * [`checkpoint`] — bit-exact [`MdCheckpoint`]s for preempt/resume;
//! * [`qmforce`] — the quantum force providers of hybrid-functional
//!   Born–Oppenheimer MTS: the exchange-free [`XcForces`] (fast), the
//!   grid-exchange [`IncrementalGridForces`] (full), and their
//!   [`HfxDeltaForces`] split. Each force is the analytic gradient of one
//!   SCF: RKS-LDA for the fast one, the grid-exchange RHF for the full one.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops are the clearer idiom in this numeric code

pub mod analysis;
pub mod checkpoint;
pub mod forcefield;
pub mod integrator;
pub mod mts;
pub mod qmforce;

pub use checkpoint::MdCheckpoint;
pub use forcefield::ForceField;
pub use integrator::{ForceProvider, MdOptions, MdState, Thermostat};
pub use mts::{MtsOptions, MtsOuterRecord, MtsStepTimes};
pub use qmforce::{HfxDeltaForces, IncrementalGridForces, XcForces};
