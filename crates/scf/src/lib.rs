//! # liair-scf
//!
//! Restricted self-consistent-field engines over the `liair-integrals`
//! substrate:
//!
//! * [`diis`] — Pulay's DIIS convergence accelerator;
//! * [`driver`] — RHF and RKS(LDA) SCF drivers, plus post-SCF evaluation
//!   of PBE and PBE0 (the paper's production functional) on the converged
//!   density. Self-consistency for the GGA potential is intentionally out
//!   of scope (see DESIGN.md): the hybrid's *exact-exchange* term — the
//!   paper's entire subject — is computed exactly, both analytically (via
//!   the K matrix) and on grids (via `liair-core`'s pair-Poisson path).
//!
//! Validation: H₂, He, LiH and H₂O STO-3G total energies against
//! literature values in the unit tests.

#![forbid(unsafe_code)]

pub mod diis;
pub mod driver;
pub mod fci;
pub mod mp2;
pub mod optimize;
pub mod session;
pub mod uhf;

pub use diis::Diis;
pub use driver::{functional_energy, rhf, rks_lda, EnergyBreakdown, Method, ScfOptions, ScfResult};
pub use fci::{fci_two_electron, FciResult};
pub use mp2::{mp2_correlation, rhf_mp2_energy};
pub use optimize::{dipole_moment, harmonic_frequencies, optimize_rhf, OptResult};
pub use session::{ScfCheckpoint, ScfSession};
pub use uhf::{uhf, UhfOptions, UhfResult};
