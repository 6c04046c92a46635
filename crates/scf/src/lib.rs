//! # liair-scf
//!
//! Restricted self-consistent-field engines over the `liair-integrals`
//! substrate:
//!
//! * [`session`] — the SCF loop, one iteration at a time: J/K, the Fock
//!   matrix, Pulay DIIS and diagonalization, with a bit-exact
//!   checkpoint/resume for preempted serve jobs. Exchange is one term of
//!   it: built analytically, or supplied by the caller as an operator on
//!   the occupied orbitals ([`ScfSession::with_exchange`]), which is how
//!   `liair-core`'s pair-Poisson K enters an SCF. The loop's parts (DIIS,
//!   diagonalization, density assembly) are private, so no other crate
//!   builds a second loop. A converged session also gives the post-SCF
//!   energies of PBE and PBE0 (the paper's production functional) on its
//!   density ([`ScfSession::functional_energies`]), from the quartets it
//!   stores. Self-consistency for the GGA potential is intentionally out
//!   of scope (see DESIGN.md): the hybrid's *exact-exchange* term — the
//!   paper's entire subject — is computed exactly, both analytically (via
//!   the K matrix) and on grids (via `liair-core`'s pair-Poisson path);
//! * [`driver`] — RHF and RKS(LDA) run as sessions to completion.
//!
//! Closed-shell and single-determinant: nothing on the screening or MD
//! paths needs open shells or correlated methods. A converged RKS-LDA
//! session gives its analytic nuclear gradient
//! ([`ScfSession::gradient`]), the fast MTS force of `liair-md`, and so
//! does a converged `with_exchange` session given its operator's exchange
//! term, the full MTS force.
//!
//! Validation: H₂, He and H₂O STO-3G total energies against literature
//! values, and LiH pinned to 1e-8 Ha with a translation/rotation
//! invariance check, in the unit tests.

#![forbid(unsafe_code)]

mod diis;
pub mod driver;
mod gradient;
pub mod session;

pub use driver::{rhf, rks_lda, EnergyBreakdown, Method, ScfOptions, ScfResult};
pub use session::{ScfCheckpoint, ScfSession};
