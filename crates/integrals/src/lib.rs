//! # liair-integrals
//!
//! Analytic Gaussian integrals over contracted Cartesian shells, via the
//! McMurchie–Davidson scheme (Hermite expansion of Gaussian products plus
//! Boys-function auxiliaries):
//!
//! * [`hermite`] — the `E_t^{ij}` expansion coefficients and the
//!   `R_{tuv}` Coulomb auxiliary integrals;
//! * [`one_electron`] — overlap, kinetic, nuclear-attraction and dipole
//!   matrices;
//! * [`eri`] — two-electron repulsion integrals `(ab|cd)` over blocks of
//!   shells that share exponents (sp shells), the full tensor for small
//!   systems, and the Schwarz screening bounds;
//! * [`fock`] — integral-direct Coulomb/exchange builds with Schwarz
//!   screening (the *molecular* exact-exchange reference that validates the
//!   condensed-phase grid pair-Poisson path in `liair-grid`).
//!
//! Energies only, no derivative integrals: every MD force in the
//! workspace is a finite difference of an energy (`liair-md`), and the
//! screening campaign runs single points.
//!
//! No integral library exists for Rust (`repro_why`), so this crate is the
//! from-scratch substrate. It is validated against the classic H₂/STO-3G
//! tables of Szabo & Ostlund in the unit tests.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops are the clearer idiom in this numeric code

pub mod eri;
pub mod fock;
pub mod hermite;
pub mod one_electron;

pub use eri::{eri_tensor, schwarz_matrix, EriTensor};
pub use fock::{build_jk, JkBuilder};
pub use one_electron::{
    dipole_matrices, kinetic_matrix, nuclear_matrix, overlap_matrix, second_moment_matrices,
};
