//! # liair-integrals
//!
//! Analytic Gaussian integrals over contracted Cartesian shells, via the
//! McMurchie–Davidson scheme (Hermite expansion of Gaussian products plus
//! Boys-function auxiliaries):
//!
//! * [`hermite`] — the `E_t^{ij}` expansion coefficients and the
//!   `R_{tuv}` Coulomb auxiliary integrals;
//! * [`one_electron`] — overlap, kinetic, nuclear-attraction and dipole
//!   matrices, and the nuclear gradients of `Tr(W S)` and `Tr(D H)`;
//! * [`eri`] — two-electron repulsion integrals `(ab|cd)` over blocks of
//!   shells that share exponents (sp shells), the full tensor for small
//!   systems, and the Schwarz screening bounds;
//! * [`fock`] — integral-direct Coulomb/exchange builds with Schwarz
//!   screening (the *molecular* exact-exchange reference that validates the
//!   condensed-phase grid pair-Poisson path in `liair-grid`), and the
//!   Coulomb energy's nuclear gradient over the same blocks and screen.
//!
//! Derivatives come from the same `E`/`R` tables through the raise/lower
//! identity `∂/∂A_x [x_A^i e^{−a x_A²}] = (2a x_A^{i+1} − i x_A^{i−1})
//! e^{−a x_A²}`, contracted straight into per-atom gradients: no
//! derivative integral matrix or quartet is stored. They serve the
//! analytic RKS-LDA forces of `liair-md`'s fast MTS provider; the other
//! MD forces are finite differences of an energy, and the screening
//! campaign runs single points.
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
    core_hamiltonian_gradient, dipole_matrices, kinetic_matrix, nuclear_matrix, overlap_gradient,
    overlap_matrix, second_moment_matrices,
};
