//! # liair-xc
//!
//! Exchange–correlation functionals for closed-shell densities on uniform
//! grids (the plane-wave-DFT style used by the paper's CPMD substrate):
//!
//! * [`lda`] — Slater exchange and Perdew–Wang '92 correlation, including
//!   the potentials needed for self-consistent LDA;
//! * [`pbe`] — PBE GGA exchange and correlation energy densities;
//! * [`functional`] — the user-facing [`Functional`] enum: `LDA`, `PBE` and
//!   the paper's `PBE0` hybrid (25 % exact exchange + 75 % PBE exchange +
//!   full PBE correlation).
//!
//! Spin-unpolarized only: every SCF in the workspace is closed-shell.
//! GGA quantities are evaluated from FFT gradients of the grid density.
//! The hybrid's exact-exchange share is *not* computed here — that is the
//! whole point of `liair-core`; this crate only reports the fraction.

#![forbid(unsafe_code)]

pub mod functional;
pub mod lda;
pub mod pbe;

pub use functional::Functional;
