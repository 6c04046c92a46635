//! # liair-basis
//!
//! Chemical structure layer of the `liair` workspace:
//!
//! * [`element`] — the elements needed by the lithium/air-battery study
//!   (H through Cl) with charges, masses and radii;
//! * [`molecule`] — atoms, molecules, nuclear-repulsion energies;
//! * [`cell`] — periodic simulation cells with minimum-image convention;
//! * [`shell`] — contracted Cartesian Gaussian shells and the STO-3G and
//!   6-31G basis sets (exponents/coefficients embedded — no data files, no
//!   network);
//! * [`systems`] — programmatic builders for every benchmark system in the
//!   paper's evaluation: water boxes, propylene/ethylene carbonate, DMSO,
//!   DME, Li₂O₂ clusters and mixed electrolyte boxes.
//!
//! Geometries are built in code, never read from files.
//!
//! All quantities are in Hartree atomic units (lengths in Bohr); the
//! [`ANGSTROM`] constant converts from Å.

#![forbid(unsafe_code)]

pub mod cell;
pub mod element;
pub mod molecule;
pub mod shell;
pub mod systems;

pub use cell::Cell;
pub use element::Element;
pub use molecule::{Atom, Molecule};
pub use shell::{Basis, Shell};

/// One Ångström in Bohr.
pub const ANGSTROM: f64 = 1.0 / 0.529_177_210_92;

/// Boltzmann constant in Hartree per Kelvin.
pub const KB_HARTREE: f64 = 3.166_811_563e-6;
