//! # liair-grid
//!
//! The real-space / plane-wave machinery of the condensed-phase exact
//! exchange path (the code path the paper parallelizes):
//!
//! * [`grid`] — uniform grids over periodic cells;
//! * [`orbital`] — evaluation of Gaussian AOs/MOs on grids;
//! * [`poisson`] — FFT-based Poisson solvers with periodic and
//!   spherical-cutoff (isolated) Coulomb kernels; every orbital-pair
//!   exchange term is one `exchange_pair_energy` (or, for the K operator,
//!   one `solve_into`) on this type;
//! * [`localize`] — Foster–Boys orbital localization (Jacobi sweeps over
//!   MO dipole matrices), producing the Wannier-like centers and spreads
//!   that drive the paper's distance screening.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops are the clearer idiom in this numeric code

pub mod grid;
pub mod localize;
pub mod molgrid;
pub mod orbital;
pub mod patch;
pub mod poisson;

pub use grid::RealGrid;
pub use localize::{foster_boys, Localization};
pub use molgrid::MolGrid;
pub use orbital::{
    ao_values, ao_values_at_points, density_from_aos, density_on_grid, orbitals_from_aos,
    orbitals_on_grid,
};
pub use patch::{isolated_patch_solver, patch_pair_energy_ws, Patch, PatchScratch};
pub use poisson::{CoulombKernel, KernelTimings, PoissonSolver, PoissonWorkspace};
