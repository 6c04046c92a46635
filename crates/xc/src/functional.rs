//! Grid-level functional evaluation and the [`Functional`] selector.

use crate::{lda, pbe};
use liair_grid::RealGrid;
use liair_math::rfft::{half_len, irfft3_into, rfft3_into};
use liair_math::Complex64;
use rayon::prelude::*;

/// The exchange–correlation treatments of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Functional {
    /// Pure Hartree–Fock: 100 % exact exchange, no DFT XC.
    Hf,
    /// Local-density approximation (Slater + PW92).
    Lda,
    /// PBE GGA.
    Pbe,
    /// PBE0 hybrid: 25 % exact exchange + 75 % PBE exchange + PBE
    /// correlation — the functional the paper's application runs use.
    Pbe0,
}

impl Functional {
    /// Fraction of exact (Hartree–Fock) exchange this functional mixes in.
    /// The exchange itself is computed by `liair-core`/`liair-integrals`.
    pub fn hfx_fraction(self) -> f64 {
        match self {
            Functional::Hf => 1.0,
            Functional::Lda | Functional::Pbe => 0.0,
            Functional::Pbe0 => 0.25,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Functional::Hf => "HF",
            Functional::Lda => "LDA",
            Functional::Pbe => "PBE",
            Functional::Pbe0 => "PBE0",
        }
    }

    /// DFT exchange–correlation energy per particle at density `n` and
    /// density-gradient magnitude `grad_n`, the integrand of
    /// [`Functional::xc_energy`] and of the post-SCF energies
    /// (`E_xc = ∫ n·exc`): 0 for `Hf`, Slater + PW92 for `Lda`
    /// (which ignores `grad_n`), PBE for `Pbe`, and 75 % PBE exchange plus
    /// PBE correlation for `Pbe0`. Like [`Functional::xc_energy`], it leaves
    /// out the exact-exchange share.
    #[inline]
    pub fn exc(self, n: f64, grad_n: f64) -> f64 {
        match self {
            Functional::Hf => 0.0,
            Functional::Lda => lda::lda_exc(n),
            Functional::Pbe => pbe::pbe_exc(n, grad_n),
            Functional::Pbe0 => 0.75 * pbe::pbe_ex(n, grad_n) + pbe::pbe_ec(n, grad_n),
        }
    }

    /// DFT exchange–correlation energy of a closed-shell density sampled on
    /// the grid. The exact-exchange share (for `Hf`/`Pbe0`) is *not*
    /// included — callers add `hfx_fraction() · E_x^{exact}` themselves.
    /// The per-point energies are evaluated in parallel and summed in grid
    /// order, so the result's bits do not depend on the thread count.
    pub fn xc_energy(self, grid: &RealGrid, density: &[f64]) -> f64 {
        assert_eq!(density.len(), grid.len());
        let per_point: Vec<f64> = match self {
            Functional::Hf => return 0.0,
            // A constant receiver lets `exc`'s match fold away per point,
            // and LDA reads no gradient.
            Functional::Lda => density
                .par_iter()
                .map(|&n| n * Functional::Lda.exc(n, 0.0))
                .collect(),
            Functional::Pbe | Functional::Pbe0 => {
                let g = density_gradient_norm(grid, density);
                (0..density.len())
                    .into_par_iter()
                    .map(|i| density[i] * self.exc(density[i], g[i]))
                    .collect()
            }
        };
        per_point.iter().sum::<f64>() * grid.dvol()
    }

    /// LDA exchange–correlation potential on the grid (used by the
    /// self-consistent RKS path; GGA potentials are intentionally not
    /// implemented — PBE/PBE0 energies are evaluated post-SCF, see
    /// DESIGN.md).
    pub fn lda_vxc_field(density: &[f64]) -> Vec<f64> {
        density.par_iter().map(|&n| lda::lda_vxc(n)).collect()
    }
}

/// `|∇n|` on the grid via reciprocal-space differentiation
/// (`∂̂f = iG f̂`): one r2c transform, then one c2r per axis.
pub fn density_gradient_norm(grid: &RealGrid, density: &[f64]) -> Vec<f64> {
    assert_eq!(density.len(), grid.len());
    let dims = grid.dims;
    let (_, ny, nz) = dims;
    let nzh = nz / 2 + 1;
    let mut hat = vec![Complex64::ZERO; half_len(dims)];
    rfft3_into(density, dims, &mut hat);
    // A Nyquist plane (even extents only) has no conjugate partner: zero it
    // on the differentiated axis so the derivative stays real.
    let nyquist = [dims.0, dims.1, dims.2].map(|n| n.is_multiple_of(2).then_some(n / 2));
    let mut comp = vec![Complex64::ZERO; hat.len()];
    let mut deriv = vec![0.0; grid.len()];
    let mut grad_sq = vec![0.0; grid.len()];
    for axis in 0..3 {
        for (idx, (c, &h)) in comp.iter_mut().zip(&hat).enumerate() {
            let bin = [idx / (ny * nzh), idx / nzh % ny, idx % nzh];
            *c = if Some(bin[axis]) == nyquist[axis] {
                Complex64::ZERO
            } else {
                let g = grid.g_of_bin(bin[0], bin[1], bin[2])[axis];
                Complex64::new(-h.im * g, h.re * g)
            };
        }
        irfft3_into(&mut comp, dims, &mut deriv);
        for (acc, &d) in grad_sq.iter_mut().zip(&deriv) {
            *acc += d * d;
        }
    }
    grad_sq.into_iter().map(f64::sqrt).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_basis::Cell;
    use liair_math::approx_eq;
    use std::f64::consts::PI;

    #[test]
    fn gradient_of_plane_wave() {
        // n = 2 + sin(G₁x) + ½cos(2G₂y) + ⅓sin(3G₃z) on an orthorhombic
        // (12, 18, 20) grid, one axis at a time and all three at once: each
        // component of ∇n is analytic, so |∇n| is too.
        let (a, b, c) = (9.0, 11.0, 13.0);
        let grid = RealGrid::new(Cell::orthorhombic(a, b, c), (12, 18, 20));
        let g = [2.0 * PI / a, 2.0 * PI / b, 2.0 * PI / c];
        for on in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0; 3]] {
            let n: Vec<f64> = (0..grid.len())
                .map(|i| {
                    let p = grid.point_flat(i);
                    2.0 + on[0] * (g[0] * p.x).sin()
                        + on[1] * 0.5 * (2.0 * g[1] * p.y).cos()
                        + on[2] * (3.0 * g[2] * p.z).sin() / 3.0
                })
                .collect();
            let got = density_gradient_norm(&grid, &n);
            for i in (0..grid.len()).step_by(37) {
                let p = grid.point_flat(i);
                let dx = on[0] * g[0] * (g[0] * p.x).cos();
                let dy = on[1] * -g[1] * (2.0 * g[1] * p.y).sin();
                let dz = on[2] * g[2] * (3.0 * g[2] * p.z).cos();
                let want = (dx * dx + dy * dy + dz * dz).sqrt();
                assert!(
                    approx_eq(got[i], want, 1e-8),
                    "axes {on:?} point {i}: {} vs {want}",
                    got[i]
                );
            }
        }
    }

    #[test]
    fn gradient_of_constant_is_zero() {
        let grid = RealGrid::cubic(Cell::cubic(5.0), 8);
        let n = vec![0.7; grid.len()];
        let g = density_gradient_norm(&grid, &n);
        assert!(g.iter().all(|&x| x < 1e-12));
    }

    #[test]
    fn uniform_density_lda_closed_form() {
        // E_xc = V · n ε_xc(n) for a homogeneous density.
        let grid = RealGrid::cubic(Cell::cubic(6.0), 8);
        let n0 = 0.25;
        let n = vec![n0; grid.len()];
        let want = grid.cell.volume() * n0 * lda::lda_exc(n0);
        let got = Functional::Lda.xc_energy(&grid, &n);
        assert!(approx_eq(got, want, 1e-10));
        // PBE reduces to LDA for the uniform gas.
        let pbe = Functional::Pbe.xc_energy(&grid, &n);
        assert!(approx_eq(pbe, want, 1e-8), "{pbe} vs {want}");
    }

    #[test]
    fn pbe0_composition_identity() {
        // E_xc^{PBE0,DFT} = E_xc^{PBE} − 0.25 E_x^{PBE}.
        let grid = RealGrid::cubic(Cell::cubic(7.0), 16);
        let g0 = 2.0 * PI / 7.0;
        let n: Vec<f64> = (0..grid.len())
            .map(|i| 0.3 + 0.1 * (g0 * grid.point_flat(i).y).cos())
            .collect();
        let grads = density_gradient_norm(&grid, &n);
        let ex_pbe: f64 = n
            .iter()
            .zip(&grads)
            .map(|(&d, &g)| d * pbe::pbe_ex(d, g))
            .sum::<f64>()
            * grid.dvol();
        let full = Functional::Pbe.xc_energy(&grid, &n);
        let hybrid = Functional::Pbe0.xc_energy(&grid, &n);
        assert!(approx_eq(hybrid, full - 0.25 * ex_pbe, 1e-10));
    }

    #[test]
    fn hf_has_no_dft_xc() {
        let grid = RealGrid::cubic(Cell::cubic(4.0), 4);
        let n = vec![0.5; grid.len()];
        assert_eq!(Functional::Hf.xc_energy(&grid, &n), 0.0);
        assert_eq!(Functional::Hf.hfx_fraction(), 1.0);
        assert_eq!(Functional::Pbe0.hfx_fraction(), 0.25);
    }

    #[test]
    fn xc_energy_is_negative_for_physical_density() {
        let l = 12.0;
        let grid = RealGrid::cubic(Cell::cubic(l), 24);
        let alpha = 0.5;
        let c = liair_math::Vec3::splat(l / 2.0);
        let n: Vec<f64> = (0..grid.len())
            .map(|i| {
                let d = grid.cell.min_image(c, grid.point_flat(i));
                2.0 * (alpha / PI).powf(1.5) * (-alpha * d.norm_sqr()).exp()
            })
            .collect();
        for f in [Functional::Lda, Functional::Pbe, Functional::Pbe0] {
            let e = f.xc_energy(&grid, &n);
            assert!(e < 0.0, "{}: {e}", f.name());
        }
    }

    #[test]
    fn xc_energy_bits_do_not_depend_on_thread_count() {
        let l = 12.0;
        let grid = RealGrid::cubic(Cell::cubic(l), 24);
        let c = liair_math::Vec3::new(5.3, 6.1, 6.9);
        let n: Vec<f64> = (0..grid.len())
            .map(|i| {
                let d = grid.cell.min_image(c, grid.point_flat(i));
                2.0 * (0.5 / PI).powf(1.5) * (-0.5 * d.norm_sqr()).exp()
            })
            .collect();
        for f in [Functional::Lda, Functional::Pbe, Functional::Pbe0] {
            let on = |threads: usize| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| f.xc_energy(&grid, &n))
            };
            let one = on(1);
            for threads in 2..=4 {
                let e = on(threads);
                assert_eq!(
                    e.to_bits(),
                    one.to_bits(),
                    "{} at {threads} threads: {e:e} vs {one:e}",
                    f.name()
                );
            }
        }
    }
}
