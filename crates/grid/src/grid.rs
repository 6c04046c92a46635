//! Uniform real-space grids over periodic cells.

use liair_basis::Cell;
use liair_math::Vec3;

/// A uniform grid sampling the periodic cell; point `(ix, iy, iz)` sits at
/// `(ix·a/nx, iy·b/ny, iz·c/nz)`. Fields over the grid are flat `Vec<f64>`
/// with `(ix, iy, iz)` at `(ix·ny + iy)·nz + iz` (z contiguous).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealGrid {
    /// The periodic cell.
    pub cell: Cell,
    /// Points per axis.
    pub dims: (usize, usize, usize),
}

impl RealGrid {
    /// Construct; all dims must be ≥ 1.
    pub fn new(cell: Cell, dims: (usize, usize, usize)) -> Self {
        assert!(dims.0 >= 1 && dims.1 >= 1 && dims.2 >= 1);
        Self { cell, dims }
    }

    /// Cubic grid of `n³` points.
    pub fn cubic(cell: Cell, n: usize) -> Self {
        Self::new(cell, (n, n, n))
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Whether the grid has no points (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Volume element `dV = V / N`.
    pub fn dvol(&self) -> f64 {
        self.cell.volume() / self.len() as f64
    }

    /// Grid spacing per axis.
    pub fn spacing(&self) -> Vec3 {
        Vec3::new(
            self.cell.lengths.x / self.dims.0 as f64,
            self.cell.lengths.y / self.dims.1 as f64,
            self.cell.lengths.z / self.dims.2 as f64,
        )
    }

    /// Cartesian position of grid point `(ix, iy, iz)`.
    #[inline]
    pub fn point(&self, ix: usize, iy: usize, iz: usize) -> Vec3 {
        let h = self.spacing();
        Vec3::new(ix as f64 * h.x, iy as f64 * h.y, iz as f64 * h.z)
    }

    /// Position of the flat-index point.
    #[inline]
    pub fn point_flat(&self, idx: usize) -> Vec3 {
        let (_, ny, nz) = self.dims;
        let iz = idx % nz;
        let iy = (idx / nz) % ny;
        let ix = idx / (ny * nz);
        self.point(ix, iy, iz)
    }

    /// Integrate a field sampled on the grid: `Σ f·dV`.
    pub fn integrate(&self, f: &[f64]) -> f64 {
        assert_eq!(f.len(), self.len());
        f.iter().sum::<f64>() * self.dvol()
    }

    /// Inner product `∫ f g dV`.
    pub fn inner(&self, f: &[f64], g: &[f64]) -> f64 {
        assert_eq!(f.len(), self.len());
        assert_eq!(g.len(), self.len());
        f.iter().zip(g).map(|(a, b)| a * b).sum::<f64>() * self.dvol()
    }

    /// Signed reciprocal-lattice index of FFT bin `i` along an axis of `n`
    /// points: `0, 1, …, n/2, −(n−1)/2, …, −1`.
    #[inline]
    pub fn freq_index(i: usize, n: usize) -> i64 {
        if i <= n / 2 {
            i as i64
        } else {
            i as i64 - n as i64
        }
    }

    /// Reciprocal vector of FFT bin `(i, j, k)`.
    pub fn g_of_bin(&self, i: usize, j: usize, k: usize) -> Vec3 {
        self.cell.g_vector((
            Self::freq_index(i, self.dims.0),
            Self::freq_index(j, self.dims.1),
            Self::freq_index(k, self.dims.2),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_math::approx_eq;

    #[test]
    fn integrates_constant_to_volume() {
        let g = RealGrid::cubic(Cell::cubic(10.0), 8);
        let ones = vec![1.0; g.len()];
        assert!(approx_eq(g.integrate(&ones), 1000.0, 1e-12));
    }

    #[test]
    fn integrates_plane_wave_to_zero() {
        // ∫ cos(2πx/L) over the cell vanishes exactly on a uniform grid.
        let g = RealGrid::cubic(Cell::cubic(5.0), 16);
        let f: Vec<f64> = (0..g.len())
            .map(|i| {
                let p = g.point_flat(i);
                (2.0 * std::f64::consts::PI * p.x / 5.0).cos()
            })
            .collect();
        assert!(g.integrate(&f).abs() < 1e-10);
    }

    #[test]
    fn point_flat_matches_indexed() {
        let g = RealGrid::new(Cell::orthorhombic(4.0, 6.0, 8.0), (2, 3, 4));
        let mut idx = 0;
        for ix in 0..2 {
            for iy in 0..3 {
                for iz in 0..4 {
                    assert_eq!(g.point(ix, iy, iz), g.point_flat(idx));
                    idx += 1;
                }
            }
        }
    }

    #[test]
    fn freq_indices_wrap() {
        assert_eq!(RealGrid::freq_index(0, 8), 0);
        assert_eq!(RealGrid::freq_index(4, 8), 4);
        assert_eq!(RealGrid::freq_index(5, 8), -3);
        assert_eq!(RealGrid::freq_index(7, 8), -1);
    }

    #[test]
    fn normalized_gaussian_integrates_to_one() {
        // (α/π)^{3/2} e^{-α|r−c|²} integrates to 1 when well resolved and
        // well contained.
        let l = 20.0;
        let g = RealGrid::cubic(Cell::cubic(l), 48);
        let alpha = 0.8;
        let c = Vec3::splat(l / 2.0);
        let norm = (alpha / std::f64::consts::PI).powf(1.5);
        let f: Vec<f64> = (0..g.len())
            .map(|i| {
                let d = g.cell.min_image(c, g.point_flat(i));
                norm * (-alpha * d.norm_sqr()).exp()
            })
            .collect();
        assert!(approx_eq(g.integrate(&f), 1.0, 1e-6));
    }
}
