//! Condensed-phase exchange workloads for the scaling studies.
//!
//! A workload fixes everything the cost model needs: the orbital count and
//! their (synthetic liquid) localization geometry, the screened pair list
//! actually produced by [`crate::screening`], and the grid sizes of the
//! pair-local and full-cell FFTs.

use crate::screening::{source_pairs, OrbitalInfo, PairList};
use liair_basis::Cell;
use liair_math::rng::SplitMix64;
use liair_math::Vec3;
use serde::{Deserialize, Serialize};

/// A fully-specified exchange workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workload {
    /// Human-readable label.
    pub name: String,
    /// Occupied (localized) orbital count.
    pub norb: usize,
    /// Cubic cell edge (Bohr).
    pub cell_edge: f64,
    /// Pair-local FFT extent (the paper's compact pair representation).
    pub pair_grid: usize,
    /// Full-cell FFT extent (what the comparable approaches transform).
    pub full_grid: usize,
    /// AO dimension of the equivalent Gaussian-basis computation (for the
    /// replicated integral-direct baseline model).
    pub nao: usize,
    /// Localization spread used when building the orbitals (Bohr).
    pub spread: f64,
    /// Screened pair list.
    pub pairs: PairList,
}

impl Workload {
    /// Build a synthetic condensed-phase workload: `norb` localized
    /// orbitals uniformly random in a cubic cell, screened at `eps`.
    #[allow(clippy::too_many_arguments)]
    pub fn condensed(
        name: &str,
        norb: usize,
        cell_edge: f64,
        spread: f64,
        eps: f64,
        pair_grid: usize,
        full_grid: usize,
        seed: u64,
    ) -> Workload {
        assert!(norb >= 1 && cell_edge > 0.0 && spread > 0.0);
        let cell = Cell::cubic(cell_edge);
        let mut rng = SplitMix64::new(seed);
        let orbitals: Vec<OrbitalInfo> = (0..norb)
            .map(|_| OrbitalInfo {
                center: Vec3::new(
                    rng.range_f64(0.0, cell_edge),
                    rng.range_f64(0.0, cell_edge),
                    rng.range_f64(0.0, cell_edge),
                ),
                spread,
            })
            .collect();
        // The canonical source: O(N·partners) cell lists whenever ε is
        // finite (the linear-scaling construction the paper's pair lists
        // need), the O(N²) scan only for unscreened workloads. The cost
        // model below inherits `pairs.considered`, so sourcing cost is
        // observable per workload.
        let pairs = source_pairs(&orbitals, eps, Some(&cell));
        Workload {
            name: name.to_string(),
            norb,
            cell_edge,
            pair_grid,
            full_grid,
            // STO-3G-ish water stoichiometry: 4 occupied valence orbitals
            // and 7 AOs per molecule → nao ≈ 1.75 · norb.
            nao: norb * 7 / 4,
            spread,
            pairs,
        }
    }

    /// Per-pair costs under the *adaptive pair-box* variant: the pair-local
    /// box must cover both orbitals, so its edge grows with the center
    /// separation — `cost ∝ (6σ + d)³ / (6σ)³` relative to a same-center
    /// pair. (The fixed-box production path prices every pair equally;
    /// this cost model drives the load-balancing ablation.)
    pub fn adaptive_pair_costs(&self) -> Vec<f64> {
        let sigma = self.spread;
        let base = 6.0 * sigma;
        self.pairs
            .pairs
            .iter()
            .map(|p| {
                // Recover the separation from the stored screening bound:
                // bound = exp(−d²/(4σ²)) ⇒ d = 2σ√(−ln bound).
                let d = if p.i == p.j || p.bound >= 1.0 {
                    0.0
                } else {
                    2.0 * sigma * (-p.bound.ln()).max(0.0).sqrt()
                };
                ((base + d) / base).powi(3)
            })
            .collect()
    }

    /// The paper-scale benchmark: a 1024-molecule water supercell
    /// (4096 localized valence orbitals, 59 Bohr cell, ε = 10⁻⁶,
    /// 48³ pair-local grids — a ~22 Bohr pair box at the full grid's
    /// 0.46 Bohr spacing — against a 128³ full-cell grid).
    pub fn paper_water_box() -> Workload {
        Workload::condensed("water-1024", 4096, 59.2, 1.5, 1e-6, 48, 128, 2014)
    }

    /// Flops of one pair-local exchange kernel: forward + inverse complex
    /// 3-D FFT (5 N log₂N each) plus the reciprocal kernel multiply and
    /// pair-density formation.
    pub fn pair_flops(&self) -> f64 {
        Self::kernel_flops(self.pair_grid)
    }

    /// Flops of the same kernel on the full cell grid (comparable-approach
    /// cost).
    pub fn full_grid_flops(&self) -> f64 {
        Self::kernel_flops(self.full_grid)
    }

    fn kernel_flops(extent: usize) -> f64 {
        let n = (extent * extent * extent) as f64;
        2.0 * 5.0 * n * n.log2() + 8.0 * n + 2.0 * n
    }

    /// Bytes of one orbital patch on the pair-local grid (real f64 field).
    pub fn patch_bytes(&self) -> f64 {
        (self.pair_grid * self.pair_grid * self.pair_grid) as f64 * 8.0
    }

    /// Bytes of a complex full-cell grid.
    pub fn full_grid_bytes(&self) -> f64 {
        (self.full_grid * self.full_grid * self.full_grid) as f64 * 16.0
    }

    /// Mean surviving partners per orbital.
    pub fn partners_per_orbital(&self) -> f64 {
        2.0 * self.pairs.len() as f64 / self.norb as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_shape() {
        let w = Workload::paper_water_box();
        assert_eq!(w.norb, 4096);
        // Screening keeps a few percent of the 8.4M candidates —
        // a physically sensible ~50–200 partners per orbital.
        assert!(w.pairs.n_candidates > 8_000_000);
        let partners = w.partners_per_orbital();
        assert!(
            (30.0..300.0).contains(&partners),
            "partners per orbital: {partners}"
        );
        assert!(w.pairs.survival() < 0.1, "survival {}", w.pairs.survival());
        // Enough tasks to occupy ≥ 1 rack outright.
        assert!(w.pairs.len() > 100_000);
    }

    #[test]
    fn flops_are_sane() {
        let w = Workload::paper_water_box();
        // 48³ kernel ≈ 20 MF; full-grid kernel > 10× bigger (the paper's
        // "surpasses a 10-fold decrease" headroom).
        assert!(
            w.pair_flops() > 1e7 && w.pair_flops() < 1e8,
            "{}",
            w.pair_flops()
        );
        let ratio = w.full_grid_flops() / w.pair_flops();
        assert!(
            ratio > 10.0 && ratio < 40.0,
            "full/pair flops ratio {ratio}"
        );
    }

    #[test]
    fn deterministic_by_seed() {
        let a = Workload::condensed("x", 100, 20.0, 1.5, 1e-6, 32, 64, 3);
        let b = Workload::condensed("x", 100, 20.0, 1.5, 1e-6, 32, 64, 3);
        assert_eq!(a.pairs.len(), b.pairs.len());
        let c = Workload::condensed("x", 100, 20.0, 1.5, 1e-6, 32, 64, 4);
        assert_ne!(
            a.pairs.pairs.iter().map(|p| (p.i, p.j)).collect::<Vec<_>>(),
            c.pairs.pairs.iter().map(|p| (p.i, p.j)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tighter_eps_keeps_more_pairs() {
        let loose = Workload::condensed("a", 200, 25.0, 1.5, 1e-3, 32, 64, 1);
        let tight = Workload::condensed("a", 200, 25.0, 1.5, 1e-9, 32, 64, 1);
        assert!(tight.pairs.len() > loose.pairs.len());
    }
}
