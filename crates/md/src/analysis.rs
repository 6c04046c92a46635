//! Trajectory analysis: radial distribution functions, bond-event
//! tracking, the hot-trajectory degradation assay, and drift diagnostics.

use crate::{ForceField, MdOptions, MdState, Thermostat};
use liair_basis::{Cell, Element, Molecule};

/// Accumulates a radial distribution function g(r) between two element
/// species over trajectory frames.
#[derive(Debug, Clone)]
pub struct RdfAccumulator {
    /// Species of the first atom.
    pub a: Element,
    /// Species of the second atom.
    pub b: Element,
    /// Maximum radius (Bohr).
    pub r_max: f64,
    /// Histogram bins.
    pub bins: Vec<f64>,
    frames: usize,
}

impl RdfAccumulator {
    /// New accumulator with `nbins` up to `r_max`.
    pub fn new(a: Element, b: Element, r_max: f64, nbins: usize) -> Self {
        assert!(nbins > 0 && r_max > 0.0);
        Self {
            a,
            b,
            r_max,
            bins: vec![0.0; nbins],
            frames: 0,
        }
    }

    /// Add one frame.
    pub fn add_frame(&mut self, mol: &Molecule, cell: &Cell) {
        let dr = self.r_max / self.bins.len() as f64;
        let idx_a: Vec<usize> = (0..mol.natoms())
            .filter(|&i| mol.atoms[i].element == self.a)
            .collect();
        let idx_b: Vec<usize> = (0..mol.natoms())
            .filter(|&i| mol.atoms[i].element == self.b)
            .collect();
        for &i in &idx_a {
            for &j in &idx_b {
                if i == j {
                    continue;
                }
                let r = cell.distance(mol.atoms[i].pos, mol.atoms[j].pos);
                if r < self.r_max {
                    self.bins[(r / dr) as usize] += 1.0;
                }
            }
        }
        self.frames += 1;
    }

    /// Number of frames accumulated so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Overwrite the accumulated histogram (checkpoint restore): `bins`
    /// must match the configured bin count. Together with
    /// [`RdfAccumulator::frames`] and the public `bins`, this makes the
    /// accumulator's mutable state round-trippable, so a trajectory
    /// interrupted mid-flight resumes its RDF bit-exactly.
    pub fn set_state(&mut self, bins: Vec<f64>, frames: usize) {
        assert_eq!(bins.len(), self.bins.len(), "bin count mismatch");
        self.bins = bins;
        self.frames = frames;
    }

    /// Mean number of `b`-species neighbors of an `a` atom within
    /// `r_cut` (the running coordination number n(r_cut)), averaged over
    /// the accumulated frames. 0.0 before any frame.
    pub fn coordination_number(&self, mol: &Molecule, r_cut: f64) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        let n_a = mol.atoms.iter().filter(|at| at.element == self.a).count();
        if n_a == 0 {
            return 0.0;
        }
        let dr = self.r_max / self.bins.len() as f64;
        let counted: f64 = self
            .bins
            .iter()
            .enumerate()
            .take_while(|&(k, _)| (k as f64 + 1.0) * dr <= r_cut + 1e-12)
            .map(|(_, &c)| c)
            .sum();
        counted / (n_a as f64 * self.frames as f64)
    }

    /// Normalized g(r) samples: `(r_mid, g)` per bin. Requires a cell to
    /// define the ideal-gas normalization.
    pub fn finish(&self, mol: &Molecule, cell: &Cell) -> Vec<(f64, f64)> {
        let n_a = mol.atoms.iter().filter(|at| at.element == self.a).count() as f64;
        let n_b = mol.atoms.iter().filter(|at| at.element == self.b).count() as f64;
        let pair_count = if self.a == self.b {
            n_a * (n_a - 1.0)
        } else {
            n_a * n_b
        };
        let dr = self.r_max / self.bins.len() as f64;
        let rho_pairs = pair_count / cell.volume();
        self.bins
            .iter()
            .enumerate()
            .map(|(k, &count)| {
                let r_lo = k as f64 * dr;
                let r_hi = r_lo + dr;
                let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
                let ideal = rho_pairs * shell * self.frames.max(1) as f64;
                let g = if ideal > 0.0 { count / ideal } else { 0.0 };
                (0.5 * (r_lo + r_hi), g)
            })
            .collect()
    }
}

/// Position and height `(r, g)` of the global maximum of a finished
/// g(r) — the first-shell peak for the short-ranged RDFs of the
/// screening study. `(0.0, 0.0)` for an empty or all-zero histogram.
pub fn rdf_peak(g: &[(f64, f64)]) -> (f64, f64) {
    g.iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0.0, 0.0))
}

/// Bond scission bookkeeping over a trajectory: which of the initially
/// detected bonds ever exceeded the stretch criterion.
#[derive(Debug, Clone, Default)]
pub struct BondEvents {
    /// Bond indices that broke, in first-broken order.
    pub broken: Vec<usize>,
}

impl BondEvents {
    /// Record newly broken bonds from a frame's detector output.
    pub fn record(&mut self, broken_now: &[usize]) {
        for &b in broken_now {
            if !self.broken.contains(&b) {
                self.broken.push(b);
            }
        }
    }

    /// Number of distinct bonds broken so far.
    pub fn count(&self) -> usize {
        self.broken.len()
    }
}

/// Hot-trajectory degradation count of a solvent·Li₂O₂ `complex` whose
/// first `n_solvent` atoms are the solvent: distinct solvent-internal
/// bonds broken (stretch > 1.5·r₀, where the Morse bonds are > 95 %
/// dissociated) in `steps` Berendsen-thermostatted steps at `t_target` K,
/// summed over three independent seeds (accelerated-aging protocol — see
/// DESIGN.md on the activation-energy calibration of the labile carbonate
/// linkages).
pub fn degradation_events(
    complex: &Molecule,
    n_solvent: usize,
    t_target: f64,
    steps: usize,
) -> usize {
    let ff = ForceField::from_molecule(complex, None);
    let opts = MdOptions {
        dt: 15.0,
        thermostat: Thermostat::Berendsen {
            t_target,
            tau: 500.0,
        },
        ..Default::default()
    };
    let mut total = 0;
    for seed in 0..3u64 {
        let mut state = MdState::new(complex.clone(), None, &ff);
        state.thermalize_seeded(t_target, Some(2014 + seed));
        let mut events = BondEvents::default();
        for _ in 0..steps {
            state.step(&ff, &opts);
            let broken: Vec<usize> = ff
                .broken_bonds(&state.mol, None, 1.5)
                .into_iter()
                .filter(|&b| ff.bonds[b].i < n_solvent && ff.bonds[b].j < n_solvent)
                .collect();
            events.record(&broken);
        }
        total += events.count();
    }
    total
}

/// Linear drift per step of a scalar series (least squares slope).
pub fn drift_per_step(series: &[f64]) -> f64 {
    if series.len() < 2 {
        return 0.0;
    }
    let x: Vec<f64> = (0..series.len()).map(|i| i as f64).collect();
    let (_, slope) = linear_fit(&x, series);
    slope
}

/// Least-squares line `y = a + b·x`; returns `(a, b)`.
/// Panics with fewer than 2 points or a degenerate x-range.
fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len());
    assert!(x.len() >= 2, "linear_fit needs at least 2 points");
    let n = x.len() as f64;
    let sx: f64 = x.iter().sum();
    let sy: f64 = y.iter().sum();
    let sxx: f64 = x.iter().map(|v| v * v).sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-300, "linear_fit: degenerate x range");
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_basis::systems;
    use liair_math::rng::SplitMix64;
    use liair_math::Vec3;

    #[test]
    fn ideal_gas_rdf_is_flat() {
        // Random uniform points: g(r) ≈ 1 away from r = 0.
        let cell = Cell::cubic(20.0);
        let mut rng = SplitMix64::new(6);
        let mut mol = Molecule::new();
        for _ in 0..400 {
            mol.push(
                Element::O,
                Vec3::new(
                    rng.range_f64(0.0, 20.0),
                    rng.range_f64(0.0, 20.0),
                    rng.range_f64(0.0, 20.0),
                ),
            );
        }
        let mut rdf = RdfAccumulator::new(Element::O, Element::O, 8.0, 16);
        for _ in 0..5 {
            rdf.add_frame(&mol, &cell);
        }
        let g = rdf.finish(&mol, &cell);
        for &(r, gv) in g.iter().skip(2) {
            assert!((gv - 1.0).abs() < 0.35, "g({r}) = {gv}");
        }
    }

    #[test]
    fn water_box_oo_rdf_has_structure() {
        // The lattice-constructed water box has a sharp first O–O shell
        // near its lattice constant — structure, unlike an ideal gas.
        let (mol, cell) = systems::water_box(3, 2);
        let mut rdf = RdfAccumulator::new(Element::O, Element::O, 10.0, 40);
        rdf.add_frame(&mol, &cell);
        let g = rdf.finish(&mol, &cell);
        let peak = g.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
        assert!(peak > 2.0, "max g(r) = {peak}");
        // Core exclusion: no O–O contacts below 3 Bohr.
        assert!(g
            .iter()
            .take_while(|&&(r, _)| r < 3.0)
            .all(|&(_, v)| v < 0.2));
    }

    #[test]
    fn rdf_state_roundtrip_and_peak() {
        let (mol, cell) = systems::water_box(2, 4);
        let mut rdf = RdfAccumulator::new(Element::O, Element::O, 10.0, 32);
        rdf.add_frame(&mol, &cell);
        rdf.add_frame(&mol, &cell);
        let g = rdf.finish(&mol, &cell);
        let (r_peak, g_peak) = rdf_peak(&g);
        assert!(g_peak > 1.0 && r_peak > 0.0);
        // State round-trips bit-exactly into a fresh accumulator.
        let mut restored = RdfAccumulator::new(Element::O, Element::O, 10.0, 32);
        restored.set_state(rdf.bins.clone(), rdf.frames());
        assert_eq!(restored.frames(), 2);
        let g2 = restored.finish(&mol, &cell);
        for (a, b) in g.iter().zip(&g2) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // Empty histogram: benign peak.
        assert_eq!(rdf_peak(&[]), (0.0, 0.0));
    }

    #[test]
    fn coordination_counts_neighbors() {
        // Two O atoms 2 Bohr apart, one H far away: O–O coordination
        // within 3 Bohr is exactly 1 neighbor per O.
        let cell = Cell::cubic(30.0);
        let mut mol = Molecule::new();
        mol.push(Element::O, Vec3::new(5.0, 5.0, 5.0));
        mol.push(Element::O, Vec3::new(7.0, 5.0, 5.0));
        mol.push(Element::H, Vec3::new(20.0, 20.0, 20.0));
        let mut rdf = RdfAccumulator::new(Element::O, Element::O, 10.0, 40);
        rdf.add_frame(&mol, &cell);
        assert_eq!(rdf.frames(), 1);
        let n = rdf.coordination_number(&mol, 3.0);
        assert!((n - 1.0).abs() < 1e-12, "n(3.0) = {n}");
        assert_eq!(rdf.coordination_number(&mol, 1.0), 0.0);
    }

    #[test]
    fn bond_events_deduplicate() {
        let mut ev = BondEvents::default();
        ev.record(&[3, 5]);
        ev.record(&[5, 7]);
        ev.record(&[]);
        assert_eq!(ev.count(), 3);
        assert_eq!(ev.broken, vec![3, 5, 7]);
    }

    #[test]
    fn fit_recovers_line() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 - 0.5 * v).collect();
        let (a, b) = linear_fit(&x, &y);
        assert!(liair_math::approx_eq(a, 3.0, 1e-12));
        assert!(liair_math::approx_eq(b, -0.5, 1e-12));
    }

    #[test]
    fn drift_of_constant_is_zero() {
        assert_eq!(drift_per_step(&[2.0; 50]), 0.0);
        let rising: Vec<f64> = (0..50).map(|i| 0.5 * i as f64).collect();
        assert!((drift_per_step(&rising) - 0.5).abs() < 1e-12);
    }
}
