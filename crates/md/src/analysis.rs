//! Trajectory analysis: radial distribution functions, the
//! hot-trajectory degradation assay, and drift diagnostics.

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

/// Thermostat target (K) of the degradation assay's accelerated-aging
/// trajectories.
const DEGRADATION_T: f64 = 1200.0;
/// Steps per seed of the degradation assay.
const DEGRADATION_STEPS: usize = 6000;
/// Bond-scission criterion: a bond is broken once it is stretched past
/// this multiple of r₀, where the Morse bonds are > 95 % dissociated.
const SCISSION_STRETCH: f64 = 1.5;

/// Hot-trajectory degradation count of a solvent·Li₂O₂ `complex` whose
/// first `n_solvent` atoms are the solvent: distinct solvent-internal
/// bonds stretched past 1.5·r₀ in 6000 Berendsen-thermostatted steps at
/// 1200 K, summed over three independent seeds (accelerated-aging
/// protocol — see DESIGN.md on the activation-energy calibration of the
/// labile carbonate linkages). The workspace's one bond-scission count:
/// the serve reaction job reports it as `bonds_broken`.
pub fn degradation_events(complex: &Molecule, n_solvent: usize) -> usize {
    let ff = ForceField::from_molecule(complex, None);
    let opts = MdOptions {
        dt: 15.0,
        thermostat: Thermostat::Berendsen {
            t_target: DEGRADATION_T,
            tau: 500.0,
        },
        ..Default::default()
    };
    (0..3u64)
        .map(|seed| {
            let mut state = MdState::new(complex.clone(), None, &ff);
            state.thermalize_seeded(DEGRADATION_T, Some(2014 + seed));
            distinct_scissions(&mut state, &ff, &opts, n_solvent, DEGRADATION_STEPS)
        })
        .sum()
}

/// Run `steps` steps of `state` and count the distinct bonds between two
/// of its first `n_solvent` atoms that are broken after any of them.
fn distinct_scissions(
    state: &mut MdState,
    ff: &ForceField,
    opts: &MdOptions,
    n_solvent: usize,
    steps: usize,
) -> usize {
    let mut broken = vec![false; ff.bonds.len()];
    for _ in 0..steps {
        state.step(ff, opts);
        for b in ff.broken_bonds(&state.mol, SCISSION_STRETCH) {
            broken[b] |= ff.bonds[b].i < n_solvent && ff.bonds[b].j < n_solvent;
        }
    }
    broken.iter().filter(|&&b| b).count()
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
    use liair_basis::systems::{self, Solvent};
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
        // One O–H bond of water held far past the criterion stays broken
        // frame after frame, yet counts once; atoms past `n_solvent` count
        // none.
        let mol = systems::water();
        let ff = ForceField::from_molecule(&mol, None);
        let mut stretched = mol.clone();
        stretched.atoms[1].pos = stretched.atoms[1].pos * 8.0;
        let opts = MdOptions::default();
        let scissions = |n_solvent| {
            let mut state = MdState::new(stretched.clone(), None, &ff);
            distinct_scissions(&mut state, &ff, &opts, n_solvent, 10)
        };
        assert_eq!(scissions(mol.natoms()), 1);
        assert_eq!(scissions(0), 0);
    }

    #[test]
    fn pc_degrades_and_dme_survives() {
        // The paper's chemistry claim at the one protocol: the carbonates
        // break bonds at the peroxide, the ether and the sulfoxide do not.
        for (solvent, degrades) in [
            (Solvent::PropyleneCarbonate, true),
            (Solvent::EthyleneCarbonate, true),
            (Solvent::Dmso, false),
            (Solvent::Dme, false),
        ] {
            // 3.6 Bohr: the serve reaction jobs' Li–O attack distance.
            let complex = systems::li2o2_complex(solvent, 3.6);
            let broken = degradation_events(&complex, solvent.molecule().natoms());
            assert_eq!(
                broken > 0,
                degrades,
                "{} broke {broken} bonds",
                solvent.name()
            );
        }
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
