//! A reactive-flavoured classical force field.
//!
//! Terms:
//! * **Morse bonds** `D_e (1 − e^{−a(r−r₀)})²` on every detected covalent
//!   bond (`a = √(k/2D_e)`) — unlike harmonic springs these dissociate, so
//!   trajectories can exhibit the chemical degradation the study is about;
//! * **harmonic angles** on every bonded triplet;
//! * **Lennard-Jones** between non-bonded atoms (1-2/1-3 excluded);
//! * **damped shifted-force Coulomb** (Fennell–Gezelter) with per-element
//!   charges neutralized per molecule — smooth at the cutoff, so NVE
//!   energy is well conserved.
//!
//! The carbonate-specific rule (ester C–O bonds adjacent to a carbonyl
//! carbon get a reduced well depth) is the documented synthetic stand-in
//! for the ring-opening chemistry the paper resolves with PBE0; Li⁺'s
//! strong electrostatics then preferentially attack exactly those bonds.

use liair_basis::{Cell, Element, Molecule};
use liair_math::special::erfc;
use liair_math::Vec3;
use std::collections::HashSet;

/// A detected covalent bond.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bond {
    /// Atom indices (`i < j`).
    pub i: usize,
    /// Second atom.
    pub j: usize,
    /// Equilibrium length (Bohr) — the detected initial length.
    pub r0: f64,
    /// Morse well depth (Hartree).
    pub de: f64,
    /// Morse width parameter `a` (Bohr⁻¹).
    pub a: f64,
}

/// An angle term over bonded triplet `(i, j, k)` centered at `j`.
///
/// The harmonic term is scaled by the *bond integrity* of its two
/// constituent bonds, `w(r) = min(1, e^{−a(r−r₀)})` — when a Morse bond
/// dissociates, the angle resistance fades with it (ReaxFF-style
/// bond-order coupling). Without this, ring opening would fight rigid
/// angle springs and no degradation chemistry could ever occur.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Angle {
    /// Outer atom.
    pub i: usize,
    /// Center atom.
    pub j: usize,
    /// Outer atom.
    pub k: usize,
    /// Equilibrium angle (radians) — the initial geometry's angle.
    pub theta0: f64,
    /// Force constant (Hartree/rad²).
    pub kf: f64,
    /// Integrity parameters `(a, r₀)` of the i–j bond.
    pub integ_ij: (f64, f64),
    /// Integrity parameters `(a, r₀)` of the k–j bond.
    pub integ_kj: (f64, f64),
}

/// Bond integrity `w(r)` and its radial derivative.
#[inline]
fn integrity(r: f64, (a, r0): (f64, f64)) -> (f64, f64) {
    if r <= r0 {
        (1.0, 0.0)
    } else {
        let w = (-a * (r - r0)).exp();
        (w, -a * w)
    }
}

/// One non-bonded atom pair `i < j` with its mixed parameters.
#[derive(Debug, Clone, Copy)]
struct Pair {
    /// Atom indices (`i < j`); `u32` keeps an entry at 32 bytes, and a
    /// solvation box holds thousands of entries.
    i: u32,
    /// Second atom.
    j: u32,
    /// Lorentz–Berthelot σ, `(σᵢ + σⱼ)/2` (Bohr).
    sigma: f64,
    /// `4√(εᵢεⱼ)` (Hartree).
    eps4: f64,
    /// Charge product `qᵢqⱼ`.
    qq: f64,
}

/// The parametrized force field over a fixed topology.
///
/// The per-atom parameters are private: the non-bonded pair table caches
/// their mixes, so they are fixed once the field is built.
#[derive(Debug, Clone)]
pub struct ForceField {
    /// Bond terms.
    pub bonds: Vec<Bond>,
    /// Angle terms.
    pub angles: Vec<Angle>,
    /// Partial charges (neutralized per molecule).
    charges: Vec<f64>,
    /// LJ σ per atom (Bohr).
    lj_sigma: Vec<f64>,
    /// LJ ε per atom (Hartree).
    lj_eps: Vec<f64>,
    /// Every pair not excluded from the non-bonded terms (1-2 and 1-3
    /// excluded), in row-major `(i, j)` order.
    pairs: Vec<Pair>,
    /// Non-bonded cutoff (Bohr).
    cutoff: f64,
    /// DSF damping parameter (Bohr⁻¹).
    alpha: f64,
    /// `erfc(α·r_c)`.
    erfc_rc: f64,
    /// The DSF force shift, `erfc(α r_c)/r_c² + 2α/√π · e^{−α²r_c²}/r_c`.
    f_shift: f64,
}

/// Base partial charge by element (before per-molecule neutralization).
fn base_charge(e: Element) -> f64 {
    match e {
        Element::H => 0.12,
        Element::C => 0.08,
        Element::O => -0.40,
        Element::S => 0.28,
        Element::Li => 0.60,
        Element::N => -0.30,
        _ => 0.0,
    }
}

/// LJ parameters (σ Bohr, ε Hartree) by element — UFF-flavoured.
fn lj_params(e: Element) -> (f64, f64) {
    let (sigma_angstrom, eps) = match e {
        Element::H => (2.45, 7.0e-5),
        Element::C => (3.40, 1.6e-4),
        Element::O => (3.05, 1.9e-4),
        Element::S => (3.60, 4.0e-4),
        Element::Li => (2.20, 4.0e-5),
        Element::N => (3.25, 1.1e-4),
        _ => (3.0, 1.0e-4),
    };
    (sigma_angstrom * liair_basis::ANGSTROM, eps)
}

/// Generic bond stiffness (Hartree/Bohr²) by the two elements.
fn bond_stiffness(a: Element, b: Element) -> f64 {
    let has = |e: Element| a == e || b == e;
    if has(Element::H) {
        0.35
    } else if has(Element::Li) {
        0.10
    } else {
        0.45
    }
}

/// Morse well depth (Hartree) by the two elements.
fn bond_de(a: Element, b: Element) -> f64 {
    let has = |e: Element| a == e || b == e;
    if has(Element::H) {
        0.16
    } else if has(Element::Li) {
        0.08
    } else {
        0.22
    }
}

impl ForceField {
    /// Build the field over the current geometry: bonds from covalent
    /// radii (1.3× sum), angles from bonded triplets, charges neutralized
    /// per connected component, and the table of non-bonded pairs.
    pub fn from_molecule(mol: &Molecule, cell: Option<&Cell>) -> ForceField {
        let n = mol.natoms();
        let dist = |i: usize, j: usize| -> f64 {
            match cell {
                Some(c) => c.distance(mol.atoms[i].pos, mol.atoms[j].pos),
                None => mol.atoms[i].pos.distance(mol.atoms[j].pos),
            }
        };
        // --- bond detection ---
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut raw_bonds = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let cutoff = 1.3
                    * (mol.atoms[i].element.covalent_radius()
                        + mol.atoms[j].element.covalent_radius());
                let r = dist(i, j);
                if r < cutoff {
                    adjacency[i].push(j);
                    adjacency[j].push(i);
                    raw_bonds.push((i, j, r));
                }
            }
        }
        // Carbonate carbons: a C bonded to ≥ 3 oxygens; its *single* C–O
        // bonds (the longer ones) are the labile ester linkages.
        let mut carbonate_c = vec![false; n];
        for i in 0..n {
            if mol.atoms[i].element == Element::C {
                let n_o = adjacency[i]
                    .iter()
                    .filter(|&&j| mol.atoms[j].element == Element::O)
                    .count();
                if n_o >= 3 {
                    carbonate_c[i] = true;
                }
            }
        }
        let bonds: Vec<Bond> = raw_bonds
            .iter()
            .map(|&(i, j, r0)| {
                let (ei, ej) = (mol.atoms[i].element, mol.atoms[j].element);
                let mut de = bond_de(ei, ej);
                let is_ester_co = (carbonate_c[i] && ej == Element::O && r0 > 2.45)
                    || (carbonate_c[j] && ei == Element::O && r0 > 2.45);
                if is_ester_co {
                    // Labile carbonate ester linkage. The well depth is
                    // calibrated to the *activation energy* of the
                    // peroxide-assisted ring-opening channel (~14 kcal/mol
                    // ≈ 0.022 Ha), not the homolytic BDE — so picosecond
                    // trajectories sample the degradation the paper
                    // resolves with long PBE0 MD (documented substitution,
                    // DESIGN.md).
                    de *= 0.10;
                }
                let k = bond_stiffness(ei, ej);
                Bond {
                    i,
                    j,
                    r0,
                    de,
                    a: (k / (2.0 * de)).sqrt(),
                }
            })
            .collect();
        // --- angles (with the integrity parameters of their bonds) ---
        let bond_params = |a: usize, b: usize| -> (f64, f64) {
            bonds
                .iter()
                .find(|bd| (bd.i, bd.j) == (a.min(b), a.max(b)))
                .map(|bd| (bd.a, bd.r0))
                .expect("angle over unbonded pair")
        };
        let mut angles = Vec::new();
        for j in 0..n {
            let nbrs = &adjacency[j];
            for (x, &i) in nbrs.iter().enumerate() {
                for &k in nbrs.iter().skip(x + 1) {
                    let rij = mol.atoms[i].pos - mol.atoms[j].pos;
                    let rkj = mol.atoms[k].pos - mol.atoms[j].pos;
                    let ct = rij.dot(rkj) / (rij.norm() * rkj.norm());
                    let theta0 = ct.clamp(-1.0, 1.0).acos();
                    angles.push(Angle {
                        i,
                        j,
                        k,
                        theta0,
                        kf: 0.10,
                        integ_ij: bond_params(i, j),
                        integ_kj: bond_params(k, j),
                    });
                }
            }
        }
        // --- charges, neutralized per connected component ---
        let mut charges: Vec<f64> = mol.atoms.iter().map(|a| base_charge(a.element)).collect();
        let components = connected_components(&adjacency);
        for comp in &components {
            let excess: f64 =
                comp.iter().map(|&i| charges[i]).sum::<f64>() - comp_charge_target(mol, comp);
            let share = excess / comp.len() as f64;
            for &i in comp {
                charges[i] -= share;
            }
        }
        let (lj_sigma, lj_eps): (Vec<f64>, Vec<f64>) =
            mol.atoms.iter().map(|a| lj_params(a.element)).unzip();
        let (cutoff, alpha) = (18.0, 0.12);
        let erfc_rc = erfc(alpha * cutoff);
        let two_a_pi = 2.0 * alpha / std::f64::consts::PI.sqrt();
        let f_shift = erfc_rc / (cutoff * cutoff)
            + two_a_pi * (-alpha * alpha * cutoff * cutoff).exp() / cutoff;
        let mut ff = ForceField {
            bonds,
            angles,
            charges,
            lj_sigma,
            lj_eps,
            pairs: Vec::new(),
            cutoff,
            alpha,
            erfc_rc,
            f_shift,
        };
        ff.pairs = ff.pair_table();
        ff
    }

    /// Pairs `(i, j)`, `i < j`, excluded from the non-bonded terms: 1-2
    /// (bonds) and 1-3 (angle ends).
    fn exclusions(&self) -> HashSet<(usize, usize)> {
        let mut excluded = HashSet::new();
        for b in &self.bonds {
            excluded.insert((b.i.min(b.j), b.i.max(b.j)));
        }
        for a in &self.angles {
            excluded.insert((a.i.min(a.k), a.i.max(a.k)));
        }
        excluded
    }

    /// Every non-excluded pair with its mixed parameters, in the order the
    /// non-bonded sum visits them.
    fn pair_table(&self) -> Vec<Pair> {
        let n = self.charges.len();
        let excluded = self.exclusions();
        let mut pairs = Vec::with_capacity(n * n.saturating_sub(1) / 2 - excluded.len());
        for i in 0..n {
            for j in (i + 1)..n {
                if !excluded.contains(&(i, j)) {
                    pairs.push(Pair {
                        i: u32::try_from(i).expect("atom index fits in u32"),
                        j: u32::try_from(j).expect("atom index fits in u32"),
                        sigma: 0.5 * (self.lj_sigma[i] + self.lj_sigma[j]),
                        eps4: 4.0 * (self.lj_eps[i] * self.lj_eps[j]).sqrt(),
                        qq: self.charges[i] * self.charges[j],
                    });
                }
            }
        }
        pairs
    }

    /// Potential energy and per-atom forces for the current positions.
    pub fn energy_forces(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        let (mut energy, mut forces) = self.bonded_energy_forces(mol, cell);
        // Non-bonded: LJ + DSF Coulomb over the pair table.
        let (rc, alpha) = (self.cutoff, self.alpha);
        let two_a_pi = 2.0 * alpha / std::f64::consts::PI.sqrt();
        for p in &self.pairs {
            let (i, j) = (p.i as usize, p.j as usize);
            let d = displacement(mol, cell, i, j);
            let r = d.norm();
            if r >= rc {
                continue;
            }
            // Lennard-Jones (Lorentz–Berthelot combination).
            let sr6 = (p.sigma / r).powi(6);
            let sr12 = sr6 * sr6;
            energy += p.eps4 * (sr12 - sr6);
            let dvdr_lj = p.eps4 * (-12.0 * sr12 + 6.0 * sr6) / r;
            // DSF Coulomb.
            let erfc_r = erfc(alpha * r);
            energy += p.qq * (erfc_r / r - self.erfc_rc / rc + self.f_shift * (r - rc));
            let dvdr_c = p.qq
                * (-(erfc_r / (r * r) + two_a_pi * (-alpha * alpha * r * r).exp() / r)
                    + self.f_shift);
            let f = d * ((dvdr_lj + dvdr_c) / r);
            forces[i] += f;
            forces[j] -= f;
        }
        (energy, forces)
    }

    /// Energy and forces of the Morse bonds and the integrity-scaled
    /// angles, the terms that precede the non-bonded ones.
    fn bonded_energy_forces(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        let mut energy = 0.0;
        let mut forces = vec![Vec3::ZERO; mol.natoms()];
        let disp = |i: usize, j: usize| displacement(mol, cell, i, j);

        // Morse bonds.
        for b in &self.bonds {
            let d = disp(b.i, b.j);
            let r = d.norm();
            let x = (-b.a * (r - b.r0)).exp();
            energy += b.de * (1.0 - x) * (1.0 - x);
            // dV/dr = 2 D a x (1−x)
            let dvdr = 2.0 * b.de * b.a * x * (1.0 - x);
            let f = d * (dvdr / r);
            forces[b.i] += f;
            forces[b.j] -= f;
        }

        // Harmonic angles, scaled by the integrity of their bonds.
        for a in &self.angles {
            let rij = -disp(a.i, a.j); // i − j
            let rkj = -disp(a.k, a.j); // k − j
            let (ni, nk) = (rij.norm(), rkj.norm());
            let ct = (rij.dot(rkj) / (ni * nk)).clamp(-1.0, 1.0);
            let theta = ct.acos();
            let dtheta = theta - a.theta0;
            let (w_ij, dw_ij) = integrity(ni, a.integ_ij);
            let (w_kj, dw_kj) = integrity(nk, a.integ_kj);
            let harm = a.kf * dtheta * dtheta;
            energy += w_ij * w_kj * harm;
            let st = (1.0 - ct * ct).sqrt().max(1e-8);
            let dvdt = 2.0 * a.kf * dtheta * w_ij * w_kj;
            // Angular part: F_i = −dV/dθ · dθ/dr_i with dθ/du = −1/sin θ
            // and du/dr_i = r_kj/(n_i n_k) − u·r_ij/n_i².
            let mut fi = (rkj / (ni * nk) - rij * (ct / (ni * ni))) * (dvdt / st);
            let mut fk = (rij / (ni * nk) - rkj * (ct / (nk * nk))) * (dvdt / st);
            // Radial (integrity-gradient) part: ∂E/∂n_i = dw_ij·w_kj·harm.
            fi -= rij * (dw_ij * w_kj * harm / ni);
            fk -= rkj * (w_ij * dw_kj * harm / nk);
            forces[a.i] += fi;
            forces[a.k] += fk;
            forces[a.j] -= fi + fk;
        }

        (energy, forces)
    }

    /// Indices of bonds whose current length exceeds `stretch × r₀` — the
    /// degradation (bond-scission) detector.
    pub fn broken_bonds(&self, mol: &Molecule, stretch: f64) -> Vec<usize> {
        self.bonds
            .iter()
            .enumerate()
            .filter(|(_, b)| mol.atoms[b.i].pos.distance(mol.atoms[b.j].pos) > stretch * b.r0)
            .map(|(k, _)| k)
            .collect()
    }
}

/// `j`'s position minus `i`'s, the minimum image in a cell.
#[inline]
fn displacement(mol: &Molecule, cell: Option<&Cell>, i: usize, j: usize) -> Vec3 {
    match cell {
        Some(c) => c.min_image(mol.atoms[i].pos, mol.atoms[j].pos),
        None => mol.atoms[j].pos - mol.atoms[i].pos,
    }
}

/// Net charge target per component: Li₂O₂-like fragments stay neutral too;
/// the molecule-level charge is spread over all components equally (our
/// systems are neutral overall).
fn comp_charge_target(_mol: &Molecule, _comp: &[usize]) -> f64 {
    0.0
}

fn connected_components(adjacency: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adjacency.len();
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(v) = stack.pop() {
            comp.push(v);
            for &w in &adjacency[v] {
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        out.push(comp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_basis::systems;
    use liair_math::approx_eq;

    /// The non-bonded sum before the pair table: every `(i, j)` probed
    /// against the exclusion set, its parameters mixed in the loop. Same
    /// `erfc`, same bonded terms.
    fn energy_forces_reference(
        ff: &ForceField,
        mol: &Molecule,
        cell: Option<&Cell>,
    ) -> (f64, Vec<Vec3>) {
        let n = mol.natoms();
        let (mut energy, mut forces) = ff.bonded_energy_forces(mol, cell);
        let excluded = ff.exclusions();
        let rc = ff.cutoff;
        let alpha = ff.alpha;
        let erfc_rc = erfc(alpha * rc);
        let two_a_pi = 2.0 * alpha / std::f64::consts::PI.sqrt();
        let f_shift = erfc_rc / (rc * rc) + two_a_pi * (-alpha * alpha * rc * rc).exp() / rc;
        for i in 0..n {
            for j in (i + 1)..n {
                if excluded.contains(&(i, j)) {
                    continue;
                }
                let d = displacement(mol, cell, i, j);
                let r = d.norm();
                if r >= rc {
                    continue;
                }
                let sigma = 0.5 * (ff.lj_sigma[i] + ff.lj_sigma[j]);
                let eps = (ff.lj_eps[i] * ff.lj_eps[j]).sqrt();
                let sr6 = (sigma / r).powi(6);
                let sr12 = sr6 * sr6;
                energy += 4.0 * eps * (sr12 - sr6);
                let dvdr_lj = 4.0 * eps * (-12.0 * sr12 + 6.0 * sr6) / r;
                let qq = ff.charges[i] * ff.charges[j];
                let erfc_r = erfc(alpha * r);
                energy += qq * (erfc_r / r - erfc_rc / rc + f_shift * (r - rc));
                let dvdr_c = qq
                    * (-(erfc_r / (r * r) + two_a_pi * (-alpha * alpha * r * r).exp() / r)
                        + f_shift);
                let f = d * ((dvdr_lj + dvdr_c) / r);
                forces[i] += f;
                forces[j] -= f;
            }
        }
        (energy, forces)
    }

    #[test]
    fn pair_table_is_bit_equal_to_the_exclusion_probe_loop() {
        let mut cases: Vec<(String, Molecule, Cell)> = [
            systems::Solvent::PropyleneCarbonate,
            systems::Solvent::EthyleneCarbonate,
            systems::Solvent::Dmso,
            systems::Solvent::Dme,
        ]
        .into_iter()
        .enumerate()
        .map(|(k, s)| {
            let (mol, cell) = systems::electrolyte_box(s, 2, 11 + k as u64);
            (format!("{s:?} box"), mol, cell)
        })
        .collect();
        let (water, cell) = systems::water_box(2, 5);
        cases.push(("water box".into(), water, cell));
        for (name, mol, cell) in &cases {
            for cell in [Some(cell), None] {
                let ff = ForceField::from_molecule(mol, cell);
                let (e, f) = ff.energy_forces(mol, cell);
                let (e_ref, f_ref) = energy_forces_reference(&ff, mol, cell);
                let periodic = cell.is_some();
                assert!(
                    ff.pairs.len() > ff.bonds.len(),
                    "{name}: {} pairs",
                    ff.pairs.len()
                );
                assert_eq!(
                    e.to_bits(),
                    e_ref.to_bits(),
                    "{name} (periodic {periodic}): energy"
                );
                for (a, (got, want)) in f.iter().zip(&f_ref).enumerate() {
                    for axis in 0..3 {
                        assert_eq!(
                            got[axis].to_bits(),
                            want[axis].to_bits(),
                            "{name} (periodic {periodic}): atom {a} axis {axis}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn detects_chemically_sensible_topology() {
        let pc = systems::propylene_carbonate();
        let ff = ForceField::from_molecule(&pc, None);
        // PC: ring (5 bonds) + C=O + 6 C–H + 1 C–C(methyl) = 13 bonds.
        assert_eq!(ff.bonds.len(), 13, "PC bonds: {:?}", ff.bonds.len());
        assert!(!ff.angles.is_empty());
        // The two labile ester C–O bonds got the reduced well depth.
        let weak = ff.bonds.iter().filter(|b| b.de < 0.15).count();
        assert_eq!(weak, 2, "labile carbonate linkages: {weak}");
    }

    #[test]
    fn dme_has_no_weak_bonds() {
        let ff = ForceField::from_molecule(&systems::dme(), None);
        assert!(ff.bonds.iter().all(|b| b.de > 0.1));
    }

    #[test]
    fn charges_neutral_per_molecule() {
        let (boxmol, cell) = systems::electrolyte_box(systems::Solvent::PropyleneCarbonate, 2, 1);
        let ff = ForceField::from_molecule(&boxmol, Some(&cell));
        let total: f64 = ff.charges.iter().sum();
        assert!(total.abs() < 1e-10, "net charge {total}");
    }

    #[test]
    fn forces_match_finite_difference() {
        let mut mol = systems::propylene_carbonate();
        let ff = ForceField::from_molecule(&mol, None);
        // Perturb the geometry so bond/angle terms are off-equilibrium —
        // otherwise their force expressions are untested (zero at r₀/θ₀).
        let mut rng = liair_math::rng::SplitMix64::new(77);
        for a in &mut mol.atoms {
            for axis in 0..3 {
                a.pos[axis] += 0.25 * (rng.next_f64() - 0.5);
            }
        }
        let (_, forces) = ff.energy_forces(&mol, None);
        let h = 1e-6;
        for atom in [0usize, 3, 9] {
            for axis in 0..3 {
                let mut mp = mol.clone();
                mp.atoms[atom].pos[axis] += h;
                let mut mm = mol.clone();
                mm.atoms[atom].pos[axis] -= h;
                let (ep, _) = ff.energy_forces(&mp, None);
                let (em, _) = ff.energy_forces(&mm, None);
                let fd = -(ep - em) / (2.0 * h);
                assert!(
                    approx_eq(forces[atom][axis], fd, 1e-5),
                    "atom {atom} axis {axis}: {} vs {fd}",
                    forces[atom][axis]
                );
            }
        }
    }

    #[test]
    fn forces_match_finite_difference_periodic() {
        let (boxmol, cell) = systems::water_box(2, 3);
        let ff = ForceField::from_molecule(&boxmol, Some(&cell));
        let (_, forces) = ff.energy_forces(&boxmol, Some(&cell));
        let h = 1e-6;
        let atom = 5;
        for axis in 0..3 {
            let mut mp = boxmol.clone();
            mp.atoms[atom].pos[axis] += h;
            let mut mm = boxmol.clone();
            mm.atoms[atom].pos[axis] -= h;
            let (ep, _) = ff.energy_forces(&mp, Some(&cell));
            let (em, _) = ff.energy_forces(&mm, Some(&cell));
            let fd = -(ep - em) / (2.0 * h);
            assert!(
                approx_eq(forces[atom][axis], fd, 1e-4),
                "axis {axis}: {} vs {fd}",
                forces[atom][axis]
            );
        }
    }

    #[test]
    fn equilibrium_geometry_has_small_forces_and_low_energy() {
        let mol = systems::water();
        let ff = ForceField::from_molecule(&mol, None);
        let (e0, f0) = ff.energy_forces(&mol, None);
        // Bonds/angles are at their detected equilibria: only non-bonded
        // residuals remain (water has none unexcluded), so E ≈ 0.
        assert!(e0.abs() < 1e-2, "E = {e0}");
        for f in &f0 {
            assert!(f.norm() < 0.05, "force {}", f.norm());
        }
    }

    #[test]
    fn morse_dissociates() {
        // Stretch one OH bond of water far: the bond energy tends to D_e
        // (finite), not +∞ like a harmonic spring would.
        let mol = systems::water();
        let ff = ForceField::from_molecule(&mol, None);
        let mut stretched = mol.clone();
        stretched.atoms[1].pos = stretched.atoms[1].pos * 8.0;
        let (e, _) = ff.energy_forces(&stretched, None);
        let de_oh = ff.bonds[0].de.max(ff.bonds[1].de);
        assert!(e < 3.0 * de_oh, "E = {e} vs D_e = {de_oh}");
        assert!(!ff.broken_bonds(&stretched, 1.5).is_empty());
    }

    #[test]
    fn broken_bond_detector_quiet_at_equilibrium() {
        let pc = systems::propylene_carbonate();
        let ff = ForceField::from_molecule(&pc, None);
        assert!(ff.broken_bonds(&pc, 1.5).is_empty());
    }
}
