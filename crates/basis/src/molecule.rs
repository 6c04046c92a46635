//! Atoms and molecules.

use crate::element::Element;
use liair_math::Vec3;

/// A point nucleus with an element identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Which element.
    pub element: Element,
    /// Position in Bohr.
    pub pos: Vec3,
}

impl Atom {
    /// Construct from element and position (Bohr).
    pub fn new(element: Element, pos: Vec3) -> Self {
        Self { element, pos }
    }
}

/// A collection of atoms with an overall charge.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Molecule {
    /// The atoms.
    pub atoms: Vec<Atom>,
    /// Net charge (electrons removed); 0 for neutral systems.
    pub charge: i32,
}

impl Molecule {
    /// An empty neutral molecule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one atom (builder style).
    pub fn push(&mut self, element: Element, pos: Vec3) {
        self.atoms.push(Atom::new(element, pos));
    }

    /// Number of atoms.
    pub fn natoms(&self) -> usize {
        self.atoms.len()
    }

    /// Total electron count (sum of Z minus charge).
    pub fn nelectrons(&self) -> usize {
        let z: i64 = self.atoms.iter().map(|a| a.element.z() as i64).sum();
        let n = z - self.charge as i64;
        assert!(n >= 0, "negative electron count");
        n as usize
    }

    /// Closed-shell occupied-orbital count. Panics on an odd electron
    /// count — the restricted SCF in this workspace handles closed shells
    /// only (the paper's systems are all closed shell).
    pub fn nocc(&self) -> usize {
        let n = self.nelectrons();
        assert!(
            n.is_multiple_of(2),
            "odd electron count ({n}) — RHF requires closed shell"
        );
        n / 2
    }

    /// Nuclear–nuclear repulsion energy `Σ_{A<B} Z_A Z_B / R_AB` (Hartree).
    pub fn nuclear_repulsion(&self) -> f64 {
        let mut e = 0.0;
        for i in 0..self.atoms.len() {
            for j in (i + 1)..self.atoms.len() {
                let r = self.atoms[i].pos.distance(self.atoms[j].pos);
                assert!(r > 1e-8, "coincident nuclei {i} and {j}");
                e += (self.atoms[i].element.z() * self.atoms[j].element.z()) as f64 / r;
            }
        }
        e
    }

    /// Gradient of [`Molecule::nuclear_repulsion`] with respect to each
    /// nucleus: `−Σ_{B≠A} Z_A Z_B (R_A − R_B) / R_AB³` (Hartree/Bohr).
    pub fn nuclear_repulsion_gradient(&self) -> Vec<Vec3> {
        let mut g = vec![Vec3::ZERO; self.atoms.len()];
        for i in 0..self.atoms.len() {
            for j in (i + 1)..self.atoms.len() {
                let d = self.atoms[i].pos - self.atoms[j].pos;
                let r = d.norm();
                let zz = (self.atoms[i].element.z() * self.atoms[j].element.z()) as f64;
                let f = d * (zz / (r * r * r));
                g[i] -= f;
                g[j] += f;
            }
        }
        g
    }

    /// Geometric centroid.
    pub fn centroid(&self) -> Vec3 {
        if self.atoms.is_empty() {
            return Vec3::ZERO;
        }
        let mut c = Vec3::ZERO;
        for a in &self.atoms {
            c += a.pos;
        }
        c / self.atoms.len() as f64
    }

    /// Translate every atom by `shift`.
    pub fn translate(&mut self, shift: Vec3) {
        for a in &mut self.atoms {
            a.pos += shift;
        }
    }

    /// Append another molecule's atoms (charges add).
    pub fn merge(&mut self, other: &Molecule) {
        self.atoms.extend_from_slice(&other.atoms);
        self.charge += other.charge;
    }

    /// Axis-aligned bounding box `(min, max)`.
    pub fn bounding_box(&self) -> (Vec3, Vec3) {
        let mut lo = Vec3::splat(f64::INFINITY);
        let mut hi = Vec3::splat(f64::NEG_INFINITY);
        for a in &self.atoms {
            lo = lo.min(a.pos);
            hi = hi.max(a.pos);
        }
        (lo, hi)
    }

    /// Chemical formula string, elements in Hill order (C, H, then
    /// alphabetical).
    pub fn formula(&self) -> String {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for a in &self.atoms {
            *counts.entry(a.element.symbol()).or_insert(0) += 1;
        }
        let mut out = String::new();
        let emit = |sym: &str, n: usize, out: &mut String| {
            out.push_str(sym);
            if n > 1 {
                out.push_str(&n.to_string());
            }
        };
        if let Some(&n) = counts.get("C") {
            emit("C", n, &mut out);
            counts.remove("C");
        }
        if let Some(&n) = counts.get("H") {
            emit("H", n, &mut out);
            counts.remove("H");
        }
        for (sym, n) in counts {
            emit(sym, n, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_math::approx_eq;

    fn h2() -> Molecule {
        let mut m = Molecule::new();
        m.push(Element::H, Vec3::ZERO);
        m.push(Element::H, Vec3::new(1.4, 0.0, 0.0));
        m
    }

    #[test]
    fn electron_counting() {
        let m = h2();
        assert_eq!(m.nelectrons(), 2);
        assert_eq!(m.nocc(), 1);
        let mut cation = m.clone();
        cation.charge = 2;
        assert_eq!(cation.nelectrons(), 0);
    }

    #[test]
    fn nuclear_repulsion_h2() {
        // Two protons at 1.4 bohr: E_nn = 1/1.4.
        assert!(approx_eq(h2().nuclear_repulsion(), 1.0 / 1.4, 1e-14));
    }

    #[test]
    #[should_panic]
    fn coincident_nuclei_rejected() {
        let mut m = Molecule::new();
        m.push(Element::H, Vec3::ZERO);
        m.push(Element::H, Vec3::ZERO);
        let _ = m.nuclear_repulsion();
    }

    #[test]
    fn centroid_and_translate() {
        let mut m = h2();
        assert!(approx_eq(m.centroid().x, 0.7, 1e-14));
        m.translate(Vec3::new(1.0, 2.0, 3.0));
        assert!(approx_eq(m.centroid().x, 1.7, 1e-14));
        assert!(approx_eq(m.centroid().y, 2.0, 1e-14));
    }

    #[test]
    fn formula_hill_order() {
        let mut m = Molecule::new();
        // Water: H2O
        m.push(Element::O, Vec3::ZERO);
        m.push(Element::H, Vec3::new(1.0, 0.0, 0.0));
        m.push(Element::H, Vec3::new(0.0, 1.0, 0.0));
        assert_eq!(m.formula(), "H2O");
        // Propylene carbonate: C4H6O3
        let mut pc = Molecule::new();
        for _ in 0..4 {
            pc.push(Element::C, Vec3::new(pc.natoms() as f64, 0.0, 0.0));
        }
        for _ in 0..6 {
            pc.push(Element::H, Vec3::new(pc.natoms() as f64, 1.0, 0.0));
        }
        for _ in 0..3 {
            pc.push(Element::O, Vec3::new(pc.natoms() as f64, 2.0, 0.0));
        }
        assert_eq!(pc.formula(), "C4H6O3");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = h2();
        let b = h2();
        a.merge(&b);
        assert_eq!(a.natoms(), 4);
        assert_eq!(a.nelectrons(), 4);
    }

    #[test]
    fn bounding_box() {
        let m = h2();
        let (lo, hi) = m.bounding_box();
        assert_eq!(lo, Vec3::ZERO);
        assert!(approx_eq(hi.x, 1.4, 1e-14));
    }
}
