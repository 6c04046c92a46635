//! Chemical elements used by the lithium/air-battery systems.

/// Elements H–Cl (the study needs H, Li, C, O plus S for DMSO; the rest of
/// the first two rows come along for completeness of the basis tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Element {
    H,
    He,
    Li,
    Be,
    B,
    C,
    N,
    O,
    F,
    Na,
    P,
    S,
    Cl,
}

impl Element {
    /// Atomic number Z.
    pub fn z(self) -> u32 {
        match self {
            Element::H => 1,
            Element::He => 2,
            Element::Li => 3,
            Element::Be => 4,
            Element::B => 5,
            Element::C => 6,
            Element::N => 7,
            Element::O => 8,
            Element::F => 9,
            Element::Na => 11,
            Element::P => 15,
            Element::S => 16,
            Element::Cl => 17,
        }
    }

    /// Standard atomic mass in atomic mass units.
    pub fn mass_amu(self) -> f64 {
        match self {
            Element::H => 1.008,
            Element::He => 4.0026,
            Element::Li => 6.94,
            Element::Be => 9.0122,
            Element::B => 10.81,
            Element::C => 12.011,
            Element::N => 14.007,
            Element::O => 15.999,
            Element::F => 18.998,
            Element::Na => 22.990,
            Element::P => 30.974,
            Element::S => 32.06,
            Element::Cl => 35.45,
        }
    }

    /// Mass in electron masses (atomic units); 1 amu = 1822.888486 mₑ.
    pub fn mass_au(self) -> f64 {
        self.mass_amu() * 1822.888486
    }

    /// Covalent radius in Bohr (Cordero 2008 values), used for bond
    /// detection in the trajectory analysis.
    pub fn covalent_radius(self) -> f64 {
        let angstrom = match self {
            Element::H => 0.31,
            Element::He => 0.28,
            Element::Li => 1.28,
            Element::Be => 0.96,
            Element::B => 0.84,
            Element::C => 0.76,
            Element::N => 0.71,
            Element::O => 0.66,
            Element::F => 0.57,
            Element::Na => 1.66,
            Element::P => 1.07,
            Element::S => 1.05,
            Element::Cl => 1.02,
        };
        angstrom * crate::ANGSTROM
    }

    /// Element symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Element::H => "H",
            Element::He => "He",
            Element::Li => "Li",
            Element::Be => "Be",
            Element::B => "B",
            Element::C => "C",
            Element::N => "N",
            Element::O => "O",
            Element::F => "F",
            Element::Na => "Na",
            Element::P => "P",
            Element::S => "S",
            Element::Cl => "Cl",
        }
    }

    /// Inverse of [`Element::z`], used when decoding checkpoints.
    pub fn from_z(z: u32) -> Option<Element> {
        Some(match z {
            1 => Element::H,
            2 => Element::He,
            3 => Element::Li,
            4 => Element::Be,
            5 => Element::B,
            6 => Element::C,
            7 => Element::N,
            8 => Element::O,
            9 => Element::F,
            11 => Element::Na,
            15 => Element::P,
            16 => Element::S,
            17 => Element::Cl,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_values() {
        assert_eq!(Element::H.z(), 1);
        assert_eq!(Element::Li.z(), 3);
        assert_eq!(Element::O.z(), 8);
        assert_eq!(Element::S.z(), 16);
    }

    #[test]
    fn symbol_roundtrip() {
        for e in [
            Element::H,
            Element::He,
            Element::Li,
            Element::Be,
            Element::B,
            Element::C,
            Element::N,
            Element::O,
            Element::F,
            Element::Na,
            Element::P,
            Element::S,
            Element::Cl,
        ] {
            // Display prints the symbol; a checkpoint's `z` decodes back.
            assert_eq!(e.to_string(), e.symbol());
            assert_eq!(Element::from_z(e.z()), Some(e));
        }
        assert_eq!(Element::from_z(10), None);
    }

    #[test]
    fn masses_are_physical() {
        assert!(Element::H.mass_au() > 1800.0);
        assert!(Element::O.mass_amu() > Element::C.mass_amu());
    }
}
