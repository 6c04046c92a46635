//! `scf-direct`: one unit is an integral-direct RHF/STO-3G calculation of
//! linear Li₂O (15 AOs) to convergence. The seed applies a rigid rotation
//! and translation, which changes every integral and no energy. (Li₂O₂
//! takes 2.6 s per SCF here: six of them do not fit a trial.)

use super::Workload;
use crate::stats::time_calls;
use crate::trace::Tracer;
use liair::integrals::fock::JkBuilder;
use liair::integrals::one_electron::{kinetic_matrix, nuclear_matrix, overlap_matrix};
use liair::math::linalg::eigh;
use liair::math::rng::SplitMix64;
use liair::prelude::*;

/// RHF/STO-3G energy of Li₂O at r(Li–O) = 1.62 Å (Ha), any orientation.
const PINNED: f64 = -88.571614784988;
const ENERGY_TOL: f64 = 1e-8;

pub struct ScfDirect {
    mol: Molecule,
    basis: Basis,
    last: Option<ScfResult>,
}

/// Rotate `mol` by `angle` about `axis` through the origin (Rodrigues),
/// then translate by `shift`.
fn rigid_move(mol: &mut Molecule, axis: Vec3, angle: f64, shift: Vec3) {
    let k = axis.normalized();
    let (s, c) = angle.sin_cos();
    for atom in &mut mol.atoms {
        let v = atom.pos;
        atom.pos = v * c + k.cross(v) * s + k * (k.dot(v) * (1.0 - c)) + shift;
    }
}

impl ScfDirect {
    pub fn setup(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut mol = Molecule::new();
        for (element, x) in [(Element::O, 0.0), (Element::Li, 1.62), (Element::Li, -1.62)] {
            mol.push(element, Vec3::new(x, 0.0, 0.0) * ANGSTROM);
        }
        let mut draw = |lo, hi| rng.range_f64(lo, hi);
        let axis = Vec3::new(draw(-1.0, 1.0), draw(-1.0, 1.0), draw(0.1, 1.0));
        let angle = draw(0.0, std::f64::consts::TAU);
        let shift = Vec3::new(draw(-2.0, 2.0), draw(-2.0, 2.0), draw(-2.0, 2.0));
        rigid_move(&mut mol, axis, angle, shift);
        let basis = Basis::sto3g(&mol);
        ScfDirect {
            mol,
            basis,
            last: None,
        }
    }
}

impl Workload for ScfDirect {
    fn unit(&mut self, tr: &mut Tracer) {
        self.last = Some(tr.span("scf.rhf", |tr| {
            let r = rhf(&self.mol, &self.basis, &ScfOptions::default());
            tr.count("iterations", r.iterations as f64);
            r
        }));
    }

    fn check(&self) -> Result<(), String> {
        let r = self.last.as_ref().ok_or("no unit ran")?;
        if !r.converged {
            return Err(format!(
                "SCF not converged after {} iterations",
                r.iterations
            ));
        }
        let off = (r.energy - PINNED).abs();
        if off.is_nan() || off > ENERGY_TOL {
            return Err(format!(
                "energy {:e} Ha is not the pinned {PINNED:e}",
                r.energy
            ));
        }
        Ok(())
    }

    fn layers(&mut self, tr: &mut Tracer, _unit_s: f64) -> Vec<(&'static str, f64)> {
        let (mol, basis) = (&self.mol, &self.basis);
        let r = self.last.as_ref().expect("units ran");
        let opts = ScfOptions::default();
        let iterations = r.iterations as f64;
        let rhf_s = super::unit_span_s(tr, "scf.rhf");

        let one_electron = tr.span("integrals.one_electron_s", |_| {
            time_calls(200, || {
                std::hint::black_box((
                    overlap_matrix(basis),
                    kinetic_matrix(basis),
                    nuclear_matrix(basis, mol),
                ));
            })
        });
        let jk = JkBuilder::new(basis);
        let jk_build = tr.span("integrals.jk_build_s", |_| {
            time_calls(20, || {
                std::hint::black_box(jk.build(&r.density, opts.schwarz_tol));
            })
        });
        // The last density step of the same calculation: stop one iteration
        // short and subtract.
        let short = ScfOptions {
            max_iter: r.iterations - 1,
            ..opts
        };
        let delta = r.density.sub(&rhf(mol, basis, &short).density);
        let jk_dscreen = tr.span("integrals.jk_build_dscreen_s", |_| {
            time_calls(20, || {
                std::hint::black_box(jk.build_density_screened(&delta, opts.schwarz_tol));
            })
        });
        let (j, k) = jk.build(&r.density, opts.schwarz_tol);
        let mut fock = kinetic_matrix(basis)
            .add(&nuclear_matrix(basis, mol))
            .add(&j);
        fock.axpy(-0.5, &k);
        let eig = tr.span("math.eigh_15_s", |_| {
            time_calls(200, || {
                std::hint::black_box(eigh(&fock));
            })
        });
        vec![
            ("integrals.one_electron_s", one_electron),
            ("integrals.jk_build_s", jk_build),
            ("integrals.jk_build_dscreen_s", jk_dscreen),
            ("integrals.jk_frac", iterations * jk_build / rhf_s),
            ("scf.rhf_s", rhf_s),
            ("scf.iterations", iterations),
            ("scf.nonjk_s", rhf_s - iterations * jk_build - one_electron),
            ("math.eigh_15_s", eig),
        ]
    }
}
