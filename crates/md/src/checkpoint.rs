//! Serializable MD checkpoints for preempt/resume.
//!
//! [`MdCheckpoint`] captures the *complete* propagated state of an
//! [`MdState`] — geometry, velocities, cached fast and slow forces,
//! thermostat variables, step count — as raw IEEE-754 bits
//! (`liair-math::codec`), so a job resumed from a checkpoint continues the
//! trajectory **bit-identically** to one that was never interrupted. The
//! force *provider* is not serialized: it is deterministic given the job
//! spec, so the serve runner reconstructs it from the spec on resume and
//! the cached forces in the checkpoint make the first resumed step use
//! exactly the forces the interrupted run had in hand.
//!
//! The one step ([`MdState::step`], r-RESPA in [`crate::mts`]) only ever
//! consumes state captured here plus provider outputs that are pure
//! functions of the geometry — which is what makes this small struct a
//! *sufficient* checkpoint, property-tested in `tests/checkpoint_props.rs`
//! across `n_inner` values, thermostats, and interruption points.

use liair_basis::{Atom, Cell, Element, Molecule};
use liair_math::codec::{CodecError, Decoder, Encoder};
use liair_math::Vec3;

use crate::integrator::MdState;

/// Magic tag for MD checkpoint streams (`"LMD1"`).
const MAGIC: u32 = 0x4C4D_4431;
/// Layout version; 2 added the trailing checksum.
const VERSION: u16 = 2;

/// A frozen [`MdState`], restorable bit-identically.
#[derive(Debug, Clone)]
pub struct MdCheckpoint {
    /// The captured state (geometry, velocities, forces, thermostat).
    pub state: MdState,
}

fn put_vec3(e: &mut Encoder, v: Vec3) {
    e.put_f64(v.x);
    e.put_f64(v.y);
    e.put_f64(v.z);
}

fn get_vec3(d: &mut Decoder<'_>) -> Result<Vec3, CodecError> {
    Ok(Vec3::new(d.get_f64()?, d.get_f64()?, d.get_f64()?))
}

fn put_vec3s(e: &mut Encoder, vs: &[Vec3]) {
    e.put_usize(vs.len());
    for &v in vs {
        put_vec3(e, v);
    }
}

fn get_vec3s(d: &mut Decoder<'_>) -> Result<Vec<Vec3>, CodecError> {
    let n = d.get_usize()?;
    if n > d.remaining() / 24 {
        return Err(CodecError::BadLength(n as u64));
    }
    (0..n).map(|_| get_vec3(d)).collect()
}

impl MdCheckpoint {
    /// Snapshot `state` (cheap clone; `MdState` is a value type).
    pub fn capture(state: &MdState) -> MdCheckpoint {
        MdCheckpoint {
            state: state.clone(),
        }
    }

    /// Consume the checkpoint, yielding the state to continue stepping.
    pub fn restore(self) -> MdState {
        self.state
    }

    /// Encode to a self-describing byte stream (bit-exact floats).
    pub fn to_bytes(&self) -> Vec<u8> {
        let s = &self.state;
        let mut e = Encoder::with_magic(MAGIC, VERSION);
        e.put_usize(s.mol.atoms.len());
        for a in &s.mol.atoms {
            e.put_u32(a.element.z());
            put_vec3(&mut e, a.pos);
        }
        e.put_u64(s.mol.charge as i64 as u64);
        match &s.cell {
            Some(c) => {
                e.put_bool(true);
                put_vec3(&mut e, c.lengths);
            }
            None => e.put_bool(false),
        }
        put_vec3s(&mut e, &s.velocities);
        e.put_f64_slice(&s.masses);
        put_vec3s(&mut e, &s.forces);
        e.put_f64(s.potential);
        e.put_usize(s.step_count);
        e.put_f64(s.nh_xi);
        e.put_f64(s.nh_eta);
        put_vec3s(&mut e, &s.forces_slow);
        e.put_f64(s.potential_slow);
        e.finish()
    }

    /// Decode a stream produced by [`MdCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<MdCheckpoint, CodecError> {
        let (mut d, version) = Decoder::with_magic(bytes, MAGIC)?;
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let natoms = d.get_usize()?;
        if natoms > d.remaining() / 28 {
            return Err(CodecError::BadLength(natoms as u64));
        }
        let mut atoms = Vec::with_capacity(natoms);
        for _ in 0..natoms {
            let z = d.get_u32()?;
            let element = Element::from_z(z).ok_or(CodecError::BadLength(z as u64))?;
            let pos = get_vec3(&mut d)?;
            atoms.push(Atom { element, pos });
        }
        let charge = d.get_u64()? as i64 as i32;
        let cell = if d.get_bool()? {
            Some(Cell {
                lengths: get_vec3(&mut d)?,
            })
        } else {
            None
        };
        let velocities = get_vec3s(&mut d)?;
        let masses = d.get_f64_vec()?;
        let forces = get_vec3s(&mut d)?;
        let potential = d.get_f64()?;
        let step_count = d.get_usize()?;
        let nh_xi = d.get_f64()?;
        let nh_eta = d.get_f64()?;
        let forces_slow = get_vec3s(&mut d)?;
        let potential_slow = d.get_f64()?;
        // Every per-atom array carries its own length prefix; a stream in
        // which they disagree would decode and then index out of bounds on
        // the first step (every step reads `forces_slow`).
        for n in [
            velocities.len(),
            masses.len(),
            forces.len(),
            forces_slow.len(),
        ] {
            if n != natoms {
                return Err(CodecError::BadLength(n as u64));
            }
        }
        if d.remaining() != 0 {
            return Err(CodecError::BadLength(d.remaining() as u64));
        }
        Ok(MdCheckpoint {
            state: MdState {
                mol: Molecule { atoms, charge },
                cell,
                velocities,
                masses,
                forces,
                potential,
                step_count,
                nh_xi,
                nh_eta,
                forces_slow,
                potential_slow,
            },
        })
    }

    /// `true` when both states agree to the bit in every float field
    /// (the resume-equivalence criterion; `PartialEq` on floats would
    /// conflate `-0.0 == 0.0` and reject NaN).
    pub fn bitwise_eq(a: &MdState, b: &MdState) -> bool {
        fn v3(a: &Vec3, b: &Vec3) -> bool {
            a.x.to_bits() == b.x.to_bits()
                && a.y.to_bits() == b.y.to_bits()
                && a.z.to_bits() == b.z.to_bits()
        }
        fn v3s(a: &[Vec3], b: &[Vec3]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| v3(x, y))
        }
        a.mol.atoms.len() == b.mol.atoms.len()
            && a.mol.charge == b.mol.charge
            && a.mol
                .atoms
                .iter()
                .zip(&b.mol.atoms)
                .all(|(x, y)| x.element == y.element && v3(&x.pos, &y.pos))
            && match (&a.cell, &b.cell) {
                (Some(x), Some(y)) => v3(&x.lengths, &y.lengths),
                (None, None) => true,
                _ => false,
            }
            && v3s(&a.velocities, &b.velocities)
            && a.masses.len() == b.masses.len()
            && a.masses
                .iter()
                .zip(&b.masses)
                .all(|(x, y)| x.to_bits() == y.to_bits())
            && v3s(&a.forces, &b.forces)
            && a.potential.to_bits() == b.potential.to_bits()
            && a.step_count == b.step_count
            && a.nh_xi.to_bits() == b.nh_xi.to_bits()
            && a.nh_eta.to_bits() == b.nh_eta.to_bits()
            && v3s(&a.forces_slow, &b.forces_slow)
            && a.potential_slow.to_bits() == b.potential_slow.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::ForceField;
    use crate::integrator::{MdOptions, Thermostat};
    use liair_basis::systems;

    #[test]
    fn round_trip_is_bitwise() {
        let (mol, cell) = systems::water_box(2, 11);
        let ff = ForceField::from_molecule(&mol, Some(&cell));
        let mut state = MdState::new(mol, Some(cell), &ff);
        state.thermalize_seeded(300.0, Some(7));
        let opts = MdOptions {
            dt: 10.0,
            thermostat: Thermostat::NoseHoover {
                t_target: 300.0,
                tau: 400.0,
            },
            ..Default::default()
        };
        for _ in 0..3 {
            state.step(&ff, &opts);
        }
        let ck = MdCheckpoint::capture(&state);
        let bytes = ck.to_bytes();
        let back = MdCheckpoint::from_bytes(&bytes).unwrap();
        assert!(MdCheckpoint::bitwise_eq(&state, &back.state));
    }

    #[test]
    fn corrupt_stream_is_rejected() {
        let mol = systems::h2();
        let ff = ForceField::from_molecule(&mol, None);
        let state = MdState::new(mol, None, &ff);
        let mut bytes = MdCheckpoint::capture(&state).to_bytes();
        bytes[0] ^= 0xff; // clobber magic
        assert!(MdCheckpoint::from_bytes(&bytes).is_err());
        let good = MdCheckpoint::capture(&state).to_bytes();
        assert!(MdCheckpoint::from_bytes(&good[..good.len() - 3]).is_err());
    }
}
