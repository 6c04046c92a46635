//! Bit-exact binary encoding for checkpoint/restart.
//!
//! The serve layer checkpoints SCF and MD state mid-job and must resume
//! producing **bit-identical** trajectories, so floating-point values are
//! written as their raw IEEE-754 bit patterns (`f64::to_bits`) — no textual
//! round-trip, no rounding. The format is deliberately tiny: little-endian
//! fixed-width integers, length-prefixed slices, and a caller-chosen magic
//! tag so mismatched payloads fail loudly instead of decoding garbage.
//!
//! A stream stamped with a magic tag ends in a 64-bit checksum of
//! everything after the tag and the version. Raw bits round-trip any
//! value, so a flipped bit inside a float would otherwise decode into a
//! plausible (or NaN) number and resume a job from state it never had;
//! [`Decoder::with_magic`] refuses it with [`CodecError::BadChecksum`].
//!
//! This module exists because the workspace's `serde` shim is
//! serialization-free by design (the reproduction environment has no real
//! serde); everything that needs durable bytes goes through here.

use std::fmt;

/// Error decoding a checkpoint byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the requested field.
    Truncated {
        /// Bytes wanted by the read.
        wanted: usize,
        /// Bytes remaining in the stream.
        remaining: usize,
    },
    /// The leading magic tag did not match the expected payload kind.
    BadMagic {
        /// Tag expected by the decoder.
        expected: u32,
        /// Tag found in the stream.
        found: u32,
    },
    /// A version the decoder does not understand.
    BadVersion(u16),
    /// A length prefix that is implausibly large for the stream.
    BadLength(u64),
    /// The stream's trailing checksum does not match its contents.
    BadChecksum {
        /// Checksum stored at the end of the stream.
        stored: u64,
        /// Checksum of the bytes actually present.
        computed: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { wanted, remaining } => {
                write!(
                    f,
                    "truncated stream: wanted {wanted} bytes, {remaining} remain"
                )
            }
            CodecError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:#x}, found {found:#x}")
            }
            CodecError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CodecError::BadLength(n) => write!(f, "implausible length prefix {n}"),
            CodecError::BadChecksum { stored, computed } => write!(
                f,
                "checksum mismatch: stream says {stored:#018x}, contents give {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bytes of the magic tag (`u32`) and the version (`u16`).
const HEADER: usize = 6;

/// A 64-bit hash over little-endian 8-byte words (the last one
/// zero-padded), then the length: each step xors a word in, multiplies by
/// the FNV prime and xor-shifts the high half down. Every step is a
/// bijection of the state, so any change confined to one word changes the
/// result.
fn checksum(bytes: &[u8]) -> u64 {
    let step = |h: u64, w: u64| {
        let h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
        h ^ (h >> 32)
    };
    let words = bytes.chunks(8).map(|c| {
        let mut w = [0; 8];
        w[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(w)
    });
    step(words.fold(0xcbf2_9ce4_8422_2325, step), bytes.len() as u64)
}

/// Append-only byte encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
    /// Stamped by [`Encoder::with_magic`]: [`Encoder::finish`] appends the
    /// checksum.
    stamped: bool,
}

impl Encoder {
    /// Fresh encoder stamped with a magic tag and format version.
    pub fn with_magic(magic: u32, version: u16) -> Encoder {
        let mut e = Encoder {
            buf: Vec::new(),
            stamped: true,
        };
        e.put_u32(magic);
        e.put_u16(version);
        e
    }

    /// Consume the encoder, returning the byte stream; a stamped stream
    /// ends in the checksum of everything after its header.
    pub fn finish(mut self) -> Vec<u8> {
        if self.stamped {
            let sum = checksum(&self.buf[HEADER..]);
            self.put_u64(sum);
        }
        self.buf
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16` (little-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a fixed-width `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append an `f64` as its raw bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed `f64` slice, bit-exact.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }
}

/// Cursor-based decoder over a checkpoint byte stream.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Decoder over a stream written by [`Encoder::with_magic`]: checks the
    /// magic tag, reads the version, then verifies the trailing checksum and
    /// returns a decoder over the fields between them with the version.
    pub fn with_magic(buf: &'a [u8], magic: u32) -> Result<(Decoder<'a>, u16), CodecError> {
        let mut d = Decoder::new(buf);
        let found = d.get_u32()?;
        if found != magic {
            return Err(CodecError::BadMagic {
                expected: magic,
                found,
            });
        }
        let version = d.get_u16()?;
        let body_end = buf
            .len()
            .checked_sub(8)
            .filter(|&end| end >= HEADER)
            .ok_or(CodecError::Truncated {
                wanted: 8,
                remaining: d.remaining(),
            })?;
        let stored = u64::from_le_bytes(buf[body_end..].try_into().unwrap());
        let computed = checksum(&buf[HEADER..body_end]);
        if stored != computed {
            return Err(CodecError::BadChecksum { stored, computed });
        }
        d.buf = &buf[..body_end];
        Ok((d, version))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` (stored as `u64`), validating it fits the platform
    /// and is not wildly beyond the remaining stream.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadLength(v))
    }

    /// Read a `bool`.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.get_u8()? != 0)
    }

    /// Read an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed `f64` vector.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.get_usize()?;
        // Each element is 8 bytes; reject prefixes the stream cannot hold.
        if n > self.remaining() / 8 {
            return Err(CodecError::BadLength(n as u64));
        }
        (0..n).map(|_| self.get_f64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_bit_exact() {
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.5e-300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            std::f64::consts::PI,
        ];
        let mut e = Encoder::with_magic(0x4C41_4952, 3);
        for &v in &specials {
            e.put_f64(v);
        }
        e.put_f64_slice(&specials);
        e.put_u64(u64::MAX);
        e.put_usize(77);
        e.put_bool(true);
        let bytes = e.finish();

        let (mut d, version) = Decoder::with_magic(&bytes, 0x4C41_4952).unwrap();
        assert_eq!(version, 3);
        for &v in &specials {
            assert_eq!(d.get_f64().unwrap().to_bits(), v.to_bits());
        }
        let vs = d.get_f64_vec().unwrap();
        assert_eq!(vs.len(), specials.len());
        for (a, b) in vs.iter().zip(&specials) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_usize().unwrap(), 77);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn nan_payloads_survive() {
        // Checkpoints must preserve NaN payload bits too — resume paths
        // compare trajectories via to_bits().
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut e = Encoder::default();
        e.put_f64(weird);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn mismatched_magic_is_rejected() {
        let e = Encoder::with_magic(0x1111_2222, 1);
        let bytes = e.finish();
        let err = Decoder::with_magic(&bytes, 0x3333_4444).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic { .. }));
    }

    #[test]
    fn any_flipped_bit_after_the_header_is_a_checksum_error() {
        let mut e = Encoder::with_magic(0x4C41_4952, 7);
        e.put_f64_slice(&[1.0, -2.5, f64::MIN_POSITIVE]);
        let bytes = e.finish();
        assert_eq!(bytes.len(), HEADER + 8 + 3 * 8 + 8);
        for bit in HEADER * 8..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    Decoder::with_magic(&flipped, 0x4C41_4952),
                    Err(CodecError::BadChecksum { .. })
                ),
                "bit {bit} decoded"
            );
        }
        // The version is outside the sum: a stream re-stamped with another
        // version still decodes, for the caller to refuse by number.
        let mut restamped = bytes.clone();
        restamped[4] ^= 1;
        assert_eq!(Decoder::with_magic(&restamped, 0x4C41_4952).unwrap().1, 6);
        let (mut d, _) = Decoder::with_magic(&bytes, 0x4C41_4952).unwrap();
        assert_eq!(d.get_f64_vec().unwrap().len(), 3);
        assert_eq!(d.remaining(), 0, "the checksum is not a field");
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::default();
        e.put_f64_slice(&[1.0, 2.0, 3.0]);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes[..bytes.len() - 4]);
        assert!(d.get_f64_vec().is_err());
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut e = Encoder::default();
        e.put_u64(u64::MAX); // absurd length prefix
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(d.get_f64_vec().is_err());
    }
}
