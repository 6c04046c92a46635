//! The elementwise inner loops around the transform in a pair-Poisson
//! exchange build: the real pair-density product `φ_i·φ_j`, axpy
//! accumulation, the pointwise complex×real kernel-table multiply, and the
//! half-spectrum weighted `|ρ̂|²` energy contraction.
//!
//! The paper's node-level performance rests on the 4-wide QPX unit; that
//! claim is priced by the `liair-bgq` node model, not here. Each primitive
//! is one portable plain-Rust loop — no intrinsics, no runtime feature
//! detection, nothing read from the environment (the crate forbids
//! `unsafe_code`) — that the optimizer is free to vectorize.
//!
//! ## Numerical contract
//!
//! The elementwise primitives perform one unfused multiply (and add) per
//! element. The energy contraction fixes its summation order in the
//! source: four independent accumulators over blocks of four bins,
//! combined as `(a0 + a1) + (a2 + a3)`, then a sequential tail. Rust never
//! contracts a multiply and an add into an FMA on its own, so every
//! primitive returns the same bits on every host and at every optimisation
//! level (`weighted_energy` is pinned bit for bit in the tests).

use crate::complex::Complex64;

/// Elementwise real product `out[i] = a[i]·b[i]` — the pair-density
/// formation `ρ_ij = φ_i φ_j`.
pub fn mul_into(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(out.len(), a.len());
    assert_eq!(out.len(), b.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// `y[i] += alpha·x[i]` — the orbital accumulation `φ += C_μk χ_μ`
/// (unfused multiply-then-add).
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Pointwise complex×real product `z[i] = z[i]·table[i]` — the
/// reciprocal-space Coulomb kernel application.
pub fn scale_by_table(z: &mut [Complex64], table: &[f64]) {
    assert_eq!(z.len(), table.len());
    for (zi, &k) in z.iter_mut().zip(table) {
        *zi = zi.scale(k);
    }
}

/// Weighted half-spectrum energy `Σ_i wk[i]·|z[i]|²` with the Hermitian
/// double-count weights pre-folded into `wk` — the Parseval contraction
/// of the energy-only exchange path.
///
/// Four independent accumulators (one per bin of each block of four) hide
/// the add latency a single sequential chain is bound by; they are
/// combined as `(a0 + a1) + (a2 + a3)` and the `len % 4` tail bins are
/// added last, in order. That order is the function's definition.
pub fn weighted_energy(z: &[Complex64], wk: &[f64]) -> f64 {
    assert_eq!(z.len(), wk.len());
    let (zs, ks) = (z.chunks_exact(4), wk.chunks_exact(4));
    let (z_tail, k_tail) = (zs.remainder(), ks.remainder());
    let mut acc = [0.0f64; 4];
    for (zb, kb) in zs.zip(ks) {
        for l in 0..4 {
            acc[l] += kb[l] * zb[l].norm_sqr();
        }
    }
    let mut e = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (zi, &k) in z_tail.iter().zip(k_tail) {
        e += k * zi.norm_sqr();
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// `n` bins of the kernel-table shape: complex values in the unit
    /// square around zero, weights in `[0, 2)` (non-negative, as `v(G)`).
    fn spectrum(n: usize, seed: u64) -> (Vec<Complex64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let z = (0..n)
            .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        let wk = (0..n).map(|_| 2.0 * rng.next_f64()).collect();
        (z, wk)
    }

    /// The contraction's bits are a property of the source, not of the
    /// host's vector unit or the optimizer: these constants hold in debug
    /// and release builds alike, whatever vector unit the CPU has. 17,408
    /// bins is the 32³ half spectrum.
    #[test]
    fn weighted_energy_bits_are_host_independent() {
        // n = 5, 7 and 17,408 differ from the one-accumulator sum in the
        // last bits, so these pins also fix the summation order.
        let pins: [(usize, u64); 7] = [
            (0, 0x0000_0000_0000_0000),
            (1, 0x3fc2_f355_d424_4458),
            (3, 0x3fdd_fe67_9882_8661),
            (4, 0x3fe6_b5b6_1fd4_4660),
            (5, 0x3fe9_2326_131a_1cc0),
            (7, 0x3ff9_aada_ff9c_7082),
            (17_408, 0x40a6_d550_b833_ab96),
        ];
        for (n, bits) in pins {
            let (z, wk) = spectrum(n, 0x5eed ^ n as u64);
            let e = weighted_energy(&z, &wk);
            assert_eq!(e.to_bits(), bits, "n = {n}: {e:e} = {:#018x}", e.to_bits());
        }
    }
}
