//! Two-electron repulsion integrals `(ab|cd)` (chemists' notation) over
//! contracted Cartesian shells, via McMurchie–Davidson:
//!
//! `(ab|cd) = Σ_prims c⁴ · 2π^{5/2}/(pq√(p+q)) · Σ_{tuv} E^{ab}_{tuv}
//!            Σ_{τνφ} (−1)^{τ+ν+φ} E^{cd}_{τνφ} R_{t+τ,u+ν,v+φ}(α, P−Q)`
//!
//! with `p`, `q` the bra/ket total exponents and `α = pq/(p+q)`.
//!
//! The engine precomputes, per ordered shell pair and primitive pair, the
//! Hermite `E` tables and the Gaussian product prefactor — the quartet
//! loop then only evaluates the `R_{tuv}` auxiliaries (into reusable
//! scratch) and the contraction sums. Primitive quartets whose prefactor
//! product is below `PRIM_SCREEN` are skipped.

use crate::hermite::{hermite_aux_into, AuxScratch, ECoefs};
use liair_basis::shell::{cart_components, ncart};
use liair_basis::Basis;
use liair_math::{Mat, Vec3};
use rayon::prelude::*;
use std::f64::consts::PI;

/// Primitive-quartet prefactor threshold below which the quartet is
/// skipped (`exp(−μ_br |AB|²) · exp(−μ_kt |CD|²)` bound).
pub const PRIM_SCREEN: f64 = 1e-16;

/// Precomputed data for one primitive pair of an ordered shell pair.
#[derive(Debug, Clone)]
struct PrimPair {
    /// Primitive indices within the two shells.
    ia: usize,
    ib: usize,
    /// Total exponent `p = a + b`.
    p: f64,
    /// Gaussian product center.
    big_p: Vec3,
    /// Hermite tables per axis.
    ex: ECoefs,
    ey: ECoefs,
    ez: ECoefs,
    /// `exp(−μ|AB|²)` prefactor used for primitive screening.
    screen: f64,
}

/// Reusable per-thread scratch for quartet evaluation.
#[derive(Debug, Default, Clone)]
pub struct EriScratch {
    aux: AuxScratch,
}

/// Precomputed engine over a basis.
pub struct EriEngine<'a> {
    basis: &'a Basis,
    /// Normalized contraction coefficients per (shell, component, prim).
    coefs: Vec<Vec<Vec<f64>>>,
    /// Primitive-pair tables per ordered shell pair `[sa * nsh + sb]`.
    pairs: Vec<Vec<PrimPair>>,
}

impl<'a> EriEngine<'a> {
    /// Prepare the engine: normalization plus all shell-pair Hermite
    /// tables (O(nsh²·nprim²) setup amortized over O(nsh⁴) quartets).
    pub fn new(basis: &'a Basis) -> Self {
        let coefs: Vec<Vec<Vec<f64>>> = basis
            .shells
            .iter()
            .map(|sh| {
                cart_components(sh.l)
                    .into_iter()
                    .map(|powers| sh.normalized_coefs(powers))
                    .collect()
            })
            .collect();
        let nsh = basis.shells.len();
        let pairs: Vec<Vec<PrimPair>> = (0..nsh * nsh)
            .into_par_iter()
            .map(|idx| {
                let (sa, sb) = (idx / nsh, idx % nsh);
                let (sha, shb) = (&basis.shells[sa], &basis.shells[sb]);
                let d = sha.center - shb.center;
                let mut out = Vec::with_capacity(sha.prims.len() * shb.prims.len());
                for (ia, pa) in sha.prims.iter().enumerate() {
                    for (ib, pb) in shb.prims.iter().enumerate() {
                        let (a, b) = (pa.exp, pb.exp);
                        let p = a + b;
                        let mu = a * b / p;
                        out.push(PrimPair {
                            ia,
                            ib,
                            p,
                            big_p: (sha.center * a + shb.center * b) / p,
                            ex: ECoefs::new(sha.l, shb.l, d.x, a, b),
                            ey: ECoefs::new(sha.l, shb.l, d.y, a, b),
                            ez: ECoefs::new(sha.l, shb.l, d.z, a, b),
                            screen: (-mu * d.norm_sqr()).exp(),
                        });
                    }
                }
                out
            })
            .collect();
        Self {
            basis,
            coefs,
            pairs,
        }
    }

    /// The underlying basis.
    pub fn basis(&self) -> &Basis {
        self.basis
    }

    /// Compute the component block of the shell quartet `(sa sb | sc sd)`
    /// into `out` (resized to `[a][b][c][d]` row-major).
    pub fn shell_quartet_into(
        &self,
        sa: usize,
        sb: usize,
        sc: usize,
        sd: usize,
        scratch: &mut EriScratch,
        out: &mut Vec<f64>,
    ) {
        let nsh = self.basis.shells.len();
        let (la, lb, lc, ld) = (
            self.basis.shells[sa].l,
            self.basis.shells[sb].l,
            self.basis.shells[sc].l,
            self.basis.shells[sd].l,
        );
        let (na, nb, nc, nd) = (ncart(la), ncart(lb), ncart(lc), ncart(ld));
        let comps_a = cart_components(la);
        let comps_b = cart_components(lb);
        let comps_c = cart_components(lc);
        let comps_d = cart_components(ld);
        out.clear();
        out.resize(na * nb * nc * nd, 0.0);
        let tdim = la + lb + lc + ld;
        let at = |t: usize, u: usize, v: usize| (t * (tdim + 1) + u) * (tdim + 1) + v;

        for bra in &self.pairs[sa * nsh + sb] {
            for ket in &self.pairs[sc * nsh + sd] {
                if bra.screen * ket.screen < PRIM_SCREEN {
                    continue;
                }
                let (p, q) = (bra.p, ket.p);
                let alpha = p * q / (p + q);
                hermite_aux_into(
                    tdim,
                    tdim,
                    tdim,
                    alpha,
                    bra.big_p - ket.big_p,
                    &mut scratch.aux,
                );
                let aux = &scratch.aux.cur;
                let pref = 2.0 * PI.powf(2.5) / (p * q * (p + q).sqrt());

                for (ca, &pa) in comps_a.iter().enumerate() {
                    for (cb, &pb) in comps_b.iter().enumerate() {
                        for (cc, &pc) in comps_c.iter().enumerate() {
                            for (cdx, &pd) in comps_d.iter().enumerate() {
                                let coef = self.coefs[sa][ca][bra.ia]
                                    * self.coefs[sb][cb][bra.ib]
                                    * self.coefs[sc][cc][ket.ia]
                                    * self.coefs[sd][cdx][ket.ib];
                                let mut val = 0.0;
                                for t in 0..=(pa.0 + pb.0) {
                                    let etx = bra.ex.get(pa.0, pb.0, t);
                                    if etx == 0.0 {
                                        continue;
                                    }
                                    for u in 0..=(pa.1 + pb.1) {
                                        let euy = bra.ey.get(pa.1, pb.1, u);
                                        if euy == 0.0 {
                                            continue;
                                        }
                                        for v in 0..=(pa.2 + pb.2) {
                                            let evz = bra.ez.get(pa.2, pb.2, v);
                                            if evz == 0.0 {
                                                continue;
                                            }
                                            let ebra = etx * euy * evz;
                                            for tau in 0..=(pc.0 + pd.0) {
                                                let etc = ket.ex.get(pc.0, pd.0, tau);
                                                if etc == 0.0 {
                                                    continue;
                                                }
                                                for nu in 0..=(pc.1 + pd.1) {
                                                    let euc = ket.ey.get(pc.1, pd.1, nu);
                                                    if euc == 0.0 {
                                                        continue;
                                                    }
                                                    for ph in 0..=(pc.2 + pd.2) {
                                                        let evc = ket.ez.get(pc.2, pd.2, ph);
                                                        if evc == 0.0 {
                                                            continue;
                                                        }
                                                        let sign = if (tau + nu + ph) % 2 == 0 {
                                                            1.0
                                                        } else {
                                                            -1.0
                                                        };
                                                        val += ebra
                                                            * sign
                                                            * etc
                                                            * euc
                                                            * evc
                                                            * aux[at(t + tau, u + nu, v + ph)];
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                                let idx = ((ca * nb + cb) * nc + cc) * nd + cdx;
                                out[idx] += coef * pref * val;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Allocating convenience wrapper around [`Self::shell_quartet_into`].
    pub fn shell_quartet(&self, sa: usize, sb: usize, sc: usize, sd: usize) -> Vec<f64> {
        let mut scratch = EriScratch::default();
        let mut out = Vec::new();
        self.shell_quartet_into(sa, sb, sc, sd, &mut scratch, &mut out);
        out
    }
}

/// One shell quartet through a throwaway engine (tests, small jobs).
pub fn eri_shell_quartet(basis: &Basis, sa: usize, sb: usize, sc: usize, sd: usize) -> Vec<f64> {
    EriEngine::new(basis).shell_quartet(sa, sb, sc, sd)
}

/// Dense `(μν|λσ)` tensor for small systems.
#[derive(Debug, Clone)]
pub struct EriTensor {
    n: usize,
    data: Vec<f64>,
}

impl EriTensor {
    /// AO dimension.
    pub fn nao(&self) -> usize {
        self.n
    }

    /// `(ij|kl)` element.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize, l: usize) -> f64 {
        self.data[((i * self.n + j) * self.n + k) * self.n + l]
    }
}

/// Build the full ERI tensor (O(N⁴) memory — guarded to ≤ 96 AOs; larger
/// systems must use the direct Fock build or the grid pair path).
pub fn eri_tensor(basis: &Basis) -> EriTensor {
    let n = basis.nao();
    assert!(n <= 96, "eri_tensor is for small systems (nao = {n} > 96)");
    let engine = EriEngine::new(basis);
    let nsh = basis.shells.len();
    let blocks: Vec<(usize, usize, usize, usize, Vec<f64>)> = (0..nsh * nsh)
        .into_par_iter()
        .flat_map_iter(|ij| {
            let si = ij / nsh;
            let sj = ij % nsh;
            (0..nsh).flat_map(move |sk| (0..nsh).map(move |sl| (si, sj, sk, sl)))
        })
        .map_init(EriScratch::default, |scratch, (si, sj, sk, sl)| {
            let mut block = Vec::new();
            engine.shell_quartet_into(si, sj, sk, sl, scratch, &mut block);
            (si, sj, sk, sl, block)
        })
        .collect();
    let mut data = vec![0.0; n * n * n * n];
    for (si, sj, sk, sl, block) in blocks {
        let (oa, ob, oc, od) = (
            basis.shell_offsets[si],
            basis.shell_offsets[sj],
            basis.shell_offsets[sk],
            basis.shell_offsets[sl],
        );
        let (na, nb, nc, nd) = (
            ncart(basis.shells[si].l),
            ncart(basis.shells[sj].l),
            ncart(basis.shells[sk].l),
            ncart(basis.shells[sl].l),
        );
        for ca in 0..na {
            for cb in 0..nb {
                for cc in 0..nc {
                    for cd in 0..nd {
                        let v = block[((ca * nb + cb) * nc + cc) * nd + cd];
                        let (i, j, k, l) = (oa + ca, ob + cb, oc + cc, od + cd);
                        data[((i * n + j) * n + k) * n + l] = v;
                    }
                }
            }
        }
    }
    EriTensor { n, data }
}

/// Schwarz screening bounds per *shell pair*:
/// `Q_{AB} = max_{μ∈A,ν∈B} √|(μν|μν)|`; `|(ab|cd)| ≤ Q_{AB} Q_{CD}`.
pub fn schwarz_matrix(basis: &Basis) -> Mat {
    let engine = EriEngine::new(basis);
    schwarz_matrix_with(&engine)
}

/// As [`schwarz_matrix`] but reusing a prepared engine.
pub fn schwarz_matrix_with(engine: &EriEngine<'_>) -> Mat {
    let basis = engine.basis();
    let nsh = basis.shells.len();
    let rows: Vec<Vec<f64>> = (0..nsh)
        .into_par_iter()
        .map_init(EriScratch::default, |scratch, sa| {
            let mut block = Vec::new();
            (0..nsh)
                .map(|sb| {
                    engine.shell_quartet_into(sa, sb, sa, sb, scratch, &mut block);
                    let (na, nb) = (ncart(basis.shells[sa].l), ncart(basis.shells[sb].l));
                    let mut best = 0.0f64;
                    for ca in 0..na {
                        for cb in 0..nb {
                            let v = block[((ca * nb + cb) * na + ca) * nb + cb];
                            best = best.max(v.abs());
                        }
                    }
                    best.sqrt()
                })
                .collect()
        })
        .collect();
    let mut m = Mat::zeros(nsh, nsh);
    for (i, row) in rows.into_iter().enumerate() {
        for (j, v) in row.into_iter().enumerate() {
            m[(i, j)] = v;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_basis::systems;
    use liair_math::approx_eq;

    #[test]
    fn h2_sto3g_eri_table() {
        // Szabo & Ostlund (ζ = 1.24, R = 1.4 a₀):
        // (11|11) = 0.7746, (11|22) = 0.5697, (12|12) = 0.2970,
        // (11|12) = 0.4441.
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let eri = eri_tensor(&basis);
        assert!(
            approx_eq(eri.get(0, 0, 0, 0), 0.7746, 3e-4),
            "(11|11)={}",
            eri.get(0, 0, 0, 0)
        );
        assert!(
            approx_eq(eri.get(0, 0, 1, 1), 0.5697, 3e-4),
            "(11|22)={}",
            eri.get(0, 0, 1, 1)
        );
        assert!(
            approx_eq(eri.get(0, 1, 0, 1), 0.2970, 3e-4),
            "(12|12)={}",
            eri.get(0, 1, 0, 1)
        );
        assert!(
            approx_eq(eri.get(0, 0, 0, 1), 0.4441, 3e-4),
            "(11|12)={}",
            eri.get(0, 0, 0, 1)
        );
    }

    #[test]
    fn eightfold_permutational_symmetry() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let eri = eri_tensor(&basis);
        let n = basis.nao();
        let mut rng = liair_math::rng::SplitMix64::new(3);
        for _ in 0..200 {
            let (i, j, k, l) = (rng.below(n), rng.below(n), rng.below(n), rng.below(n));
            let v = eri.get(i, j, k, l);
            for w in [
                eri.get(j, i, k, l),
                eri.get(i, j, l, k),
                eri.get(j, i, l, k),
                eri.get(k, l, i, j),
                eri.get(l, k, i, j),
                eri.get(k, l, j, i),
                eri.get(l, k, j, i),
            ] {
                assert!(approx_eq(v, w, 1e-9), "({i}{j}|{k}{l}): {v} vs {w}");
            }
        }
    }

    #[test]
    fn diagonal_elements_nonnegative() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let eri = eri_tensor(&basis);
        let n = basis.nao();
        for i in 0..n {
            for j in 0..n {
                assert!(eri.get(i, j, i, j) >= -1e-12);
            }
        }
    }

    #[test]
    fn schwarz_bound_holds() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let q = schwarz_matrix(&basis);
        let engine = EriEngine::new(&basis);
        let nsh = basis.shells.len();
        for sa in 0..nsh {
            for sb in 0..nsh {
                for sc in 0..nsh {
                    for sd in 0..nsh {
                        let block = engine.shell_quartet(sa, sb, sc, sd);
                        let max = block.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
                        let bound = q[(sa, sb)] * q[(sc, sd)];
                        assert!(max <= bound + 1e-9, "({sa}{sb}|{sc}{sd}): {max} > {bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn distant_pairs_decay() {
        let mut mol = systems::h2();
        mol.atoms[1].pos = liair_math::Vec3::new(10.0, 0.0, 0.0);
        let basis = Basis::sto3g(&mol);
        let eri = eri_tensor(&basis);
        assert!(eri.get(0, 1, 0, 1).abs() < 1e-8);
        // While the classical Coulomb (11|22) only decays like 1/R.
        assert!(approx_eq(eri.get(0, 0, 1, 1), 0.1, 1e-2));
    }

    #[test]
    fn into_matches_allocating_path() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let engine = EriEngine::new(&basis);
        let mut scratch = EriScratch::default();
        let mut out = Vec::new();
        for (sa, sb, sc, sd) in [(0, 1, 2, 3), (2, 2, 2, 2), (4, 0, 3, 1)] {
            engine.shell_quartet_into(sa, sb, sc, sd, &mut scratch, &mut out);
            let reference = engine.shell_quartet(sa, sb, sc, sd);
            assert_eq!(out, reference);
        }
    }
}
