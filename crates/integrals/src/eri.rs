//! Two-electron repulsion integrals `(ab|cd)` (chemists' notation) over
//! contracted Cartesian shells, via McMurchie–Davidson:
//!
//! `(ab|cd) = Σ_prims 2π^{5/2}/(pq√(p+q)) · Σ_{tuv} E^{ab}_{tuv}
//!            Σ_{τνφ} (−1)^{τ+ν+φ} E^{cd}_{τνφ} R_{t+τ,u+ν,v+φ}(α, P−Q)`
//!
//! with `p`, `q` the bra/ket total exponents, `α = pq/(p+q)` and the
//! contraction coefficients folded into the `E` products.
//!
//! A primitive quartet pays only for its own angular momentum
//! `L = la+lb+lc+ld`:
//!
//! * `R` runs to order `L` only: [`hermite_len`]`(L)` entries (35 for
//!   (pp|pp)) from one Boys evaluation of order `L`.
//! * [`EriEngine::new`] precomputes, once per ordered shell pair, per
//!   primitive pair and per Cartesian component pair, the coefficient-
//!   weighted Hermite products `c_a c_b E^{ab}_{tuv}` over the box
//!   `t ≤ a_x+b_x, u ≤ a_y+b_y, v ≤ a_z+b_z` — one flat array per shell
//!   pair, laid out by a table shared by every pair of the same
//!   `(la, lb)` class.
//! * The contraction takes two steps: the ket side with `R` into an
//!   intermediate `X[ket component pair][bra tuv]`, then one short dot
//!   product per (bra, ket) component pair. `R` is taken at `Q−P`: since
//!   `R_{tuv}(−x) = (−1)^{t+u+v} R_{tuv}(x)`, the ket's sign
//!   `(−1)^{τ+ν+φ}` becomes the bra's `(−1)^{t+u+v}`, which is folded into
//!   `X` with the prefactor.
//!
//! Primitive quartets whose prefactor product is below `PRIM_SCREEN` are
//! skipped. A warm quartet evaluation allocates nothing.

use crate::hermite::{hermite_aux_into, hermite_index, hermite_len, AuxScratch, ECoefs};
use liair_basis::shell::{cart_components, ncart};
use liair_basis::Basis;
use liair_math::{Mat, Vec3};
use rayon::prelude::*;
use std::f64::consts::{FRAC_2_SQRT_PI, PI};

/// Primitive-quartet prefactor threshold below which the quartet is
/// skipped (`exp(−μ_br |AB|²) · exp(−μ_kt |CD|²)` bound).
pub const PRIM_SCREEN: f64 = 1e-16;

/// `2π^{5/2}`, the Coulomb prefactor's constant.
const TWO_PI_POW_2_5: f64 = 2.0 * PI * PI * (2.0 / FRAC_2_SQRT_PI);

/// The Hermite terms of every Cartesian component pair of one shell-pair
/// class `(la, lb)`. Component pair `c` (row-major over the two shells'
/// components) owns `terms[start[c]..start[c + 1]]`: the [`hermite_index`]
/// of each `(t, u, v)` in its `E`-product box, ascending.
#[derive(Debug)]
struct PairClass {
    /// `la + lb`, the highest Hermite order of the class.
    l: usize,
    start: Vec<usize>,
    terms: Vec<usize>,
}

impl PairClass {
    fn new(la: usize, lb: usize) -> Self {
        let mut class = PairClass {
            l: la + lb,
            start: vec![0],
            terms: Vec::new(),
        };
        for pa in cart_components(la) {
            for pb in cart_components(lb) {
                let first = class.terms.len();
                for t in 0..=pa.0 + pb.0 {
                    for u in 0..=pa.1 + pb.1 {
                        for v in 0..=pa.2 + pb.2 {
                            class.terms.push(hermite_index(t, u, v));
                        }
                    }
                }
                class.terms[first..].sort_unstable();
                class.start.push(class.terms.len());
            }
        }
        class
    }

    /// Number of component pairs.
    fn ncomp(&self) -> usize {
        self.start.len() - 1
    }
}

/// One primitive pair of an ordered shell pair.
#[derive(Debug, Clone, Copy)]
struct PrimPair {
    /// Total exponent `p = a + b`.
    p: f64,
    /// Gaussian product center.
    big_p: Vec3,
    /// `exp(−μ|AB|²)` prefactor used for primitive screening.
    screen: f64,
}

/// Precomputed data of one ordered shell pair.
#[derive(Debug)]
struct ShellPair {
    /// Index of the pair's `(la, lb)` class in `EriEngine::classes`.
    class: usize,
    prims: Vec<PrimPair>,
    /// `c_a c_b E^{ab}_{tuv}`: per primitive pair (in `prims` order) one
    /// value per entry of the class's `terms`.
    e: Vec<f64>,
}

/// Reusable per-thread scratch for quartet evaluation.
#[derive(Debug, Default, Clone)]
pub struct EriScratch {
    aux: AuxScratch,
    /// The ket-contracted intermediate `X[ket component pair][bra tuv]`.
    x: Vec<f64>,
}

/// Precomputed engine over a basis.
pub struct EriEngine<'a> {
    basis: &'a Basis,
    /// Shell-pair classes, `[la * (lmax + 1) + lb]`.
    classes: Vec<PairClass>,
    /// Per ordered shell pair `[sa * nsh + sb]`.
    pairs: Vec<ShellPair>,
    /// Where the ket step reads `R`: for a bra order `lb` and a ket class
    /// `kc`, `ket_r_index[lb * classes.len() + kc][h * nterms + j]` is the
    /// [`hermite_index`] of bra triple `h` plus the triple of the class's
    /// `j`-th term (`nterms` of them).
    ket_r_index: Vec<Vec<usize>>,
    /// `(−1)^{t+u+v}` per bra position.
    hermite_sign: Vec<f64>,
}

impl<'a> EriEngine<'a> {
    /// Prepare the engine: normalization plus all shell-pair Hermite
    /// tables (O(nsh²·nprim²) setup amortized over O(nsh⁴) quartets).
    pub fn new(basis: &'a Basis) -> Self {
        let lmax = basis.shells.iter().map(|sh| sh.l).max().unwrap_or(0);
        let nl = lmax + 1;
        let classes: Vec<PairClass> = (0..nl * nl)
            .map(|i| PairClass::new(i / nl, i % nl))
            .collect();
        // Every Hermite triple of a pair class, in layout order.
        let lpair = 2 * lmax;
        let mut triples = vec![[0usize; 3]; hermite_len(lpair)];
        for t in 0..=lpair {
            for u in 0..=lpair - t {
                for v in 0..=lpair - t - u {
                    triples[hermite_index(t, u, v)] = [t, u, v];
                }
            }
        }
        let comps: Vec<Vec<(usize, usize, usize)>> = (0..nl).map(cart_components).collect();
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
        let pairs: Vec<ShellPair> = (0..nsh * nsh)
            .into_par_iter()
            .map(|idx| {
                let (sa, sb) = (idx / nsh, idx % nsh);
                let (sha, shb) = (&basis.shells[sa], &basis.shells[sb]);
                let class_idx = sha.l * nl + shb.l;
                let class = &classes[class_idx];
                let nb = ncart(shb.l);
                let d = sha.center - shb.center;
                let nprim = sha.prims.len() * shb.prims.len();
                let mut prims = Vec::with_capacity(nprim);
                let mut e = Vec::with_capacity(nprim * class.terms.len());
                for (ia, pa) in sha.prims.iter().enumerate() {
                    for (ib, pb) in shb.prims.iter().enumerate() {
                        let (a, b) = (pa.exp, pb.exp);
                        let p = a + b;
                        let mu = a * b / p;
                        prims.push(PrimPair {
                            p,
                            big_p: (sha.center * a + shb.center * b) / p,
                            screen: (-mu * d.norm_sqr()).exp(),
                        });
                        let ex = ECoefs::new(sha.l, shb.l, d.x, a, b);
                        let ey = ECoefs::new(sha.l, shb.l, d.y, a, b);
                        let ez = ECoefs::new(sha.l, shb.l, d.z, a, b);
                        for c in 0..class.ncomp() {
                            let (ca, cb) = (c / nb, c % nb);
                            let (pwa, pwb) = (comps[sha.l][ca], comps[shb.l][cb]);
                            let coef = coefs[sa][ca][ia] * coefs[sb][cb][ib];
                            for &h in &class.terms[class.start[c]..class.start[c + 1]] {
                                let [t, u, v] = triples[h];
                                e.push(
                                    coef * ex.get(pwa.0, pwb.0, t)
                                        * ey.get(pwa.1, pwb.1, u)
                                        * ez.get(pwa.2, pwb.2, v),
                                );
                            }
                        }
                    }
                }
                ShellPair {
                    class: class_idx,
                    prims,
                    e,
                }
            })
            .collect();
        let triples = &triples;
        let ket_r_index = (0..=lpair)
            .flat_map(|lbra| {
                classes.iter().map(move |kc| {
                    triples[..hermite_len(lbra)]
                        .iter()
                        .flat_map(|h| {
                            kc.terms.iter().map(move |&k| {
                                let k = triples[k];
                                hermite_index(h[0] + k[0], h[1] + k[1], h[2] + k[2])
                            })
                        })
                        .collect()
                })
            })
            .collect();
        let hermite_sign = triples
            .iter()
            .map(|h| {
                if (h[0] + h[1] + h[2]) % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        Self {
            basis,
            classes,
            pairs,
            ket_r_index,
            hermite_sign,
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
        let (bra, ket) = (&self.pairs[sa * nsh + sb], &self.pairs[sc * nsh + sd]);
        let (bra_class, ket_class) = (&self.classes[bra.class], &self.classes[ket.class]);
        let (nbra, nket) = (bra_class.ncomp(), ket_class.ncomp());
        let (bra_len, ket_len) = (bra_class.terms.len(), ket_class.terms.len());
        // Bra Hermite positions: every t+u+v ≤ la+lb.
        let nh = hermite_len(bra_class.l);
        let l = bra_class.l + ket_class.l;
        let r_index = &self.ket_r_index[bra_class.l * self.classes.len() + ket.class];
        out.clear();
        out.resize(nbra * nket, 0.0);
        let EriScratch { aux, x } = scratch;
        x.resize(nket * nh, 0.0);

        for (bp, eb) in bra.prims.iter().zip(bra.e.chunks_exact(bra_len)) {
            for (kp, ek) in ket.prims.iter().zip(ket.e.chunks_exact(ket_len)) {
                if bp.screen * kp.screen < PRIM_SCREEN {
                    continue;
                }
                let (p, q) = (bp.p, kp.p);
                hermite_aux_into(l, p * q / (p + q), kp.big_p - bp.big_p, aux);
                let r = &aux.r;
                let pref = TWO_PI_POW_2_5 / (p * q * (p + q).sqrt());

                // X[c][h] = (−1)^{|h|} pref Σ_k E^{cd}_k R_{h+k}(Q−P).
                for (c, xc) in x.chunks_exact_mut(nh).enumerate() {
                    let span = ket_class.start[c]..ket_class.start[c + 1];
                    let ec = &ek[span.clone()];
                    let rows = r_index.chunks_exact(ket_len);
                    for ((xh, row), &sign) in xc.iter_mut().zip(rows).zip(&self.hermite_sign) {
                        let mut s = 0.0;
                        for (&e, &i) in ec.iter().zip(&row[span.clone()]) {
                            s += e * r[i];
                        }
                        *xh = sign * pref * s;
                    }
                }
                // (ab|cd) += Σ_h E^{ab}_h X[cd][h].
                for (b, out_row) in out.chunks_exact_mut(nket).enumerate() {
                    let span = bra_class.start[b]..bra_class.start[b + 1];
                    let (eb_b, hb) = (&eb[span.clone()], &bra_class.terms[span]);
                    for (o, xc) in out_row.iter_mut().zip(x.chunks_exact(nh)) {
                        let mut s = 0.0;
                        for (&e, &h) in eb_b.iter().zip(hb) {
                            s += e * xc[h];
                        }
                        *o += s;
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
    use crate::hermite::hermite_aux;
    use liair_basis::systems;
    use liair_math::approx_eq;

    /// One primitive pair of the reference: per-axis `E` tables.
    struct RefPrimPair {
        ia: usize,
        ib: usize,
        p: f64,
        big_p: Vec3,
        e: [ECoefs; 3],
        screen: f64,
    }

    fn ref_prim_pairs(basis: &Basis, sa: usize, sb: usize) -> Vec<RefPrimPair> {
        let (sha, shb) = (&basis.shells[sa], &basis.shells[sb]);
        let d = sha.center - shb.center;
        let mut out = Vec::new();
        for (ia, pa) in sha.prims.iter().enumerate() {
            for (ib, pb) in shb.prims.iter().enumerate() {
                let (a, b) = (pa.exp, pb.exp);
                let p = a + b;
                out.push(RefPrimPair {
                    ia,
                    ib,
                    p,
                    big_p: (sha.center * a + shb.center * b) / p,
                    e: [
                        ECoefs::new(sha.l, shb.l, d.x, a, b),
                        ECoefs::new(sha.l, shb.l, d.y, a, b),
                        ECoefs::new(sha.l, shb.l, d.z, a, b),
                    ],
                    screen: (-(a * b / p) * d.norm_sqr()).exp(),
                });
            }
        }
        out
    }

    /// The kernel's oracle, the formula of the module docs term by term:
    /// per primitive quartet and per component quadruple, a nine-deep loop
    /// over `ECoefs::get` with zero skips, the contraction coefficients
    /// applied per quadruple and the ket sign `(−1)^{τ+ν+φ}` explicit, with
    /// `R` at `P−Q`.
    fn shell_quartet_reference(
        basis: &Basis,
        sa: usize,
        sb: usize,
        sc: usize,
        sd: usize,
    ) -> Vec<f64> {
        let shells = [sa, sb, sc, sd].map(|s| &basis.shells[s]);
        let comps = shells.map(|sh| cart_components(sh.l));
        let coefs = shells.map(|sh| {
            cart_components(sh.l)
                .into_iter()
                .map(|powers| sh.normalized_coefs(powers))
                .collect::<Vec<_>>()
        });
        let (nb, nc, nd) = (comps[1].len(), comps[2].len(), comps[3].len());
        let mut out = vec![0.0; comps[0].len() * nb * nc * nd];
        let l = shells.iter().map(|sh| sh.l).sum();
        for bra in &ref_prim_pairs(basis, sa, sb) {
            for ket in &ref_prim_pairs(basis, sc, sd) {
                if bra.screen * ket.screen < PRIM_SCREEN {
                    continue;
                }
                let (p, q) = (bra.p, ket.p);
                let aux = hermite_aux(l, p * q / (p + q), bra.big_p - ket.big_p);
                let pref = 2.0 * PI.powf(2.5) / (p * q * (p + q).sqrt());
                for (ca, &pa) in comps[0].iter().enumerate() {
                    for (cb, &pb) in comps[1].iter().enumerate() {
                        for (cc, &pc) in comps[2].iter().enumerate() {
                            for (cdx, &pd) in comps[3].iter().enumerate() {
                                let coef = coefs[0][ca][bra.ia]
                                    * coefs[1][cb][bra.ib]
                                    * coefs[2][cc][ket.ia]
                                    * coefs[3][cdx][ket.ib];
                                let mut val = 0.0;
                                for t in 0..=(pa.0 + pb.0) {
                                    let etx = bra.e[0].get(pa.0, pb.0, t);
                                    if etx == 0.0 {
                                        continue;
                                    }
                                    for u in 0..=(pa.1 + pb.1) {
                                        let euy = bra.e[1].get(pa.1, pb.1, u);
                                        if euy == 0.0 {
                                            continue;
                                        }
                                        for v in 0..=(pa.2 + pb.2) {
                                            let evz = bra.e[2].get(pa.2, pb.2, v);
                                            if evz == 0.0 {
                                                continue;
                                            }
                                            let ebra = etx * euy * evz;
                                            for tau in 0..=(pc.0 + pd.0) {
                                                let etc = ket.e[0].get(pc.0, pd.0, tau);
                                                if etc == 0.0 {
                                                    continue;
                                                }
                                                for nu in 0..=(pc.1 + pd.1) {
                                                    let euc = ket.e[1].get(pc.1, pd.1, nu);
                                                    if euc == 0.0 {
                                                        continue;
                                                    }
                                                    for ph in 0..=(pc.2 + pd.2) {
                                                        let evc = ket.e[2].get(pc.2, pd.2, ph);
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
                                                            * aux[hermite_index(
                                                                t + tau,
                                                                u + nu,
                                                                v + ph,
                                                            )];
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
        out
    }

    #[test]
    fn kernel_matches_reference_contraction() {
        for (name, basis) in [
            ("water/6-31G", Basis::b631g(&systems::water())),
            ("Li2O2/STO-3G", Basis::sto3g(&systems::li2o2())),
        ] {
            let engine = EriEngine::new(&basis);
            let (mut scratch, mut block) = (EriScratch::default(), Vec::new());
            let nsh = basis.shells.len();
            let (mut quartets, mut worst) = (0, 0.0f64);
            for sa in 0..nsh {
                for sb in 0..=sa {
                    for sc in 0..=sa {
                        let sd_max = if sc == sa { sb } else { sc };
                        for sd in 0..=sd_max {
                            engine.shell_quartet_into(sa, sb, sc, sd, &mut scratch, &mut block);
                            let want = shell_quartet_reference(&basis, sa, sb, sc, sd);
                            assert_eq!(block.len(), want.len());
                            for (i, (&got, &want)) in block.iter().zip(&want).enumerate() {
                                let err = (got - want).abs();
                                worst = worst.max(err / want.abs().max(1e-3));
                                assert!(
                                    err <= 1e-12 * want.abs() || err <= 1e-15,
                                    "{name} ({sa}{sb}|{sc}{sd})[{i}]: {got:e} vs {want:e}"
                                );
                            }
                            quartets += 1;
                        }
                    }
                }
            }
            eprintln!("{name}: {quartets} canonical quartets, worst scaled error {worst:e}");
        }
    }

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
