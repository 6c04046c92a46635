//! Two-electron repulsion integrals `(ab|cd)` (chemists' notation) over
//! blocks of contracted Cartesian shells, via McMurchie–Davidson:
//!
//! `(ab|cd) = Σ_prims 2π^{5/2}/(pq√(p+q)) · Σ_{tuv} E^{ab}_{tuv}
//!            Σ_{τνφ} (−1)^{τ+ν+φ} E^{cd}_{τνφ} R_{t+τ,u+ν,v+φ}(α, P−Q)`
//!
//! with `p`, `q` the bra/ket total exponents, `α = pq/(p+q)` and the
//! contraction coefficients folded into the `E` products.
//!
//! The unit of work is a **block**: a run of consecutive shells on one
//! atom that share one exponent list and have ascending `l` (STO-3G's
//! 2s+2p, 6-31G's sp shells); every other shell is a block of its own.
//! A block's components are its shells' Cartesian components in shell
//! order, so its AOs are contiguous, and each component keeps its own
//! normalized contraction coefficients. A block quartet therefore pays
//! once for what depends only on exponents and centers:
//!
//! * one Boys evaluation and one `R` table per primitive quartet, of order
//!   `L = lmax_a+lmax_b+lmax_c+lmax_d`: [`hermite_len`]`(L)` entries (35
//!   for (sp sp|sp sp));
//! * [`EriEngine::new`] precomputes, once per ordered block pair, per
//!   primitive pair and per Cartesian component pair, the coefficient-
//!   weighted Hermite products `c_a c_b E^{ab}_{tuv}` over the box
//!   `t ≤ a_x+b_x, u ≤ a_y+b_y, v ≤ a_z+b_z` — one flat array per block
//!   pair, laid out by a table shared by every pair of the same class (the
//!   two blocks' `l` sets). The coefficients absorb the 2s/2p difference.
//! * The contraction takes two steps. Per bra primitive pair, the ket side
//!   is contracted with every ket primitive pair's `R` into one
//!   intermediate `X[ket component pair][bra tuv]`; then the bra `E` is
//!   contracted into `X` once, one short dot product per (bra, ket)
//!   component pair. `R` is taken at `Q−P`: since
//!   `R_{tuv}(−x) = (−1)^{t+u+v} R_{tuv}(x)`, the ket's sign
//!   `(−1)^{τ+ν+φ}` becomes the bra's `(−1)^{t+u+v}`, applied to `X`
//!   before the bra step.
//!
//! Primitive quartets whose prefactor product is below `PRIM_SCREEN` are
//! skipped. A warm quartet evaluation allocates nothing.
//!
//! The Coulomb energy's gradient runs over the same block pairs and
//! primitive screen: a density contracted into each block pair's Hermite
//! expansion, with its center derivatives one order higher
//! (`HermiteDensities`), meets another through one `R` table per
//! primitive quartet.

use crate::hermite::{hermite_aux_into, hermite_index, hermite_len, AuxScratch, ECoefs};
use liair_basis::shell::{cart_components, ncart};
use liair_basis::{Basis, Shell};
use liair_math::{Mat, Vec3};
use rayon::prelude::*;
use std::f64::consts::{FRAC_2_SQRT_PI, PI};
use std::ops::Range;

/// Primitive-quartet prefactor threshold below which the quartet is
/// skipped (`exp(−μ_br |AB|²) · exp(−μ_kt |CD|²)` bound).
pub const PRIM_SCREEN: f64 = 1e-16;

/// `2π^{5/2}`, the Coulomb prefactor's constant.
const TWO_PI_POW_2_5: f64 = 2.0 * PI * PI * (2.0 / FRAC_2_SQRT_PI);

/// A run of consecutive shells on one atom with one exponent list and
/// ascending `l`; its components are the AOs `offset..offset + ncomp`.
#[derive(Debug, Clone)]
pub struct ShellBlock {
    /// The block's shells, `basis.shells[shells]`.
    pub shells: Range<usize>,
    /// AO index of the block's first component.
    pub offset: usize,
    /// Number of Cartesian components (AOs) of the block.
    pub ncomp: usize,
    /// Bit `l` set for each of the block's shells.
    lmask: u32,
}

impl ShellBlock {
    /// The highest angular momentum in the block.
    fn lmax(&self) -> usize {
        (u32::BITS - 1 - self.lmask.leading_zeros()) as usize
    }
}

/// Group `basis.shells` into blocks: a shell joins the block before it
/// when it sits on the same atom and center, has the same exponents, and a
/// higher `l` than every shell already in the block.
fn shell_blocks(basis: &Basis) -> Vec<ShellBlock> {
    let same_exponents = |a: &Shell, b: &Shell| {
        a.prims.len() == b.prims.len() && a.prims.iter().zip(&b.prims).all(|(x, y)| x.exp == y.exp)
    };
    let mut blocks: Vec<ShellBlock> = Vec::new();
    for (s, sh) in basis.shells.iter().enumerate() {
        if let Some(block) = blocks.last_mut() {
            let first = &basis.shells[block.shells.start];
            if first.atom == sh.atom
                && first.center == sh.center
                && same_exponents(first, sh)
                && block.lmask >> sh.l == 0
            {
                block.shells.end = s + 1;
                block.ncomp += ncart(sh.l);
                block.lmask |= 1 << sh.l;
                continue;
            }
        }
        blocks.push(ShellBlock {
            shells: s..s + 1,
            offset: basis.shell_offsets[s],
            ncomp: ncart(sh.l),
            lmask: 1 << sh.l,
        });
    }
    blocks
}

/// Cartesian powers of every component of a block with `l` set `lmask`, in
/// component order.
fn block_components(lmask: u32) -> Vec<(usize, usize, usize)> {
    (0..u32::BITS as usize)
        .filter(|&l| lmask >> l & 1 == 1)
        .flat_map(cart_components)
        .collect()
}

/// Per component of `block`, the normalized coefficients of its shell,
/// one per primitive.
fn block_coefs(basis: &Basis, block: &ShellBlock) -> Vec<Vec<f64>> {
    basis.shells[block.shells.clone()]
        .iter()
        .flat_map(|sh| {
            cart_components(sh.l)
                .into_iter()
                .map(|powers| sh.normalized_coefs(powers))
        })
        .collect()
}

/// The Hermite terms of every Cartesian component pair of one block-pair
/// class. Component pair `c` (row-major over the two blocks' components)
/// owns `terms[start[c]..start[c + 1]]`: the [`hermite_index`] of each
/// `(t, u, v)` in its `E`-product box, ascending.
#[derive(Debug)]
struct PairClass {
    /// `lmax_a + lmax_b`, the highest Hermite order of the class.
    l: usize,
    start: Vec<usize>,
    terms: Vec<usize>,
}

impl PairClass {
    fn new(comps_a: &[(usize, usize, usize)], comps_b: &[(usize, usize, usize)]) -> Self {
        let lmax = |comps: &[(usize, usize, usize)]| {
            comps.iter().map(|c| c.0 + c.1 + c.2).max().unwrap_or(0)
        };
        let mut class = PairClass {
            l: lmax(comps_a) + lmax(comps_b),
            start: vec![0],
            terms: Vec::new(),
        };
        for pa in comps_a {
            for pb in comps_b {
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

/// One primitive pair of an ordered block pair.
#[derive(Debug, Clone, Copy)]
struct PrimPair {
    /// Total exponent `p = a + b`.
    p: f64,
    /// Gaussian product center.
    big_p: Vec3,
    /// `exp(−μ|AB|²)` prefactor used for primitive screening.
    screen: f64,
}

/// Precomputed data of one ordered block pair.
#[derive(Debug)]
struct BlockPair {
    /// Index of the pair's class in `EriEngine::classes`.
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
    blocks: Vec<ShellBlock>,
    /// Block-pair classes, `[kind_a * nkinds + kind_b]` over the distinct
    /// block `l` sets.
    classes: Vec<PairClass>,
    /// Per ordered block pair `[ba * nblocks + bb]`.
    pairs: Vec<BlockPair>,
    /// Where the ket step reads `R`: for a bra order `lb` and a ket class
    /// `kc`, `ket_r_index[lb * classes.len() + kc][h * nterms + j]` is the
    /// [`hermite_index`] of bra triple `h` plus the triple of the class's
    /// `j`-th term (`nterms` of them).
    ket_r_index: Vec<Vec<usize>>,
    /// `(−1)^{t+u+v}` per position, up to one order above a pair's.
    hermite_sign: Vec<f64>,
    /// `(t, u, v)` per position, up to one order above a pair's.
    triples: Vec<[usize; 3]>,
}

impl<'a> EriEngine<'a> {
    /// Prepare the engine: the blocks, normalization plus all block-pair
    /// Hermite tables (O(nblk²·nprim²) setup amortized over O(nblk⁴)
    /// quartets).
    pub fn new(basis: &'a Basis) -> Self {
        let blocks = shell_blocks(basis);
        // The distinct `l` sets, in order of first appearance.
        let mut kinds: Vec<u32> = Vec::new();
        for b in &blocks {
            if !kinds.contains(&b.lmask) {
                kinds.push(b.lmask);
            }
        }
        let kind_of: Vec<usize> = blocks
            .iter()
            .map(|b| kinds.iter().position(|&k| k == b.lmask).expect("listed"))
            .collect();
        let comps: Vec<Vec<(usize, usize, usize)>> =
            kinds.iter().map(|&k| block_components(k)).collect();
        let nk = kinds.len();
        let classes: Vec<PairClass> = (0..nk * nk)
            .map(|i| PairClass::new(&comps[i / nk], &comps[i % nk]))
            .collect();
        // Every Hermite triple of a pair class, in layout order, and of
        // one order more (a pair's derivative, for the Coulomb gradient).
        let lmax = blocks.iter().map(ShellBlock::lmax).max().unwrap_or(0);
        let lpair = 2 * lmax;
        let mut triples = vec![[0usize; 3]; hermite_len(lpair + 1)];
        for t in 0..=lpair + 1 {
            for u in 0..=lpair + 1 - t {
                for v in 0..=lpair + 1 - t - u {
                    triples[hermite_index(t, u, v)] = [t, u, v];
                }
            }
        }
        let coefs: Vec<Vec<Vec<f64>>> = blocks.iter().map(|b| block_coefs(basis, b)).collect();
        let nblk = blocks.len();
        let pairs: Vec<BlockPair> = (0..nblk * nblk)
            .into_par_iter()
            .map(|idx| {
                let (ba, bb) = (idx / nblk, idx % nblk);
                let (sha, shb) = (
                    &basis.shells[blocks[ba].shells.start],
                    &basis.shells[blocks[bb].shells.start],
                );
                let (la, lb) = (blocks[ba].lmax(), blocks[bb].lmax());
                let class_idx = kind_of[ba] * nk + kind_of[bb];
                let class = &classes[class_idx];
                let (comps_a, comps_b) = (&comps[kind_of[ba]], &comps[kind_of[bb]]);
                let nb = comps_b.len();
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
                        let ex = ECoefs::new(la, lb, d.x, a, b);
                        let ey = ECoefs::new(la, lb, d.y, a, b);
                        let ez = ECoefs::new(la, lb, d.z, a, b);
                        for c in 0..class.ncomp() {
                            let (ca, cb) = (c / nb, c % nb);
                            let (pwa, pwb) = (comps_a[ca], comps_b[cb]);
                            let coef = coefs[ba][ca][ia] * coefs[bb][cb][ib];
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
                BlockPair {
                    class: class_idx,
                    prims,
                    e,
                }
            })
            .collect();
        let all = &triples[..];
        let ket_r_index = (0..=lpair)
            .flat_map(|lbra| {
                classes.iter().map(move |kc| {
                    all[..hermite_len(lbra)]
                        .iter()
                        .flat_map(|h| {
                            kc.terms.iter().map(move |&k| {
                                let k = all[k];
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
            blocks,
            classes,
            pairs,
            ket_r_index,
            hermite_sign,
            triples,
        }
    }

    /// The underlying basis.
    pub fn basis(&self) -> &Basis {
        self.basis
    }

    /// The shell blocks, in basis order; every quartet index of this
    /// engine is a block index.
    pub fn blocks(&self) -> &[ShellBlock] {
        &self.blocks
    }

    /// Compute the component block of the block quartet `(ba bb | bc bd)`
    /// into `out` (resized to `[a][b][c][d]` row-major over each block's
    /// components).
    pub fn block_quartet_into(
        &self,
        ba: usize,
        bb: usize,
        bc: usize,
        bd: usize,
        scratch: &mut EriScratch,
        out: &mut Vec<f64>,
    ) {
        let nblk = self.blocks.len();
        let (bra, ket) = (&self.pairs[ba * nblk + bb], &self.pairs[bc * nblk + bd]);
        let (bra_class, ket_class) = (&self.classes[bra.class], &self.classes[ket.class]);
        let (nbra, nket) = (bra_class.ncomp(), ket_class.ncomp());
        let (bra_len, ket_len) = (bra_class.terms.len(), ket_class.terms.len());
        // Bra Hermite positions: every t+u+v ≤ lmax_a+lmax_b.
        let nh = hermite_len(bra_class.l);
        let l = bra_class.l + ket_class.l;
        let r_index = &self.ket_r_index[bra_class.l * self.classes.len() + ket.class];
        let sign = &self.hermite_sign[..nh];
        out.clear();
        out.resize(nbra * nket, 0.0);
        let EriScratch { aux, x } = scratch;
        x.resize(nket * nh, 0.0);

        for (bp, eb) in bra.prims.iter().zip(bra.e.chunks_exact(bra_len)) {
            let mut any_ket = false;
            for (kp, ek) in ket.prims.iter().zip(ket.e.chunks_exact(ket_len)) {
                if bp.screen * kp.screen < PRIM_SCREEN {
                    continue;
                }
                if !any_ket {
                    x.fill(0.0);
                    any_ket = true;
                }
                let (p, q) = (bp.p, kp.p);
                hermite_aux_into(l, p * q / (p + q), kp.big_p - bp.big_p, aux);
                let pref = TWO_PI_POW_2_5 / (p * q * (p + q).sqrt());
                for r in aux.r.iter_mut() {
                    *r *= pref;
                }
                let r = &aux.r;

                // X[c][h] += pref Σ_k E^{cd}_k R_{h+k}(Q−P).
                for (c, xc) in x.chunks_exact_mut(nh).enumerate() {
                    let span = ket_class.start[c]..ket_class.start[c + 1];
                    let ec = &ek[span.clone()];
                    for (xh, row) in xc.iter_mut().zip(r_index.chunks_exact(ket_len)) {
                        let mut s = 0.0;
                        for (&e, &i) in ec.iter().zip(&row[span.clone()]) {
                            s += e * r[i];
                        }
                        *xh += s;
                    }
                }
            }
            if !any_ket {
                continue;
            }
            // (ab|cd) += Σ_h E^{ab}_h (−1)^{|h|} X[cd][h].
            for xc in x.chunks_exact_mut(nh) {
                for (xh, &s) in xc.iter_mut().zip(sign) {
                    *xh *= s;
                }
            }
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

    /// The `R` tables [`Self::block_quartet_into`] evaluates for
    /// `(ba bb | bc bd)`: one per primitive quartet that passes
    /// [`PRIM_SCREEN`].
    pub(crate) fn quartet_r_tables(&self, ba: usize, bb: usize, bc: usize, bd: usize) -> u64 {
        let nblk = self.blocks.len();
        let (bra, ket) = (&self.pairs[ba * nblk + bb], &self.pairs[bc * nblk + bd]);
        bra.prims
            .iter()
            .map(|bp| {
                ket.prims
                    .iter()
                    .filter(|kp| bp.screen * kp.screen >= PRIM_SCREEN)
                    .count() as u64
            })
            .sum()
    }
}

/// Rows per primitive pair of [`HermiteDensities`]: the pair density
/// itself, then its derivative with respect to the first center and to the
/// second, per axis.
const DENSITY_ROWS: usize = 7;

/// The 1-D tables of [`EriEngine::hermite_densities`] hold this many
/// Hermite orders.
const MAX_1D: usize = 16;

/// A density contracted into each canonical block pair's Hermite
/// expansion: for the block pair `(A, B)` and one of its primitive pairs,
/// `G_h = Σ_{a∈A, b∈B} D_ab c_a c_b E^{ab}_h`, and the same sum with
/// `E^{ab}` replaced by its derivative with respect to `A` or `B` along
/// each axis (the raise/lower identity
/// `∂/∂A_x [x_A^i e^{−a x_A²}] = (2a x_A^{i+1} − i x_A^{i−1}) e^{−a x_A²}`,
/// one Hermite order higher). The Coulomb gradient contracts two of them
/// through one `R` table per primitive quartet, so no derivative integral
/// is ever formed.
pub(crate) struct HermiteDensities {
    /// Per block pair `ba * nblk + bb` with `ba ≥ bb` (empty otherwise):
    /// per primitive pair, in the engine's order, [`DENSITY_ROWS`] rows of
    /// `stride` values in the [`hermite_index`] layout.
    rows: Vec<Vec<f64>>,
    /// Positions up to one order above the engine's largest pair order.
    stride: usize,
    /// `sum[h * stride + k]`: the [`hermite_index`] of triple `h` plus
    /// triple `k`.
    sum: Vec<usize>,
}

impl EriEngine<'_> {
    /// `density` contracted into every canonical block pair's Hermite
    /// expansion (see [`HermiteDensities`]).
    pub(crate) fn hermite_densities(&self, density: &Mat) -> HermiteDensities {
        let nblk = self.blocks.len();
        let stride = self.triples.len();
        let sum = self
            .triples
            .iter()
            .flat_map(|h| {
                self.triples
                    .iter()
                    .map(move |k| hermite_index(h[0] + k[0], h[1] + k[1], h[2] + k[2]))
            })
            .collect();
        let rows = (0..nblk * nblk)
            .into_par_iter()
            .map(|idx| {
                let (ba, bb) = (idx / nblk, idx % nblk);
                if ba < bb {
                    return Vec::new();
                }
                self.pair_density_rows(ba, bb, density, stride)
            })
            .collect();
        HermiteDensities { rows, stride, sum }
    }

    /// The [`HermiteDensities`] rows of the block pair `(ba, bb)`.
    fn pair_density_rows(&self, ba: usize, bb: usize, density: &Mat, stride: usize) -> Vec<f64> {
        let (blk_a, blk_b) = (&self.blocks[ba], &self.blocks[bb]);
        let (sha, shb) = (
            &self.basis.shells[blk_a.shells.start],
            &self.basis.shells[blk_b.shells.start],
        );
        let (comps_a, comps_b) = (block_components(blk_a.lmask), block_components(blk_b.lmask));
        let (coefs_a, coefs_b) = (
            block_coefs(self.basis, blk_a),
            block_coefs(self.basis, blk_b),
        );
        let (la, lb) = (blk_a.lmax(), blk_b.lmax());
        assert!(la + lb < MAX_1D, "pair order {} too high", la + lb);
        let d = sha.center - shb.center;
        let nprim = sha.prims.len() * shb.prims.len();
        let mut rows = vec![0.0; nprim * DENSITY_ROWS * stride];
        let mut chunks = rows.chunks_exact_mut(DENSITY_ROWS * stride);
        for (ia, pa) in sha.prims.iter().enumerate() {
            for (ib, pb) in shb.prims.iter().enumerate() {
                let out = chunks.next().expect("one chunk per primitive pair");
                let (a, b) = (pa.exp, pb.exp);
                let e: [ECoefs; 3] =
                    std::array::from_fn(|k| ECoefs::new(la + 1, lb + 1, d[k], a, b));
                for (ca, pwa) in comps_a.iter().enumerate() {
                    for (cb, pwb) in comps_b.iter().enumerate() {
                        let w = density[(blk_a.offset + ca, blk_b.offset + cb)]
                            * coefs_a[ca][ia]
                            * coefs_b[cb][ib];
                        if w == 0.0 {
                            continue;
                        }
                        let (i, j) = ([pwa.0, pwa.1, pwa.2], [pwb.0, pwb.1, pwb.2]);
                        // Per axis: E^{ij}_t, and its derivatives by the
                        // first and the second center, one order higher.
                        let mut plain = [[0.0; MAX_1D]; 3];
                        let mut by_a = [[0.0; MAX_1D]; 3];
                        let mut by_b = [[0.0; MAX_1D]; 3];
                        for k in 0..3 {
                            let (i, j, e) = (i[k], j[k], &e[k]);
                            let lower = |n: usize, f: &dyn Fn(usize) -> f64| {
                                if n > 0 {
                                    n as f64 * f(n - 1)
                                } else {
                                    0.0
                                }
                            };
                            for t in 0..=i + j + 1 {
                                plain[k][t] = e.get(i, j, t);
                                by_a[k][t] =
                                    2.0 * a * e.get(i + 1, j, t) - lower(i, &|i| e.get(i, j, t));
                                by_b[k][t] =
                                    2.0 * b * e.get(i, j + 1, t) - lower(j, &|j| e.get(i, j, t));
                            }
                        }
                        let top: [usize; 3] = std::array::from_fn(|k| i[k] + j[k]);
                        let plain_rows = [&plain[0], &plain[1], &plain[2]];
                        add_outer(&mut out[..stride], w, plain_rows, top);
                        for k in 0..3 {
                            let mut raised = top;
                            raised[k] += 1;
                            for (row, by) in [(1 + k, &by_a), (4 + k, &by_b)] {
                                let mut f = plain_rows;
                                f[k] = &by[k];
                                add_outer(&mut out[row * stride..][..stride], w, f, raised);
                            }
                        }
                    }
                }
            }
        }
        rows
    }

    /// The derivatives of `Σ_{abcd} D_ab D_cd (ab|cd)` over the block
    /// quartet `(ba bb | bc bd)` with respect to the centers of its four
    /// blocks, from `dens` (built for `D`): the first three contract one
    /// center's derivative row with the other pair's density through one
    /// `R` table of order `L + 1` per primitive quartet; the fourth follows
    /// from translational invariance. Primitive quartets are screened as
    /// in [`Self::block_quartet_into`].
    pub(crate) fn coulomb_gradient_quartet(
        &self,
        dens: &HermiteDensities,
        [ba, bb, bc, bd]: [usize; 4],
        scratch: &mut EriScratch,
    ) -> [Vec3; 4] {
        let nblk = self.blocks.len();
        let (bra, ket) = (&self.pairs[ba * nblk + bb], &self.pairs[bc * nblk + bd]);
        let (lbra, lket) = (self.classes[bra.class].l, self.classes[ket.class].l);
        let (nb, nb1) = (hermite_len(lbra), hermite_len(lbra + 1));
        let (nk, nk1) = (hermite_len(lket), hermite_len(lket + 1));
        let stride = dens.stride;
        let chunk = DENSITY_ROWS * stride;
        let (bra_rows, ket_rows) = (&dens.rows[ba * nblk + bb], &dens.rows[bc * nblk + bd]);
        let EriScratch { aux, x } = scratch;
        x.resize(nb1 + nk1, 0.0);
        let (xs, ys) = x.split_at_mut(nb1);
        let mut g = [Vec3::ZERO; 3];
        for (bp, brow) in bra.prims.iter().zip(bra_rows.chunks_exact(chunk)) {
            for (kp, krow) in ket.prims.iter().zip(ket_rows.chunks_exact(chunk)) {
                if bp.screen * kp.screen < PRIM_SCREEN {
                    continue;
                }
                let (p, q) = (bp.p, kp.p);
                hermite_aux_into(lbra + lket + 1, p * q / (p + q), bp.big_p - kp.big_p, aux);
                let pref = TWO_PI_POW_2_5 / (p * q * (p + q).sqrt());
                let r = &aux.r;
                // X_h = Σ_k (−1)^{|k|} G^{cd}_k R_{h+k}, the ket contracted
                // for the bra's derivative rows ...
                let sign = &self.hermite_sign;
                for (h, xh) in xs.iter_mut().enumerate() {
                    let sum = &dens.sum[h * stride..];
                    let mut s = 0.0;
                    for k in 0..nk {
                        s += sign[k] * krow[k] * r[sum[k]];
                    }
                    *xh = s;
                }
                // ... and Y_k = (−1)^{|k|} Σ_h G^{ab}_h R_{h+k} for the ket's.
                for (k, yk) in ys.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for h in 0..nb {
                        s += brow[h] * r[dens.sum[h * stride + k]];
                    }
                    *yk = sign[k] * s;
                }
                // Row `r` of a primitive pair's chunk, dotted with `v`.
                let dot = |rows: &[f64], r: usize, v: &[f64]| -> f64 {
                    let row = &rows[r * stride..r * stride + v.len()];
                    row.iter().zip(v).map(|(a, b)| a * b).sum()
                };
                for axis in 0..3 {
                    g[0][axis] += pref * dot(brow, 1 + axis, xs);
                    g[1][axis] += pref * dot(brow, 4 + axis, xs);
                    g[2][axis] += pref * dot(krow, 1 + axis, ys);
                }
            }
        }
        [g[0], g[1], g[2], -(g[0] + g[1] + g[2])]
    }
}

/// `row[hermite_index(t, u, v)] += w f[0][t] f[1][u] f[2][v]` for
/// `t ≤ top[0]`, `u ≤ top[1]`, `v ≤ top[2]`.
fn add_outer(row: &mut [f64], w: f64, f: [&[f64; MAX_1D]; 3], top: [usize; 3]) {
    for t in 0..=top[0] {
        let wt = w * f[0][t];
        for u in 0..=top[1] {
            let wtu = wt * f[1][u];
            for v in 0..=top[2] {
                row[hermite_index(t, u, v)] += wtu * f[2][v];
            }
        }
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
    let nblk = engine.blocks().len();
    let quartets: Vec<([usize; 4], Vec<f64>)> = (0..nblk * nblk)
        .into_par_iter()
        .flat_map_iter(|ab| {
            let (ba, bb) = (ab / nblk, ab % nblk);
            (0..nblk).flat_map(move |bc| (0..nblk).map(move |bd| [ba, bb, bc, bd]))
        })
        .map_init(EriScratch::default, |scratch, q| {
            let mut block = Vec::new();
            engine.block_quartet_into(q[0], q[1], q[2], q[3], scratch, &mut block);
            (q, block)
        })
        .collect();
    let mut data = vec![0.0; n * n * n * n];
    for (q, block) in quartets {
        let [a, b, c, d] = q.map(|i| &engine.blocks()[i]);
        let mut values = block.iter();
        for i in a.offset..a.offset + a.ncomp {
            for j in b.offset..b.offset + b.ncomp {
                for k in c.offset..c.offset + c.ncomp {
                    for l in d.offset..d.offset + d.ncomp {
                        data[((i * n + j) * n + k) * n + l] = *values.next().expect("sized");
                    }
                }
            }
        }
    }
    EriTensor { n, data }
}

/// Schwarz screening bounds per *block pair*:
/// `Q_{AB} = max_{μ∈A,ν∈B} √|(μν|μν)|`; `|(ab|cd)| ≤ Q_{AB} Q_{CD}`. For
/// a basis of one-shell blocks (no shared exponents) this is the per-shell
/// bound.
pub fn schwarz_matrix(basis: &Basis) -> Mat {
    let engine = EriEngine::new(basis);
    schwarz_matrix_with(&engine)
}

/// As [`schwarz_matrix`] but reusing a prepared engine.
pub fn schwarz_matrix_with(engine: &EriEngine<'_>) -> Mat {
    let nblk = engine.blocks().len();
    let rows: Vec<Vec<f64>> = (0..nblk)
        .into_par_iter()
        .map_init(EriScratch::default, |scratch, ba| {
            let mut block = Vec::new();
            (0..nblk)
                .map(|bb| {
                    engine.block_quartet_into(ba, bb, ba, bb, scratch, &mut block);
                    // Component pair `ab` of the bra meets itself at
                    // `ab * nab + ab`.
                    let nab = engine.blocks()[ba].ncomp * engine.blocks()[bb].ncomp;
                    let best = (0..nab).fold(0.0f64, |m, ab| m.max(block[ab * nab + ab].abs()));
                    best.sqrt()
                })
                .collect()
        })
        .collect();
    let mut m = Mat::zeros(nblk, nblk);
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
    fn blocks_merge_shells_that_share_exponents() {
        for (name, basis, nshells, nblocks) in [
            ("water/STO-3G", Basis::sto3g(&systems::water()), 5, 4),
            ("water/6-31G", Basis::b631g(&systems::water()), 9, 7),
            ("Li2O2/STO-3G", Basis::sto3g(&systems::li2o2()), 12, 8),
            ("H2/STO-3G", Basis::sto3g(&systems::h2()), 2, 2),
        ] {
            let blocks = shell_blocks(&basis);
            assert_eq!(basis.shells.len(), nshells, "{name} shells");
            assert_eq!(blocks.len(), nblocks, "{name} blocks");
            // The blocks tile the shells and the AOs in order, and every
            // merged shell shares its block's atom and exponents.
            let mut next = (0, 0);
            for b in &blocks {
                assert_eq!((b.shells.start, b.offset), next, "{name}");
                let shells = &basis.shells[b.shells.clone()];
                let ncomp: usize = shells.iter().map(|sh| ncart(sh.l)).sum();
                assert_eq!(b.ncomp, ncomp, "{name}");
                for pair in shells.windows(2) {
                    assert_eq!(pair[0].atom, pair[1].atom, "{name}");
                    assert!(pair[0].l < pair[1].l, "{name}");
                    let exps = |sh: &liair_basis::Shell| {
                        sh.prims.iter().map(|p| p.exp).collect::<Vec<_>>()
                    };
                    assert_eq!(exps(&pair[0]), exps(&pair[1]), "{name}");
                }
                next = (b.shells.end, b.offset + b.ncomp);
            }
            assert_eq!(next, (nshells, basis.nao()), "{name}");
        }
    }

    #[test]
    fn kernel_matches_reference_contraction() {
        for (name, basis) in [
            ("water/6-31G", Basis::b631g(&systems::water())),
            ("Li2O2/STO-3G", Basis::sto3g(&systems::li2o2())),
        ] {
            let engine = EriEngine::new(&basis);
            let blocks = engine.blocks();
            let nblk = blocks.len();
            let canonical: Vec<[usize; 4]> = (0..nblk)
                .flat_map(|ba| (0..=ba).map(move |bb| (ba, bb)))
                .flat_map(|(ba, bb)| {
                    (0..=ba).flat_map(move |bc| {
                        (0..=if bc == ba { bb } else { bc }).map(move |bd| [ba, bb, bc, bd])
                    })
                })
                .collect();
            let (mut scratch, mut got) = (EriScratch::default(), Vec::new());
            let mut worst = 0.0f64;
            for &[ba, bb, bc, bd] in &canonical {
                engine.block_quartet_into(ba, bb, bc, bd, &mut scratch, &mut got);
                let q = [ba, bb, bc, bd].map(|b| &blocks[b]);
                let [_, nb, nc, nd] = q.map(|b| b.ncomp);
                assert_eq!(got.len(), q[0].ncomp * nb * nc * nd);
                // Each element is one of the reference's shell quartets.
                let mut reference = std::collections::BTreeMap::new();
                for (idx, &got) in got.iter().enumerate() {
                    let comp = [
                        idx / (nb * nc * nd),
                        idx / (nc * nd) % nb,
                        idx / nd % nc,
                        idx % nd,
                    ];
                    let aos = [0, 1, 2, 3].map(|k| q[k].offset + comp[k]);
                    let shells = aos.map(|ao| basis.aos[ao].shell);
                    let want = reference.entry(shells).or_insert_with(|| {
                        let [sa, sb, sc, sd] = shells;
                        shell_quartet_reference(&basis, sa, sb, sc, sd)
                    });
                    let n = shells.map(|s| ncart(basis.shells[s].l));
                    let c = [0, 1, 2, 3].map(|k| aos[k] - basis.shell_offsets[shells[k]]);
                    let want = want[((c[0] * n[1] + c[1]) * n[2] + c[2]) * n[3] + c[3]];
                    let err = (got - want).abs();
                    worst = worst.max(err / want.abs().max(1e-3));
                    assert!(
                        err <= 1e-12 * want.abs() || err <= 1e-15,
                        "{name} shells {shells:?}, AOs {aos:?}: {got:e} vs {want:e}"
                    );
                }
            }
            eprintln!(
                "{name}: {} canonical block quartets, worst scaled error {worst:e}",
                canonical.len()
            );
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
        let nblk = engine.blocks().len();
        let (mut scratch, mut block) = (EriScratch::default(), Vec::new());
        for sa in 0..nblk {
            for sb in 0..nblk {
                for sc in 0..nblk {
                    for sd in 0..nblk {
                        engine.block_quartet_into(sa, sb, sc, sd, &mut scratch, &mut block);
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
}
