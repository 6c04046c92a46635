//! Integral-direct Coulomb (J) and exchange (K) matrix builds.
//!
//! `J_{μν} = Σ_{λσ} (μν|λσ) D_{λσ}` and `K_{μν} = Σ_{λσ} (μλ|νσ) D_{λσ}`.
//!
//! The build runs over the ERI engine's shell blocks
//! ([`EriEngine::blocks`]: shells of one atom that share exponents, such as
//! STO-3G's 2s+2p) and exploits the full 8-fold permutational symmetry:
//! block quartets are enumerated canonically (`ba ≥ bb`, `bc ≥ bd`,
//! `pair(ba,bb) ≥ pair(bc,bd)`), Schwarz-screened, and each canonical AO
//! element is scattered into J and K over its (deduplicated) permutation
//! orbit; the J-only builds, for callers that discard K (RKS, an SCF whose
//! exchange comes from elsewhere), skip the K scatter and nothing else.
//! Parallelism is rayon over fixed groups of bra block pairs, dealt once
//! per basis by LPT (longest processing time first) on each pair's
//! `R`-table count at the SCF's Schwarz threshold: each group fills its own
//! J/K partial, and the partials are added in group order, so the result
//! is bit-identical at every thread count.
//!
//! The geometry and the basis, hence every `(ab|cd)`, are fixed for a
//! [`JkBuilder`]'s life (one SCF), so it evaluates each quartet that passes
//! the dealing threshold once, in [`JkBuilder::new`], and every build
//! replays the stored values (semi-direct SCF). A build computes a quartet
//! only when the store does not hold it: below the store threshold, under
//! a density weight above 1, or past the store's word budget. The stored
//! values are the kernel's own bits, so a replayed build is bit-equal to
//! one that computes every quartet.
//!
//! [`JkBuilder::coulomb_gradient`] walks the same groups, tasks and
//! Schwarz screen for the nuclear gradient of `½ Tr(D J(D))`; it stores
//! nothing and builds no J.

use crate::eri::{schwarz_matrix_with, EriEngine, EriScratch, ShellBlock};
use liair_basis::Basis;
use liair_math::{Mat, Vec3};
use rayon::prelude::*;
use std::cmp::Reverse;

/// Build `(J, K)` for a symmetric AO density matrix. `screen` is the
/// Schwarz threshold below which quartets are skipped; `0.0` disables
/// screening. One build stores nothing: each quartet is computed once
/// either way.
pub fn build_jk(basis: &Basis, density: &Mat, screen: f64) -> (Mat, Mat) {
    JkBuilder::with_budget(basis, 0).build(density, screen)
}

/// Caches the integral engine, the Schwarz bounds, the task groups and
/// the screened quartets' values, so repeated Fock builds (every SCF
/// iteration) pay the integral evaluation once.
pub struct JkBuilder<'a> {
    engine: EriEngine<'a>,
    /// Schwarz bounds per block pair.
    schwarz: Mat,
    groups: Vec<Group>,
}

/// One task group: its bra block pairs and the values of the quartets it
/// stores.
struct Group {
    /// The bra block pairs `(ba, bb)`, `ba ≥ bb`, ascending.
    tasks: Vec<(usize, usize)>,
    /// One entry per canonical quartet of `tasks`, in fold order: the
    /// offset of its values in `values`, or [`NOT_STORED`].
    offsets: Vec<u32>,
    /// The stored quartets' values back to back, exactly sized.
    values: Vec<f64>,
}

impl<'a> JkBuilder<'a> {
    /// Prepare for a basis, evaluating and storing every canonical block
    /// quartet whose Schwarz bound passes the SCF's default threshold
    /// (1e-11), up to 2²⁴ values.
    pub fn new(basis: &'a Basis) -> Self {
        Self::with_budget(basis, STORE_WORDS)
    }

    /// As [`Self::new`], storing at most `budget` values: the quartets are
    /// taken in fold order over the groups, and one that does not fit the
    /// budget left is computed in every build instead.
    fn with_budget(basis: &'a Basis, budget: usize) -> Self {
        debug_assert!(budget <= STORE_WORDS, "offsets must fit a u32");
        let engine = EriEngine::new(basis);
        let schwarz = schwarz_matrix_with(&engine);
        let mut left = budget;
        let (mut groups, lens): (Vec<Group>, Vec<usize>) = deal_tasks(&engine, &schwarz)
            .into_iter()
            .map(|tasks| {
                let (mut offsets, mut len) = (Vec::new(), 0);
                for &(ba, bb) in &tasks {
                    for (bc, bd) in kets(ba, bb) {
                        let words = quartet_words(engine.blocks(), [ba, bb, bc, bd]);
                        let stored =
                            schwarz[(ba, bb)] * schwarz[(bc, bd)] >= DEAL_SCREEN && words <= left;
                        offsets.push(if stored {
                            left -= words;
                            len += words;
                            u32::try_from(len - words).expect("offsets below the budget fit")
                        } else {
                            NOT_STORED
                        });
                    }
                }
                let group = Group {
                    tasks,
                    offsets,
                    values: Vec::new(),
                };
                (group, len)
            })
            .unzip();
        let values: Vec<Vec<f64>> = (0..groups.len())
            .into_par_iter()
            .map_init(
                || (EriScratch::default(), Vec::new()),
                |(scratch, block), g| fill_group(&engine, &groups[g], lens[g], scratch, block),
            )
            .collect();
        for (group, values) in groups.iter_mut().zip(values) {
            group.values = values;
        }
        Self {
            engine,
            schwarz,
            groups,
        }
    }

    /// Build `(J, K)` for a density.
    pub fn build(&self, density: &Mat, screen: f64) -> (Mat, Mat) {
        self.build_inner::<true>(density, screen, None)
    }

    /// J alone, for a caller that has no use for the analytic K: the
    /// quartets and the J accumulation of [`Self::build`], without the K
    /// scatter, so the result is bit-equal to `build(..).0`.
    pub fn build_j(&self, density: &Mat, screen: f64) -> Mat {
        self.build_inner::<false>(density, screen, None).0
    }

    /// As [`Self::build`], additionally weighting the Schwarz bound by the
    /// largest density element a quartet can touch: quartets with
    /// `q_ab·q_cd·max|D|_block < screen` are skipped. For a full density
    /// this matches [`Self::build`] to the screening tolerance; the payoff
    /// is **difference densities** (`ΔD = D_n − D_{n−1}` of consecutive
    /// SCF iterations), which shrink toward convergence and let the
    /// screening drop almost every quartet — the standard incremental
    /// direct-SCF trick. With the quartets stored, what it drops is
    /// scatter work; a block maximum above 1 can admit quartets below the
    /// store threshold, which are computed.
    pub fn build_density_screened(&self, density: &Mat, screen: f64) -> (Mat, Mat) {
        let dmax = block_pair_density_max(self.engine.blocks(), density);
        self.build_inner::<true>(density, screen, Some(&dmax))
    }

    /// J alone from [`Self::build_density_screened`]'s quartets (the
    /// screen still weighs the K pairings), bit-equal to its `.0`.
    pub fn build_j_density_screened(&self, density: &Mat, screen: f64) -> Mat {
        let dmax = block_pair_density_max(self.engine.blocks(), density);
        self.build_inner::<false>(density, screen, Some(&dmax)).0
    }

    /// The gradient of the Coulomb energy `E_J = ½ Tr(D J(D)) =
    /// ½ Σ D_μν D_λσ (μν|λσ)` with respect to each of the `natoms` nuclei
    /// the basis sits on. It runs over the quartets [`Self::build_j`]
    /// reads at `screen` (the same groups, tasks and Schwarz screen) and
    /// contracts each block quartet's derivatives with `Γ = ½ D_μν D_λσ`
    /// as it goes, through `density` contracted into each block pair's
    /// Hermite expansion: no derivative integral is formed or stored. A
    /// canonical block quartet stands for its whole permutation orbit, so
    /// it is weighted by the orbit's size. The group partials are summed
    /// in group order, so the bits do not depend on the thread count.
    pub fn coulomb_gradient(&self, density: &Mat, screen: f64, natoms: usize) -> Vec<Vec3> {
        let basis = self.engine.basis();
        assert_eq!(density.nrows(), basis.nao());
        let dens = self.engine.hermite_densities(density);
        let blocks = self.engine.blocks();
        let atom_of: Vec<usize> = blocks
            .iter()
            .map(|b| basis.shells[b.shells.start].atom)
            .collect();
        let q = &self.schwarz;
        let partials: Vec<Vec<Vec3>> = (0..self.groups.len())
            .into_par_iter()
            .map_init(EriScratch::default, |scratch, g| {
                let mut grad = vec![Vec3::ZERO; natoms];
                for &(ba, bb) in &self.groups[g].tasks {
                    for (bc, bd) in kets(ba, bb) {
                        if q[(ba, bb)] * q[(bc, bd)] < screen {
                            continue;
                        }
                        let quartet = [ba, bb, bc, bd];
                        let coincide = [ba == bb, bc == bd, (ba, bb) == (bc, bd)];
                        let orbit_size = 8 >> coincide.iter().filter(|&&c| c).count();
                        let weight = 0.5 * orbit_size as f64;
                        let d = self
                            .engine
                            .coulomb_gradient_quartet(&dens, quartet, scratch);
                        for (b, dv) in quartet.into_iter().zip(d) {
                            grad[atom_of[b]] += dv * weight;
                        }
                    }
                }
                grad
            })
            .collect();
        let mut grad = vec![Vec3::ZERO; natoms];
        for partial in &partials {
            for (g, p) in grad.iter_mut().zip(partial) {
                *g += *p;
            }
        }
        grad
    }

    /// J, and K when `WITH_K` (else K is 0 × 0). Skipping K changes
    /// neither the quartets read nor the order J accumulates in.
    fn build_inner<const WITH_K: bool>(
        &self,
        density: &Mat,
        screen: f64,
        dmax: Option<&Mat>,
    ) -> (Mat, Mat) {
        let n = self.engine.basis().nao();
        assert_eq!(density.nrows(), n);
        assert_eq!(density.ncols(), n);
        let nk = if WITH_K { n } else { 0 };
        let partials: Vec<(Mat, Mat)> = (0..self.groups.len())
            .into_par_iter()
            .map_init(
                || (EriScratch::default(), Vec::new()),
                |(scratch, block), g| {
                    self.fold_group::<WITH_K>(
                        &self.groups[g],
                        density,
                        screen,
                        dmax,
                        scratch,
                        block,
                    )
                },
            )
            .collect();
        // Summed in group order, so the association of the sum — and the
        // bits — do not depend on how many threads computed the partials.
        let (mut j, mut k) = (Mat::zeros(n, n), Mat::zeros(nk, nk));
        for (jp, kp) in &partials {
            j.axpy(1.0, jp);
            k.axpy(1.0, kp);
        }
        (j, k)
    }

    /// The J/K partial of one group: the canonical quartets of its bra
    /// block pairs, in task order, each replayed from the store or, when
    /// the store does not hold it, computed.
    fn fold_group<const WITH_K: bool>(
        &self,
        group: &Group,
        density: &Mat,
        screen: f64,
        dmax: Option<&Mat>,
        scratch: &mut EriScratch,
        block: &mut Vec<f64>,
    ) -> (Mat, Mat) {
        let n = density.nrows();
        let nk = if WITH_K { n } else { 0 };
        let (mut jloc, mut kloc) = (Mat::zeros(n, n), Mat::zeros(nk, nk));
        let q = &self.schwarz;
        let blocks = self.engine.blocks();
        let mut offsets = group.offsets.iter();
        for &(ba, bb) in &group.tasks {
            let qab = q[(ba, bb)];
            for (bc, bd) in kets(ba, bb) {
                let offset = *offsets.next().expect("one offset per quartet");
                let bound = qab * q[(bc, bd)];
                // Density weighting covers every block the quartet reads
                // through J (D_ab, D_cd) or K (the four cross pairings).
                let weight = match dmax {
                    None => 1.0,
                    Some(dm) => dm[(ba, bb)]
                        .max(dm[(bc, bd)])
                        .max(dm[(ba, bc)])
                        .max(dm[(ba, bd)])
                        .max(dm[(bb, bc)])
                        .max(dm[(bb, bd)]),
                };
                if bound * weight < screen {
                    continue;
                }
                let quartet = [ba, bb, bc, bd];
                let values = if offset == NOT_STORED {
                    self.engine
                        .block_quartet_into(ba, bb, bc, bd, scratch, block);
                    &block[..]
                } else {
                    let start = offset as usize;
                    &group.values[start..start + quartet_words(blocks, quartet)]
                };
                scatter_block::<WITH_K>(blocks, density, &mut jloc, &mut kloc, values, quartet);
            }
        }
        (jloc, kloc)
    }
}

/// The canonical kets `(bc, bd)` of the bra block pair `(ba, bb)`:
/// `bc ≥ bd` and `pair(bc, bd) ≤ pair(ba, bb)`.
fn kets(ba: usize, bb: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..=ba).flat_map(move |bc| (0..=if bc == ba { bb } else { bc }).map(move |bd| (bc, bd)))
}

/// Per-block-pair `max |D|` over the corresponding AO block.
fn block_pair_density_max(blocks: &[ShellBlock], density: &Mat) -> Mat {
    let nblk = blocks.len();
    let mut m = Mat::zeros(nblk, nblk);
    for (ba, a) in blocks.iter().enumerate() {
        for (bb, b) in blocks.iter().enumerate() {
            let mut mx = 0.0f64;
            for i in a.offset..a.offset + a.ncomp {
                for j in b.offset..b.offset + b.ncomp {
                    mx = mx.max(density[(i, j)].abs());
                }
            }
            m[(ba, bb)] = mx;
        }
    }
    m
}

/// The bra block pairs are dealt into at most this many groups, and each
/// group folds its tasks serially into one J/K partial. The dealing
/// depends on the basis and its Schwarz bounds alone, so the bits do not
/// depend on the thread count, and at most this many partial pairs are
/// alive at once however large the basis.
const JK_GROUPS: usize = 32;

/// The Schwarz threshold the task costs are estimated at and the store's:
/// the SCF's default. A build at this threshold or above, under density
/// weights of at most 1, replays stored quartets only; a build at any
/// threshold computes the same J/K.
const DEAL_SCREEN: f64 = 1e-11;

/// The values one builder stores at most (128 MiB). PC·Li₂O₂/STO-3G, the
/// largest system here, stores 1.21 M; the quartets past the budget are
/// computed in every build.
const STORE_WORDS: usize = 1 << 24;

/// The offset of a quartet the store does not hold.
const NOT_STORED: u32 = u32::MAX;

// Every offset below the budget is representable and distinct from the mark.
const _: () = assert!(STORE_WORDS < NOT_STORED as usize);

/// The values of the block quartet `(ba bb | bc bd)`: the product of its
/// blocks' component counts.
fn quartet_words(blocks: &[ShellBlock], quartet: [usize; 4]) -> usize {
    quartet.iter().map(|&b| blocks[b].ncomp).product()
}

/// The `len` values of the quartets `group` stores, in fold order, in a
/// vector of exactly that length.
fn fill_group(
    engine: &EriEngine<'_>,
    group: &Group,
    len: usize,
    scratch: &mut EriScratch,
    block: &mut Vec<f64>,
) -> Vec<f64> {
    let mut values = Vec::with_capacity(len);
    let mut offsets = group.offsets.iter();
    for &(ba, bb) in &group.tasks {
        for (bc, bd) in kets(ba, bb) {
            if *offsets.next().expect("one offset per quartet") != NOT_STORED {
                engine.block_quartet_into(ba, bb, bc, bd, scratch, block);
                values.extend_from_slice(block);
            }
        }
    }
    debug_assert_eq!(values.len(), len);
    values
}

/// The `R` tables of one bra block-pair task at the Schwarz threshold
/// `screen`, without density weighting: the dealing's cost estimate.
fn task_r_tables(engine: &EriEngine<'_>, q: &Mat, (ba, bb): (usize, usize), screen: f64) -> u64 {
    kets(ba, bb)
        .filter(|&(bc, bd)| q[(ba, bb)] * q[(bc, bd)] >= screen)
        .map(|(bc, bd)| engine.quartet_r_tables(ba, bb, bc, bd))
        .sum()
}

/// Deal every bra block pair into at most [`JK_GROUPS`] groups by LPT:
/// tasks in decreasing `R`-table count (ties by position) each go to the
/// least-loaded group so far (ties to the lowest group).
fn deal_tasks(engine: &EriEngine<'_>, q: &Mat) -> Vec<Vec<(usize, usize)>> {
    let nblk = engine.blocks().len();
    let tasks: Vec<(usize, usize)> = (0..nblk)
        .flat_map(|a| (0..=a).map(move |b| (a, b)))
        .collect();
    let cost: Vec<u64> = tasks
        .iter()
        .map(|&t| task_r_tables(engine, q, t, DEAL_SCREEN))
        .collect();
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&t| (Reverse(cost[t]), t));
    let ngroups = tasks.len().min(JK_GROUPS);
    let (mut load, mut groups) = (vec![0u64; ngroups], vec![Vec::new(); ngroups]);
    for t in order {
        let g = (0..ngroups)
            .min_by_key(|&g| (load[g], g))
            .expect("a task means a group");
        load[g] += cost[t];
        groups[g].push(tasks[t]);
    }
    for group in &mut groups {
        group.sort_unstable();
    }
    groups
}

/// Scatter one block-quartet result into the J accumulator, and
/// into the K one when `WITH_K`. Where no two blocks of the quartet
/// coincide (`ba ≠ bb`, `bc ≠ bd`, `(ba, bb) ≠ (bc, bd)`), every element's
/// 8 permutations are distinct AO quadruples and are all scattered;
/// otherwise [`scatter_block_coincident`] filters and deduplicates. The
/// order of the updates is the same either way.
fn scatter_block<const WITH_K: bool>(
    blocks: &[ShellBlock],
    density: &Mat,
    jloc: &mut Mat,
    kloc: &mut Mat,
    block: &[f64],
    quartet: [usize; 4],
) {
    let [ba, bb, bc, bd] = quartet;
    if ba == bb || bc == bd || (ba, bb) == (bc, bd) {
        scatter_block_coincident::<WITH_K>(blocks, density, jloc, kloc, block, quartet);
        return;
    }
    let [oa, ob, oc, od] = quartet.map(|b| blocks[b].offset);
    let [na, nb, nc, nd] = quartet.map(|b| blocks[b].ncomp);
    let mut values = block.iter();
    for i in oa..oa + na {
        for jj in ob..ob + nb {
            for kk in oc..oc + nc {
                for ll in od..od + nd {
                    let v = *values.next().expect("one value per element");
                    if v == 0.0 {
                        continue;
                    }
                    for (p, qx, r, s) in orbit(i, jj, kk, ll) {
                        jloc[(p, qx)] += v * density[(r, s)];
                        if WITH_K {
                            kloc[(p, r)] += v * density[(qx, s)];
                        }
                    }
                }
            }
        }
    }
}

/// The 8 permutations of `(i j | k l)` that leave a real ERI unchanged, in
/// the order both scatters update them.
fn orbit(i: usize, j: usize, k: usize, l: usize) -> [(usize, usize, usize, usize); 8] {
    [
        (i, j, k, l),
        (j, i, k, l),
        (i, j, l, k),
        (j, i, l, k),
        (k, l, i, j),
        (l, k, i, j),
        (k, l, j, i),
        (l, k, j, i),
    ]
}

/// [`scatter_block`] for a quartet with coinciding blocks: per-element
/// canonical filtering plus orbit deduplication.
fn scatter_block_coincident<const WITH_K: bool>(
    blocks: &[ShellBlock],
    density: &Mat,
    jloc: &mut Mat,
    kloc: &mut Mat,
    block: &[f64],
    [ba, bb, bc, bd]: [usize; 4],
) {
    let [oa, ob, oc, od] = [ba, bb, bc, bd].map(|b| blocks[b].offset);
    let [na, nb, nc, nd] = [ba, bb, bc, bd].map(|b| blocks[b].ncomp);
    // Component-level canonical filters apply only where blocks coincide —
    // that is exactly where the 8-fold orbit folds back into this block.
    let same_bra = ba == bb;
    let same_ket = bc == bd;
    let same_pairs = (ba, bb) == (bc, bd);
    for ca in 0..na {
        let i = oa + ca;
        for cb in 0..nb {
            let jj = ob + cb;
            if same_bra && cb > ca {
                continue;
            }
            for cc in 0..nc {
                let kk = oc + cc;
                for cd in 0..nd {
                    let ll = od + cd;
                    if same_ket && cd > cc {
                        continue;
                    }
                    if same_pairs && (cc, cd) > (ca, cb) {
                        continue;
                    }
                    let v = block[((ca * nb + cb) * nc + cc) * nd + cd];
                    if v == 0.0 {
                        continue;
                    }
                    // Deduplicated permutation orbit of (i j | k l).
                    let candidates = orbit(i, jj, kk, ll);
                    let mut seen: [(usize, usize, usize, usize); 8] = [(usize::MAX, 0, 0, 0); 8];
                    let mut nseen = 0;
                    for tup in candidates {
                        if seen[..nseen].contains(&tup) {
                            continue;
                        }
                        seen[nseen] = tup;
                        nseen += 1;
                        let (p, qx, r, s) = tup;
                        // Quartet read as (pq|rs):
                        jloc[(p, qx)] += v * density[(r, s)];
                        if WITH_K {
                            kloc[(p, r)] += v * density[(qx, s)];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eri::eri_tensor;
    use crate::hermite::R_TABLES;
    use liair_basis::{systems, Element, Molecule};
    use liair_math::Vec3;

    /// Reference J/K from the dense tensor.
    fn jk_reference(basis: &Basis, d: &Mat) -> (Mat, Mat) {
        let eri = eri_tensor(basis);
        let n = basis.nao();
        let mut j = Mat::zeros(n, n);
        let mut k = Mat::zeros(n, n);
        for mu in 0..n {
            for nu in 0..n {
                let mut jv = 0.0;
                let mut kv = 0.0;
                for lam in 0..n {
                    for sig in 0..n {
                        jv += eri.get(mu, nu, lam, sig) * d[(lam, sig)];
                        kv += eri.get(mu, lam, nu, sig) * d[(lam, sig)];
                    }
                }
                j[(mu, nu)] = jv;
                k[(mu, nu)] = kv;
            }
        }
        (j, k)
    }

    fn test_density(n: usize, seed: u64) -> Mat {
        let mut rng = liair_math::rng::SplitMix64::new(seed);
        let mut d = Mat::zeros(n, n);
        for i in 0..n {
            for jj in 0..=i {
                let v = rng.next_f64() - 0.5;
                d[(i, jj)] = v;
                d[(jj, i)] = v;
            }
        }
        d
    }

    #[test]
    fn direct_matches_tensor_reference() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let d = test_density(basis.nao(), 5);
        let (j, k) = build_jk(&basis, &d, 0.0);
        let (jr, kr) = jk_reference(&basis, &d);
        assert!(
            j.sub(&jr).fro_norm() < 1e-10,
            "J err {}",
            j.sub(&jr).fro_norm()
        );
        assert!(
            k.sub(&kr).fro_norm() < 1e-10,
            "K err {}",
            k.sub(&kr).fro_norm()
        );
    }

    #[test]
    fn direct_matches_reference_on_lithium_system() {
        // Li2O2 exercises third-row-free but multi-shell atoms and the
        // canonical-orbit digestion across equal-shell corner cases.
        let mol = systems::li2o2();
        let basis = Basis::sto3g(&mol);
        let d = test_density(basis.nao(), 17);
        let (j, k) = build_jk(&basis, &d, 0.0);
        let (jr, kr) = jk_reference(&basis, &d);
        assert!(
            j.sub(&jr).fro_norm() < 1e-9,
            "J err {}",
            j.sub(&jr).fro_norm()
        );
        assert!(
            k.sub(&kr).fro_norm() < 1e-9,
            "K err {}",
            k.sub(&kr).fro_norm()
        );
    }

    #[test]
    fn screening_perturbs_little() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let d = test_density(basis.nao(), 8);
        let (j0, k0) = build_jk(&basis, &d, 0.0);
        let (j1, k1) = build_jk(&basis, &d, 1e-9);
        assert!(j0.sub(&j1).fro_norm() < 1e-6);
        assert!(k0.sub(&k1).fro_norm() < 1e-6);
    }

    #[test]
    fn density_screened_build_matches_plain_build() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let builder = JkBuilder::new(&basis);
        let d = test_density(basis.nao(), 3);
        let (j0, k0) = builder.build(&d, 1e-11);
        let (j1, k1) = builder.build_density_screened(&d, 1e-11);
        assert!(j0.sub(&j1).fro_norm() < 1e-8);
        assert!(k0.sub(&k1).fro_norm() < 1e-8);
        // A small difference density (the incremental-Fock workload):
        // screened result still matches the unscreened reference to the
        // tolerance, even though the density weighting now drops most
        // quartets.
        let delta = d.scale(1e-7);
        let (jd, kd) = builder.build_density_screened(&delta, 1e-11);
        let (jr, kr) = build_jk(&basis, &delta, 0.0);
        assert!(jd.sub(&jr).fro_norm() < 1e-9, "{}", jd.sub(&jr).fro_norm());
        assert!(kd.sub(&kr).fro_norm() < 1e-9, "{}", kd.sub(&kr).fro_norm());
    }

    #[test]
    fn j_only_builds_are_bit_equal_to_the_j_of_jk_builds() {
        for mol in [systems::h2(), systems::lih(), systems::water()] {
            let basis = Basis::sto3g(&mol);
            let builder = JkBuilder::new(&basis);
            let d = test_density(basis.nao(), 23);
            // Blocks spanning nine decades, so the screen drops some
            // quartets on their J pairings alone and keeps them for K's.
            let delta = Mat::from_fn(d.nrows(), d.ncols(), |i, j| {
                d[(i, j)] * 1e-4 * 10f64.powi(-(((i * j) % 9) as i32))
            });
            for (name, j, jk) in [
                (
                    "full",
                    builder.build_j(&d, 1e-11),
                    builder.build(&d, 1e-11).0,
                ),
                (
                    "density-screened",
                    builder.build_j_density_screened(&delta, 1e-11),
                    builder.build_density_screened(&delta, 1e-11).0,
                ),
            ] {
                assert!(
                    j.as_slice()
                        .iter()
                        .zip(jk.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{} {name}: J differs",
                    mol.formula()
                );
            }
        }
    }

    /// The hydrogen chain of the thread-count and oracle tests: more
    /// blocks than groups, so that groups fold several bra blocks (3 a₀
    /// apart, most quartets screen out).
    fn h_chain() -> Molecule {
        let mut chain = Molecule::new();
        for i in 0..JK_GROUPS + 9 {
            chain.push(Element::H, Vec3::new(3.0 * i as f64, 0.0, 0.0));
        }
        chain
    }

    /// Run `f` under a pool of `threads` threads.
    fn on<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    /// The elements of `a` whose bits differ from `b`'s.
    fn bits_differ(a: &Mat, b: &Mat) -> usize {
        assert_eq!((a.nrows(), a.ncols()), (b.nrows(), b.ncols()));
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count()
    }

    #[test]
    fn jk_bits_do_not_depend_on_thread_count() {
        for mol in [systems::water(), systems::li2o2(), h_chain()] {
            let basis = Basis::sto3g(&mol);
            let d = test_density(basis.nao(), 11);
            // The store is filled under one pool and replayed under
            // another: both the fill and the builds deal by group.
            let (made_on_1, made_on_4) = (
                on(1, || JkBuilder::new(&basis)),
                on(4, || JkBuilder::new(&basis)),
            );
            let (j1, k1) = on(1, || made_on_1.build(&d, 1e-11));
            let replays = (2..=4)
                .map(|threads| (threads, &made_on_1))
                .chain([(1, &made_on_4)]);
            for (threads, builder) in replays {
                let (j, k) = on(threads, || builder.build(&d, 1e-11));
                for (name, a, b) in [("J", &j, &j1), ("K", &k, &k1)] {
                    let differ = bits_differ(a, b);
                    assert_eq!(
                        differ,
                        0,
                        "{}: {differ} {name} elements differ at {threads} threads",
                        mol.formula()
                    );
                }
            }
        }
    }

    /// The compute-every-quartet build: every quartet that passes the
    /// screen is evaluated by the kernel, folded over `builder`'s groups
    /// in task order and summed in group order, and the store is never
    /// read. Every quartet takes the deduplicating scatter, so the stored
    /// builds' direct scatter of quartets without coinciding blocks is
    /// checked against it too.
    fn oracle_build(
        builder: &JkBuilder<'_>,
        density: &Mat,
        screen: f64,
        dmax: Option<&Mat>,
    ) -> (Mat, Mat) {
        let n = density.nrows();
        let (q, blocks) = (&builder.schwarz, builder.engine.blocks());
        let (mut scratch, mut block) = (EriScratch::default(), Vec::new());
        let (mut j, mut k) = (Mat::zeros(n, n), Mat::zeros(n, n));
        for group in &builder.groups {
            let (mut jloc, mut kloc) = (Mat::zeros(n, n), Mat::zeros(n, n));
            for &(ba, bb) in &group.tasks {
                for (bc, bd) in kets(ba, bb) {
                    let weight = dmax.map_or(1.0, |dm| {
                        dm[(ba, bb)]
                            .max(dm[(bc, bd)])
                            .max(dm[(ba, bc)])
                            .max(dm[(ba, bd)])
                            .max(dm[(bb, bc)])
                            .max(dm[(bb, bd)])
                    });
                    if q[(ba, bb)] * q[(bc, bd)] * weight < screen {
                        continue;
                    }
                    builder
                        .engine
                        .block_quartet_into(ba, bb, bc, bd, &mut scratch, &mut block);
                    scatter_block_coincident::<true>(
                        blocks,
                        density,
                        &mut jloc,
                        &mut kloc,
                        &block,
                        [ba, bb, bc, bd],
                    );
                }
            }
            j.axpy(1.0, &jloc);
            k.axpy(1.0, &kloc);
        }
        (j, k)
    }

    /// The values `builder` stores.
    fn stored_words(builder: &JkBuilder<'_>) -> usize {
        builder.groups.iter().map(|g| g.values.len()).sum()
    }

    #[test]
    fn stored_builds_are_bit_equal_to_the_compute_every_quartet_oracle() {
        // `R` tables the stored builds compute under a large ΔD and under
        // a half budget, summed over the molecules: each path is taken.
        let mut past_store = (0, 0);
        for mol in [systems::water(), systems::li2o2(), h_chain()] {
            let basis = Basis::sto3g(&mol);
            let full = JkBuilder::new(&basis);
            let words = stored_words(&full);
            assert!(words > 0, "{}: nothing stored", mol.formula());
            let half = JkBuilder::with_budget(&basis, words / 2);
            let none = JkBuilder::with_budget(&basis, 0);
            assert!(stored_words(&half) <= words / 2);
            assert_eq!(stored_words(&none), 0);
            let d = test_density(basis.nao(), 31);
            // A difference density whose blocks span nine decades, and one
            // whose block maxima run to the hundreds, so that the density
            // weight lets quartets below the store threshold through (the
            // chain's bounds of 1e-13 to 1e-12).
            let small = Mat::from_fn(d.nrows(), d.ncols(), |i, j| {
                d[(i, j)] * 1e-4 * 10f64.powi(-(((i * j) % 9) as i32))
            });
            let large = d.scale(1e3);
            let blocks = full.engine.blocks();
            // The ways past the store: a weight above 1 (where some
            // quartets fall below the store threshold) and a half budget.
            on(1, || {
                past_store.0 += r_tables_of(|| {
                    full.build_density_screened(&large, 1e-11);
                });
                past_store.1 += r_tables_of(|| {
                    half.build(&d, 1e-11);
                });
            });
            // At `screen = 0.0` every quartet passes, density-weighted or
            // not, so the plain build covers that threshold. The partial
            // stores replay the cases where they differ from the full one.
            let cases = [
                ("D", &d, 1e-11, false, true),
                ("D", &d, 1e-11, true, false),
                ("small ΔD", &small, 1e-11, true, false),
                ("large ΔD", &large, 1e-11, true, true),
                ("D", &d, 0.0, false, false),
            ];
            for (dname, delta, screen, screened, partial) in cases {
                let dmax = screened.then(|| block_pair_density_max(blocks, delta));
                // The parent's J-only build was bit-equal to the J of its
                // J/K build, so one oracle serves both.
                let (jr, kr) = oracle_build(&full, delta, screen, dmax.as_ref());
                let builders = [("full", &full), ("half", &half), ("none", &none)];
                for (budget, builder) in &builders[..if partial { 3 } else { 1 }] {
                    let ((j, k), j_only) = if screened {
                        (
                            builder.build_density_screened(delta, screen),
                            builder.build_j_density_screened(delta, screen),
                        )
                    } else {
                        (builder.build(delta, screen), builder.build_j(delta, screen))
                    };
                    for (name, a, b) in [("J", &j, &jr), ("K", &k, &kr), ("J-only", &j_only, &jr)] {
                        let differ = bits_differ(a, b);
                        assert_eq!(
                            differ,
                            0,
                            "{} {budget} store, {dname} at {screen:e} (density-screened: \
                             {screened}): {differ} {name} elements differ",
                            mol.formula()
                        );
                    }
                }
            }
        }
        assert!(past_store.0 > 0 && past_store.1 > 0, "{past_store:?}");
    }

    /// `R` tables `f` evaluates on this thread.
    fn r_tables_of(f: impl FnOnce()) -> u64 {
        R_TABLES.with(|n| n.set(0));
        f();
        R_TABLES.with(std::cell::Cell::get)
    }

    #[test]
    fn work_counts_of_one_build_are_exact() {
        // Linear Li₂O/STO-3G at r(Li–O) = 1.62 Å, the benchmark's SCF
        // molecule: 9 shells (1,035 canonical shell quartets) make 6
        // blocks, since every 2s shares its exponents with the 2p.
        let mut mol = Molecule::new();
        for (element, x) in [(Element::O, 0.0), (Element::Li, 1.62), (Element::Li, -1.62)] {
            mol.push(element, Vec3::new(x, 0.0, 0.0) * liair_basis::ANGSTROM);
        }
        let basis = Basis::sto3g(&mol);
        // Everything on this thread, where the `R` tables are counted.
        on(1, || {
            let schwarz = r_tables_of(|| {
                schwarz_matrix_with(&EriEngine::new(&basis));
            });
            let mut built = None;
            let new = r_tables_of(|| built = Some(JkBuilder::new(&basis)));
            let builder = built.expect("built");
            assert_eq!((basis.shells.len(), builder.engine.blocks().len()), (9, 6));
            let tasks: Vec<(usize, usize)> = builder
                .groups
                .iter()
                .flat_map(|g| g.tasks.iter().copied())
                .collect();
            assert_eq!(tasks.len(), 21, "every block pair is one task");
            let quartets: usize = tasks.iter().map(|&(a, b)| kets(a, b).count()).sum();
            assert_eq!(quartets, 231, "canonical block quartets before screening");

            // The store's fill evaluates 16,429 `R` tables, one per
            // primitive quartet of a block quartet that passes the SCF's
            // threshold (the per-shell kernel evaluated 78,624 per build),
            // into 10,364 values.
            assert_eq!(new - schwarz, 16_429);
            assert_eq!(stored_words(&builder), 10_364);
            // Every build at the SCF's threshold or above then replays.
            let d = test_density(basis.nao(), 29);
            for screen in [1e-11, 1e-9] {
                let replayed = r_tables_of(|| {
                    builder.build(&d, screen);
                    builder.build_j(&d, screen);
                    builder.build_density_screened(&d, screen);
                    builder.build_j_density_screened(&d, screen);
                });
                assert_eq!(replayed, 0, "at {screen:e}");
            }
            // The dealing's cost model counts the fill exactly, group by
            // group.
            let (mut scratch, mut block) = (EriScratch::default(), Vec::new());
            let mut sum = 0;
            for group in &builder.groups {
                let counted = r_tables_of(|| {
                    fill_group(
                        &builder.engine,
                        group,
                        group.values.len(),
                        &mut scratch,
                        &mut block,
                    );
                });
                let modelled: u64 = group
                    .tasks
                    .iter()
                    .map(|&t| task_r_tables(&builder.engine, &builder.schwarz, t, DEAL_SCREEN))
                    .sum();
                assert_eq!(counted, modelled);
                sum += counted;
            }
            assert_eq!(sum, new - schwarz);
        });
    }

    #[test]
    fn lpt_groups_split_the_r_tables_evenly_over_two_halves() {
        // Two threads run the first and the second contiguous half of the
        // groups; the larger half's `R` tables bound the speed-up. Bra
        // shells dealt round-robin, without blocks, read 1.73 (PC·Li₂O₂)
        // and 1.69 (DME·Li₂O₂).
        for solvent in [systems::Solvent::PropyleneCarbonate, systems::Solvent::Dme] {
            let mol = systems::li2o2_complex(solvent, 3.6);
            let basis = Basis::sto3g(&mol);
            // The groups alone: nothing stored.
            let builder = JkBuilder::with_budget(&basis, 0);
            assert_eq!(builder.groups.len(), JK_GROUPS);
            let per_group: Vec<u64> = builder
                .groups
                .iter()
                .map(|group| {
                    group
                        .tasks
                        .iter()
                        .map(|&t| task_r_tables(&builder.engine, &builder.schwarz, t, DEAL_SCREEN))
                        .sum()
                })
                .collect();
            let (first, second) = per_group.split_at(JK_GROUPS / 2);
            let (first, second): (u64, u64) = (first.iter().sum(), second.iter().sum());
            let bound = (first + second) as f64 / first.max(second) as f64;
            assert!(bound >= 1.85, "{}: split bound {bound:.3}", mol.formula());
            // LPT evens out every group, not only the two halves (dealt
            // round-robin by block pair, the busiest group holds 1.25–1.3×
            // the mean).
            let busiest = *per_group.iter().max().expect("32 groups") as f64;
            let mean = (first + second) as f64 / JK_GROUPS as f64;
            assert!(
                busiest <= 1.02 * mean,
                "{}: busiest group {:.3}× the mean",
                mol.formula(),
                busiest / mean
            );
        }
    }

    /// `f` at `mol` with atom `atom` moved by `h` along `axis`.
    fn displaced<R>(
        mol: &Molecule,
        atom: usize,
        axis: usize,
        h: f64,
        f: impl Fn(&Molecule) -> R,
    ) -> R {
        let mut m = mol.clone();
        m.atoms[atom].pos[axis] += h;
        f(&m)
    }

    #[test]
    fn coulomb_gradient_matches_finite_differences_and_sums_to_zero() {
        // E_J = ½ Tr(D J(D)) at a fixed AO density, differenced over the
        // nuclei the basis moves with; water/6-31G has two sp blocks on O
        // and split s shells on H.
        let water = systems::water();
        for (mol, basis_of) in [
            (systems::lih(), Basis::sto3g as fn(&Molecule) -> Basis),
            (water.clone(), Basis::sto3g),
            (water, Basis::b631g),
        ] {
            let basis = basis_of(&mol);
            let d = test_density(basis.nao(), 41);
            let grad = JkBuilder::new(&basis).coulomb_gradient(&d, 0.0, mol.natoms());
            let e_j = |m: &Molecule| {
                let b = basis_of(m);
                0.5 * d.trace_product(&build_jk(&b, &d, 0.0).0)
            };
            let h = 1e-4;
            for atom in 0..mol.natoms() {
                for axis in 0..3 {
                    let fd = (displaced(&mol, atom, axis, h, e_j)
                        - displaced(&mol, atom, axis, -h, e_j))
                        / (2.0 * h);
                    let got = grad[atom][axis];
                    assert!(
                        (got - fd).abs() < 1e-7,
                        "{} atom {atom} axis {axis}: {got:.12e} vs FD {fd:.12e}",
                        mol.formula()
                    );
                }
            }
            let total = grad.iter().fold(Vec3::ZERO, |a, g| a + *g);
            assert!(total.norm() < 1e-12, "{}: Σ = {total:?}", mol.formula());
        }
    }

    #[test]
    fn coulomb_gradient_bits_do_not_depend_on_thread_count() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let d = test_density(basis.nao(), 43);
        let builder = JkBuilder::new(&basis);
        let one = on(1, || builder.coulomb_gradient(&d, 1e-11, 3));
        for threads in 2..=4 {
            let g = on(threads, || builder.coulomb_gradient(&d, 1e-11, 3));
            for (a, b) in g.iter().zip(&one) {
                assert!(
                    (0..3).all(|k| a[k].to_bits() == b[k].to_bits()),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn j_and_k_symmetric_for_symmetric_density() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let d = test_density(basis.nao(), 2);
        let (j, k) = build_jk(&basis, &d, 0.0);
        assert!(j.asymmetry() < 1e-10);
        assert!(k.asymmetry() < 1e-10);
    }

    #[test]
    fn coulomb_energy_positive_for_psd_density() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let n = basis.nao();
        let c = [0.5, 0.5];
        let mut d = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                d[(i, j)] = c[i] * c[j];
            }
        }
        let (j, k) = build_jk(&basis, &d, 0.0);
        assert!(d.trace_product(&j) > 0.0);
        assert!(d.trace_product(&k) > 0.0);
    }
}
