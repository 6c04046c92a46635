//! Integral-direct Coulomb (J) and exchange (K) matrix builds.
//!
//! `J_{μν} = Σ_{λσ} (μν|λσ) D_{λσ}` and `K_{μν} = Σ_{λσ} (μλ|νσ) D_{λσ}`.
//!
//! The build runs over the ERI engine's shell blocks
//! ([`EriEngine::blocks`]: shells of one atom that share exponents, such as
//! STO-3G's 2s+2p) and exploits the full 8-fold permutational symmetry:
//! block quartets are enumerated canonically (`ba ≥ bb`, `bc ≥ bd`,
//! `pair(ba,bb) ≥ pair(bc,bd)`), Schwarz-screened, computed once, and each
//! canonical AO element is scattered into J and K over its (deduplicated)
//! permutation orbit; the J-only builds, for callers that discard K (RKS,
//! an SCF whose exchange comes from elsewhere), skip the K scatter and
//! nothing else. Parallelism is rayon over fixed groups of bra block
//! pairs, dealt once per basis by LPT (longest processing time first) on
//! each pair's `R`-table count at the SCF's Schwarz threshold: each group
//! fills its own J/K partial, and the partials are added in group order,
//! so the result is bit-identical at every thread count.

use crate::eri::{schwarz_matrix_with, EriEngine, EriScratch, ShellBlock};
use liair_basis::Basis;
use liair_math::Mat;
use rayon::prelude::*;
use std::cmp::Reverse;

/// Build `(J, K)` for a symmetric AO density matrix. `screen` is the
/// Schwarz threshold below which quartets are skipped; `0.0` disables
/// screening.
pub fn build_jk(basis: &Basis, density: &Mat, screen: f64) -> (Mat, Mat) {
    JkBuilder::new(basis).build(density, screen)
}

/// Caches the integral engine, the Schwarz bounds and the task groups so
/// repeated Fock builds (every SCF iteration) pay the setup cost once.
pub struct JkBuilder<'a> {
    engine: EriEngine<'a>,
    /// Schwarz bounds per block pair.
    schwarz: Mat,
    /// The bra block pairs `(ba, bb)`, `ba ≥ bb`, of each group, ascending.
    groups: Vec<Vec<(usize, usize)>>,
}

impl<'a> JkBuilder<'a> {
    /// Prepare for a basis.
    pub fn new(basis: &'a Basis) -> Self {
        let engine = EriEngine::new(basis);
        let schwarz = schwarz_matrix_with(&engine);
        let groups = deal_tasks(&engine, &schwarz);
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
    /// direct-SCF trick.
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

    /// J, and K when `WITH_K` (else K is 0 × 0). Skipping K changes
    /// neither the quartets computed nor the order J accumulates in.
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
    /// block pairs, in task order.
    fn fold_group<const WITH_K: bool>(
        &self,
        tasks: &[(usize, usize)],
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
        for &(ba, bb) in tasks {
            let qab = q[(ba, bb)];
            for (bc, bd) in kets(ba, bb) {
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
                self.engine
                    .block_quartet_into(ba, bb, bc, bd, scratch, block);
                scatter_block::<WITH_K>(
                    self.engine.blocks(),
                    density,
                    &mut jloc,
                    &mut kloc,
                    block,
                    [ba, bb, bc, bd],
                );
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

/// The Schwarz threshold the task costs are estimated at: the SCF's
/// default. It only balances the groups; a build at any threshold computes
/// the same J/K from them.
const DEAL_SCREEN: f64 = 1e-11;

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

/// Scatter one computed block-quartet result into the J accumulator, and
/// into the K one when `WITH_K`, using per-element canonical filtering
/// plus orbit deduplication.
fn scatter_block<const WITH_K: bool>(
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
                    let candidates = [
                        (i, jj, kk, ll),
                        (jj, i, kk, ll),
                        (i, jj, ll, kk),
                        (jj, i, ll, kk),
                        (kk, ll, i, jj),
                        (ll, kk, i, jj),
                        (kk, ll, jj, i),
                        (ll, kk, jj, i),
                    ];
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

    #[test]
    fn jk_bits_do_not_depend_on_thread_count() {
        // A hydrogen chain with more shells than groups, so that groups
        // fold several bra shells (3 a₀ apart, most quartets screen out).
        let mut chain = liair_basis::Molecule::new();
        for i in 0..JK_GROUPS + 9 {
            chain.push(
                liair_basis::Element::H,
                liair_math::Vec3::new(3.0 * i as f64, 0.0, 0.0),
            );
        }
        for mol in [systems::water(), systems::li2o2(), chain] {
            let basis = Basis::sto3g(&mol);
            let builder = JkBuilder::new(&basis);
            let d = test_density(basis.nao(), 11);
            let on = |threads: usize| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| builder.build(&d, 1e-11))
            };
            let (j1, k1) = on(1);
            for threads in 2..=4 {
                let (j, k) = on(threads);
                for (name, a, b) in [("J", &j, &j1), ("K", &k, &k1)] {
                    let differ = (0..basis.nao())
                        .flat_map(|r| (0..basis.nao()).map(move |c| (r, c)))
                        .filter(|&rc| a[rc].to_bits() != b[rc].to_bits())
                        .count();
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
        let builder = JkBuilder::new(&basis);
        assert_eq!((basis.shells.len(), builder.engine.blocks().len()), (9, 6));
        let tasks: Vec<(usize, usize)> = builder.groups.iter().flatten().copied().collect();
        assert_eq!(tasks.len(), 21, "every block pair is one task");
        let quartets: usize = tasks.iter().map(|&(a, b)| kets(a, b).count()).sum();
        assert_eq!(quartets, 231, "canonical block quartets before screening");

        // One build at the SCF's threshold, on one thread: 16,429 `R`
        // tables, one per primitive quartet of a surviving block quartet
        // (the per-shell kernel evaluated 78,624).
        let d = test_density(basis.nao(), 29);
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let total = one.install(|| {
            r_tables_of(|| {
                builder.build(&d, 1e-11);
            })
        });
        assert_eq!(total, 16_429);
        // The dealing's cost model counts exactly these, group by group.
        let (mut scratch, mut block) = (EriScratch::default(), Vec::new());
        let mut sum = 0;
        for tasks in &builder.groups {
            let counted = r_tables_of(|| {
                builder.fold_group::<true>(tasks, &d, 1e-11, None, &mut scratch, &mut block);
            });
            let modelled: u64 = tasks
                .iter()
                .map(|&t| task_r_tables(&builder.engine, &builder.schwarz, t, DEAL_SCREEN))
                .sum();
            assert_eq!(counted, modelled);
            sum += counted;
        }
        assert_eq!(sum, total);
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
            let builder = JkBuilder::new(&basis);
            assert_eq!(builder.groups.len(), JK_GROUPS);
            let per_group: Vec<u64> = builder
                .groups
                .iter()
                .map(|tasks| {
                    tasks
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
