//! Integral-direct Coulomb (J) and exchange (K) matrix builds.
//!
//! `J_{μν} = Σ_{λσ} (μν|λσ) D_{λσ}` and `K_{μν} = Σ_{λσ} (μλ|νσ) D_{λσ}`.
//!
//! The build exploits the full 8-fold permutational symmetry: shell
//! quartets are enumerated canonically (`sa ≥ sb`, `sc ≥ sd`,
//! `pair(sa,sb) ≥ pair(sc,sd)`), Schwarz-screened, computed once, and each
//! canonical AO element is scattered into J and K over its (deduplicated)
//! permutation orbit; the J-only builds, for callers that discard K (RKS,
//! an SCF whose exchange comes from elsewhere), skip the K scatter and
//! nothing else. Parallelism is rayon over fixed groups of bra shells:
//! each group fills its own J/K partial, and the partials are added in
//! group order, so the result is bit-identical at every thread count.

use crate::eri::{schwarz_matrix_with, EriEngine, EriScratch};
use liair_basis::shell::ncart;
use liair_basis::Basis;
use liair_math::Mat;
use rayon::prelude::*;

/// Build `(J, K)` for a symmetric AO density matrix. `screen` is the
/// Schwarz threshold below which quartets are skipped; `0.0` disables
/// screening.
pub fn build_jk(basis: &Basis, density: &Mat, screen: f64) -> (Mat, Mat) {
    let engine = EriEngine::new(basis);
    let q = schwarz_matrix_with(&engine);
    build_jk_inner::<true>(&engine, &q, density, screen, None)
}

/// Caches the integral engine and Schwarz bounds so repeated Fock builds
/// (every SCF iteration) pay the setup cost once.
pub struct JkBuilder<'a> {
    engine: EriEngine<'a>,
    schwarz: Mat,
}

impl<'a> JkBuilder<'a> {
    /// Prepare for a basis.
    pub fn new(basis: &'a Basis) -> Self {
        let engine = EriEngine::new(basis);
        let schwarz = schwarz_matrix_with(&engine);
        Self { engine, schwarz }
    }

    /// Build `(J, K)` for a density.
    pub fn build(&self, density: &Mat, screen: f64) -> (Mat, Mat) {
        build_jk_inner::<true>(&self.engine, &self.schwarz, density, screen, None)
    }

    /// J alone, for a caller that has no use for the analytic K: the
    /// quartets and the J accumulation of [`Self::build`], without the K
    /// scatter, so the result is bit-equal to `build(..).0`.
    pub fn build_j(&self, density: &Mat, screen: f64) -> Mat {
        build_jk_inner::<false>(&self.engine, &self.schwarz, density, screen, None).0
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
        let dmax = shell_pair_density_max(self.engine.basis(), density);
        build_jk_inner::<true>(&self.engine, &self.schwarz, density, screen, Some(&dmax))
    }

    /// J alone from [`Self::build_density_screened`]'s quartets (the
    /// screen still weighs the K pairings), bit-equal to its `.0`.
    pub fn build_j_density_screened(&self, density: &Mat, screen: f64) -> Mat {
        let dmax = shell_pair_density_max(self.engine.basis(), density);
        build_jk_inner::<false>(&self.engine, &self.schwarz, density, screen, Some(&dmax)).0
    }
}

/// Per-shell-pair `max |D|` over the corresponding AO block.
fn shell_pair_density_max(basis: &Basis, density: &Mat) -> Mat {
    let nsh = basis.shells.len();
    let mut m = Mat::zeros(nsh, nsh);
    for sa in 0..nsh {
        let (oa, na) = (basis.shell_offsets[sa], ncart(basis.shells[sa].l));
        for sb in 0..nsh {
            let (ob, nb) = (basis.shell_offsets[sb], ncart(basis.shells[sb].l));
            let mut mx = 0.0f64;
            for i in oa..oa + na {
                for j in ob..ob + nb {
                    mx = mx.max(density[(i, j)].abs());
                }
            }
            m[(sa, sb)] = mx;
        }
    }
    m
}

/// The bra shells are dealt round-robin into at most this many groups, and
/// each group folds its shells serially into one J/K partial. The grouping
/// depends on the shell count alone, so the bits do not depend on the
/// thread count, and at most this many partial pairs are alive at once
/// however large the basis.
const JK_GROUPS: usize = 32;

/// J, and K when `WITH_K` (else K is 0 × 0). Skipping K changes neither
/// the quartets computed nor the order J accumulates in.
fn build_jk_inner<const WITH_K: bool>(
    engine: &EriEngine<'_>,
    q: &Mat,
    density: &Mat,
    screen: f64,
    dmax: Option<&Mat>,
) -> (Mat, Mat) {
    let basis = engine.basis();
    let n = basis.nao();
    assert_eq!(density.nrows(), n);
    assert_eq!(density.ncols(), n);
    let nk = if WITH_K { n } else { 0 };
    let nsh = basis.shells.len();
    let pair_idx = |a: usize, b: usize| a * (a + 1) / 2 + b; // requires a ≥ b

    let groups = nsh.min(JK_GROUPS);
    let partials: Vec<(Mat, Mat)> = (0..groups)
        .into_par_iter()
        .map_init(
            || (EriScratch::default(), Vec::new()),
            |(scratch, block), g| {
                let mut jloc = Mat::zeros(n, n);
                let mut kloc = Mat::zeros(nk, nk);
                for sa in (g..nsh).step_by(groups) {
                    for sb in 0..=sa {
                        let qab = q[(sa, sb)];
                        let ab = pair_idx(sa, sb);
                        for sc in 0..=sa {
                            let sd_max = if sc == sa { sb } else { sc };
                            for sd in 0..=sd_max {
                                debug_assert!(pair_idx(sc, sd) <= ab);
                                let bound = qab * q[(sc, sd)];
                                // Density weighting covers every block the
                                // quartet reads through J (D_ab, D_cd) or K
                                // (the four cross pairings).
                                let weight = match dmax {
                                    None => 1.0,
                                    Some(dm) => dm[(sa, sb)]
                                        .max(dm[(sc, sd)])
                                        .max(dm[(sa, sc)])
                                        .max(dm[(sa, sd)])
                                        .max(dm[(sb, sc)])
                                        .max(dm[(sb, sd)]),
                                };
                                if bound * weight < screen {
                                    continue;
                                }
                                engine.shell_quartet_into(sa, sb, sc, sd, scratch, block);
                                scatter_block::<WITH_K>(
                                    basis, density, &mut jloc, &mut kloc, block, sa, sb, sc, sd,
                                );
                            }
                        }
                    }
                }
                (jloc, kloc)
            },
        )
        .collect();
    // Summed in group order, so the association of the sum — and the bits
    // — do not depend on how many threads computed the partials.
    let (mut j, mut k) = (Mat::zeros(n, n), Mat::zeros(nk, nk));
    for (jp, kp) in &partials {
        j.axpy(1.0, jp);
        k.axpy(1.0, kp);
    }
    (j, k)
}

/// Scatter one computed shell-quartet block into the J accumulator, and
/// into the K one when `WITH_K`, using per-element canonical filtering
/// plus orbit deduplication.
#[allow(clippy::too_many_arguments)]
fn scatter_block<const WITH_K: bool>(
    basis: &Basis,
    density: &Mat,
    jloc: &mut Mat,
    kloc: &mut Mat,
    block: &[f64],
    sa: usize,
    sb: usize,
    sc: usize,
    sd: usize,
) {
    let (oa, ob, oc, od) = (
        basis.shell_offsets[sa],
        basis.shell_offsets[sb],
        basis.shell_offsets[sc],
        basis.shell_offsets[sd],
    );
    let (na, nb, nc, nd) = (
        ncart(basis.shells[sa].l),
        ncart(basis.shells[sb].l),
        ncart(basis.shells[sc].l),
        ncart(basis.shells[sd].l),
    );
    // Component-level canonical filters apply only where shells coincide —
    // that is exactly where the 8-fold orbit folds back into this block.
    let same_bra = sa == sb;
    let same_ket = sc == sd;
    let same_pairs = (sa, sb) == (sc, sd);
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
    use liair_basis::systems;

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
