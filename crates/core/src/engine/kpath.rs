//! The K-operator stage of the engine: the exchange operator of the
//! occupied orbitals, built from the energy path's orbital-pair task and
//! compressed as Lin's adaptively compressed exchange (ACE, J. Chem.
//! Theory Comput. 12, 2242, 2016), on any
//! [`ExecBackend`](super::ExecBackend), with its nuclear gradient.
//!
//! A K build runs over the pairs `(i ≤ j)` of the screened [`PairList`]
//! of the occupied orbitals (localized first when ε > 0, every pair when
//! ε = 0). Each pair solves `v_ij = Poisson[ψ_i ψ_j]` once; its item holds
//! `8·nao` words: `⟨χ_μ|ψ_j v_ij⟩` and, off the diagonal, `⟨χ_μ|ψ_i v_ij⟩`
//! for every AO (`2·nao`), then the projections of the same two fields
//! onto `∇χ_μ` (`3·nao` each). Summed in canonical pair order the first
//! give `B_μi = ⟨χ_μ|W_i⟩` with `W_i = Σ_j ψ_j v_ij`, that is `B = K C`,
//! and with `M = Cᵀ B` the operator `K = B M⁻¹ Bᵀ` equals `Σ_j (μj|jν)`
//! on the occupied space — the only space `FDS − SDF` and `tr(DK)` apply
//! it to. It is symmetric by construction and its diagonal is a sum of
//! squares. The second give the gradient of `E_x = −Σ_ij (ij|ij)` at
//! fixed AO coefficients, `∂E_x/∂R_A = 4 Σ_i Σ_{μ∈A} C_μi ⟨∇χ_μ|W_i⟩`
//! (the AOs move with their atoms, the grid does not), from the same
//! Poisson solves. The from-scratch build and the incremental one
//! (`crate::incremental`) share [`ace_operator`], so with canonical-order
//! items on every backend the rayon build, the message-passing build and
//! the incremental build with `eps_inc = 0` are bit-identical.
//!
//! The AO fields and their per-axis factors are the caller's
//! [`BasisOnGrid`], evaluated once per geometry; a build evaluates only
//! its orbital fields from them, and never an AO gradient field.

use super::{BuildProfile, ExchangeEngine, HfxScratch, PairWork};
use crate::error::{Error, Result};
use crate::screening::{source_pairs, OrbitalInfo, Pair, PairList};
use liair_basis::Basis;
use liair_grid::{orbitals_from_aos, KernelTimings, PoissonSolver, RealGrid, SeparableAos};
use liair_math::linalg::eigh;
use liair_math::{simd, Mat, Vec3};
use std::time::Instant;

/// A basis evaluated on a grid: the AO fields every K build at one
/// geometry shares, so the SCF iterations there evaluate the basis once,
/// and their per-axis factors, which the gradient projections contract.
pub struct BasisOnGrid<'a> {
    pub(crate) basis: &'a Basis,
    pub(crate) grid: &'a RealGrid,
    pub(crate) aos: Vec<Vec<f64>>,
    factors: SeparableAos,
    /// The atom of each AO.
    ao_atom: Vec<usize>,
}

impl<'a> BasisOnGrid<'a> {
    /// Evaluate `basis` (in the grid's box frame) on `grid`.
    pub fn new(basis: &'a Basis, grid: &'a RealGrid) -> Self {
        let factors = SeparableAos::new(basis, grid);
        BasisOnGrid {
            basis,
            grid,
            aos: factors.values(),
            factors,
            ao_atom: basis
                .aos
                .iter()
                .map(|ao| basis.shells[ao.shell].atom)
                .collect(),
        }
    }

    /// Atoms the basis is centered on (one past the largest atom index).
    fn natoms(&self) -> usize {
        self.ao_atom.iter().max().map_or(0, |&a| a + 1)
    }
}

/// The orbitals a K build runs on, shared by the from-scratch and
/// incremental builds.
pub(crate) struct KBuildSetup<'a> {
    pub(crate) fields: &'a BasisOnGrid<'a>,
    /// Their coefficients (`nao × nocc`): the occupied block, localized
    /// when ε > 0. K is invariant under rotations within the occupied
    /// space.
    pub(crate) c: Mat,
    /// The same orbitals on the grid.
    pub(crate) orbitals: Vec<Vec<f64>>,
    /// Localization centers and spreads; with ε = 0 nothing is screened
    /// and every record is the placeholder `(0, 1)`.
    pub(crate) infos: Vec<OrbitalInfo>,
}

impl KBuildSetup<'_> {
    pub(crate) fn nao(&self) -> usize {
        self.fields.aos.len()
    }

    /// The screened pair list of this build: ε drops pairs whose
    /// Gaussian-overlap bound falls below it (open boundaries: the box of
    /// a K build holds an isolated molecule).
    pub(crate) fn pairs(&self, eps: f64) -> PairList {
        source_pairs(&self.infos, eps, None)
    }

    /// Negate the orbital fields marked in `flipped`, so that each
    /// matches the sign its cached pair items were computed with.
    pub(crate) fn align(&mut self, flipped: &[bool]) {
        for (i, _) in flipped.iter().enumerate().filter(|(_, &f)| f) {
            self.orbitals[i].iter_mut().for_each(|v| *v = -*v);
        }
    }
}

/// Evaluate the orbital fields and screening metadata for a K build.
///
/// Canonical orbitals are delocalized and unscreenable, so when screening
/// is on we localize first (exactly what the paper's scheme does each
/// step).
pub(crate) fn k_build_setup<'a>(
    fields: &'a BasisOnGrid<'a>,
    c_occ: &Mat,
    nocc: usize,
    eps: f64,
) -> KBuildSetup<'a> {
    let nao = fields.aos.len();
    assert_eq!(c_occ.nrows(), nao);
    assert!(nocc <= c_occ.ncols());
    let (c, infos) = if eps > 0.0 {
        let loc = liair_grid::foster_boys(fields.basis, c_occ, nocc, 60);
        let infos = loc
            .centers
            .iter()
            .zip(&loc.spreads)
            .map(|(&center, &s)| OrbitalInfo {
                center,
                spread: s.max(0.3),
            })
            .collect();
        (loc.c_loc, infos)
    } else {
        let placeholder = OrbitalInfo {
            center: Vec3::ZERO,
            spread: 1.0,
        };
        (
            Mat::from_fn(nao, nocc, |mu, k| c_occ[(mu, k)]),
            vec![placeholder; nocc],
        )
    };
    let orbitals = orbitals_from_aos(&fields.aos, &c, nocc);
    KBuildSetup {
        fields,
        c,
        orbitals,
        infos,
    }
}

/// Words per K item for `nao` AOs: two AO projections and two
/// AO-gradient projections.
pub(crate) fn k_item_width(nao: usize) -> usize {
    8 * nao
}

/// The K path's work item as [`ExchangeEngine::execute`] takes it: item
/// `t` is pair `pairs[t]`, its [`k_item_width`] words the AO projections
/// of `ψ_j v_ij` and, off the diagonal, of `ψ_i v_ij` (`nao` each), then
/// the same two fields projected onto the AO gradients (`3·nao` each,
/// `x, y, z` per AO). A pure function of the pair, like the energy path's.
pub(super) fn k_pair_item<'p>(
    grid: &RealGrid,
    solver: &'p PoissonSolver,
    setup: &'p KBuildSetup<'p>,
    pairs: &'p [Pair],
) -> impl Fn(&mut HfxScratch, usize, &mut [f64]) -> (KernelTimings, usize) + Send + Sync + 'p {
    let (fields, orbitals) = (setup.fields, &setup.orbitals);
    let (npts, dvol, nao) = (grid.len(), grid.dvol(), setup.nao());
    move |sc, t, out| {
        let grew = sc.ensure(npts) as usize;
        let (i, j) = (pairs[t].i as usize, pairs[t].j as usize);
        let HfxScratch { rho, ws } = sc;
        simd::mul_into(rho, &orbitals[i], &orbitals[j]);
        let v = solver.solve_into(rho, ws);
        let (values, grads) = out.split_at_mut(2 * nao);
        let (to_i, to_j) = values.split_at_mut(nao);
        let (grad_i, grad_j) = grads.split_at_mut(3 * nao);
        // `rho` is free once `v` is solved: it holds `ψ v` for each half.
        let mut project = |psi: &[f64], dst: &mut [f64], grad: &mut [f64]| {
            simd::mul_into(rho, psi, v);
            for (d, ao) in dst.iter_mut().zip(&fields.aos) {
                *d = ao.iter().zip(rho.iter()).map(|(a, w)| a * w).sum::<f64>() * dvol;
            }
            fields.factors.gradient_projections(rho, grad);
            grad.iter_mut().for_each(|g| *g *= dvol);
        };
        project(&orbitals[j], to_i, grad_i);
        if i == j {
            to_j.fill(0.0);
            grad_j.fill(0.0);
        } else {
            project(&orbitals[i], to_j, grad_j);
        }
        (ws.take_timings(), grew)
    }
}

/// Assemble the ACE operator and the exchange gradient from the pair
/// items of orbitals with coefficients `c` (`nao × nocc`) on `fields`,
/// `items[t]` belonging to `pairs.pairs[t]`: `B` and the per-atom
/// `Σ C_μi ⟨∇χ_μ|·⟩` summed in canonical pair order, `M = cᵀ B`
/// decomposed by [`eigh`] (which averages `M` with its transpose),
/// `K = (B V Λ^{-1/2}) (B V Λ^{-1/2})ᵀ`. An eigenvalue of `M` at or below
/// zero is [`Error::IndefiniteExchange`]. The reduce time goes into
/// `profile`, which the outcome carries.
pub(crate) fn ace_operator<'i>(
    fields: &BasisOnGrid,
    c: &Mat,
    pairs: &PairList,
    items: impl Iterator<Item = &'i [f64]>,
    mut profile: BuildProfile,
) -> Result<KBuildOutcome> {
    let t0 = Instant::now();
    let (nao, nocc) = (c.nrows(), c.ncols());
    let mut b = Mat::zeros(nao, nocc);
    let mut gradient = vec![Vec3::ZERO; fields.natoms()];
    for (p, item) in pairs.pairs.iter().zip(items) {
        let (i, j) = (p.i as usize, p.j as usize);
        let (values, grads) = item.split_at(2 * nao);
        let halves = [(i, &values[..nao], &grads[..3 * nao])];
        let other = (i != j).then_some((j, &values[nao..], &grads[3 * nao..]));
        for (col, to, grad) in halves.into_iter().chain(other) {
            for mu in 0..nao {
                b[(mu, col)] += to[mu];
                let g = Vec3::new(grad[3 * mu], grad[3 * mu + 1], grad[3 * mu + 2]);
                gradient[fields.ao_atom[mu]] += g * c[(mu, col)];
            }
        }
    }
    // ∂E_x/∂R_A = 4 Σ_i Σ_{μ∈A} C_μi ⟨∇χ_μ|W_i⟩.
    gradient.iter_mut().for_each(|g| *g = *g * 4.0);
    let (vals, vecs) = eigh(&c.transpose().matmul(&b));
    if let Some(&eigenvalue) = vals.first().filter(|&&l| l <= 0.0) {
        return Err(Error::IndefiniteExchange { eigenvalue });
    }
    let mut xi = b.matmul(&vecs);
    for (k, l) in vals.iter().enumerate() {
        let f = 1.0 / l.sqrt();
        for mu in 0..nao {
            xi[(mu, k)] *= f;
        }
    }
    let k = xi.matmul(&xi.transpose());
    profile.t_reduce_s += t0.elapsed().as_secs_f64();
    Ok(KBuildOutcome {
        k,
        gradient,
        profile,
    })
}

/// Output of [`ExchangeEngine::k_operator`].
#[derive(Debug, Clone)]
pub struct KBuildOutcome {
    /// The exchange operator: `Σ_j (μj|jν)` on the occupied space, as
    /// ACE `B M⁻¹ Bᵀ`.
    pub k: Mat,
    /// Per atom, `∂E_x/∂R_A` of `E_x = −tr(Cᵀ K C) = −Σ_ij (ij|ij)` at
    /// fixed AO coefficients `C` (those `K` was assembled with): the AOs
    /// move with their atoms, the grid stays, so the atoms' gradients do
    /// not sum to zero (the egg-box effect of a fixed grid). In Hartree
    /// per Bohr, one entry per atom the basis is centered on.
    pub gradient: Vec<Vec3>,
    /// Per-phase instrumentation and pair counts of this build: of the
    /// `nocc(nocc+1)/2` orbital pairs, `pairs_computed` ran a Poisson
    /// solve, `pairs_reused` came from an incremental cache and
    /// `pairs_screened` were dropped by the ε screen.
    pub profile: BuildProfile,
}

impl ExchangeEngine<'_> {
    /// Build the AO-basis exchange operator on the configured backend.
    ///
    /// `fields` is the basis evaluated on this engine's grid; `c_occ`
    /// holds the occupied MO coefficients (`nao × nocc`) in that same
    /// (box-centered) basis; `eps` drops orbital pairs whose
    /// Gaussian-overlap bound falls below it (localizing first when
    /// `eps > 0`). Unrecovered communication failures and an occupied
    /// exchange matrix that is not positive come back as typed errors.
    pub fn k_operator(
        &self,
        fields: &BasisOnGrid,
        c_occ: &Mat,
        nocc: usize,
        eps: f64,
    ) -> Result<KBuildOutcome> {
        assert_eq!(fields.grid, self.grid, "fields evaluated on another grid");
        let mut profile = BuildProfile::default();
        let t_ao = Instant::now();
        let setup = k_build_setup(fields, c_occ, nocc, eps);
        profile.t_ao_eval_s += t_ao.elapsed().as_secs_f64();
        let pairs = setup.pairs(eps);
        let items = self.pair_contribs(PairWork::Operator(&setup), &pairs.pairs, &mut profile)?;
        profile.bytes_reduced += std::mem::size_of_val(&items[..]);
        profile.count_pairs(&pairs, pairs.len(), 0);
        let items = items.chunks_exact(k_item_width(setup.nao()));
        ace_operator(fields, &setup.c, &pairs, items, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::BalanceStrategy;
    use crate::engine::ExecBackend;
    use liair_basis::{systems, Cell, Molecule};
    use liair_scf::{rhf, ScfOptions, ScfResult};

    /// Converged RHF of `mol`, and a copy of the molecule centered in a
    /// cubic box of `edge` Bohr.
    fn in_box(mol: Molecule, edge: f64) -> (ScfResult, Molecule) {
        let scf = rhf(&mol, &Basis::sto3g(&mol), &ScfOptions::default());
        let mut mol_c = mol.clone();
        mol_c.translate(Vec3::splat(edge / 2.0) - mol.centroid());
        (scf, mol_c)
    }

    /// The retired `(j, ν)` column build, kept as the oracle of the ACE
    /// operator: one Poisson solve per (occupied `j`, AO `ν`) and
    /// `K_μν = Σ_j ⟨χ_μ ψ_j | v_jν⟩`, unsymmetrized.
    fn column_oracle(
        fields: &BasisOnGrid,
        solver: &PoissonSolver,
        c_occ: &Mat,
        nocc: usize,
    ) -> Mat {
        let setup = k_build_setup(fields, c_occ, nocc, 0.0);
        let (aos, nao) = (&fields.aos, setup.nao());
        let dvol = fields.grid.dvol();
        let mut sc = HfxScratch::default();
        sc.ensure(fields.grid.len());
        let mut k = Mat::zeros(nao, nao);
        for psi in &setup.orbitals {
            for nu in 0..nao {
                simd::mul_into(&mut sc.rho, psi, &aos[nu]);
                let v = solver.solve_into(&sc.rho, &mut sc.ws);
                for mu in 0..nao {
                    let acc: f64 = (0..v.len()).map(|p| aos[mu][p] * psi[p] * v[p]).sum();
                    k[(mu, nu)] += acc * dvol;
                }
            }
        }
        k
    }

    /// The first `nocc` columns of `c`.
    fn occupied(c: &Mat, nocc: usize) -> Mat {
        Mat::from_fn(c.nrows(), nocc, |mu, k| c[(mu, k)])
    }

    #[test]
    fn ace_equals_the_column_oracle_on_the_occupied_space() {
        let cases = [
            ("H2", systems::h2(), 12.0, 24),
            ("H2", systems::h2(), 12.0, 48),
            ("LiH", systems::lih(), 14.0, 32),
            ("water", systems::water(), 14.0, 32),
        ];
        for (name, mol, edge, n) in cases {
            let (scf, mol_c) = in_box(mol, edge);
            let basis = Basis::sto3g(&mol_c);
            let grid = RealGrid::cubic(Cell::cubic(edge), n);
            let solver = PoissonSolver::isolated(grid);
            let fields = BasisOnGrid::new(&basis, &grid);
            let c_occ = occupied(&scf.c, scf.nocc);
            let want = column_oracle(&fields, &solver, &scf.c, scf.nocc).matmul(&c_occ);
            let backends = [
                ExecBackend::Serial,
                ExecBackend::Comm {
                    nranks: 2,
                    strategy: BalanceStrategy::GreedyLpt,
                },
            ];
            for backend in backends {
                let out = ExchangeEngine::builder(&grid, &solver)
                    .backend(backend)
                    .build()
                    .unwrap()
                    .k_operator(&fields, &scf.c, scf.nocc, 0.0)
                    .expect("the occupied exchange matrix of an RHF density is positive");
                let what = format!("{name} {n}³ {backend:?}");
                let err = out.k.matmul(&c_occ).sub(&want).fro_norm() / want.fro_norm();
                assert!(err < 1e-10, "{what}: K C off the oracle by {err:e}");
                let scale = out.k.fro_norm();
                assert!(out.k.asymmetry() <= 1e-14 * scale, "{what}");
                for mu in 0..basis.nao() {
                    assert!(out.k[(mu, mu)] >= 0.0, "{what}: K[{mu},{mu}]");
                }
                let nocc = scf.nocc;
                assert_eq!(out.profile.pairs_computed, nocc * (nocc + 1) / 2, "{what}");
            }
        }
    }

    /// `E_x = −tr(C_occᵀ K C_occ)` of one build at fixed coefficients.
    fn exchange_energy(out: &KBuildOutcome, c_occ: &Mat) -> f64 {
        -c_occ.transpose().matmul(&out.k).matmul(c_occ).trace()
    }

    #[test]
    fn exchange_gradient_matches_finite_differences_at_fixed_coefficients() {
        // The gradient words of the pair items against central differences
        // of the grid exchange energy with the AO coefficients held: each
        // displaced atom carries its AOs over the fixed grid. ε = 0. The
        // molecules sit off the grid's planes of symmetry: an AO tail
        // reaching a plane half a box away has a kink there (the minimum
        // image flips), where a central difference averages the two
        // one-sided slopes. The step is 1e-6 Bohr because a core AO far
        // narrower than the grid spacing makes the energy vary on that
        // scale (the oxygen's force reads 3e2 Ha/Bohr): the difference's
        // truncation error is 1.8e-6 at 1e-5 Bohr. The largest component
        // errors read 1.8e-9, 6.6e-9 and 6.6e-8 Ha/Bohr for H₂, LiH and
        // water when recorded, and |Σ_A ∂E_x/∂R_A|, the egg-box force of a
        // grid that does not move with the atoms, 4.0e-3, 4.5 and 4.6e2.
        let h = 1e-6;
        let cases = [
            ("H2", systems::h2(), 12.0, 24, 1e-2),
            ("LiH", systems::lih(), 14.0, 32, 10.0),
            ("water", systems::water(), 14.0, 32, 1e3),
        ];
        for (name, mol, edge, n, sum_bound) in cases {
            let (scf, mut mol_c) = in_box(mol, edge);
            mol_c.translate(Vec3::new(0.11, 0.07, 0.05));
            let grid = RealGrid::cubic(Cell::cubic(edge), n);
            let solver = PoissonSolver::isolated(grid);
            let engine = ExchangeEngine::new(&grid, &solver);
            let c_occ = occupied(&scf.c, scf.nocc);
            let build = |m: &Molecule| {
                let basis = Basis::sto3g(m);
                engine
                    .k_operator(&BasisOnGrid::new(&basis, &grid), &scf.c, scf.nocc, 0.0)
                    .expect("the occupied exchange matrix of an RHF density is positive")
            };
            let analytic = build(&mol_c).gradient;
            let mut worst: f64 = 0.0;
            for (atom, g) in analytic.iter().enumerate() {
                for axis in 0..3 {
                    let at = |step: f64| {
                        let mut m = mol_c.clone();
                        m.atoms[atom].pos[axis] += step;
                        exchange_energy(&build(&m), &c_occ)
                    };
                    let fd = (at(h) - at(-h)) / (2.0 * h);
                    worst = worst.max((g[axis] - fd).abs());
                }
            }
            let sum = analytic.iter().fold(Vec3::ZERO, |a, g| a + *g).norm();
            eprintln!("{name}: largest |∂E_x − FD| {worst:.2e} Ha/Bohr, |Σ| {sum:.2e}");
            assert!(worst < 1e-6, "{name}: {worst:e} Ha/Bohr");
            assert!(sum < sum_bound, "{name}: |Σ| {sum:e}");
        }
    }

    #[test]
    fn grid_k_matches_analytic_k() {
        // Build K on the grid for the converged H2 density and compare its
        // action on the occupied orbital with the analytic K(D)/2 (K(D)
        // contracts the doubled density). ACE is exact on that space only.
        let edge = 16.0;
        let (scf, mol_c) = in_box(systems::h2(), edge);
        let basis = Basis::sto3g(&mol_c);
        let grid = RealGrid::cubic(Cell::cubic(edge), 64);
        let solver = PoissonSolver::isolated(grid);
        let k_grid = ExchangeEngine::new(&grid, &solver)
            .k_operator(&BasisOnGrid::new(&basis, &grid), &scf.c, scf.nocc, 0.0)
            .expect("the occupied exchange matrix of an RHF density is positive")
            .k;
        let c_occ = occupied(&scf.c, scf.nocc);
        let (_, k_an) = liair_integrals::build_jk(&basis, &scf.density, 0.0);
        let want = k_an.matmul(&c_occ).scale(0.5);
        let err = k_grid.matmul(&c_occ).sub(&want).fro_norm() / want.fro_norm();
        assert!(err < 5e-3, "relative K C error {err}");
    }

    #[test]
    fn grid_k_is_symmetric_and_psd_on_diagonal() {
        let edge = 14.0;
        let (scf, mol_c) = in_box(systems::h2(), edge);
        let basis = Basis::sto3g(&mol_c);
        let grid = RealGrid::cubic(Cell::cubic(edge), 48);
        let solver = PoissonSolver::isolated(grid);
        let k = ExchangeEngine::new(&grid, &solver)
            .k_operator(&BasisOnGrid::new(&basis, &grid), &scf.c, scf.nocc, 0.0)
            .expect("the occupied exchange matrix of an RHF density is positive")
            .k;
        assert!(k.asymmetry() < 1e-12); // symmetric by construction
        for i in 0..basis.nao() {
            assert!(k[(i, i)] > 0.0, "K[{i},{i}] = {}", k[(i, i)]);
        }
    }

    #[test]
    fn one_k_build_computes_one_poisson_solve_per_orbital_pair() {
        // At ε = 0 every pair (i ≤ j) runs once: 1 / 3 / 15 for
        // H₂ / LiH / water. The (j, ν) column build ran nocc · nao of them:
        // 2 / 12 / 35. The grid only needs to hold the molecules.
        for (mol, want) in [
            (systems::h2(), 1),
            (systems::lih(), 3),
            (systems::water(), 15),
        ] {
            let (scf, mol_c) = in_box(mol, 14.0);
            let basis = Basis::sto3g(&mol_c);
            let grid = RealGrid::cubic(Cell::cubic(14.0), 16);
            let solver = PoissonSolver::isolated(grid);
            let out = ExchangeEngine::new(&grid, &solver)
                .k_operator(&BasisOnGrid::new(&basis, &grid), &scf.c, scf.nocc, 0.0)
                .expect("the occupied exchange matrix of an RHF density is positive");
            let p = out.profile;
            assert_eq!(
                (p.pairs_computed, p.pairs_screened, p.pairs_reused),
                (want, 0, 0)
            );
            assert_eq!(p.pairs_considered, want);
        }
    }

    #[test]
    fn a_non_positive_occupied_exchange_matrix_is_a_typed_error() {
        let edge = 12.0;
        let (scf, mol_c) = in_box(systems::h2(), edge);
        let basis = Basis::sto3g(&mol_c);
        let grid = RealGrid::cubic(Cell::cubic(edge), 16);
        let solver = PoissonSolver::isolated(grid);
        let fields = BasisOnGrid::new(&basis, &grid);
        let engine = ExchangeEngine::builder(&grid, &solver)
            .backend(ExecBackend::Serial)
            .build()
            .unwrap();
        let setup = k_build_setup(&fields, &scf.c, scf.nocc, 0.0);
        let pairs = setup.pairs(0.0);
        let mut profile = BuildProfile::default();
        let items = engine
            .pair_contribs(PairWork::Operator(&setup), &pairs.pairs, &mut profile)
            .unwrap();
        // Negated items make M = Cᵀ B negative definite.
        let negated: Vec<f64> = items.iter().map(|v| -v).collect();
        let width = k_item_width(setup.nao());
        match ace_operator(
            &fields,
            &setup.c,
            &pairs,
            negated.chunks_exact(width),
            profile,
        ) {
            Err(Error::IndefiniteExchange { eigenvalue }) => assert!(eigenvalue < 0.0),
            other => panic!("expected IndefiniteExchange, got {other:?}"),
        }
    }
}
