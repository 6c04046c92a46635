//! The molecular pipeline around the exchange engine, and the analytic
//! references it is validated against.
//!
//! `E_x = −Σ_{i≤j} w_ij (ij|ij)` over a screened pair list, one FFT
//! Poisson solve per pair, is [`crate::engine::ExchangeEngine::energy`] —
//! the engine owns the pair chunking, the pair kernel, the scratch
//! lifetimes and the [`crate::engine::BuildProfile`] instrumentation.
//! This module supplies what sits around it: the result type, the
//! localize → screen → grid pipeline for a converged molecule
//! ([`grid_exchange_for_molecule`]) and the analytic exchange energies the
//! grid path is compared with (the `tab-hfx-validation` experiment re-runs
//! that comparison as a resolution sweep).

use crate::engine::{BuildProfile, ExchangeEngine};
use crate::screening::{source_pairs, OrbitalInfo, PairList};
use liair_basis::{Basis, Cell, Molecule};
use liair_grid::{foster_boys, orbitals_on_grid, PoissonSolver, RealGrid};
use liair_math::Mat;
use liair_scf::ScfResult;

/// Outcome of an exchange build.
#[derive(Debug, Clone, PartialEq)]
pub struct HfxResult {
    /// Exchange energy (Hartree, ≤ 0).
    pub energy: f64,
    /// Per-phase wall times and work counters of this build: the pairs
    /// evaluated are `pairs_computed + pairs_reused`, the ones dropped by
    /// screening `pairs_screened`.
    pub profile: BuildProfile,
}

/// End-to-end molecular pipeline: localize the converged occupied
/// orbitals, drop core orbitals narrower than `min_spread` (uniform grids
/// cannot resolve all-electron cores — the paper's CPMD substrate uses
/// pseudopotentials, i.e. valence-only exchange; pass `0.0` to keep all),
/// build the screened pair list, evaluate on a cubic grid of `n³` points
/// in a box padded by `padding` Bohr, and return the exchange energy plus
/// the localized valence coefficients used (for analytic cross-checks).
/// The molecule is centered in the box; the isolated (spherical-cutoff)
/// Coulomb kernel is used.
pub fn grid_exchange_for_molecule(
    mol: &Molecule,
    basis: &Basis,
    scf: &ScfResult,
    n: usize,
    padding: f64,
    eps: f64,
    min_spread: f64,
) -> GridHfxOutcome {
    let (lo, hi) = mol.bounding_box();
    let extent = (hi - lo).x.max((hi - lo).y).max((hi - lo).z);
    let edge = extent + 2.0 * padding;
    let cell = Cell::cubic(edge);
    // Shift copies of the molecule/basis so the molecule sits mid-box.
    let shift = liair_math::Vec3::splat(edge / 2.0) - (lo + hi) * 0.5;
    let mut mol_c = mol.clone();
    mol_c.translate(shift);
    let mut basis_c = basis.clone();
    basis_c.update_centers(&mol_c);

    let loc = foster_boys(&basis_c, &scf.c, scf.nocc, 100);
    let keep: Vec<usize> = (0..scf.nocc)
        .filter(|&k| loc.spreads[k] >= min_spread)
        .collect();
    let n_core_skipped = scf.nocc - keep.len();
    let infos: Vec<OrbitalInfo> = keep
        .iter()
        .map(|&k| OrbitalInfo {
            center: loc.centers[k],
            spread: loc.spreads[k].max(0.3),
        })
        .collect();
    // Locality-first sourcing: with a finite ε the padded box doubles as
    // the screening cell and the list comes from the O(N·partners)
    // cell-list source; ε = 0 keeps the unscreened direct-distance list
    // (no cutoff radius exists to bin by).
    let pairs = source_pairs(&infos, eps, if eps > 0.0 { Some(&cell) } else { None });

    // Coefficient matrix restricted to the kept orbitals.
    let nao = basis_c.nao();
    let mut c_val = Mat::zeros(nao, keep.len());
    for (col, &k) in keep.iter().enumerate() {
        for mu in 0..nao {
            c_val[(mu, col)] = loc.c_loc[(mu, k)];
        }
    }

    let grid = RealGrid::cubic(cell, n);
    let solver = PoissonSolver::isolated(grid);
    let fields = orbitals_on_grid(&basis_c, &c_val, keep.len(), &grid);
    let result = ExchangeEngine::new(&grid, &solver).energy(&fields, &pairs);
    GridHfxOutcome {
        result,
        pairs,
        n_core_skipped,
        c_kept: c_val,
        basis_centered: basis_c,
    }
}

/// Output of [`grid_exchange_for_molecule`].
#[derive(Debug, Clone)]
pub struct GridHfxOutcome {
    /// Grid exchange energy over the kept orbitals.
    pub result: HfxResult,
    /// The screened pair list actually evaluated.
    pub pairs: PairList,
    /// Core orbitals excluded by the spread filter.
    pub n_core_skipped: usize,
    /// Localized coefficients of the kept orbitals (box-centered basis).
    pub c_kept: Mat,
    /// The box-centered copy of the basis matching `c_kept`.
    pub basis_centered: Basis,
}

/// Analytic exchange energy `−Σ_{i≤j} w_ij (ij|ij)` over an explicit set of
/// (localized) orbitals, via the dense ERI tensor — the exact reference the
/// grid path is compared against. Small systems only (nao ≤ 96).
pub fn analytic_exchange_orbitals(basis: &Basis, c: &Mat, norb: usize) -> f64 {
    let eri = liair_integrals::eri_tensor(basis);
    let nao = basis.nao();
    assert_eq!(c.nrows(), nao);
    let mut energy = 0.0;
    for i in 0..norb {
        for j in i..norb {
            // (ij|ij) = Σ_{μνλσ} C_μi C_νj C_λi C_σj (μν|λσ)
            // contracted in two steps for O(n²) memory.
            let mut dij = Mat::zeros(nao, nao);
            for mu in 0..nao {
                for nu in 0..nao {
                    dij[(mu, nu)] = c[(mu, i)] * c[(nu, j)];
                }
            }
            let mut val = 0.0;
            for mu in 0..nao {
                for nu in 0..nao {
                    let d1 = dij[(mu, nu)];
                    if d1.abs() < 1e-14 {
                        continue;
                    }
                    for lam in 0..nao {
                        for sig in 0..nao {
                            val += d1 * dij[(lam, sig)] * eri.get(mu, nu, lam, sig);
                        }
                    }
                }
            }
            let w = if i == j { 1.0 } else { 2.0 };
            energy -= w * val;
        }
    }
    energy
}

/// The analytic exact-exchange energy `−¼ Tr(D·K)` of a converged density
/// — the reference the grid path is validated against.
pub fn analytic_exchange(basis: &Basis, density: &Mat, schwarz_tol: f64) -> f64 {
    let (_, k) = liair_integrals::build_jk(basis, density, schwarz_tol);
    -0.25 * density.trace_product(&k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screening::build_pair_list;
    use liair_basis::systems;
    use liair_grid::CoulombKernel;
    use liair_math::{approx_eq, Vec3};
    use liair_scf::{rhf, ScfOptions};

    #[test]
    fn h2_grid_exchange_matches_analytic() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let want = analytic_exchange(&basis, &scf.density, 0.0);
        let out = grid_exchange_for_molecule(&mol, &basis, &scf, 72, 7.0, 0.0, 0.0);
        assert_eq!(out.pairs.len(), 1); // single occupied orbital
        assert!(
            approx_eq(out.result.energy, want, 5e-3),
            "grid {} vs analytic {want}",
            out.result.energy
        );
        assert!(out.result.energy < 0.0);
        assert!(out.result.profile.is_populated(), "profile must be filled");
    }

    #[test]
    fn h2_grid_exchange_converges_with_resolution() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let want = analytic_exchange(&basis, &scf.density, 0.0);
        // Past 48³ the error sits on the box's floor (~2e-6 Ha at 7 Bohr
        // padding), not the grid's, so the sweep stops there.
        let mut errs = Vec::new();
        for n in [24, 32, 48] {
            let out = grid_exchange_for_molecule(&mol, &basis, &scf, n, 7.0, 0.0, 0.0);
            errs.push((out.result.energy - want).abs());
        }
        assert!(errs.windows(2).all(|w| w[1] < w[0]), "{errs:?}");
        assert!(errs[2] < 1e-5, "{errs:?}");
    }

    #[test]
    fn grid_exchange_is_invariant_under_rigid_motion() {
        // Four Gaussians in a periodic 12-Bohr cell at 32³, every centre
        // mapped by `c → C + R (c − C) + t` about the cell centre C. Shifts
        // by whole grid steps and the cube's symmetries map the sample
        // lattice onto itself (C is a grid point), so E_x moves only by
        // rounding; half/quarter steps and arbitrary rotations resample the
        // same smooth fields and move it by the sampling error alone. Both
        // kernels act as periodic convolutions with an isotropic
        // reciprocal-space kernel, so both are invariant.
        let (l, n, sigma) = (12.0, 32, 0.8);
        let grid = RealGrid::cubic(Cell::cubic(l), n);
        let h = l / n as f64;
        let centre = Vec3::splat(0.5 * l);
        let base = [
            Vec3::new(3.1, 4.2, 5.3),
            Vec3::new(7.4, 5.0, 6.1),
            Vec3::new(5.2, 8.3, 4.4),
            Vec3::new(6.6, 6.2, 8.9),
        ];
        let energy = |solver: &PoissonSolver, motion: &dyn Fn(Vec3) -> Vec3| {
            let infos: Vec<OrbitalInfo> = base
                .iter()
                .map(|&c| OrbitalInfo {
                    center: motion(c),
                    spread: sigma,
                })
                .collect();
            let fields: Vec<Vec<f64>> = infos
                .iter()
                .map(|o| {
                    (0..grid.len())
                        .map(|i| {
                            let d = grid.cell.min_image(o.center, grid.point_flat(i));
                            (-d.norm_sqr() / (2.0 * sigma * sigma)).exp()
                        })
                        .collect()
                })
                .collect();
            let pairs = build_pair_list(&infos, 0.0, None);
            ExchangeEngine::new(&grid, solver)
                .energy(&fields, &pairs)
                .energy
        };
        type Motion = Box<dyn Fn(Vec3) -> Vec3>;
        let shift = |steps: [f64; 3]| -> Motion {
            let t = Vec3::new(steps[0], steps[1], steps[2]) * h;
            Box::new(move |c| c + t)
        };
        let turn = |r: fn(Vec3) -> Vec3| -> Motion { Box::new(move |c| centre + r(c - centre)) };
        // Rodrigues' rotation by `theta` about `axis`, through C.
        let rodrigues = |axis: Vec3, theta: f64| -> Motion {
            let k = axis.normalized();
            let (s, co) = theta.sin_cos();
            Box::new(move |c| {
                let v = c - centre;
                centre + v * co + k.cross(v) * s + k * (k.dot(v) * (1.0 - co))
            })
        };
        let motions: [(&str, Motion, f64); 11] = [
            ("shift (1, 2, 3) steps", shift([1.0, 2.0, 3.0]), 1e-14),
            ("shift (5, -3, 7) steps", shift([5.0, -3.0, 7.0]), 1e-14),
            ("shift (.5, .5, .5) steps", shift([0.5, 0.5, 0.5]), 1e-10),
            (
                "shift (.25, .5, .75) steps",
                shift([0.25, 0.5, 0.75]),
                1e-10,
            ),
            (
                "cyclic axis permutation",
                turn(|v| Vec3::new(v.y, v.z, v.x)),
                1e-14,
            ),
            ("90° about z", turn(|v| Vec3::new(-v.y, v.x, v.z)), 1e-14),
            ("90° about y", turn(|v| Vec3::new(v.z, v.y, -v.x)), 1e-14),
            ("180° about x", turn(|v| Vec3::new(v.x, -v.y, -v.z)), 1e-14),
            ("inversion", turn(|v| v * -1.0), 1e-14),
            (
                "30° about z",
                rodrigues(Vec3::new(0.0, 0.0, 1.0), 30f64.to_radians()),
                1e-10,
            ),
            (
                "1.1 rad about (1, 2, 0.5)",
                rodrigues(Vec3::new(1.0, 2.0, 0.5), 1.1),
                1e-10,
            ),
        ];
        for kernel in [
            CoulombKernel::SphericalCutoff(grid.cell.min_half_edge()),
            CoulombKernel::Periodic,
        ] {
            let solver = PoissonSolver::new(grid, kernel);
            let e0 = energy(&solver, &|c| c);
            for (what, motion, tol) in &motions {
                let e = energy(&solver, motion);
                let rel = ((e - e0) / e0).abs();
                assert!(rel <= *tol, "{kernel:?} {what}: rel {rel:e}");
            }
        }
    }

    #[test]
    fn water_valence_grid_exchange_matches_analytic() {
        // With the O 1s core filtered out (pseudopotential-style), the grid
        // pair-Poisson exchange agrees with the analytic valence-orbital
        // reference.
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let out = grid_exchange_for_molecule(&mol, &basis, &scf, 80, 7.0, 0.0, 0.4);
        assert_eq!(out.n_core_skipped, 1, "expected the O 1s core filtered");
        let want = analytic_exchange_orbitals(&out.basis_centered, &out.c_kept, out.c_kept.ncols());
        assert!(
            approx_eq(out.result.energy, want, 3e-2),
            "grid {} vs analytic valence {want}",
            out.result.energy
        );
    }

    #[test]
    fn analytic_orbital_exchange_consistent_with_density_form() {
        // Over ALL occupied orbitals, −Σ w (ij|ij) must equal −¼Tr(DK);
        // both are basis-set identities (orbital rotations cancel).
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let via_k = analytic_exchange(&basis, &scf.density, 0.0);
        let via_orbitals = analytic_exchange_orbitals(&basis, &scf.c, scf.nocc);
        assert!(
            approx_eq(via_k, via_orbitals, 1e-10),
            "{via_k} vs {via_orbitals}"
        );
    }

    #[test]
    fn screening_error_is_controlled() {
        // A chain of H2 molecules at unequal spacings, so pair bounds span
        // several decades. Every pair term w·(ij|ij) is ≥ 0 and a tighter ε
        // keeps a superset of the pairs, so as ε tightens the pair count
        // cannot fall and |E(ε) − E(0)| (the dropped terms) cannot grow.
        let mut mol = systems::h2();
        for y in [3.0, 7.5, 14.0] {
            let mut next = systems::h2();
            next.translate(liair_math::Vec3::new(0.0, y, 0.0));
            mol.merge(&next);
        }
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let exact = grid_exchange_for_molecule(&mol, &basis, &scf, 48, 6.0, 0.0, 0.0);
        let sweep: Vec<(f64, usize, f64)> = [1e-2, 1e-3, 1e-4, 1e-6]
            .into_iter()
            .map(|eps| {
                let out = grid_exchange_for_molecule(&mol, &basis, &scf, 48, 6.0, eps, 0.0);
                (
                    eps,
                    out.pairs.len(),
                    (out.result.energy - exact.result.energy).abs(),
                )
            })
            .collect();
        // Sums over different pair lists round differently; 1e-14 Ha is
        // that rounding, far below any dropped pair here.
        for w in sweep.windows(2) {
            let ((eps_a, pairs_a, err_a), (eps_b, pairs_b, err_b)) = (w[0], w[1]);
            assert!(
                pairs_b >= pairs_a,
                "pairs {pairs_a} at ε {eps_a} → {pairs_b} at ε {eps_b}"
            );
            assert!(
                err_b <= err_a + 1e-14,
                "|ΔE| {err_a:e} at ε {eps_a} → {err_b:e} at ε {eps_b}"
            );
        }
        // And the error stays small: at most 1 % of ε at every point.
        for &(eps, _, err) in &sweep {
            assert!(err <= 1e-2 * eps, "|ΔE| {err:e} at ε {eps}");
        }
        let mut counts: Vec<usize> = sweep.iter().map(|&(_, p, _)| p).collect();
        counts.push(exact.pairs.len());
        counts.dedup();
        assert!(counts.len() >= 3, "pair counts {counts:?}");
    }

    #[test]
    fn patched_exchange_matches_full_grid_on_h2_chain() {
        // The compact pair-local representation must reproduce the
        // full-grid exchange while transforming far fewer points.
        let mol = {
            let mut all = systems::h2();
            for k in 1..3 {
                let mut m = systems::h2();
                m.translate(liair_math::Vec3::new(0.0, 4.5 * k as f64, 0.0));
                all.merge(&m);
            }
            all
        };
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        // Center in a big box so patches stay interior.
        let edge = 26.0;
        let shift = liair_math::Vec3::splat(edge / 2.0) - mol.centroid();
        let mut mol_c = mol.clone();
        mol_c.translate(shift);
        let mut basis_c = basis.clone();
        basis_c.update_centers(&mol_c);
        let loc = liair_grid::foster_boys(&basis_c, &scf.c, scf.nocc, 60);
        let infos: Vec<OrbitalInfo> = loc
            .centers
            .iter()
            .zip(&loc.spreads)
            .map(|(&c, &s)| OrbitalInfo {
                center: c,
                spread: s.max(0.3),
            })
            .collect();
        let pairs = build_pair_list(&infos, 0.0, None);
        let grid = RealGrid::cubic(Cell::cubic(edge), 64);
        let solver = PoissonSolver::isolated(grid);
        let fields = liair_grid::orbitals_on_grid(&basis_c, &loc.c_loc, scf.nocc, &grid);
        let engine = ExchangeEngine::new(&grid, &solver);
        let full = engine.energy(&fields, &pairs);
        let patched = engine
            .energy_patched(&fields, &infos, &pairs, 3.0)
            .expect("fault-free build");
        assert!(
            approx_eq(patched.energy, full.energy, 5e-3),
            "patched {} vs full {}",
            patched.energy,
            full.energy
        );
        assert!(patched.profile.is_populated());
    }

    #[test]
    fn exchange_is_negative_and_pairwise_additive() {
        // E_x from the pair list equals the sum of its parts: splitting the
        // pair list and adding partial energies gives the same total.
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let (lo, hi) = mol.bounding_box();
        let edge = (hi - lo).norm() + 12.0;
        let cell = Cell::cubic(edge);
        let mut mol_c = mol.clone();
        mol_c.translate(liair_math::Vec3::splat(edge / 2.0) - mol.centroid());
        let mut basis_c = basis.clone();
        basis_c.update_centers(&mol_c);
        let grid = RealGrid::cubic(cell, 48);
        let solver = PoissonSolver::isolated(grid);
        let fields = orbitals_on_grid(&basis_c, &scf.c, scf.nocc, &grid);
        let infos = vec![OrbitalInfo {
            center: mol_c.centroid(),
            spread: 1.0,
        }];
        let pairs = build_pair_list(&infos, 0.0, None);
        let full = ExchangeEngine::new(&grid, &solver).energy(&fields, &pairs);
        assert!(full.energy < 0.0);
        assert_eq!(full.profile.pairs_computed, 1);
    }
}
