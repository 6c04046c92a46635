//! Property tests: every locality-exploiting pair builder — the
//! O(N·partners) cell list ([`build_pair_list_celllist`]) and the
//! domain-sharded source ([`build_pair_list_sharded`]) — must produce
//! exactly the same screened pair set as the reference O(N²) builder
//! ([`build_pair_list`]): same (i, j) pairs, same weights, same bounds,
//! to the bit, for random orbital layouts, spreads, box shapes
//! (including anisotropic cells and boundary-straddling clusters),
//! domain grids and screening thresholds.
//!
//! The last test pins, on three fixed inputs, how many candidates each
//! index-backed source *inspected* — the counts recorded from the three
//! hand-written bin searches the shared index replaced.

use liair_basis::{Atom, Basis, Cell, Element, Molecule};
use liair_core::screening::{build_pair_list, build_pair_list_celllist, OrbitalInfo, Pair};
use liair_core::{
    build_pair_list_sharded, source_pairs, BasisOnGrid, DomainDecomposition, DomainGeometry, Error,
    ExchangeEngine, ExecBackend,
};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::rng::SplitMix64;
use liair_math::{Mat, Vec3};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn random_layout(seed: u64, norb: usize, edge: f64, spread_max: f64) -> Vec<OrbitalInfo> {
    let mut rng = SplitMix64::new(seed);
    (0..norb)
        .map(|_| OrbitalInfo {
            center: Vec3::new(
                rng.range_f64(0.0, edge),
                rng.range_f64(0.0, edge),
                rng.range_f64(0.0, edge),
            ),
            spread: rng.range_f64(0.3, spread_max),
        })
        .collect()
}

/// Centers clustered within `band` of the cell faces and corners — the
/// min-image stress case where every pair wraps at least one axis.
fn straddling_layout(seed: u64, norb: usize, lengths: [f64; 3], band: f64) -> Vec<OrbitalInfo> {
    let mut rng = SplitMix64::new(seed);
    (0..norb)
        .map(|_| {
            let mut c = [0.0f64; 3];
            for k in 0..3 {
                let off = rng.range_f64(-band, band);
                // Half the samples hug the origin face (wrapping negative
                // offsets to the far edge), half an interior face.
                c[k] = if rng.range_f64(0.0, 1.0) < 0.5 {
                    off.rem_euclid(lengths[k])
                } else {
                    (lengths[k] / 2.0 + off).rem_euclid(lengths[k])
                };
            }
            OrbitalInfo {
                center: Vec3::new(c[0], c[1], c[2]),
                spread: rng.range_f64(0.4, 1.3),
            }
        })
        .collect()
}

fn assert_bit_identical(a: &[Pair], b: &[Pair]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (pa, pb) in a.iter().zip(b) {
        prop_assert_eq!((pa.i, pa.j), (pb.i, pb.j));
        prop_assert_eq!(pa.weight.to_bits(), pb.weight.to_bits());
        prop_assert_eq!(pa.bound.to_bits(), pb.bound.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn celllist_matches_reference_builder(
        seed in 0u64..1_000_000,
        norb in 2usize..40,
        edge in 8.0f64..30.0,
        spread_max in 0.5f64..2.0,
        eps_exp in 1i32..8,
    ) {
        let eps = 10f64.powi(-eps_exp);
        let cell = Cell::cubic(edge);
        let infos = random_layout(seed, norb, edge, spread_max);

        let reference = build_pair_list(&infos, eps, Some(&cell));
        let celllist = build_pair_list_celllist(&infos, eps, &cell).unwrap();

        prop_assert_eq!(reference.n_candidates, celllist.n_candidates);
        prop_assert_eq!(reference.len(), celllist.len());
        // Both builders emit (i, j) with i <= j; sort to one canonical
        // order and compare every field.
        let mut a = reference.pairs.clone();
        let mut b = celllist.pairs.clone();
        a.sort_by_key(|p| (p.i, p.j));
        b.sort_by_key(|p| (p.i, p.j));
        for (pa, pb) in a.iter().zip(&b) {
            prop_assert_eq!((pa.i, pa.j), (pb.i, pb.j));
            prop_assert_eq!(pa.weight.to_bits(), pb.weight.to_bits());
            prop_assert_eq!(pa.bound.to_bits(), pb.bound.to_bits());
        }
    }

    /// Tightening eps on the same layout can only shrink the survivor set,
    /// and the cell-list builder tracks it exactly.
    #[test]
    fn celllist_is_monotone_in_eps(
        seed in 0u64..1_000_000,
        norb in 2usize..24,
    ) {
        let edge = 16.0;
        let cell = Cell::cubic(edge);
        let infos = random_layout(seed, norb, edge, 1.2);
        let mut prev = 0usize;
        for eps_exp in 1..7 {
            // eps shrinks as the loop runs: 1e-1 first, 1e-6 last.
            let eps = 10f64.powi(-eps_exp);
            let n2 = build_pair_list(&infos, eps, Some(&cell)).len();
            let cl = build_pair_list_celllist(&infos, eps, &cell).unwrap().len();
            prop_assert_eq!(n2, cl);
            // Tighter screening keeps at least as many pairs.
            prop_assert!(cl >= prev, "survivors shrank: {} -> {} at eps {}", prev, cl, eps);
            prev = cl;
        }
    }

    /// Anisotropic cells: the per-axis binning and min-image wrap must
    /// agree with the reference even when the edges differ by 3×.
    #[test]
    fn celllist_matches_reference_in_anisotropic_cells(
        seed in 0u64..1_000_000,
        norb in 2usize..32,
        a in 8.0f64..24.0,
        b in 8.0f64..24.0,
        c in 8.0f64..24.0,
        eps_exp in 1i32..12,
    ) {
        let eps = 10f64.powi(-eps_exp);
        let cell = Cell::orthorhombic(a, b, c);
        let mut rng = SplitMix64::new(seed);
        let infos: Vec<OrbitalInfo> = (0..norb)
            .map(|_| OrbitalInfo {
                center: Vec3::new(
                    rng.range_f64(0.0, a),
                    rng.range_f64(0.0, b),
                    rng.range_f64(0.0, c),
                ),
                spread: rng.range_f64(0.3, 1.6),
            })
            .collect();
        let reference = build_pair_list(&infos, eps, Some(&cell));
        let celllist = build_pair_list_celllist(&infos, eps, &cell).unwrap();
        prop_assert_eq!(reference.n_candidates, celllist.n_candidates);
        assert_bit_identical(&reference.pairs, &celllist.pairs)?;
    }

    /// Clusters hugging the cell faces: every surviving pair crosses a
    /// periodic boundary, so a single lost wrap shows up immediately.
    #[test]
    fn boundary_straddling_layouts_survive_every_builder(
        seed in 0u64..1_000_000,
        norb in 4usize..36,
        edge in 10.0f64..26.0,
        eps_exp in 1i32..10,
    ) {
        let eps = 10f64.powi(-eps_exp);
        let lengths = [edge, edge * 1.4, edge * 0.8];
        let cell = Cell::orthorhombic(lengths[0], lengths[1], lengths[2]);
        let infos = straddling_layout(seed, norb, lengths, 1.5);
        let reference = build_pair_list(&infos, eps, Some(&cell));
        let celllist = build_pair_list_celllist(&infos, eps, &cell).unwrap();
        assert_bit_identical(&reference.pairs, &celllist.pairs)?;
        let sharded = build_pair_list_sharded(&infos, eps, &cell, [2, 2, 2]).unwrap();
        assert_bit_identical(&reference.pairs, &sharded.pairs)?;
    }

    /// The domain-sharded builder (halo import + per-domain local build +
    /// canonical merge) equals both global builders bitwise for random
    /// domain grids — including degenerate 1-axis and deep ε thresholds.
    #[test]
    fn sharded_matches_global_builders(
        seed in 0u64..1_000_000,
        norb in 2usize..36,
        edge in 8.0f64..30.0,
        spread_max in 0.5f64..2.0,
        eps_exp in 1i32..12,
        gx in 1usize..4,
        gy in 1usize..4,
        gz in 1usize..4,
    ) {
        let eps = 10f64.powi(-eps_exp);
        let cell = Cell::cubic(edge);
        let infos = random_layout(seed, norb, edge, spread_max);
        let reference = build_pair_list(&infos, eps, Some(&cell));
        let celllist = build_pair_list_celllist(&infos, eps, &cell).unwrap();
        let sharded = build_pair_list_sharded(&infos, eps, &cell, [gx, gy, gz]).unwrap();
        prop_assert_eq!(reference.n_candidates, sharded.n_candidates);
        assert_bit_identical(&reference.pairs, &sharded.pairs)?;
        assert_bit_identical(&celllist.pairs, &sharded.pairs)?;
    }

    /// Out-of-range ε is a typed error from every fallible builder, never
    /// a panic or a silently empty list.
    #[test]
    fn invalid_eps_is_rejected_with_a_typed_error(which in 0usize..4) {
        let bad_eps = [0.0f64, -1e-6, 1.5, f64::NAN][which];
        let cell = Cell::cubic(12.0);
        let infos = random_layout(9, 6, 12.0, 1.0);
        for result in [
            build_pair_list_celllist(&infos, bad_eps, &cell).map(|_| ()),
            build_pair_list_sharded(&infos, bad_eps, &cell, [2, 2, 2]).map(|_| ()),
            DomainGeometry::new(cell, [2, 2, 2], bad_eps, 1.0).map(|_| ()),
        ] {
            match result {
                Err(Error::InvalidEps { eps }) => {
                    prop_assert!(eps.is_nan() || eps == bad_eps)
                }
                other => prop_assert!(false, "expected InvalidEps, got {:?}", other),
            }
        }
    }
}

/// `considered` is observable (`BuildProfile::pairs_considered`, the
/// benchmark's `core.pairs_considered`), so the index must reproduce each
/// source's bin geometry, not merely a correct candidate superset. The
/// numbers below were recorded from the parent of the PR that introduced
/// the shared index.
#[test]
fn recorded_considered_counts_hold() {
    // (1) The periodic cell list through `source_pairs`: the benchmark's
    // `box32` layout — 5×5×5 jittered lattice in a 22 Bohr cell, spread
    // 0.7, ε = 1e-6, seed 2014, storage order shuffled.
    let mut rng = SplitMix64::new(2014);
    let (edge, sites) = (22.0, 5);
    let a = edge / sites as f64;
    let mut infos = Vec::new();
    for ix in 0..sites {
        for iy in 0..sites {
            for iz in 0..sites {
                let mut site = |i: usize| (i as f64 + 0.5) * a + rng.range_f64(-0.25, 0.25);
                infos.push(OrbitalInfo {
                    center: Vec3::new(site(ix), site(iy), site(iz)),
                    spread: 0.7,
                });
            }
        }
    }
    rng.shuffle(&mut infos);
    let cell = Cell::cubic(edge);
    let list = source_pairs(&infos, 1e-6, Some(&cell));
    assert_eq!((list.considered, list.len()), (3492, 500));
    assert_eq!(list.pairs, build_pair_list(&infos, 1e-6, Some(&cell)).pairs);

    // (2) The K path's AO partner search: a kinked 20-atom hydrogen chain
    // (STO-3G, 10 two-centre occupied orbitals), 200 (j, ν) candidates.
    let mut mol = Molecule::new();
    for k in 0..20 {
        mol.atoms.push(Atom {
            element: Element::H,
            pos: Vec3::new(3.5 + 3.0 * k as f64, 5.0 + 0.3 * (k % 3) as f64, 5.0),
        });
    }
    let basis = Basis::sto3g(&mol);
    let nocc = 10;
    let mut c_occ = Mat::zeros(basis.nao(), nocc);
    for k in 0..nocc {
        c_occ[(2 * k, k)] = 0.6;
        c_occ[(2 * k + 1, k)] = 0.6;
    }
    // The counts depend on the basis and the orbitals only: a coarse grid.
    let grid = RealGrid::new(Cell::orthorhombic(64.0, 10.0, 10.0), (16, 4, 4));
    let solver = PoissonSolver::isolated(grid);
    let engine = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Serial)
        .build()
        .unwrap();
    let on_grid = BasisOnGrid::new(&basis, &grid);
    for (eps, considered, evaluated) in [(1e-2, 159, 150), (1e-4, 172, 165)] {
        let out = engine.k_operator(&on_grid, &c_occ, nocc, eps);
        assert_eq!(
            (
                out.profile.pairs_considered,
                out.profile.pairs_computed,
                out.profile.pairs_screened
            ),
            (considered, evaluated, 200 - evaluated),
            "eps = {eps}"
        );
    }

    // (3) The windowed domain-local build: 400 orbitals in an 80 Bohr cell
    // on a 4×4×4 domain grid, one interior domain and the sum over all.
    let cell = Cell::cubic(80.0);
    let orbs = random_layout(7, 400, 80.0, 1.0);
    let dec = DomainDecomposition::build(&orbs, 1e-4, &cell, [4, 4, 4]).unwrap();
    assert!(dec.geometry.windowed());
    let local = |d: usize| {
        let residents: Vec<(u32, OrbitalInfo)> = dec
            .residents(d)
            .into_iter()
            .map(|i| (i, orbs[i as usize]))
            .collect();
        let (pairs, considered) = dec.geometry.local_pairs(d, &residents);
        (residents.len(), pairs.len(), considered)
    };
    assert_eq!(local(21), (27, 9, 24));
    let total = (0..64)
        .map(local)
        .fold((0, 0), |t, l| (t.0 + l.1, t.1 + l.2));
    assert_eq!(total, (442, 1156));
    let sharded = build_pair_list_sharded(&orbs, 1e-4, &cell, [4, 4, 4]).unwrap();
    assert_eq!((sharded.len(), sharded.considered), total);
    assert_eq!(
        sharded.pairs,
        build_pair_list(&orbs, 1e-4, Some(&cell)).pairs
    );
}
