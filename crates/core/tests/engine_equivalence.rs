//! Cross-driver equivalence suite for the staged [`ExchangeEngine`]: every
//! execution backend (serial, rayon, message-passing `Comm`) must produce
//! **bit-identical** energies, K matrices and exchange gradients (also
//! across rayon thread counts), and the incremental driver
//! with `eps_inc = 0` must reproduce the from-scratch build exactly. The
//! distributed backend must additionally hold the guarantee *under
//! injected faults* — dropped, delayed, duplicated messages and stalled
//! ranks — because retransmission and chunk re-issue replay the identical
//! kernel.
//!
//! Nothing here is steered by the environment, so one run of this binary
//! covers the whole matrix: fault schedules are arguments, and the tests
//! below loop over their seeds themselves.

use liair_basis::{systems, Atom, Basis, Cell, Element, Molecule};
use liair_core::engine::BuildProfile;
use liair_core::screening::{source_pairs, OrbitalInfo, PairList};
use liair_core::{
    BalanceStrategy, BasisOnGrid, Error, ExchangeEngine, ExecBackend, FaultPlan,
    IncrementalExchange, KBuildOutcome,
};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::rng::SplitMix64;
use liair_math::{Mat, Vec3};

type Setup = (
    RealGrid,
    PoissonSolver,
    Vec<Vec<f64>>,
    Vec<OrbitalInfo>,
    PairList,
);

/// Smooth synthetic "orbitals": one normalized Gaussian (spread ≈ 0.7
/// Bohr) per centre, periodic in a cubic cell of edge `l` on an `n³` grid,
/// with the pair list screened at `eps`.
fn gaussians(centers: &[Vec3], l: f64, n: usize, eps: f64) -> Setup {
    let grid = RealGrid::cubic(Cell::cubic(l), n);
    let solver = PoissonSolver::isolated(grid);
    let fields: Vec<Vec<f64>> = centers
        .iter()
        .map(|&c| {
            let alpha: f64 = 1.1;
            let norm = (2.0 * alpha / std::f64::consts::PI).powf(0.75);
            (0..grid.len())
                .map(|i| {
                    let d = grid.cell.min_image(c, grid.point_flat(i));
                    norm * (-alpha * d.norm_sqr()).exp()
                })
                .collect()
        })
        .collect();
    let infos: Vec<OrbitalInfo> = centers
        .iter()
        .map(|&c| OrbitalInfo {
            center: c,
            spread: 0.7,
        })
        .collect();
    let pairs = source_pairs(&infos, eps, Some(&grid.cell));
    (grid, solver, fields, infos, pairs)
}

/// `norb` Gaussians at random centers, every pair kept.
fn synthetic_setup(norb: usize, n: usize) -> Setup {
    let mut rng = SplitMix64::new(171);
    let centers: Vec<Vec3> = (0..norb)
        .map(|_| {
            Vec3::new(
                rng.range_f64(4.0, 10.0),
                rng.range_f64(4.0, 10.0),
                rng.range_f64(4.0, 10.0),
            )
        })
        .collect();
    gaussians(&centers, 14.0, n, 0.0)
}

/// One periodic 3 × 3 layer of Gaussians on a 4.4-Bohr lattice with
/// 0.25 Bohr of jitter per coordinate, nearest neighbours paired — a slab
/// of the benchmark's `box32` geometry at test size.
fn periodic_layer(n: usize) -> Setup {
    let a = 4.4;
    let mut rng = SplitMix64::new(2014);
    let mut at = |i: usize| (i as f64 + 0.5) * a + rng.range_f64(-0.25, 0.25);
    let centers: Vec<Vec3> = (0..9)
        .map(|s| Vec3::new(at(s / 3), at(s % 3), at(1)))
        .collect();
    gaussians(&centers, 3.0 * a, n, 1e-6)
}

fn comm(nranks: usize, strategy: BalanceStrategy) -> ExecBackend {
    ExecBackend::Comm { nranks, strategy }
}

#[test]
fn energy_bit_identical_across_backends() {
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(4, 20);
    let base = ExchangeEngine::builder(&grid, &solver);
    let serial = base
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .energy(&fields, &pairs);
    assert!(serial.energy < 0.0);
    assert!(serial.profile.is_populated());

    let rayon = base
        .backend(ExecBackend::Rayon)
        .build()
        .unwrap()
        .energy(&fields, &pairs);
    assert_eq!(
        serial.energy.to_bits(),
        rayon.energy.to_bits(),
        "serial vs rayon differ: {} vs {}",
        serial.energy,
        rayon.energy
    );

    // 12 ranks is more than the list has pairs (10), let alone chunks (5):
    // idle ranks must neither hang the build nor touch the sum.
    for nranks in [1, 3, 4, 12] {
        for strategy in [
            BalanceStrategy::RoundRobin,
            BalanceStrategy::Block,
            BalanceStrategy::GreedyLpt,
        ] {
            let out = base
                .backend(comm(nranks, strategy))
                .build()
                .unwrap()
                .energy(&fields, &pairs);
            assert_eq!(
                serial.energy.to_bits(),
                out.energy.to_bits(),
                "serial vs comm(nranks={nranks}, {strategy:?}) differ: {} vs {}",
                serial.energy,
                out.energy
            );
        }
    }
}

#[test]
fn energy_bit_identical_under_injected_faults() {
    // Retransmission (drops/delays/dups) and chunk re-issue (stalls) must
    // not change a single bit of the result: recovered messages carry the
    // same payloads, and re-issued chunks replay the identical kernel.
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(4, 16);
    let clean = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .energy(&fields, &pairs);
    for seed in [7u64, 1234] {
        for plan in [FaultPlan::messages_only(seed), FaultPlan::with_stalls(seed)] {
            let faulty = ExchangeEngine::builder(&grid, &solver)
                .backend(comm(4, BalanceStrategy::GreedyLpt))
                .fault_plan(plan)
                .build()
                .unwrap()
                .energy(&fields, &pairs);
            assert_eq!(
                clean.energy.to_bits(),
                faulty.energy.to_bits(),
                "seed {seed}: faulty build drifted: {} vs {}",
                clean.energy,
                faulty.energy
            );
            // A stalled rank shows up in the profile as re-issued work.
            if faulty.profile.ranks_stalled > 0 {
                assert!(
                    faulty.profile.chunks_reissued > 0,
                    "stalled ranks must re-issue their chunks"
                );
            }
        }
    }
}

#[test]
fn pipelined_overlap_bit_identical_under_fault_matrix() {
    // The fault matrix — three seeded schedules with stalls: the
    // pipeline's streamed out-of-order reassembly, steal queue, and
    // mid-build straggler re-issue must leave every bit where the serial
    // reference put it.
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(4, 16);
    let nchunks = pairs.len().div_ceil(2);
    let serial = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .energy(&fields, &pairs);
    assert_eq!(serial.profile.chunks_stolen, 0);
    assert_eq!(serial.profile.steal_requests, 0);
    for seed in [7u64, 13, 42] {
        let out = ExchangeEngine::builder(&grid, &solver)
            .backend(comm(4, BalanceStrategy::GreedyLpt))
            .fault_plan(FaultPlan::with_stalls(seed))
            .build()
            .unwrap()
            .energy(&fields, &pairs);
        assert_eq!(
            serial.energy.to_bits(),
            out.energy.to_bits(),
            "seed {seed}: the schedule changed the energy: {} vs {}",
            serial.energy,
            out.energy
        );
        // A straggler's share is re-issued through the steal queue as
        // soon as its timeout fires, so every re-issued chunk is also a
        // stolen one.
        if out.profile.ranks_stalled > 0 {
            assert!(out.profile.chunks_reissued > 0);
        }
        assert_eq!(
            out.profile.chunks_stolen,
            nchunks / 4 + out.profile.chunks_reissued,
            "seed {seed}: tail + re-issues must each be granted exactly once"
        );
    }
}

#[test]
fn pipelined_overlap_matches_serial_for_k_operator() {
    let (basis, c_occ, nocc, kgrid, ksolver) = h2_setup();
    let on_grid = BasisOnGrid::new(&basis, &kgrid);
    let serial = ExchangeEngine::builder(&kgrid, &ksolver)
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .k_operator(&on_grid, &c_occ, nocc, 0.0)
        .expect("fault-free build");
    let npairs = nocc * (nocc + 1) / 2;
    for plan in [None, Some(7u64), Some(13), Some(42)] {
        let mut b =
            ExchangeEngine::builder(&kgrid, &ksolver).backend(comm(3, BalanceStrategy::GreedyLpt));
        if let Some(seed) = plan {
            b = b.fault_plan(FaultPlan::with_stalls(seed));
        }
        let pipelined = b
            .build()
            .unwrap()
            .k_operator(&on_grid, &c_occ, nocc, 0.0)
            .expect("stalled ranks are re-issued, not lost");
        assert_eq!(
            serial.profile.pairs_computed,
            pipelined.profile.pairs_computed
        );
        assert_eq!(
            serial.profile.pairs_screened,
            pipelined.profile.pairs_screened
        );
        assert_eq!(
            pipelined.k.sub(&serial.k).fro_norm(),
            0.0,
            "{plan:?}: K pair items must reassemble identically under streamed arrival"
        );
        assert_eq!(
            pipelined.profile.chunks_stolen,
            npairs / 4 + pipelined.profile.chunks_reissued,
            "{plan:?}: tail + re-issues must each be granted exactly once"
        );
    }
}

/// SCF-quality H2 setup for the K-operator paths.
fn h2_setup() -> (Basis, liair_math::Mat, usize, RealGrid, PoissonSolver) {
    let edge = 14.0;
    let mut mol = systems::h2();
    mol.translate(liair_math::Vec3::splat(edge / 2.0) - mol.centroid());
    let basis = Basis::sto3g(&mol);
    let scf = liair_scf::rhf(&mol, &basis, &liair_scf::ScfOptions::default());
    let grid = RealGrid::cubic(Cell::cubic(edge), 24);
    let solver = PoissonSolver::isolated(grid);
    (basis, scf.c, scf.nocc, grid, solver)
}

#[test]
fn k_operator_bit_identical_across_backends() {
    // H₂ is one pair; the H chain's four bond orbitals at ε = 0 are ten,
    // so the chain exercises the canonical-order accumulation of `B`.
    let h2 = h2_setup();
    let chain = h_chain(0.0);
    for (basis, c_occ, nocc, grid, solver) in [&h2, &chain] {
        let on_grid = BasisOnGrid::new(basis, grid);
        let base = ExchangeEngine::builder(grid, solver);
        let build = |backend| {
            base.backend(backend)
                .build()
                .unwrap()
                .k_operator(&on_grid, c_occ, *nocc, 0.0)
                .expect("fault-free build")
        };
        let serial = build(ExecBackend::Serial);
        assert!(serial.profile.is_populated());
        assert_eq!(serial.profile.pairs_computed, nocc * (nocc + 1) / 2);

        let rayon = build(ExecBackend::Rayon);
        let d = rayon.k.sub(&serial.k).fro_norm();
        assert_eq!(d, 0.0, "serial vs rayon K differ: {d:e}");
        assert_eq!(
            gradient_bits(&rayon),
            gradient_bits(&serial),
            "rayon gradient"
        );

        for nranks in [1, 3] {
            let out = build(comm(nranks, BalanceStrategy::RoundRobin));
            let d = out.k.sub(&serial.k).fro_norm();
            assert_eq!(d, 0.0, "serial vs comm(nranks={nranks}) K differ: {d:e}");
            assert_eq!(
                gradient_bits(&out),
                gradient_bits(&serial),
                "comm({nranks}) gradient"
            );
        }
    }
}

/// The bits of a K build's exchange gradient.
fn gradient_bits(out: &KBuildOutcome) -> Vec<u64> {
    out.gradient
        .iter()
        .flat_map(|g| [g.x, g.y, g.z])
        .map(f64::to_bits)
        .collect()
}

#[test]
fn k_operator_bits_do_not_depend_on_thread_count() {
    // The rayon build on 1–4 threads: K and its exchange gradient keep
    // their bits (each pair item is serial and the assembly runs in
    // canonical pair order), on H₂ and on the ten pairs of the H chain.
    for (basis, c_occ, nocc, grid, solver) in [&h2_setup(), &h_chain(0.0)] {
        let on_grid = BasisOnGrid::new(basis, grid);
        let on = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    ExchangeEngine::new(grid, solver)
                        .k_operator(&on_grid, c_occ, *nocc, 0.0)
                        .expect("fault-free build")
                })
        };
        let one = on(1);
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in 2..=4 {
            let out = on(threads);
            assert_eq!(bits(&out.k), bits(&one.k), "{threads} threads: K");
            assert_eq!(
                gradient_bits(&out),
                gradient_bits(&one),
                "{threads} threads: gradient"
            );
        }
    }
}

#[test]
fn k_operator_bit_identical_under_injected_faults() {
    let (basis, c_occ, nocc, grid, solver) = h2_setup();
    let on_grid = BasisOnGrid::new(&basis, &grid);
    let clean = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .k_operator(&on_grid, &c_occ, nocc, 0.0)
        .expect("fault-free build");
    for plan in [FaultPlan::messages_only(42), FaultPlan::with_stalls(42)] {
        let faulty = ExchangeEngine::builder(&grid, &solver)
            .backend(comm(3, BalanceStrategy::RoundRobin))
            .fault_plan(plan)
            .build()
            .unwrap()
            .k_operator(&on_grid, &c_occ, nocc, 0.0)
            .expect("recovered faults are not errors");
        assert_eq!(
            faulty.k.sub(&clean.k).fro_norm(),
            0.0,
            "K drifted under faults"
        );
    }
}

#[test]
fn incremental_eps0_energy_bit_identical() {
    let (grid, solver, fields, infos, pairs) = synthetic_setup(4, 20);
    let reference = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .energy(&fields, &pairs);

    let mut inc = IncrementalExchange::new(0.0, 0);
    // Cold build: everything dirty.
    let cold = inc
        .exchange_energy(&grid, &solver, &fields, &infos, &pairs)
        .expect("fault-free build");
    assert_eq!(
        reference.energy.to_bits(),
        cold.energy.to_bits(),
        "cold incremental differs"
    );
    // Rebuild on identical fields: eps_inc = 0 must recompute, not reuse.
    let rebuilt = inc
        .exchange_energy(&grid, &solver, &fields, &infos, &pairs)
        .expect("fault-free build");
    assert_eq!(rebuilt.profile.pairs_reused, 0);
    assert_eq!(
        reference.energy.to_bits(),
        rebuilt.energy.to_bits(),
        "eps_inc=0 rebuild differs"
    );
}

#[test]
fn incremental_eps0_k_bit_identical() {
    let (basis, c_occ, nocc, grid, solver) = h2_setup();
    let on_grid = BasisOnGrid::new(&basis, &grid);
    let reference = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .k_operator(&on_grid, &c_occ, nocc, 0.0)
        .expect("fault-free build");
    let mut inc = IncrementalExchange::new(0.0, 0);
    let out = inc
        .exchange_operator(&on_grid, &c_occ, nocc, &solver, 0.0)
        .expect("fault-free build");
    assert_eq!(out.profile.pairs_computed, reference.profile.pairs_computed);
    assert_eq!(out.profile.pairs_screened, reference.profile.pairs_screened);
    assert_eq!(out.profile.pairs_reused, 0);
    assert_eq!(
        out.k.sub(&reference.k).fro_norm(),
        0.0,
        "incremental eps_inc=0 K differs"
    );
    assert_eq!(
        gradient_bits(&out),
        gradient_bits(&reference),
        "incremental eps_inc=0 gradient differs"
    );
}

/// Four H2 molecules in a row, 8 Bohr apart (STO-3G), with one bond
/// orbital each, the third one's weight tilted by `tilt` toward its
/// second atom — a hand-placed occupied set whose ε-screen drops the
/// pairs of distant bonds; the counters need no SCF-quality grid.
fn h_chain(tilt: f64) -> (Basis, Mat, usize, RealGrid, PoissonSolver) {
    let mut mol = Molecule::new();
    for k in 0..8 {
        let x = 3.0 + 8.0 * (k / 2) as f64 + 1.4 * (k % 2) as f64;
        mol.atoms.push(Atom {
            element: Element::H,
            pos: Vec3::new(x, 5.0, 5.0),
        });
    }
    let basis = Basis::sto3g(&mol);
    let nocc = 4;
    let mut c_occ = Mat::zeros(basis.nao(), nocc);
    for k in 0..nocc {
        let t = if k == 2 { tilt } else { 0.0 };
        c_occ[(2 * k, k)] = 0.6 - t;
        c_occ[(2 * k + 1, k)] = 0.6 + t;
    }
    let grid = RealGrid::new(Cell::orthorhombic(32.0, 10.0, 10.0), (16, 4, 4));
    let solver = PoissonSolver::isolated(grid);
    (basis, c_occ, nocc, grid, solver)
}

/// Every entry point's work counters partition its candidates: computed,
/// reused and screened add up to the candidate pair count `N(N+1)/2` of
/// an energy build and of a K build alike — on every backend, and for the
/// incremental paths cold, all-clean warm and with one orbital moved.
/// Every energy build reports the list's inspected candidates as
/// `pairs_considered`. The K path's computed plus reused pairs are the
/// from-scratch build's computed ones.
#[test]
fn build_counters_partition_the_candidates_on_every_entry_point() {
    let partition = |p: &BuildProfile| p.pairs_computed + p.pairs_reused + p.pairs_screened;
    let (grid, solver, fields, infos, pairs) = periodic_layer(16);
    let candidates = pairs.n_candidates;
    assert!(pairs.len() < candidates, "the layer must screen some pairs");
    assert!(pairs.considered > 0);
    // Orbital 1 moved by a fraction of a Bohr; the pair list is kept.
    let mut centers: Vec<Vec3> = infos.iter().map(|o| o.center).collect();
    centers[1] += Vec3::new(0.3, -0.2, 0.1);
    let (_, _, moved, moved_infos, _) = gaussians(&centers, 3.0 * 4.4, 16, 1e-6);

    const EPS_K: f64 = 1e-2;
    let chain = h_chain(0.0);
    let tilted = h_chain(0.1);
    let npairs = chain.2 * (chain.2 + 1) / 2;
    let scratch_k =
        |(basis, c_occ, nocc, grid, solver): &(Basis, Mat, usize, RealGrid, PoissonSolver)| {
            ExchangeEngine::builder(grid, solver)
                .backend(ExecBackend::Serial)
                .build()
                .unwrap()
                .k_operator(&BasisOnGrid::new(basis, grid), c_occ, *nocc, EPS_K)
                .expect("fault-free build")
                .profile
                .pairs_computed
        };
    let (computed_k, computed_tilted) = (scratch_k(&chain), scratch_k(&tilted));
    assert!(computed_k < npairs, "the chain must screen some pairs");

    for backend in [
        ExecBackend::Serial,
        ExecBackend::Rayon,
        comm(2, BalanceStrategy::GreedyLpt),
        comm(3, BalanceStrategy::GreedyLpt),
    ] {
        let engine = ExchangeEngine::builder(&grid, &solver)
            .backend(backend)
            .build()
            .unwrap();
        for (what, p) in [
            ("energy", engine.energy(&fields, &pairs).profile),
            (
                "energy_patched",
                engine
                    .energy_patched(&fields, &infos, &pairs, 1.0)
                    .expect("fault-free build")
                    .profile,
            ),
        ] {
            assert_eq!(partition(&p), candidates, "{backend:?} {what}: {p:?}");
            assert_eq!(p.pairs_computed, pairs.len(), "{backend:?} {what}");
            assert_eq!(p.pairs_considered, pairs.considered, "{backend:?} {what}");
        }
        let (basis, c_occ, nocc, kgrid, ksolver) = &chain;
        let k = ExchangeEngine::builder(kgrid, ksolver)
            .backend(backend)
            .build()
            .unwrap()
            .k_operator(&BasisOnGrid::new(basis, kgrid), c_occ, *nocc, EPS_K)
            .expect("fault-free build")
            .profile;
        assert_eq!(partition(&k), npairs, "{backend:?} k_operator: {k:?}");
        assert_eq!(k.pairs_computed, computed_k, "{backend:?} k_operator");

        let mut inc = IncrementalExchange::new(1e-12, 0);
        inc.set_backend(backend);
        for (what, orbs, orb_infos) in [
            ("cold", &fields, &infos),
            ("warm", &fields, &infos),
            ("moved", &moved, &moved_infos),
        ] {
            let p = inc
                .exchange_energy(&grid, &solver, orbs, orb_infos, &pairs)
                .expect("fault-free build")
                .profile;
            assert_eq!(
                partition(&p),
                candidates,
                "{backend:?} {what} energy: {p:?}"
            );
            assert_eq!(p.pairs_computed + p.pairs_reused, pairs.len());
            assert_eq!(
                p.pairs_considered, pairs.considered,
                "{backend:?} {what} energy"
            );
            assert_eq!(
                p.pairs_reused > 0,
                what != "cold",
                "{backend:?} {what}: {p:?}"
            );
        }

        // Localization passes the tilt on to the neighbouring orbitals at
        // the 1e-3 level (fingerprint distance), to the tilted one at ~1:
        // a 1e-2 tolerance keeps exactly one orbital dirty.
        let mut inc = IncrementalExchange::new(1e-2, 0);
        inc.set_backend(backend);
        for (what, (basis, c_occ, nocc, kgrid, ksolver), want) in [
            ("cold", &chain, computed_k),
            ("warm", &chain, computed_k),
            ("moved", &tilted, computed_tilted),
        ] {
            let p = inc
                .exchange_operator(
                    &BasisOnGrid::new(basis, kgrid),
                    c_occ,
                    *nocc,
                    ksolver,
                    EPS_K,
                )
                .expect("fault-free build")
                .profile;
            assert_eq!(partition(&p), npairs, "{backend:?} {what} K: {p:?}");
            assert_eq!(
                p.pairs_computed + p.pairs_reused,
                want,
                "{backend:?} {what} K"
            );
            assert_eq!(
                p.pairs_reused > 0,
                what != "cold",
                "{backend:?} {what} K: {p:?}"
            );
            if what == "moved" {
                assert!(
                    p.pairs_computed > 0,
                    "{backend:?}: the tilted orbital is dirty"
                );
            }
        }
    }
}

#[test]
fn comm_backend_reports_gather_volume() {
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(3, 16);
    let out = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Comm {
            nranks: 2,
            strategy: BalanceStrategy::Block,
        })
        .build()
        .unwrap()
        .energy(&fields, &pairs);
    assert!(out.profile.is_populated(), "Comm build must fill profile");
    assert!(out.profile.bytes_reduced > 0);
    assert_eq!(out.profile.pairs_computed, pairs.len());

    let (basis, c_occ, nocc, kgrid, ksolver) = h2_setup();
    let on_grid = BasisOnGrid::new(&basis, &kgrid);
    let k = ExchangeEngine::builder(&kgrid, &ksolver)
        .backend(ExecBackend::Comm {
            nranks: 2,
            strategy: BalanceStrategy::RoundRobin,
        })
        .build()
        .unwrap()
        .k_operator(&on_grid, &c_occ, nocc, 0.0)
        .expect("fault-free build");
    assert!(k.profile.bytes_reduced > 0);
    assert!(k.profile.t_ao_eval_s >= 0.0);
}

#[test]
fn builder_rejects_inconsistent_configuration() {
    let (grid, solver, _fields, _infos, _pairs) = synthetic_setup(2, 12);
    // Zero ranks is meaningless.
    let err = ExchangeEngine::builder(&grid, &solver)
        .backend(comm(0, BalanceStrategy::Block))
        .build();
    assert!(err.is_err());
    // A fault plan whose probabilities cannot be executed.
    let mut plan = FaultPlan::messages_only(1);
    plan.drop_p = 1.5;
    let bad = ExchangeEngine::builder(&grid, &solver).fault_plan(plan);
    assert!(bad.build().is_err());
    // `no_faults` clears a plan set earlier on the builder.
    assert!(bad.no_faults().build().is_ok());
}

#[test]
fn malformed_orbital_sets_are_typed_errors_on_every_backend() {
    // Shape problems are reported before the execute stage starts: a typed
    // error on every backend, never a panic — and on `Comm` before any
    // rank is launched (ranks are scoped threads, so none can outlive a
    // build either way). The engine stays usable afterwards.
    let (grid, solver, fields, infos, pairs) = synthetic_setup(3, 12);
    let mut short = fields.clone();
    short[2].pop();
    let mismatch = Error::OrbitalSizeMismatch {
        expected: grid.len(),
        got: grid.len() - 1,
        orbital: 2,
    };
    let none: Vec<Vec<f64>> = Vec::new();
    let mut want = None;
    for backend in [
        ExecBackend::Serial,
        ExecBackend::Rayon,
        comm(2, BalanceStrategy::GreedyLpt),
    ] {
        let engine = ExchangeEngine::builder(&grid, &solver)
            .backend(backend)
            .build()
            .unwrap();
        for (bad, err) in [(&short, &mismatch), (&none, &Error::EmptyOrbitals)] {
            assert_eq!(engine.try_energy(bad, &pairs).as_ref(), Err(err));
        }
        assert_eq!(
            engine.energy_patched(&short, &infos, &pairs, 1.0),
            Err(mismatch.clone())
        );
        // One `OrbitalInfo` short of the orbital count.
        let err = engine.energy_patched(&fields, &infos[..2], &pairs, 1.0);
        assert!(matches!(err, Err(Error::InvalidConfig(_))), "{err:?}");
        let mut inc = IncrementalExchange::new(0.0, 0);
        inc.set_backend(backend);
        let err = inc.exchange_energy(&grid, &solver, &fields, &infos[..2], &pairs);
        assert!(matches!(err, Err(Error::InvalidConfig(_))), "{err:?}");

        let after = engine.try_energy(&fields, &pairs).expect("valid build");
        let bits = after.energy.to_bits();
        assert_eq!(*want.get_or_insert(bits), bits, "{backend:?}");
    }
}

#[test]
fn patched_energy_accuracy_is_controlled_by_margin() {
    // The paper's "controllable accuracy" on the patch path: a patch
    // solves the pair with the isolated kernel on a box of its own, so it
    // drops what of the pair density lies outside — less with every Bohr
    // of margin, nothing once the patch is the cell.
    let (grid, solver, fields, infos, pairs) = periodic_layer(20);
    // 9 self pairs + 18 nearest-neighbour pairs, a third of those across
    // the periodic boundary.
    assert_eq!(pairs.len(), 9 + 18);
    let base = ExchangeEngine::builder(&grid, &solver);
    let serial = base.backend(ExecBackend::Serial).build().unwrap();
    let full = serial.energy(&fields, &pairs).energy;

    let mut errs = Vec::new();
    for margin in [0.0, 1.0, 4.0] {
        let patched = serial
            .energy_patched(&fields, &infos, &pairs, margin)
            .expect("fault-free build");
        assert!(patched.profile.is_populated());
        assert_eq!(patched.profile.pairs_computed, pairs.len());
        for backend in [ExecBackend::Rayon, comm(2, BalanceStrategy::GreedyLpt)] {
            let other = base
                .backend(backend)
                .build()
                .unwrap()
                .energy_patched(&fields, &infos, &pairs, margin)
                .expect("fault-free build");
            assert_eq!(
                patched.energy.to_bits(),
                other.energy.to_bits(),
                "margin {margin}: Serial vs {backend:?}"
            );
        }
        errs.push(((patched.energy - full) / full).abs());
    }
    println!("patched vs full-cell relative error at margins 0/1/4 Bohr: {errs:?}");
    assert!(errs[0] <= 1e-3, "{errs:?}");
    assert!(errs[1] <= 5e-5, "{errs:?}");
    // At 4 Bohr every patch is clamped to the cell: the patch *is* the
    // full-cell solve, up to the order of a sum.
    assert!(errs[2] <= 1e-12, "{errs:?}");
    assert!(errs[0] >= errs[1] && errs[1] >= errs[2], "{errs:?}");
}
