//! Cross-driver equivalence suite for the staged [`ExchangeEngine`]: every
//! execution backend (serial, rayon, message-passing `Comm`) must produce
//! **bit-identical** energies and K matrices, and the incremental driver
//! with `eps_inc = 0` must reproduce the from-scratch build exactly. The
//! distributed backend must additionally hold the guarantee *under
//! injected faults* — dropped, delayed, duplicated messages and stalled
//! ranks — because retransmission and chunk re-issue replay the identical
//! kernel.
//!
//! The SIMD level is latched once per process inside `liair-math`, so CI
//! runs the whole binary under a `LIAIR_SIMD` matrix and a
//! `LIAIR_FAULT_SEED` matrix to exercise the env-driven defaults.

use liair_basis::{systems, Basis, Cell};
use liair_core::engine::BuildProfile;
use liair_core::screening::{build_pair_list, OrbitalInfo, Pair, PairList};
use liair_core::{BalanceStrategy, ExchangeEngine, ExecBackend, FaultPlan, IncrementalExchange};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::rng::SplitMix64;
use liair_math::Vec3;

/// Smooth synthetic "orbitals": normalized Gaussians at random centers.
fn synthetic_setup(
    norb: usize,
    n: usize,
) -> (
    RealGrid,
    PoissonSolver,
    Vec<Vec<f64>>,
    Vec<OrbitalInfo>,
    PairList,
) {
    let l = 14.0;
    let grid = RealGrid::cubic(Cell::cubic(l), n);
    let solver = PoissonSolver::isolated(grid);
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
    let pairs = build_pair_list(&infos, 0.0, Some(&grid.cell));
    (grid, solver, fields, infos, pairs)
}

fn comm(nranks: usize, strategy: BalanceStrategy) -> ExecBackend {
    ExecBackend::Comm { nranks, strategy }
}

#[test]
fn energy_bit_identical_across_backends() {
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(4, 20);
    let base = ExchangeEngine::builder(&grid, &solver).no_faults();
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

    for nranks in [1, 3, 4] {
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
        .no_faults()
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
    // The CI fault matrix seeds (LIAIR_FAULT_SEED = 7, 13, 42), run
    // explicitly: the pipeline's streamed out-of-order reassembly, steal
    // queue, and mid-build straggler re-issue must leave every bit where
    // the serial reference put it.
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(4, 16);
    let nchunks = pairs.len().div_ceil(2);
    let serial = ExchangeEngine::builder(&grid, &solver)
        .no_faults()
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
    let serial = ExchangeEngine::builder(&kgrid, &ksolver)
        .backend(ExecBackend::Serial)
        .no_faults()
        .build()
        .unwrap()
        .k_operator(&basis, &c_occ, nocc, 0.0);
    let ntasks = nocc * basis.nao();
    for plan in [None, Some(7u64), Some(13), Some(42)] {
        let mut b = ExchangeEngine::builder(&kgrid, &ksolver)
            .backend(comm(3, BalanceStrategy::GreedyLpt))
            .no_faults();
        if let Some(seed) = plan {
            b = b.fault_plan(FaultPlan::with_stalls(seed));
        }
        let pipelined = b.build().unwrap().k_operator(&basis, &c_occ, nocc, 0.0);
        assert_eq!(serial.evaluated, pipelined.evaluated);
        assert_eq!(serial.skipped, pipelined.skipped);
        assert_eq!(
            pipelined.k.sub(&serial.k).fro_norm(),
            0.0,
            "{plan:?}: K columns must reassemble identically under streamed arrival"
        );
        assert_eq!(
            pipelined.profile.chunks_stolen,
            ntasks / 4 + pipelined.profile.chunks_reissued,
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
    let (basis, c_occ, nocc, grid, solver) = h2_setup();
    let base = ExchangeEngine::builder(&grid, &solver).no_faults();
    let serial = base
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .k_operator(&basis, &c_occ, nocc, 0.0);
    assert!(serial.profile.is_populated());
    assert_eq!(serial.evaluated, nocc * basis.nao());

    let rayon = base
        .backend(ExecBackend::Rayon)
        .build()
        .unwrap()
        .k_operator(&basis, &c_occ, nocc, 0.0);
    let d = rayon.k.sub(&serial.k).fro_norm();
    assert_eq!(d, 0.0, "serial vs rayon K differ: {d:e}");

    for nranks in [1, 3] {
        let out = base
            .backend(comm(nranks, BalanceStrategy::RoundRobin))
            .build()
            .unwrap()
            .k_operator(&basis, &c_occ, nocc, 0.0);
        let d = out.k.sub(&serial.k).fro_norm();
        assert_eq!(d, 0.0, "serial vs comm(nranks={nranks}) K differ: {d:e}");
    }
}

#[test]
fn k_operator_bit_identical_under_injected_faults() {
    let (basis, c_occ, nocc, grid, solver) = h2_setup();
    let clean = ExchangeEngine::builder(&grid, &solver)
        .no_faults()
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .k_operator(&basis, &c_occ, nocc, 0.0);
    for plan in [FaultPlan::messages_only(42), FaultPlan::with_stalls(42)] {
        let faulty = ExchangeEngine::builder(&grid, &solver)
            .backend(comm(3, BalanceStrategy::RoundRobin))
            .fault_plan(plan)
            .build()
            .unwrap()
            .k_operator(&basis, &c_occ, nocc, 0.0);
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
    let cold = inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
    assert_eq!(
        reference.energy.to_bits(),
        cold.energy.to_bits(),
        "cold incremental differs"
    );
    // Rebuild on identical fields: eps_inc = 0 must recompute, not reuse.
    let rebuilt = inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
    assert_eq!(rebuilt.inc.pairs_reused, 0);
    assert_eq!(
        reference.energy.to_bits(),
        rebuilt.energy.to_bits(),
        "eps_inc=0 rebuild differs"
    );
}

/// The backends the slice-independence contract is held on, each with an
/// optional fault plan (ignored off the `Comm` backend).
fn backends_and_faults() -> Vec<(ExecBackend, Option<FaultPlan>)> {
    let mut out = vec![(ExecBackend::Serial, None), (ExecBackend::Rayon, None)];
    for nranks in [1, 2, 3] {
        let b = comm(nranks, BalanceStrategy::GreedyLpt);
        out.push((b, None));
        out.push((b, Some(FaultPlan::with_stalls(13))));
    }
    out
}

#[test]
fn pair_contribution_is_slice_independent() {
    // A pair's contribution is a pure function of the pair: whichever
    // slice of the list it is evaluated in, at whichever position, on
    // whichever backend, it carries the same bits. 16³ is a grid where a
    // chunk-partner-dependent kernel shows up in the last 1–2 bits.
    let (grid, solver, fields, infos, pairs) = synthetic_setup(4, 16);
    let all = &pairs.pairs;
    let full = ExchangeEngine::builder(&grid, &solver)
        .no_faults()
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .pair_contribs(&fields, all, &mut BuildProfile::default());
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();

    for (backend, fault) in backends_and_faults() {
        let mut b = ExchangeEngine::builder(&grid, &solver)
            .backend(backend)
            .no_faults();
        if let Some(plan) = fault {
            b = b.fault_plan(plan);
        }
        let engine = b.build().unwrap();
        let what = format!("{backend:?} fault={}", fault.is_some());
        let run = |slice: &[Pair]| {
            bits(&engine.pair_contribs(&fields, slice, &mut BuildProfile::default()))
        };
        assert_eq!(run(all), bits(&full), "{what}: full list");
        // Every sub-slice, so every pair meets every chunk position and
        // partner; odd-length prefixes are the `0..end` rows.
        for start in 0..all.len() {
            for end in start + 1..=all.len() {
                assert_eq!(
                    run(&all[start..end]),
                    bits(&full[start..end]),
                    "{what}: slice {start}..{end}"
                );
            }
        }
        let reversed: Vec<Pair> = all.iter().rev().copied().collect();
        let want: Vec<f64> = full.iter().rev().copied().collect();
        assert_eq!(run(&reversed), bits(&want), "{what}: reversed list");
    }

    // Warm incremental build with a partial dirty set: move one orbital,
    // so only its pairs are recomputed — as a short list with different
    // chunk partners than in the full one. (The tolerance is the smallest
    // that still reuses: eps_inc = 0 would recompute everything and hide
    // the dirty slice.) Every contribution the cache then holds must be
    // the from-scratch build's, bit for bit; a one-pair list reads one
    // cached entry back as the build's energy.
    let mut moved = fields.clone();
    let shift = Vec3::new(0.3, -0.2, 0.1);
    let norm = (2.0 * 1.1 / std::f64::consts::PI).powf(0.75);
    moved[1] = (0..grid.len())
        .map(|i| {
            let d = grid
                .cell
                .min_image(infos[1].center + shift, grid.point_flat(i));
            norm * (-1.1 * d.norm_sqr()).exp()
        })
        .collect();
    let scratch = ExchangeEngine::builder(&grid, &solver)
        .no_faults()
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .pair_contribs(&moved, all, &mut BuildProfile::default());
    let clean_backends = backends_and_faults()
        .into_iter()
        .filter(|(_, fault)| fault.is_none());
    for (backend, _) in clean_backends {
        let mut inc = IncrementalExchange::new(1e-12, 0);
        inc.set_backend(backend);
        inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
        let warm = inc.exchange_energy(&grid, &solver, &moved, &infos, &pairs);
        let touching = all.iter().filter(|p| p.i == 1 || p.j == 1).count();
        assert_eq!(warm.inc.pairs_recomputed, touching, "{backend:?}");
        assert_eq!(warm.inc.pairs_reused, all.len() - touching, "{backend:?}");
        for (p, want) in all.iter().zip(&scratch) {
            let one = PairList {
                pairs: vec![*p],
                ..pairs.clone()
            };
            let held = inc.exchange_energy(&grid, &solver, &moved, &infos, &one);
            assert_eq!(
                held.inc.pairs_reused, 1,
                "{backend:?}: pair ({}, {})",
                p.i, p.j
            );
            assert_eq!(
                held.energy.to_bits(),
                want.to_bits(),
                "{backend:?}: cached ({}, {}) is not the from-scratch contribution",
                p.i,
                p.j
            );
        }
    }
}

#[test]
fn public_wrappers_match_pinned_default_engine() {
    // The thin public entry points must equal an engine configured the way
    // the wrappers configure it — same default backend — down to the last
    // bit.
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(3, 20);
    let wrapper = liair_core::exchange_energy(&grid, &solver, &fields, &pairs);
    let engine = ExchangeEngine::new(&grid, &solver).energy(&fields, &pairs);
    assert_eq!(wrapper.energy.to_bits(), engine.energy.to_bits());

    let dist = liair_core::distributed::distributed_exchange(
        &grid,
        &solver,
        &fields,
        &pairs,
        3,
        BalanceStrategy::GreedyLpt,
    );
    assert_eq!(wrapper.energy.to_bits(), dist.energy.to_bits());

    let (basis, c_occ, nocc, kgrid, ksolver) = h2_setup();
    let (k_ref, ev, sk) = liair_core::operator::exchange_operator_grid_screened(
        &basis, &c_occ, nocc, &kgrid, &ksolver, 0.0,
    );
    let out = ExchangeEngine::new(&kgrid, &ksolver).k_operator(&basis, &c_occ, nocc, 0.0);
    assert_eq!(out.evaluated, ev);
    assert_eq!(out.skipped, sk);
    assert_eq!(out.k.sub(&k_ref).fro_norm(), 0.0);

    let k_dist = liair_core::distributed::distributed_exchange_operator(
        &basis, &c_occ, nocc, &kgrid, &ksolver, 3,
    );
    assert_eq!(k_dist.sub(&k_ref).fro_norm(), 0.0);
}

#[test]
fn incremental_eps0_k_bit_identical() {
    let (basis, c_occ, nocc, grid, solver) = h2_setup();
    let reference = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .k_operator(&basis, &c_occ, nocc, 0.0);
    let mut inc = IncrementalExchange::new(0.0, 0);
    let (k_inc, ev, sk, stats) = inc.exchange_operator(&basis, &c_occ, nocc, &grid, &solver, 0.0);
    assert_eq!(ev, reference.evaluated);
    assert_eq!(sk, reference.skipped);
    assert_eq!(stats.pairs_reused, 0);
    assert_eq!(
        k_inc.sub(&reference.k).fro_norm(),
        0.0,
        "incremental eps_inc=0 K differs"
    );
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
    assert!(out.profile.bytes_reduced > 0);
    assert_eq!(out.profile.pairs_computed, pairs.len());

    let (basis, c_occ, nocc, kgrid, ksolver) = h2_setup();
    let k = ExchangeEngine::builder(&kgrid, &ksolver)
        .backend(ExecBackend::Comm {
            nranks: 2,
            strategy: BalanceStrategy::RoundRobin,
        })
        .build()
        .unwrap()
        .k_operator(&basis, &c_occ, nocc, 0.0);
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
    let err = ExchangeEngine::builder(&grid, &solver)
        .fault_plan(plan)
        .build();
    assert!(err.is_err());
}
