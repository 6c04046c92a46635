//! Fault-tolerant distributed exchange: the same build, three ways.
//!
//! One screened exchange build runs serial (the bitwise reference), then
//! over the message-passing runtime at several rank counts, then under a
//! seeded fault plan that drops, delays, duplicates, and stalls — and
//! every energy agrees to the last bit, because retransmission recovers
//! lost messages and a stalled rank's chunks are re-issued to the
//! survivors through the identical kernel. Finally the runtime's tree
//! gather is routed on the fitted 5-D torus, next to the model's price of
//! a flat root gather, to show what the hierarchical collective buys at
//! scale.
//!
//! Run with: `cargo run --release --example fault_tolerant_exchange`

use liair::bgq::collectives::{gather, CollectiveAlgo};
use liair::core::screening::build_pair_list;
use liair::prelude::*;

fn main() {
    println!("== fault-tolerant distributed exchange ==\n");

    // Synthetic localized orbitals: normalized Gaussians in a box.
    let l = 14.0;
    let grid = RealGrid::cubic(Cell::cubic(l), 20);
    let solver = PoissonSolver::isolated(grid);
    let mut rng = liair::math::rng::SplitMix64::new(99);
    let centers: Vec<Vec3> = (0..4)
        .map(|_| {
            Vec3::new(
                rng.range_f64(4.0, 10.0),
                rng.range_f64(4.0, 10.0),
                rng.range_f64(4.0, 10.0),
            )
        })
        .collect();
    let orbitals: Vec<Vec<f64>> = centers
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
    println!(
        "workload: {} orbitals, {} screened pairs on a {}^3 grid",
        orbitals.len(),
        pairs.len(),
        20
    );

    // The bitwise reference: one worker, canonical order.
    let reference = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .energy(&orbitals, &pairs);
    println!(
        "\nserial reference:        E_x = {:.12} Ha",
        reference.energy
    );

    // Distributed, clean wire: streamed results, stolen tail.
    for nranks in [2, 4] {
        let out = ExchangeEngine::builder(&grid, &solver)
            .backend(ExecBackend::Comm {
                nranks,
                strategy: BalanceStrategy::GreedyLpt,
            })
            .build()
            .unwrap()
            .energy(&orbitals, &pairs);
        println!(
            "comm x{nranks}:                 E_x = {:.12} Ha  (bitwise match: {}, {} chunk(s) stolen)",
            out.energy,
            out.energy.to_bits() == reference.energy.to_bits(),
            out.profile.chunks_stolen
        );
    }

    // A hostile wire: 10% drops, 10% delays, 5% duplicates, stalled ranks.
    println!();
    for plan in [FaultPlan::messages_only(7), FaultPlan::with_stalls(13)] {
        let out = ExchangeEngine::builder(&grid, &solver)
            .backend(ExecBackend::Comm {
                nranks: 4,
                strategy: BalanceStrategy::GreedyLpt,
            })
            .fault_plan(plan)
            .build()
            .unwrap()
            .energy(&orbitals, &pairs);
        println!(
            "faulty wire (stall_p = {:.3}): E_x = {:.12} Ha  (bitwise match: {})",
            plan.stall_p,
            out.energy,
            out.energy.to_bits() == reference.energy.to_bits()
        );
        println!(
            "    degradation: {} rank(s) stalled, {} chunk(s) re-issued, {} recv retries",
            out.profile.ranks_stalled, out.profile.chunks_reissued, out.profile.comm_retries
        );
    }

    // Route the executed tree gather on the fitted torus, and price the
    // flat root gather the runtime no longer ships on the same machine.
    let nranks = 32;
    println!("\ngather pattern on the fitted torus ({nranks} ranks, 80 B each):");
    let cfg = CommConfig {
        fault: None,
        torus: Some(fit_torus(nranks)),
    };
    let run = run_spmd_cfg(nranks, cfg, |comm| {
        comm.gather(0, vec![comm.rank() as f64; 10]).unwrap();
    })
    .unwrap();
    let log = run.traffic.unwrap();
    let machine = MachineConfig::bgq_nodes(nranks);
    println!(
        "  executed tree: {} wire messages, mean hops {:.2}, routed time {:.2} us",
        log.messages(),
        log.mean_hops(),
        log.modeled_comm_time(&machine) * 1e6
    );
    println!(
        "  modeled:       flat root {:.2} us, binomial tree {:.2} us",
        gather(&machine, CollectiveAlgo::FlatRoot, 80.0) * 1e6,
        gather(&machine, CollectiveAlgo::BinomialTree, 80.0) * 1e6
    );
    println!(
        "\nat 98,304 nodes the flat gather pays (P-1)*alpha ~ 0.2 s per build;\n\
         the binomial tree pays ceil(log2 P)*alpha ~ 34 us — run\n\
         `repro bench-collectives` for the full modeled series."
    );
}
