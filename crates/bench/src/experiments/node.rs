//! Node-level and interconnect experiments.
//!
//! * `fig-node-threading` — the extreme-threading/SIMD claim: the modelled
//!   BG/Q thread/SMT/SIMD scaling curves next to a *real* measurement of
//!   the pair kernel under rayon thread pools on the host machine;
//! * `fig-torus-mapping` — topology-aware vs topology-oblivious
//!   collectives on the 5-D torus (the mapping ablation).

use crate::Table;
use liair_basis::Cell;
use liair_bgq::collectives::{allreduce, alltoall, broadcast, CollectiveAlgo};
use liair_bgq::{MachineConfig, NodeModel};
use liair_grid::{PoissonSolver, PoissonWorkspace, RealGrid};
use std::time::Instant;

/// Run the threading experiment.
pub fn fig_node_threading(fast: bool) -> Vec<Table> {
    // --- model: BG/Q node ---
    let node = NodeModel::bgq();
    let mut t1 = Table::modeled(
        "fig-node-threading — BG/Q node model (relative throughput)",
        &["threads", "scalar", "SIMD (QPX)", "SIMD speedup"],
    );
    for &threads in &[1usize, 2, 4, 8, 16, 32, 48, 64] {
        let scalar = node.sustained_gflops(threads, false);
        let simd = node.sustained_gflops(threads, true);
        t1.row(vec![
            format!("{threads}"),
            format!("{:.1} GF/s", scalar),
            format!("{:.1} GF/s", simd),
            format!("{:.2}x", simd / scalar),
        ]);
    }
    let smt = node.thread_scaling(64) / node.thread_scaling(16);
    t1.note = format!(
        "16 cores scale linearly; 4-way SMT adds {:.2}x; QPX SIMD ~{:.1}x — all three trends the paper exploits \
         (literature simd_efficiency {:.2})",
        smt,
        node.sustained_gflops(16, true) / node.sustained_gflops(16, false),
        node.simd_efficiency
    );

    // --- real measurement: the pair kernel under rayon ---
    let grid_n = if fast { 32 } else { 48 };
    let pairs = if fast { 8 } else { 16 };
    let grid = RealGrid::cubic(Cell::cubic(20.0), grid_n);
    let solver = PoissonSolver::isolated(grid);
    let rho: Vec<Vec<f64>> = (0..pairs)
        .map(|k| {
            let mut rng = liair_math::rng::SplitMix64::new(k as u64);
            (0..grid.len()).map(|_| rng.next_f64() - 0.5).collect()
        })
        .collect();
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut t2 = Table::measured(
        &format!("fig-node-threading — measured pair kernel ({grid_n}³ FFT solve), host machine"),
        &["rayon threads", "time/batch [ms]", "speedup"],
    );
    let mut t_base = 0.0;
    let mut threads = 1usize;
    while threads <= max_threads {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        // Warm up once, then time the batch.
        let elapsed = pool.install(|| {
            use rayon::prelude::*;
            let run = || {
                (0..rho.len())
                    .into_par_iter()
                    .map_init(PoissonWorkspace::new, |ws, k| {
                        solver.exchange_pair_energy(&rho[k], ws)
                    })
                    .reduce(|| 0.0, |a, b| a + b)
            };
            let _ = run();
            let t0 = Instant::now();
            let _ = run();
            t0.elapsed().as_secs_f64()
        });
        if threads == 1 {
            t_base = elapsed;
        }
        t2.row(vec![
            format!("{threads}"),
            format!("{:.2}", elapsed * 1e3),
            format!("{:.2}x", t_base / elapsed),
        ]);
        threads *= 2;
    }
    t2.note = "real rayon scaling of the identical kernel the node model prices".into();
    vec![t1, t2]
}

/// Run the torus-mapping ablation.
pub fn fig_torus_mapping(fast: bool) -> Vec<Table> {
    let m = MachineConfig::bgq_racks(if fast { 4 } else { 16 });
    let mut t1 = Table::modeled(
        &format!(
            "fig-torus-mapping — allreduce on {} nodes ({:?} torus)",
            m.nodes(),
            m.torus.dims
        ),
        &["message", "torus-pipelined", "binomial tree", "penalty"],
    );
    for &bytes in &[8.0, 8.0e3, 1.0e6, 3.36e7, 2.68e8] {
        let fastc = allreduce(&m, CollectiveAlgo::TorusPipelined, bytes);
        let slow = allreduce(&m, CollectiveAlgo::BinomialTree, bytes);
        t1.row(vec![
            human_bytes(bytes),
            format!("{:.1} us", fastc * 1e6),
            format!("{:.1} us", slow * 1e6),
            format!("{:.1}x", slow / fastc),
        ]);
    }
    t1.note = "topology-aware mapping is what makes the per-build reduction cheap".into();

    let mut t2 = Table::modeled(
        "fig-torus-mapping — broadcast and the all-to-all wall",
        &["nodes", "bcast 33 MB", "alltoall 33 MB/node"],
    );
    for &r in &[1usize, 8, 96] {
        let mc = MachineConfig::bgq_racks(r);
        let b = broadcast(&mc, CollectiveAlgo::TorusPipelined, 3.36e7);
        let a = alltoall(&mc, 3.36e7 / mc.nodes() as f64);
        t2.row(vec![
            format!("{}", mc.nodes()),
            format!("{:.2} ms", b * 1e3),
            format!("{:.2} ms", a * 1e3),
        ]);
    }
    t2.note = "the all-to-all's P-linear message count is the distributed-FFT killer".into();
    vec![t1, t2]
}

/// `fig-link-congestion`: static dimension-ordered routing of three
/// traffic patterns over a midplane torus — why the pair scheme's
/// locality-aware traffic keeps every link cool.
pub fn fig_link_congestion(fast: bool) -> Vec<Table> {
    use liair_bgq::routing::{patterns, route_traffic};
    let torus = if fast {
        liair_bgq::Torus5D::new([4, 4, 4, 2, 2]) // node board ×4
    } else {
        liair_bgq::Torus5D::new([4, 4, 4, 4, 2]) // midplane, 512 nodes
    };
    let mut t = Table::modeled(
        &format!(
            "fig-link-congestion — dimension-ordered routing on {:?} ({} nodes)",
            torus.dims,
            torus.nodes()
        ),
        &["pattern", "max link load", "mean link load", "congestion"],
    );
    let per_pair = 1.0;
    type Demands = Vec<(usize, usize, f64)>;
    let rows: Vec<(&str, Demands)> = vec![
        (
            "neighbor exchange (pair scheme)",
            patterns::neighbor_exchange(&torus, per_pair),
        ),
        (
            "random permutation",
            patterns::random_permutation(&torus, per_pair, 7),
        ),
        (
            "all-to-all (distributed FFT)",
            patterns::alltoall(&torus, per_pair),
        ),
    ];
    for (name, demands) in rows {
        let loads = route_traffic(&torus, &demands);
        t.row(vec![
            name.into(),
            format!("{:.1}", loads.max()),
            format!("{:.2}", loads.mean_over_active()),
            format!("{:.2}x", loads.congestion()),
        ]);
    }
    t.note = "equal bytes per communicating pair; congestion = max/mean link load".into();
    vec![t]
}

fn human_bytes(b: f64) -> String {
    if b >= 1e6 {
        format!("{:.0} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.0} kB", b / 1e3)
    } else {
        format!("{:.0} B", b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_model_table_simd_column() {
        let t = &fig_node_threading(true)[0];
        // The SIMD speedup column is > 3x everywhere for the BG/Q model.
        for row in &t.rows {
            let x: f64 = row[3].text().trim_end_matches('x').parse().unwrap();
            assert!(x > 3.0, "{row:?}");
        }
    }

    #[test]
    fn torus_beats_tree_at_large_messages() {
        let t = &fig_torus_mapping(true)[0];
        let last = t.rows.last().unwrap();
        let penalty: f64 = last[3].text().trim_end_matches('x').parse().unwrap();
        assert!(penalty > 3.0, "penalty {penalty}");
    }
}
