//! BG/Q-scale execution of the exchange build, for the paper's scaling
//! figures.
//!
//! Three parallelization schemes are priced on the machine model:
//!
//! * [`Scheme::PairDistributed`] — **this work**: screened pairs on
//!   pair-local grids, balanced across node groups, node-local threaded
//!   FFTs, one reduction per build. The per-node work vector comes from the
//!   *actual* load-balancer assignment of the *actual* screened pair list.
//! * [`Scheme::FullGridPairs`] — the "directly comparable approach" of the
//!   abstract's >10× time-to-solution claim: the same pair distribution but
//!   with full-cell FFTs (no compact pair-local representation) and no
//!   hierarchical node groups.
//! * [`Scheme::PwDistributed`] — the prior state of the art in scaling:
//!   plane-wave-decomposed FFTs across the whole partition (pencil
//!   decomposition, all-to-alls per transform). Its useful node count is
//!   capped by the pencil count, which is what limits it to ~0.3 M threads
//!   (hence the abstract's "more than 20-fold" scalability gap).
//! * [`Scheme::ReplicatedDirect`] — a Gaussian integral-direct exchange
//!   with replicated density and a full K-matrix allreduce per build (the
//!   conventional quantum-chemistry route), included for context.

use crate::balance::{assign_pairs, BalanceStrategy};
use crate::workload::Workload;
use liair_bgq::bsp::{comm_time, simulate, BspPhase, BspReport, CommOp, PhaseCompute, PhaseTiming};
use liair_bgq::collectives::{self, CollectiveAlgo};
use liair_bgq::MachineConfig;
use serde::{Deserialize, Serialize};

/// Which parallelization to model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// The paper's scheme.
    PairDistributed {
        /// Task balancing strategy.
        strategy: BalanceStrategy,
        /// Nodes cooperating on one pair (None = automatic).
        group_size: Option<usize>,
        /// Threads per node (1..=64).
        threads: usize,
        /// Whether the QPX-style SIMD kernels are used.
        simd: bool,
    },
    /// Pair-distributed but with full-cell grids, flat (no groups).
    FullGridPairs,
    /// Plane-wave (pencil) distributed FFTs.
    PwDistributed,
    /// Replicated-data integral-direct Gaussian exchange.
    ReplicatedDirect,
}

impl Scheme {
    /// Default configuration of the paper's scheme.
    pub fn ours() -> Scheme {
        Scheme::PairDistributed {
            strategy: BalanceStrategy::GreedyLpt,
            group_size: None,
            threads: 64,
            simd: true,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::PairDistributed { .. } => "pair-distributed (this work)",
            Scheme::FullGridPairs => "full-grid pairs (comparable approach)",
            Scheme::PwDistributed => "PW-distributed (prior state of the art)",
            Scheme::ReplicatedDirect => "replicated integral-direct",
        }
    }
}

/// Result of a modelled build.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Scheme label.
    pub scheme: String,
    /// Machine size in nodes.
    pub nodes: usize,
    /// Machine size in hardware threads.
    pub threads: usize,
    /// Wall time of one exchange build (seconds).
    pub time: f64,
    /// Node-group size used (1 for flat schemes).
    pub group_size: usize,
    /// Phase-resolved report — the model's whole account of the build
    /// (measured builds report a `BuildProfile` instead; the two never
    /// share a type).
    pub report: BspReport,
}

/// Pick the node-group size: smallest power of two giving each group at
/// least ~4 tasks, capped at 64 (the intra-group FFT stops paying off).
pub fn auto_group_size(npairs: usize, nodes: usize) -> usize {
    let mut g = 1usize;
    while g < 64 && npairs * g < 4 * nodes {
        g *= 2;
    }
    g.min(nodes.max(1))
}

/// Parallel efficiency of distributing one pair FFT over `g` nodes
/// (pencil exchange inside a compact subtorus; fitted to published
/// small-transpose scalings).
fn group_fft_efficiency(g: usize) -> f64 {
    0.93f64.powf((g as f64).log2())
}

/// Model one exchange build.
pub fn simulate_hfx_build(
    w: &Workload,
    m: &MachineConfig,
    scheme: Scheme,
    algo: CollectiveAlgo,
) -> SimOutcome {
    let nodes = m.nodes();
    match scheme {
        Scheme::PairDistributed {
            strategy,
            group_size,
            threads,
            simd,
        } => {
            let g = group_size
                .unwrap_or_else(|| auto_group_size(w.pairs.len(), nodes))
                .clamp(1, nodes);
            let ngroups = (nodes / g).max(1);
            let assignment = assign_pairs(&w.pairs, ngroups, strategy);
            let t_pair = m.node.compute_time(w.pair_flops(), threads, simd)
                / (g as f64 * group_fft_efficiency(g));
            // Per-node compute vector: every node of a group carries the
            // group's time.
            let mut per_node = vec![0.0; nodes];
            for (grp, &load) in assignment.loads.iter().enumerate() {
                for member in 0..g {
                    let node = grp * g + member;
                    if node < nodes {
                        per_node[node] = load * t_pair;
                    }
                }
            }
            let max_pairs = assignment
                .per_rank
                .iter()
                .map(|v| v.len())
                .max()
                .unwrap_or(0) as f64;
            // Traffic: pairs are assigned in orbital blocks (locality-aware),
            // so a node touches ~2√(2·pairs) distinct orbitals — each
            // orbital's patch is fetched once and its accumulated exchange
            // potential returned once. Prefetching hides this behind the
            // FFTs; only the non-hideable remainder is charged.
            let unique_orbitals = (2.0 * (2.0 * max_pairs).sqrt())
                .min(2.0 * max_pairs)
                .min(w.norb as f64);
            let traffic_bytes = unique_orbitals * 2.0 * w.patch_bytes() / g as f64;
            let t_traffic = collectives::point_to_point(m, traffic_bytes);
            let compute_report = simulate(
                m,
                algo,
                &[BspPhase {
                    name: "pair FFTs".into(),
                    compute: PhaseCompute::PerRank(per_node),
                    comm: CommOp::None,
                }],
            );
            let makespan = compute_report.total;
            let exposed_comm = (t_traffic - makespan).max(0.0);
            let t_allreduce = comm_time(m, algo, &CommOp::Allreduce { bytes: 8.0 });
            let total = makespan + exposed_comm + t_allreduce;
            let report = BspReport {
                total,
                phases: vec![
                    PhaseTiming {
                        name: "pair FFTs".into(),
                        compute: makespan,
                        compute_mean: compute_report.phases[0].compute_mean,
                        comm: 0.0,
                    },
                    PhaseTiming {
                        name: "patch traffic (exposed)".into(),
                        compute: 0.0,
                        compute_mean: 0.0,
                        comm: exposed_comm,
                    },
                    PhaseTiming {
                        name: "energy allreduce".into(),
                        compute: 0.0,
                        compute_mean: 0.0,
                        comm: t_allreduce,
                    },
                ],
                compute_utilization: if total > 0.0 {
                    compute_report.phases[0].compute_mean / total
                } else {
                    1.0
                },
                imbalance: compute_report.imbalance,
            };
            SimOutcome {
                scheme: scheme.name().into(),
                nodes,
                threads: m.threads(),
                time: total,
                group_size: g,
                report,
            }
        }
        Scheme::FullGridPairs => {
            // Same pair list & balancing, but each pair transforms the full
            // cell grid node-locally; no groups, so at extreme scale the
            // integer pair quantum also costs efficiency.
            let assignment = assign_pairs(&w.pairs, nodes, BalanceStrategy::GreedyLpt);
            let t_pair = m.node.compute_time(w.full_grid_flops(), 64, true);
            let per_node: Vec<f64> = assignment.loads.iter().map(|&l| l * t_pair).collect();
            let max_pairs = assignment
                .per_rank
                .iter()
                .map(|v| v.len())
                .max()
                .unwrap_or(0) as f64;
            // Without the compact pair-local representation, the orbital
            // data moved is the full real-space field (same locality-aware
            // unique-orbital model as the main scheme, to keep the
            // comparison about representation and decomposition).
            let unique_orbitals = (2.0 * (2.0 * max_pairs).sqrt())
                .min(2.0 * max_pairs)
                .min(w.norb as f64);
            let traffic_bytes = unique_orbitals * 2.0 * w.full_grid_bytes() / 2.0;
            let t_traffic = collectives::point_to_point(m, traffic_bytes);
            let compute_report = simulate(
                m,
                algo,
                &[BspPhase {
                    name: "pair FFTs (full grid)".into(),
                    compute: PhaseCompute::PerRank(per_node),
                    comm: CommOp::None,
                }],
            );
            let makespan = compute_report.total;
            let exposed_comm = (t_traffic - makespan).max(0.0);
            let t_allreduce = comm_time(m, algo, &CommOp::Allreduce { bytes: 8.0 });
            let total = makespan + exposed_comm + t_allreduce;
            let report = BspReport {
                total,
                phases: vec![
                    PhaseTiming {
                        name: "pair FFTs (full grid)".into(),
                        compute: makespan,
                        compute_mean: compute_report.phases[0].compute_mean,
                        comm: 0.0,
                    },
                    PhaseTiming {
                        name: "field traffic (exposed)".into(),
                        compute: 0.0,
                        compute_mean: 0.0,
                        comm: exposed_comm,
                    },
                    PhaseTiming {
                        name: "energy allreduce".into(),
                        compute: 0.0,
                        compute_mean: 0.0,
                        comm: t_allreduce,
                    },
                ],
                compute_utilization: if total > 0.0 {
                    compute_report.phases[0].compute_mean / total
                } else {
                    1.0
                },
                imbalance: compute_report.imbalance,
            };
            SimOutcome {
                scheme: scheme.name().into(),
                nodes,
                threads: m.threads(),
                time: total,
                group_size: 1,
                report,
            }
        }
        Scheme::PwDistributed => {
            // Pencil decomposition: at most (full_grid/2)² pencils exist,
            // so nodes beyond that cap idle — this is the structural limit
            // that stalled the prior state of the art near ~0.26 M threads.
            // Within the cap a well-pipelined pencil FFT sustains ~50 %
            // parallel efficiency (transposes folded into the factor).
            let cap = (w.full_grid / 2) * (w.full_grid / 2);
            let used = nodes.min(cap);
            let t_compute =
                m.node.compute_time(w.full_grid_flops(), 64, true) / (used as f64 * 0.5);
            let total = w.pairs.len() as f64 * t_compute;
            let busy_fraction = used as f64 / nodes as f64;
            let report = BspReport {
                total,
                phases: vec![PhaseTiming {
                    name: "distributed FFTs".into(),
                    compute: total,
                    compute_mean: total * busy_fraction,
                    comm: 0.0,
                }],
                compute_utilization: busy_fraction,
                imbalance: nodes as f64 / used as f64,
            };
            SimOutcome {
                scheme: scheme.name().into(),
                nodes,
                threads: m.threads(),
                time: total,
                group_size: used,
                report,
            }
        }
        Scheme::ReplicatedDirect => {
            // Integral-direct: significant shell pairs ~ nao·κ; quartets =
            // pairs²; plus a K-matrix allreduce per build.
            let kappa = 60.0; // significant AO partners in the condensed phase
            let sig_pairs = w.nao as f64 * kappa;
            let flops = sig_pairs * sig_pairs * 120.0;
            let t_compute = m.node.compute_time(flops, 64, true) / nodes as f64;
            let k_bytes = (w.nao * w.nao) as f64 * 8.0;
            let t_reduce = collectives::allreduce(m, algo, k_bytes);
            let total = t_compute + t_reduce;
            let report = BspReport {
                total,
                phases: vec![
                    PhaseTiming {
                        name: "ERI quartets".into(),
                        compute: t_compute,
                        compute_mean: t_compute,
                        comm: 0.0,
                    },
                    PhaseTiming {
                        name: "K allreduce".into(),
                        compute: 0.0,
                        compute_mean: 0.0,
                        comm: t_reduce,
                    },
                ],
                compute_utilization: t_compute / total,
                imbalance: 1.0,
            };
            SimOutcome {
                scheme: scheme.name().into(),
                nodes,
                threads: m.threads(),
                time: total,
                group_size: 1,
                report,
            }
        }
    }
}

/// Strong-scaling efficiency of a series of outcomes relative to the first:
/// `E_k = (T₀ · P₀) / (T_k · P_k)`.
pub fn parallel_efficiency(series: &[SimOutcome]) -> Vec<f64> {
    assert!(!series.is_empty());
    let ref_work = series[0].time * series[0].nodes as f64;
    series
        .iter()
        .map(|o| ref_work / (o.time * o.nodes as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_bgq::machine::scaling_series;

    fn paper_workload() -> Workload {
        Workload::paper_water_box()
    }

    #[test]
    fn our_scheme_scales_to_96_racks() {
        let w = paper_workload();
        let outcomes: Vec<SimOutcome> = scaling_series()
            .iter()
            .map(|m| simulate_hfx_build(&w, m, Scheme::ours(), CollectiveAlgo::TorusPipelined))
            .collect();
        let eff = parallel_efficiency(&outcomes);
        // Near-perfect parallel efficiency at 6.29M threads (abstract).
        let last = *eff.last().unwrap();
        assert!(last > 0.75, "efficiency at 96 racks: {last} ({eff:?})");
        assert_eq!(outcomes.last().unwrap().threads, 6_291_456);
        // Times strictly decrease with machine size.
        for w2 in outcomes.windows(2) {
            assert!(w2[1].time < w2[0].time, "{} !< {}", w2[1].time, w2[0].time);
        }
    }

    #[test]
    fn comparable_approach_is_10x_slower() {
        let w = paper_workload();
        let m = MachineConfig::bgq_racks(4);
        let ours = simulate_hfx_build(&w, &m, Scheme::ours(), CollectiveAlgo::TorusPipelined);
        let full = simulate_hfx_build(
            &w,
            &m,
            Scheme::FullGridPairs,
            CollectiveAlgo::TorusPipelined,
        );
        let speedup = full.time / ours.time;
        assert!(speedup > 10.0, "time-to-solution speedup {speedup}");
    }

    #[test]
    fn pw_baseline_saturates_early() {
        let w = paper_workload();
        let small = simulate_hfx_build(
            &w,
            &MachineConfig::bgq_racks(1),
            Scheme::PwDistributed,
            CollectiveAlgo::TorusPipelined,
        );
        let large = simulate_hfx_build(
            &w,
            &MachineConfig::bgq_racks(96),
            Scheme::PwDistributed,
            CollectiveAlgo::TorusPipelined,
        );
        // 96× more nodes buys barely any speedup (pencil cap).
        assert!(
            large.time > 0.2 * small.time,
            "PW baseline kept scaling: {} vs {}",
            large.time,
            small.time
        );
        // While our scheme keeps accelerating through the same range.
        let ours_small = simulate_hfx_build(
            &w,
            &MachineConfig::bgq_racks(1),
            Scheme::ours(),
            CollectiveAlgo::TorusPipelined,
        );
        let ours_large = simulate_hfx_build(
            &w,
            &MachineConfig::bgq_racks(96),
            Scheme::ours(),
            CollectiveAlgo::TorusPipelined,
        );
        assert!(ours_large.time < ours_small.time / 50.0);
    }

    #[test]
    fn auto_group_size_kicks_in_at_scale() {
        let w = paper_workload();
        assert_eq!(auto_group_size(w.pairs.len(), 1024), 1);
        let g_large = auto_group_size(w.pairs.len(), 98304);
        assert!(g_large >= 2, "group size at 96 racks: {g_large}");
    }

    #[test]
    fn compute_dominates_our_scheme() {
        let w = paper_workload();
        let m = MachineConfig::bgq_racks(16);
        let ours = simulate_hfx_build(&w, &m, Scheme::ours(), CollectiveAlgo::TorusPipelined);
        assert!(
            ours.report.compute_total() > 2.0 * ours.report.comm_total(),
            "comm-bound: compute {} vs comm {}",
            ours.report.compute_total(),
            ours.report.comm_total()
        );
    }

    #[test]
    fn scalar_no_simd_is_much_slower() {
        let w = Workload::water_box_small();
        let m = MachineConfig::bgq_racks(1);
        let fast = simulate_hfx_build(&w, &m, Scheme::ours(), CollectiveAlgo::TorusPipelined);
        let slow = simulate_hfx_build(
            &w,
            &m,
            Scheme::PairDistributed {
                strategy: BalanceStrategy::GreedyLpt,
                group_size: None,
                threads: 1,
                simd: false,
            },
            CollectiveAlgo::TorusPipelined,
        );
        assert!(slow.time > 30.0 * fast.time);
    }
}
