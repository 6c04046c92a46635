//! BG/Q-scale execution of the exchange build, for the paper's scaling
//! figures.
//!
//! Four parallelization schemes are priced on the machine model:
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
//!
//! The two pair schemes are priced by one routine: balanced pairs make a
//! per-node busy vector whose maximum is the FFT makespan, the orbital
//! traffic not hidden behind that makespan is charged, and one 8-byte
//! energy allreduce closes the build. They differ only in the flops and
//! orbital bytes of one pair and in the node-group size (full-grid pairs
//! run flat, groups of one). Every scheme returns its build as a list of
//! [`PhaseTiming`]s that add up to [`SimOutcome::time`].

use crate::balance::{assign_pairs, BalanceStrategy};
use crate::workload::Workload;
use liair_bgq::collectives::{self, CollectiveAlgo};
use liair_bgq::MachineConfig;

/// Hardware threads per node in every modelled scheme (the full A2 node).
const NODE_THREADS: usize = 64;
/// Every modelled kernel runs on the node's QPX SIMD unit.
const NODE_SIMD: bool = true;
/// Pair balancing of the pair-distributed schemes.
const PAIR_BALANCE: BalanceStrategy = BalanceStrategy::GreedyLpt;

/// Seconds one modelled node spends on `flops`.
fn node_time(m: &MachineConfig, flops: f64) -> f64 {
    m.node.compute_time(flops, NODE_THREADS, NODE_SIMD)
}

/// Which parallelization to model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// The paper's scheme: greedy-LPT balanced pairs on full 64-thread
    /// SIMD nodes.
    PairDistributed {
        /// Nodes cooperating on one pair (None = automatic).
        group_size: Option<usize>,
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
        Scheme::PairDistributed { group_size: None }
    }
}

/// One priced phase of a modelled build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTiming {
    /// Phase label (tables find phases by substring).
    pub name: &'static str,
    /// Compute wall time: the busiest node's (seconds).
    pub compute: f64,
    /// Communication time (seconds).
    pub comm: f64,
}

fn compute_phase(name: &'static str, compute: f64) -> PhaseTiming {
    PhaseTiming {
        name,
        compute,
        comm: 0.0,
    }
}

fn comm_phase(name: &'static str, comm: f64) -> PhaseTiming {
    PhaseTiming {
        name,
        compute: 0.0,
        comm,
    }
}

/// Result of a modelled build — the model's whole account of it
/// (measured builds report a `BuildProfile` instead; the two never share a
/// type).
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Machine size in nodes.
    pub nodes: usize,
    /// Machine size in hardware threads.
    pub threads: usize,
    /// Wall time of one exchange build (seconds).
    pub time: f64,
    /// Node-group size used (1 for flat schemes).
    pub group_size: usize,
    /// The priced phases in execution order.
    pub phases: Vec<PhaseTiming>,
    /// Fraction of node-seconds spent computing: mean busy time over
    /// `time`.
    pub compute_utilization: f64,
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
    let outcome = |time, group_size, phases, compute_utilization| SimOutcome {
        nodes,
        threads: m.threads(),
        time,
        group_size,
        phases,
        compute_utilization,
    };
    match scheme {
        Scheme::PairDistributed { group_size } => {
            let g = group_size
                .unwrap_or_else(|| auto_group_size(w.pairs.len(), nodes))
                .clamp(1, nodes);
            // A group's nodes split each orbital's patch between them.
            price_pairs(
                w,
                m,
                algo,
                g,
                w.pair_flops(),
                (w.patch_bytes(), g as f64),
                ["pair FFTs", "patch traffic (exposed)"],
            )
        }
        // Same pair list & balancing, but each pair transforms the full
        // cell grid node-locally; no groups, so at extreme scale the
        // integer pair quantum also costs efficiency. Without the compact
        // pair-local representation, the orbital data moved is the full
        // real-space field (half the complex grid's bytes).
        Scheme::FullGridPairs => price_pairs(
            w,
            m,
            algo,
            1,
            w.full_grid_flops(),
            (w.full_grid_bytes(), 2.0),
            ["pair FFTs (full grid)", "field traffic (exposed)"],
        ),
        Scheme::PwDistributed => {
            // Pencil decomposition: at most (full_grid/2)² pencils exist,
            // so nodes beyond that cap idle — this is the structural limit
            // that stalled the prior state of the art near ~0.26 M threads.
            // Within the cap a well-pipelined pencil FFT sustains ~50 %
            // parallel efficiency (transposes folded into the factor).
            let cap = (w.full_grid / 2) * (w.full_grid / 2);
            let used = nodes.min(cap);
            let t_compute = node_time(m, w.full_grid_flops()) / (used as f64 * 0.5);
            let total = w.pairs.len() as f64 * t_compute;
            let busy_fraction = used as f64 / nodes as f64;
            let phases = vec![compute_phase("distributed FFTs", total)];
            outcome(total, used, phases, busy_fraction)
        }
        Scheme::ReplicatedDirect => {
            // Integral-direct: significant shell pairs ~ nao·κ; quartets =
            // pairs²; plus a K-matrix allreduce per build.
            let kappa = 60.0; // significant AO partners in the condensed phase
            let sig_pairs = w.nao as f64 * kappa;
            let flops = sig_pairs * sig_pairs * 120.0;
            let t_compute = node_time(m, flops) / nodes as f64;
            let k_bytes = (w.nao * w.nao) as f64 * 8.0;
            let t_reduce = collectives::allreduce(m, algo, k_bytes);
            let total = t_compute + t_reduce;
            let phases = vec![
                compute_phase("ERI quartets", t_compute),
                comm_phase("K allreduce", t_reduce),
            ];
            outcome(total, 1, phases, t_compute / total)
        }
    }
}

/// Price a pair-distributed build on groups of `g` nodes: every pair costs
/// `pair_flops` of one group, and each orbital a node touches moves
/// `bytes.0 / bytes.1` bytes each way. `phase_names` label the FFT and the
/// exposed-traffic phases.
fn price_pairs(
    w: &Workload,
    m: &MachineConfig,
    algo: CollectiveAlgo,
    g: usize,
    pair_flops: f64,
    bytes: (f64, f64),
    phase_names: [&'static str; 2],
) -> SimOutcome {
    let nodes = m.nodes();
    let assignment = assign_pairs(&w.pairs, (nodes / g).max(1), PAIR_BALANCE);
    let t_pair = node_time(m, pair_flops) / (g as f64 * group_fft_efficiency(g));
    // Every node of a group carries the group's time; nodes left over
    // after the last whole group idle.
    let busy = |node: usize| {
        assignment
            .loads
            .get(node / g)
            .map_or(0.0, |&load| load * t_pair)
    };
    let makespan = (0..nodes).map(busy).fold(0.0f64, f64::max);
    let mean_busy = (0..nodes).map(busy).sum::<f64>() / nodes as f64;
    let max_pairs = assignment
        .per_rank
        .iter()
        .map(|v| v.len())
        .max()
        .unwrap_or(0) as f64;
    // Traffic: pairs are assigned in orbital blocks (locality-aware), so a
    // node touches ~2√(2·pairs) distinct orbitals — each orbital is fetched
    // once and its accumulated exchange potential returned once.
    // Prefetching hides this behind the FFTs; only the non-hideable
    // remainder is charged.
    let unique_orbitals = (2.0 * (2.0 * max_pairs).sqrt())
        .min(2.0 * max_pairs)
        .min(w.norb as f64);
    let t_traffic = collectives::point_to_point(m, unique_orbitals * 2.0 * bytes.0 / bytes.1);
    let exposed_comm = (t_traffic - makespan).max(0.0);
    let t_allreduce = collectives::allreduce(m, algo, 8.0);
    let total = makespan + exposed_comm + t_allreduce;
    SimOutcome {
        nodes,
        threads: m.threads(),
        time: total,
        group_size: g,
        phases: vec![
            compute_phase(phase_names[0], makespan),
            comm_phase(phase_names[1], exposed_comm),
            comm_phase("energy allreduce", t_allreduce),
        ],
        compute_utilization: if total > 0.0 { mean_busy / total } else { 1.0 },
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

    /// One pinned modelled build: racks, scheme, group size, and the bits
    /// of `time`, `compute_utilization` and each phase's `(compute, comm)`.
    type Pin = (
        usize,
        Scheme,
        usize,
        u64,
        u64,
        &'static [(&'static str, u64, u64)],
    );

    /// Bit pins of the model: every scheme at 1 and 96 racks plus a forced
    /// group size. Any change to a modelled number (evaluation order
    /// included) fails here; re-record them only for an intended change to
    /// the model.
    #[rustfmt::skip]
    const GOLDEN: &[Pin] = &[
        (1, Scheme::PairDistributed { group_size: None }, 1, 0x3f4e30473c8408d0, 0x3fee99a909fe3e55,
         &[("pair FFTs", 0x3f4dd7c5607c1064, 0), ("patch traffic (exposed)", 0, 0), ("energy allreduce", 0, 0x3ee6207701fe1b0c)]),
        (1, Scheme::FullGridPairs, 1, 0x3f81bda54f0a2942, 0x3feeeac30b6a2722,
         &[("pair FFTs (full grid)", 0x3f81b81d3149a9bb, 0), ("field traffic (exposed)", 0, 0), ("energy allreduce", 0, 0x3ee6207701fe1b0c)]),
        (1, Scheme::PwDistributed, 1024, 0x3f9123f1e4e6e511, 0x3ff0000000000000,
         &[("distributed FFTs", 0x3f9123f1e4e6e511, 0)]),
        (1, Scheme::ReplicatedDirect, 1, 0x3f668bc1e2c0ffa2, 0x3fe79691fa80f4dd,
         &[("ERI quartets", 0x3f609e895196e22e, 0), ("K allreduce", 0, 0x3f47b4e244a875d0)]),
        (96, Scheme::PairDistributed { group_size: None }, 16, 0x3efa482bcc597df6, 0x3fdf53220080161c,
         &[("pair FFTs", 0x3eeb835ee461c638, 0), ("patch traffic (exposed)", 0, 0x3e9a74540061e400), ("energy allreduce", 0, 0x3ee83956144e2694)]),
        (96, Scheme::FullGridPairs, 1, 0x3f3f6e18757e3e18, 0x3fc744af736a9a76,
         &[("pair FFTs (full grid)", 0x3f338d5e016bc41e, 0), ("field traffic (exposed)", 0, 0x3f263ddf86e0118a), ("energy allreduce", 0, 0x3ee83956144e2694)]),
        (96, Scheme::PwDistributed, 1024, 0x3f9123f1e4e6e511, 0x3f85555555555555,
         &[("distributed FFTs", 0x3f9123f1e4e6e511, 0)]),
        (96, Scheme::ReplicatedDirect, 1, 0x3f487454711a67b9, 0x3f9cff129561367c,
         &[("ERI quartets", 0x3ef628b71773d83d, 0), ("K allreduce", 0, 0x3f47c30eb85ec8f7)]),
        (96, Scheme::PairDistributed { group_size: Some(8) }, 8, 0x3f0074c3478d652c, 0x3fd743647073449c,
         &[("pair FFTs", 0x3eeeb466d3ddc192, 0), ("patch traffic (exposed)", 0, 0x3ed5caa06c135918), ("energy allreduce", 0, 0x3ee83956144e2694)]),
    ];

    #[test]
    fn modelled_numbers_are_bit_pinned() {
        let w = Workload::condensed("pin", 512, 30.0, 1.5, 1e-6, 32, 64, 11);
        for &(racks, scheme, group_size, time, util, phases) in GOLDEN {
            let m = MachineConfig::bgq_racks(racks);
            let o = simulate_hfx_build(&w, &m, scheme, CollectiveAlgo::TorusPipelined);
            let case = format!("{scheme:?} at {racks} racks");
            assert_eq!(o.group_size, group_size, "{case}");
            assert_eq!(o.time.to_bits(), time, "{case}: time {}", o.time);
            assert_eq!(
                o.compute_utilization.to_bits(),
                util,
                "{case}: utilization {}",
                o.compute_utilization
            );
            let got: Vec<(&str, u64, u64)> = o
                .phases
                .iter()
                .map(|p| (p.name, p.compute.to_bits(), p.comm.to_bits()))
                .collect();
            assert_eq!(got, phases, "{case}");
        }
    }

    #[test]
    fn compute_dominates_our_scheme() {
        let w = paper_workload();
        let m = MachineConfig::bgq_racks(16);
        let ours = simulate_hfx_build(&w, &m, Scheme::ours(), CollectiveAlgo::TorusPipelined);
        let compute: f64 = ours.phases.iter().map(|p| p.compute).sum();
        let comm: f64 = ours.phases.iter().map(|p| p.comm).sum();
        assert!(
            compute > 2.0 * comm,
            "comm-bound: compute {compute} vs comm {comm}"
        );
    }

    #[test]
    fn communication_adds_to_total() {
        let w = Workload::condensed("pin", 512, 30.0, 1.5, 1e-6, 32, 64, 11);
        for &(racks, scheme, ..) in GOLDEN {
            let m = MachineConfig::bgq_racks(racks);
            let o = simulate_hfx_build(&w, &m, scheme, CollectiveAlgo::TorusPipelined);
            let phases: f64 = o.phases.iter().map(|p| p.compute + p.comm).sum();
            assert!(
                (o.time - phases).abs() <= 1e-12 * o.time,
                "{scheme:?} at {racks} racks: time {} vs phases {phases}",
                o.time
            );
            assert!(o.compute_utilization > 0.0 && o.compute_utilization <= 1.0);
        }
    }

    #[test]
    fn imbalance_shows_up_in_utilization() {
        // One pair per node is balanced; one node fewer leaves a straggler
        // with two pairs, which doubles the build while the mean node does
        // barely more work.
        let w = Workload::condensed("straggler", 64, 20.0, 1.5, 1e-6, 32, 64, 11);
        let npairs = w.pairs.len();
        let utilization = |nodes| {
            let m = MachineConfig::bgq_nodes(nodes);
            simulate_hfx_build(
                &w,
                &m,
                Scheme::FullGridPairs,
                CollectiveAlgo::TorusPipelined,
            )
            .compute_utilization
        };
        let balanced = utilization(npairs);
        let straggler = utilization(npairs - 1);
        assert!(
            straggler < 0.6 * balanced,
            "one straggler: {straggler} vs balanced {balanced}"
        );
    }
}
