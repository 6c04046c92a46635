//! Analytic cost models for collective operations on the 5-D torus.
//!
//! Three algorithm families are modelled:
//!
//! * [`CollectiveAlgo::TorusPipelined`] — the topology-aware algorithms the
//!   BG/Q messaging stack (PAMI) actually uses: dimension-pipelined
//!   reduce-scatter/allgather streams that keep every torus link busy, with
//!   per-hop latency amortized across dimensions;
//! * [`CollectiveAlgo::BinomialTree`] — a topology-oblivious binomial tree
//!   whose stages each traverse the network's *average* hop distance and
//!   use a single link — the classic portable-MPI fallback. The
//!   `fig-torus-mapping` ablation contrasts the two.
//! * [`CollectiveAlgo::FlatRoot`] — every rank talks to rank 0 directly:
//!   the root pays one software start-up per peer, so the latency term is
//!   `(P−1)·α` instead of `⌈log₂P⌉·α`. A model only — `liair-runtime`
//!   executes the binomial tree alone — kept as the degenerate baseline
//!   the `bench-collectives` experiment prices against the hierarchical
//!   algorithms.
//!
//! All times are seconds; message sizes are bytes.

use crate::machine::MachineConfig;
use serde::{Deserialize, Serialize};

/// Which collective implementation to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectiveAlgo {
    /// Topology-aware, dimension-pipelined (PAMI-style).
    TorusPipelined,
    /// Topology-oblivious binomial tree.
    BinomialTree,
    /// Root-sequential flat collectives: `P−1` point-to-point messages
    /// serialized through rank 0's messaging stack.
    FlatRoot,
}

/// Effective number of simultaneously usable links per node (two per
/// torus dimension with extent > 1 — BG/Q drives all 10 A–E links at once).
fn active_links(m: &MachineConfig) -> f64 {
    (2 * m.torus.dims.iter().filter(|&&d| d > 1).count()).max(1) as f64
}

/// Allreduce of `bytes` across all nodes.
pub fn allreduce(m: &MachineConfig, algo: CollectiveAlgo, bytes: f64) -> f64 {
    let p = m.torus.nodes() as f64;
    if p <= 1.0 {
        return 0.0;
    }
    match algo {
        CollectiveAlgo::TorusPipelined => {
            // Rabenseifner bandwidth term streamed over all torus links;
            // latency: one software start-up per dimension plus the wire
            // time across the diameter.
            let bw = m.link_bandwidth * active_links(m);
            let latency = m.sw_latency * 5.0 + m.hop_latency * m.torus.diameter() as f64;
            latency + 2.0 * bytes * (p - 1.0) / (p * bw)
        }
        CollectiveAlgo::BinomialTree => {
            // reduce + broadcast trees: log2(P) stages, each a full-message
            // send over the mean hop distance on one link.
            let stages = (p.log2()).ceil();
            let per_stage =
                m.sw_latency + m.hop_latency * m.torus.mean_hops() + bytes / m.link_bandwidth;
            2.0 * stages * per_stage
        }
        CollectiveAlgo::FlatRoot => {
            // Root-sequential reduce then root-sequential broadcast: the
            // root handles P−1 arrivals and P−1 departures one software
            // start-up at a time — the (P−1)·α wall.
            let per_peer =
                m.sw_latency + m.hop_latency * m.torus.mean_hops() + bytes / m.link_bandwidth;
            2.0 * (p - 1.0) * per_peer
        }
    }
}

/// Broadcast of `bytes` from one node to all.
pub fn broadcast(m: &MachineConfig, algo: CollectiveAlgo, bytes: f64) -> f64 {
    let p = m.torus.nodes() as f64;
    if p <= 1.0 {
        return 0.0;
    }
    match algo {
        CollectiveAlgo::TorusPipelined => {
            let bw = m.link_bandwidth * active_links(m);
            m.sw_latency + m.hop_latency * m.torus.diameter() as f64 + bytes / bw
        }
        CollectiveAlgo::BinomialTree => {
            let stages = (p.log2()).ceil();
            stages * (m.sw_latency + m.hop_latency * m.torus.mean_hops() + bytes / m.link_bandwidth)
        }
        CollectiveAlgo::FlatRoot => {
            // P−1 serialized sends out of the root's messaging stack.
            (p - 1.0) * (m.sw_latency + bytes / m.link_bandwidth)
                + m.hop_latency * m.torus.mean_hops()
        }
    }
}

/// Gather of `bytes_per_rank` from every node onto the root — the one
/// collective of the engine's exchange build (per-rank contribution
/// vectors land on rank 0 for the canonical-order reduction).
///
/// All algorithms move the same `(P−1)·b` bytes into the root, so the
/// bandwidth term is shared; what the hierarchy buys is the latency term
/// (`⌈log₂P⌉·α` against the flat `(P−1)·α`) and, on the torus, ingress
/// spread over all of the root's links.
pub fn gather(m: &MachineConfig, algo: CollectiveAlgo, bytes_per_rank: f64) -> f64 {
    let p = m.torus.nodes() as f64;
    if p <= 1.0 {
        return 0.0;
    }
    let ingress = (p - 1.0) * bytes_per_rank / m.link_bandwidth;
    match algo {
        CollectiveAlgo::TorusPipelined => {
            // Dimension-ordered funnel: start-up per dimension, wire time
            // across the diameter, ingress striped over every root link.
            m.sw_latency * 5.0
                + m.hop_latency * m.torus.diameter() as f64
                + ingress / active_links(m)
        }
        CollectiveAlgo::BinomialTree => {
            // ⌈log₂P⌉ stages; subtree payloads double every stage but the
            // root's total ingress is unchanged, arriving over its links.
            let stages = (p.log2()).ceil();
            stages * (m.sw_latency + m.hop_latency * m.torus.mean_hops())
                + ingress / active_links(m)
        }
        CollectiveAlgo::FlatRoot => {
            // The root fields P−1 separate arrivals through one messaging
            // stack: (P−1)·α dominates at scale no matter how small the
            // per-rank payload is.
            (p - 1.0) * m.sw_latency + m.hop_latency * m.torus.mean_hops() + ingress
        }
    }
}

/// All-to-all personalized exchange: every node holds `bytes_per_node`
/// destined in equal `1/P` shares to every other node.
///
/// This is the communication pattern of a *distributed* 3-D FFT (the
/// baseline parallelization); its latency term `(P−1)·α` is what strangles
/// plane-wave-distributed exact exchange at scale.
pub fn alltoall(m: &MachineConfig, bytes_per_node: f64) -> f64 {
    let p = m.torus.nodes() as f64;
    if p <= 1.0 {
        return 0.0;
    }
    let links = active_links(m);
    // Injection-limited term.
    let injection = bytes_per_node / (m.link_bandwidth * links);
    // Bisection-limited term: total traffic crossing the bisection is
    // ~half the aggregate data; the cut has `bisection_links` links.
    let total_traffic = bytes_per_node * p / 2.0;
    let bisection = total_traffic / (m.torus.bisection_links().max(1) as f64 * m.link_bandwidth);
    // Message-rate term: P−1 messages per node, heavily pipelined (PAMI
    // sustains roughly one remote message per ~α/8).
    let rate = (p - 1.0) * m.sw_latency / 8.0;
    injection.max(bisection) + rate
}

/// Aggregate point-to-point phase: each node exchanges at most
/// `max_bytes_per_node` with peers at mean hop distance; transfers share
/// the node's links.
pub fn point_to_point(m: &MachineConfig, max_bytes_per_node: f64) -> f64 {
    let links = active_links(m);
    m.sw_latency + max_bytes_per_node / (m.link_bandwidth * links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    #[test]
    fn torus_beats_tree_for_large_messages() {
        let m = MachineConfig::bgq_racks(4);
        let bytes = 64.0 * 1024.0 * 1024.0;
        let fast = allreduce(&m, CollectiveAlgo::TorusPipelined, bytes);
        let slow = allreduce(&m, CollectiveAlgo::BinomialTree, bytes);
        assert!(slow > 3.0 * fast, "tree {slow} vs torus {fast}");
    }

    #[test]
    fn allreduce_bandwidth_term_saturates() {
        // Doubling machine size barely changes large-message allreduce time
        // for the torus algorithm ((P−1)/P ≈ 1).
        let m1 = MachineConfig::bgq_racks(8);
        let m2 = MachineConfig::bgq_racks(32);
        let bytes = 8.0 * 1024.0 * 1024.0;
        let t1 = allreduce(&m1, CollectiveAlgo::TorusPipelined, bytes);
        let t2 = allreduce(&m2, CollectiveAlgo::TorusPipelined, bytes);
        assert!((t2 - t1).abs() / t1 < 0.2, "{t1} vs {t2}");
    }

    #[test]
    fn alltoall_latency_explodes_with_scale() {
        // The distributed-FFT killer: per-node data shrinks but the message
        // count grows linearly with P.
        let small = MachineConfig::bgq_racks(1);
        let large = MachineConfig::bgq_racks(96);
        let grid_bytes = 128.0f64.powi(3) * 16.0; // complex 128³
        let t_small = alltoall(&small, grid_bytes / small.torus.nodes() as f64);
        let t_large = alltoall(&large, grid_bytes / large.torus.nodes() as f64);
        assert!(t_large > 10.0 * t_small, "{t_small} vs {t_large}");
    }

    #[test]
    fn single_node_collectives_are_free() {
        let mut m = MachineConfig::bgq_racks(1);
        m.torus = crate::torus::Torus5D::new([1, 1, 1, 1, 1]);
        assert_eq!(allreduce(&m, CollectiveAlgo::TorusPipelined, 1e6), 0.0);
        assert_eq!(broadcast(&m, CollectiveAlgo::BinomialTree, 1e6), 0.0);
    }

    #[test]
    fn costs_scale_with_message_size() {
        let m = MachineConfig::bgq_racks(2);
        for algo in [CollectiveAlgo::TorusPipelined, CollectiveAlgo::BinomialTree] {
            let t1 = allreduce(&m, algo, 1e6);
            let t2 = allreduce(&m, algo, 1e8);
            assert!(t2 > t1);
            let b1 = broadcast(&m, algo, 1e6);
            let b2 = broadcast(&m, algo, 1e8);
            assert!(b2 > b1);
        }
    }

    #[test]
    fn flat_root_latency_wall_grows_linearly() {
        // The (P−1)·α term: quadrupling the machine roughly quadruples the
        // flat gather time for tiny payloads, while the tree gather's
        // latency term grows only logarithmically (its shared ingress
        // term keeps the growth above log but well below linear).
        let small = MachineConfig::bgq_racks(4);
        let large = MachineConfig::bgq_racks(16);
        let b = 80.0;
        let flat_ratio = gather(&large, CollectiveAlgo::FlatRoot, b)
            / gather(&small, CollectiveAlgo::FlatRoot, b);
        let tree_ratio = gather(&large, CollectiveAlgo::BinomialTree, b)
            / gather(&small, CollectiveAlgo::BinomialTree, b);
        assert!(flat_ratio > 3.5, "flat ratio {flat_ratio}");
        assert!(
            tree_ratio < 0.75 * flat_ratio,
            "tree ratio {tree_ratio} vs flat {flat_ratio}"
        );
    }

    #[test]
    fn hierarchical_gather_dominates_flat_at_scale() {
        // The bench-collectives acceptance property at the model level:
        // from a midplane up, both hierarchical algorithms beat the flat
        // root gather, and at the full machine the gap is orders of
        // magnitude.
        let b = 80.0;
        for racks in [1, 16, 96] {
            let m = MachineConfig::bgq_racks(racks);
            let flat = gather(&m, CollectiveAlgo::FlatRoot, b);
            assert!(
                gather(&m, CollectiveAlgo::BinomialTree, b) < flat,
                "{racks} racks"
            );
            assert!(
                gather(&m, CollectiveAlgo::TorusPipelined, b) < flat,
                "{racks} racks"
            );
        }
        let full = MachineConfig::bgq_racks(96);
        let ratio = gather(&full, CollectiveAlgo::FlatRoot, b)
            / gather(&full, CollectiveAlgo::BinomialTree, b);
        assert!(ratio > 100.0, "full-machine flat/tree ratio only {ratio}");
    }

    #[test]
    fn flat_allreduce_and_broadcast_are_worst() {
        let m = MachineConfig::bgq_racks(8);
        let bytes = 1e4;
        for algo in [CollectiveAlgo::TorusPipelined, CollectiveAlgo::BinomialTree] {
            assert!(allreduce(&m, algo, bytes) < allreduce(&m, CollectiveAlgo::FlatRoot, bytes));
            assert!(broadcast(&m, algo, bytes) < broadcast(&m, CollectiveAlgo::FlatRoot, bytes));
        }
    }
}
