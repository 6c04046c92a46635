//! Machine configurations: partition presets from a node board to the full
//! 96-rack system of the paper.

use crate::node::NodeModel;
use crate::torus::Torus5D;
use serde::{Deserialize, Serialize};

/// A modelled machine: interconnect + node + link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// The torus partition shape.
    pub torus: Torus5D,
    /// Per-node compute model.
    pub node: NodeModel,
    /// Per-link unidirectional bandwidth in bytes/s (BG/Q: 2 GB/s raw,
    /// ~1.8 GB/s effective).
    pub link_bandwidth: f64,
    /// Per-hop wire+router latency in seconds.
    pub hop_latency: f64,
    /// Software (messaging stack) latency per operation in seconds.
    pub sw_latency: f64,
}

impl MachineConfig {
    /// A BG/Q partition of `racks` racks (1024 nodes per rack). Published
    /// partition shapes are used where known; other sizes use balanced
    /// factorizations. Accepts the fractional sizes 0 (one node board
    /// = 32 nodes) via [`MachineConfig::bgq_nodes`].
    pub fn bgq_racks(racks: usize) -> Self {
        let dims = match racks {
            1 => [4, 4, 4, 8, 2],
            2 => [4, 4, 8, 8, 2],
            3 => [4, 4, 8, 12, 2],
            4 => [4, 8, 8, 8, 2],
            6 => [4, 8, 8, 12, 2],
            8 => [8, 8, 8, 8, 2],
            12 => [8, 8, 8, 12, 2],
            16 => [8, 8, 8, 16, 2],
            24 => [8, 8, 12, 16, 2],
            32 => [8, 8, 16, 16, 2],
            48 => [8, 12, 16, 16, 2],
            64 => [8, 16, 16, 16, 2],
            96 => [16, 16, 16, 12, 2],
            r => {
                let nodes = r * 1024;
                balanced_dims(nodes)
            }
        };
        Self::with_torus(Torus5D::new(dims))
    }

    /// A sub-rack partition with the given node count (node board = 32,
    /// midplane = 512).
    pub fn bgq_nodes(nodes: usize) -> Self {
        let dims = match nodes {
            32 => [2, 2, 2, 2, 2],
            64 => [2, 2, 4, 2, 2],
            128 => [2, 4, 4, 2, 2],
            256 => [4, 4, 4, 2, 2],
            512 => [4, 4, 4, 4, 2],
            n => balanced_dims(n),
        };
        Self::with_torus(Torus5D::new(dims))
    }

    fn with_torus(torus: Torus5D) -> Self {
        Self {
            torus,
            node: NodeModel::bgq(),
            link_bandwidth: 1.8e9,
            hop_latency: 5.0e-8,
            sw_latency: 2.0e-6,
        }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.torus.nodes()
    }

    /// Total hardware-thread count (the paper's headline axis).
    pub fn threads(&self) -> usize {
        self.nodes() * self.node.hw_threads()
    }
}

/// Factor `n` into five near-balanced extents (largest last-but-one, E = 2
/// whenever n is even, BG/Q style).
fn balanced_dims(n: usize) -> [usize; 5] {
    assert!(n >= 1);
    let mut rem = n;
    let mut dims = [1usize; 5];
    if rem.is_multiple_of(2) {
        dims[4] = 2;
        rem /= 2;
    }
    // Greedily split the remaining factor into 4 near-equal parts.
    for slot in 0..4 {
        let remaining_slots = 4 - slot;
        let target = (rem as f64).powf(1.0 / remaining_slots as f64).round() as usize;
        let mut best = 1usize;
        for cand in (1..=rem).take(4 * target.max(1)) {
            if rem.is_multiple_of(cand) && cand.abs_diff(target) < best.abs_diff(target) {
                best = cand;
            }
        }
        dims[slot] = best;
        rem /= best;
    }
    dims[3] *= rem; // any leftover
    dims
}

/// The standard scaling series of the paper's strong-scaling figure:
/// 1 → 96 racks.
pub fn scaling_series() -> Vec<MachineConfig> {
    [1usize, 2, 4, 8, 16, 32, 48, 64, 96]
        .iter()
        .map(|&r| MachineConfig::bgq_racks(r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_machine_thread_count() {
        let m = MachineConfig::bgq_racks(96);
        assert_eq!(m.nodes(), 98_304);
        assert_eq!(m.threads(), 6_291_456); // the abstract's headline number
    }

    #[test]
    fn preset_shapes_have_right_node_counts() {
        for racks in [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96] {
            let m = MachineConfig::bgq_racks(racks);
            assert_eq!(m.nodes(), racks * 1024, "racks = {racks}");
        }
        for nodes in [32, 64, 128, 256, 512] {
            assert_eq!(MachineConfig::bgq_nodes(nodes).nodes(), nodes);
        }
    }

    #[test]
    fn balanced_dims_multiply_back() {
        for n in [1, 2, 6, 30, 100, 1000, 5000] {
            let d = balanced_dims(n);
            assert_eq!(d.iter().product::<usize>(), n, "n = {n}: {d:?}");
        }
    }

    #[test]
    fn scaling_series_is_monotone() {
        let series = scaling_series();
        assert_eq!(series.len(), 9);
        for w in series.windows(2) {
            assert!(w[1].threads() > w[0].threads());
        }
        assert_eq!(series.last().unwrap().threads(), 6_291_456);
    }
}
