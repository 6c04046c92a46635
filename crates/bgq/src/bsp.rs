//! A bulk-synchronous (BSP) simulator.
//!
//! Parallel exact-exchange builds are phase-structured: every rank computes
//! its task share, then the machine runs a collective. The simulator takes
//! the *actual* per-rank work assignments produced by `liair-core`'s load
//! balancer, prices each phase with the node and collective models, and
//! reports step time, per-phase breakdown, and compute utilization —
//! exactly the quantities the paper's figures plot.

use crate::collectives::{self, CollectiveAlgo};
use crate::machine::MachineConfig;
use serde::{Deserialize, Serialize};

/// Communication closing a phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CommOp {
    /// No communication (barrier only).
    None,
    /// Allreduce of `bytes`.
    Allreduce { bytes: f64 },
}

/// One BSP superstep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BspPhase {
    /// Label used in breakdown tables.
    pub name: String,
    /// Per-rank compute durations in seconds (len = node count).
    pub compute: Vec<f64>,
    /// Closing communication.
    pub comm: CommOp,
}

/// Timing of one phase in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase label.
    pub name: String,
    /// Wall time of the compute part (max over ranks).
    pub compute: f64,
    /// Mean busy time over ranks (≤ compute; gap = imbalance).
    pub compute_mean: f64,
    /// Communication time.
    pub comm: f64,
}

/// Simulation output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BspReport {
    /// Total step wall time.
    pub total: f64,
    /// Per-phase timings.
    pub phases: Vec<PhaseTiming>,
    /// Fraction of node-seconds spent computing: Σ busy / (P × total).
    pub compute_utilization: f64,
    /// Max/mean load ratio across ranks, aggregated over phases.
    pub imbalance: f64,
}

impl BspReport {
    /// Total communication time.
    pub fn comm_total(&self) -> f64 {
        self.phases.iter().map(|p| p.comm).sum()
    }

    /// Total (critical-path) compute time.
    pub fn compute_total(&self) -> f64 {
        self.phases.iter().map(|p| p.compute).sum()
    }
}

/// Price a communication op on a machine.
pub fn comm_time(machine: &MachineConfig, algo: CollectiveAlgo, op: &CommOp) -> f64 {
    match *op {
        CommOp::None => 0.0,
        CommOp::Allreduce { bytes } => collectives::allreduce(machine, algo, bytes),
    }
}

/// Run the superstep sequence.
pub fn simulate(machine: &MachineConfig, algo: CollectiveAlgo, phases: &[BspPhase]) -> BspReport {
    let p = machine.torus.nodes() as f64;
    let mut total = 0.0;
    let mut busy = 0.0;
    let mut timings = Vec::with_capacity(phases.len());
    let mut worst_imbalance = 1.0f64;
    for ph in phases {
        let v = &ph.compute;
        assert_eq!(
            v.len(),
            machine.torus.nodes(),
            "phase '{}' rank count mismatch",
            ph.name
        );
        let cmax = v.iter().copied().fold(0.0f64, f64::max);
        let cmean = v.iter().sum::<f64>() / v.len() as f64;
        if cmean > 0.0 {
            worst_imbalance = worst_imbalance.max(cmax / cmean);
        }
        let comm = comm_time(machine, algo, &ph.comm);
        total += cmax + comm;
        busy += cmean * p;
        timings.push(PhaseTiming {
            name: ph.name.clone(),
            compute: cmax,
            compute_mean: cmean,
            comm,
        });
    }
    let compute_utilization = if total > 0.0 { busy / (p * total) } else { 1.0 };
    BspReport {
        total,
        phases: timings,
        compute_utilization,
        imbalance: worst_imbalance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineConfig {
        MachineConfig::bgq_nodes(32)
    }

    #[test]
    fn uniform_phase_times_add() {
        let m = machine();
        let phases = vec![
            BspPhase {
                name: "a".into(),
                compute: vec![1.0; m.nodes()],
                comm: CommOp::None,
            },
            BspPhase {
                name: "b".into(),
                compute: vec![0.5; m.nodes()],
                comm: CommOp::None,
            },
        ];
        let r = simulate(&m, CollectiveAlgo::TorusPipelined, &phases);
        assert!((r.total - 1.5).abs() < 1e-12);
        assert!((r.compute_utilization - 1.0).abs() < 1e-12);
        assert!((r.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_shows_up_in_utilization() {
        let m = machine();
        let mut loads = vec![1.0; m.nodes()];
        loads[0] = 2.0; // one straggler
        let phases = vec![BspPhase {
            name: "work".into(),
            compute: loads,
            comm: CommOp::None,
        }];
        let r = simulate(&m, CollectiveAlgo::TorusPipelined, &phases);
        assert!((r.total - 2.0).abs() < 1e-12);
        assert!(r.compute_utilization < 0.55);
        assert!(r.imbalance > 1.9);
    }

    #[test]
    fn communication_adds_to_total() {
        let m = machine();
        let phases = vec![BspPhase {
            name: "x".into(),
            compute: vec![0.1; m.nodes()],
            comm: CommOp::Allreduce { bytes: 1e8 },
        }];
        let r = simulate(&m, CollectiveAlgo::TorusPipelined, &phases);
        assert!(r.total > 0.1);
        assert!(r.comm_total() > 0.0);
        assert!((r.total - (r.compute_total() + r.comm_total())).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn wrong_rank_count_panics() {
        let m = machine();
        let phases = vec![BspPhase {
            name: "bad".into(),
            compute: vec![1.0; 3],
            comm: CommOp::None,
        }];
        simulate(&m, CollectiveAlgo::TorusPipelined, &phases);
    }
}
