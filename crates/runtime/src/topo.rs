//! Topology-aware communication: ranks mapped onto the BG/Q 5-D torus.
//!
//! [`TorusComm`] wraps any [`Comm`] and charges every transfer to a shared
//! [`TrafficLog`]: a demand set of `(src, dst, bytes)` records that is
//! routed after the region with `liair-bgq`'s dimension-ordered router.
//! That closes the loop between the *executed* algorithm and the *modeled*
//! machine — the hop counts and per-link loads of the real message
//! pattern (every edge of the binomial-tree collectives, every packet of
//! the engine's pipeline) feed the machine cost model, instead of an assumed
//! analytic pattern.

use crate::comm::Comm;
use crate::error::CommResult;
use liair_bgq::routing::{route_traffic, LinkLoads};
use liair_bgq::{MachineConfig, Torus5D};
use parking_lot::Mutex;

/// Fit `nranks` onto a BG/Q-style torus (near-balanced extents, E = 2 for
/// even counts) — the default rank→node map of [`crate::run_spmd_cfg`]
/// when the caller does not pin a partition shape.
pub fn fit_torus(nranks: usize) -> Torus5D {
    MachineConfig::bgq_nodes(nranks).torus
}

/// The traffic a communication region put on the wire: every point-to-point
/// transfer (collectives decompose into their constituent messages) as a
/// routable demand.
#[derive(Debug)]
pub struct TrafficLog {
    torus: Torus5D,
    demands: Mutex<Vec<(usize, usize, f64)>>,
}

impl TrafficLog {
    /// An empty ledger over a torus.
    pub fn new(torus: Torus5D) -> Self {
        TrafficLog {
            torus,
            demands: Mutex::new(Vec::new()),
        }
    }

    /// The torus the ranks are mapped onto.
    pub fn torus(&self) -> &Torus5D {
        &self.torus
    }

    /// Charge one message to the ledger.
    pub fn record(&self, src: usize, dst: usize, bytes: f64) {
        self.demands.lock().push((src, dst, bytes));
    }

    /// Snapshot of the recorded demands.
    pub fn demands(&self) -> Vec<(usize, usize, f64)> {
        self.demands.lock().clone()
    }

    /// Number of messages recorded.
    pub fn messages(&self) -> usize {
        self.demands.lock().len()
    }

    /// Mean hop count of the recorded messages under dimension-ordered
    /// routing (0 when nothing was recorded).
    pub fn mean_hops(&self) -> f64 {
        let demands = self.demands.lock();
        if demands.is_empty() {
            return 0.0;
        }
        let total: usize = demands.iter().map(|&(s, d, _)| self.torus.hops(s, d)).sum();
        total as f64 / demands.len() as f64
    }

    /// Route the demand set and return the per-link loads (max load,
    /// congestion factor, …).
    pub fn route(&self) -> LinkLoads {
        route_traffic(&self.torus, &self.demands.lock())
    }

    /// Modeled wall-clock of this traffic on a machine: serialization of
    /// the hottest link, plus per-message software latency amortized over
    /// the ranks injecting concurrently, plus the wire latency of the mean
    /// route. A coarse contention-aware estimate — the point is the
    /// *relative* cost of message patterns, which is dominated by the max
    /// link load the router finds.
    pub fn modeled_comm_time(&self, machine: &MachineConfig) -> f64 {
        let loads = self.route();
        let ranks = self.torus.nodes().max(1) as f64;
        let msgs = self.messages() as f64;
        loads.max() / machine.link_bandwidth
            + machine.sw_latency * (msgs / ranks).ceil()
            + machine.hop_latency * self.mean_hops()
    }
}

/// A [`Comm`] that routes through the torus model: point-to-point behavior
/// is delegated to the wrapped communicator, and every send is charged to
/// the [`TrafficLog`] at its payload size (8 bytes per `f64` word).
pub struct TorusComm<'a, C: Comm> {
    inner: &'a C,
    log: &'a TrafficLog,
}

impl<'a, C: Comm> TorusComm<'a, C> {
    /// Wrap `inner`, charging traffic to `log`. The log's torus must have
    /// one node per rank (checked by [`crate::run_spmd_cfg`]).
    pub fn new(inner: &'a C, log: &'a TrafficLog) -> Self {
        TorusComm { inner, log }
    }

    /// The traffic ledger this communicator charges.
    pub fn log(&self) -> &TrafficLog {
        self.log
    }
}

impl<C: Comm> Comm for TorusComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn next_epoch(&self) -> u64 {
        self.inner.next_epoch()
    }

    fn stalled(&self) -> bool {
        self.inner.stalled()
    }

    fn peer_stalled(&self, rank: usize) -> bool {
        self.inner.peer_stalled(rank)
    }

    fn send(&self, to: usize, tag: u64, data: Vec<f64>) -> CommResult<()> {
        self.log
            .record(self.inner.rank(), to, (data.len() * 8) as f64);
        self.inner.send(to, tag, data)
    }

    fn recv(&self, from: usize, tag: u64) -> CommResult<Vec<f64>> {
        self.inner.recv(from, tag)
    }

    fn try_recv(&self, from: usize, tag: u64) -> CommResult<Option<Vec<f64>>> {
        self.inner.try_recv(from, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{run_spmd_cfg, CommConfig};

    fn cfg(nranks: usize) -> CommConfig {
        CommConfig {
            fault: None,
            torus: Some(fit_torus(nranks)),
        }
    }

    #[test]
    fn fit_torus_matches_rank_count() {
        for n in [1, 2, 3, 5, 8, 32, 100] {
            assert_eq!(fit_torus(n).nodes(), n, "n = {n}");
        }
    }

    #[test]
    fn ledger_accounts_every_sent_word() {
        let n = 4;
        let run = run_spmd_cfg(n, cfg(n), |comm| {
            comm.gather(0, vec![comm.rank() as f64; 3]).unwrap();
        })
        .unwrap();
        let log = run.traffic.expect("torus configured");
        // Tree gather: every non-root sends exactly once. Ranks 1 and 3
        // forward their own 3 words, rank 2 its own plus rank 3's; each
        // framed entry carries a 2-word header, each message a count word.
        assert_eq!(log.messages(), n - 1);
        let words = 2 * (1 + 2 + 3) + (1 + 2 * (2 + 3));
        let bytes: f64 = log.demands().iter().map(|&(_, _, b)| b).sum();
        assert_eq!(bytes, (words * 8) as f64);
        assert!(log.mean_hops() >= 1.0);
        assert!(log.route().total() > 0.0);
    }

    #[test]
    fn hierarchical_gather_shrinks_the_hottest_edge() {
        // With 8 ranks a flat gather would land 7 messages on the root;
        // the binomial tree hands it ⌈log₂ 8⌉ = 3 and spreads the rest
        // over the interior nodes.
        let n = 8;
        let run = run_spmd_cfg(n, cfg(n), move |comm| {
            comm.gather(0, vec![1.0; 64]).unwrap();
        })
        .unwrap();
        let log = run.traffic.unwrap();
        assert_eq!(log.messages(), n - 1);
        let demands = log.demands();
        let into_root = demands.iter().filter(|&&(_, dst, _)| dst == 0).count();
        assert_eq!(into_root, 3);
        // The root's last child forwards half the machine's payload.
        let hottest = demands.iter().map(|&(_, _, b)| b).fold(0.0, f64::max);
        assert_eq!(hottest, ((1 + 4 * (2 + 64)) * 8) as f64);
        assert!(log.modeled_comm_time(&MachineConfig::bgq_nodes(n)) > 0.0);
    }

    #[test]
    fn modeled_time_is_positive_and_scales_with_bytes() {
        let t = fit_torus(8);
        let log = TrafficLog::new(t);
        log.record(0, 5, 1024.0);
        log.record(3, 6, 2048.0);
        let m = MachineConfig::bgq_nodes(8);
        let t1 = log.modeled_comm_time(&m);
        assert!(t1 > 0.0);
        log.record(0, 5, 1.0e9);
        assert!(log.modeled_comm_time(&m) > t1 * 100.0);
    }
}
