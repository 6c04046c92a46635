//! SPMD communicator over OS threads.
//!
//! [`Comm`] is the communication surface of the runtime, and it is exactly
//! what its callers call: point-to-point `send` / `recv` / `try_recv` (the
//! whole vocabulary of the exchange engine's pipelined `Comm` backend), a
//! rooted [`Comm::gather`] (the SPMD pair-list build) and
//! [`Comm::allreduce_sum`]. Every operation returns a [`CommResult`] — a
//! peer that exhausts the retry budget surfaces as [`CommError::Timeout`]
//! instead of a hang.
//!
//! Both collectives run one algorithm family: the binomial tree
//! (`⌈log₂ P⌉` rounds), the combining-network shape of the BG/Q collective
//! network that [`crate::TorusComm`] routes and `liair-bgq` prices. The
//! flat root-based family (`P − 1` serial transfers through the root)
//! survives only as a *model* comparator,
//! `liair_bgq::collectives::CollectiveAlgo::FlatRoot`: executed on 8–64
//! ranks the two sat within 5 % of each other, and the gap at machine
//! scale is a property of the cost model, not of this transport. The
//! gather moves words without arithmetic, so the root receives the bits
//! each rank sent. The tree `allreduce_sum` fixes one floating-point
//! association (documented below); code that needs the serial summation
//! order gathers and reduces in canonical order itself.
//!
//! Faults (dropped / delayed / duplicated messages, stalled ranks) are
//! injected deterministically by [`crate::FaultInjector`];
//! the transport recovers via sequence-deduplicated retransmission with
//! exponential backoff. See [`crate::fault`].

use crate::error::{CommError, CommResult};
use crate::fault::FaultInjector;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A wire message: `(tag, per-edge sequence number, payload words)`.
type WireMsg = (u64, u64, Vec<f64>);

/// Internal collective tags live in the reserved space with bit 63 set;
/// user tags must keep it clear. `op` identifies the collective, `epoch`
/// the invocation (so a late message from a previous collective can never
/// match the current one), `round` the tree round within it.
fn ctag(op: u8, epoch: u64, round: u32) -> u64 {
    (1u64 << 63) | ((op as u64) << 55) | ((epoch & 0xFFFF_FFFF) << 16) | round as u64
}

const OP_GATHER: u8 = 1;
const OP_BCAST: u8 = 2;
const OP_REDUCE: u8 = 3;

/// Frame a set of `(rank, words)` entries into one word vector:
/// `[n, (rank, len, words…)…]`. Counts are exact in `f64` (they are far
/// below 2⁵³). Pure data movement — no arithmetic on the payload words —
/// which is what keeps tree-structured gathers bitwise faithful.
fn frame(entries: &[(usize, Vec<f64>)]) -> Vec<f64> {
    let total: usize = entries.iter().map(|(_, w)| w.len() + 2).sum();
    let mut out = Vec::with_capacity(1 + total);
    out.push(entries.len() as f64);
    for (rank, words) in entries {
        out.push(*rank as f64);
        out.push(words.len() as f64);
        out.extend_from_slice(words);
    }
    out
}

/// Inverse of [`frame`].
fn unframe(words: &[f64]) -> Vec<(usize, Vec<f64>)> {
    let n = words[0] as usize;
    let mut out = Vec::with_capacity(n);
    let mut pos = 1;
    for _ in 0..n {
        let rank = words[pos] as usize;
        let len = words[pos + 1] as usize;
        pos += 2;
        out.push((rank, words[pos..pos + len].to_vec()));
        pos += len;
    }
    out
}

/// Communication interface available to every rank of an SPMD region.
///
/// Object-safe: orchestration code takes `&dyn Comm` so the same driver
/// runs over the plain channel transport ([`LocalComm`]) and the
/// topology-accounting wrapper ([`crate::TorusComm`]).
pub trait Comm {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;
    /// Number of ranks.
    fn size(&self) -> usize;
    /// Send `data` to rank `to` with a `tag` (non-blocking, buffered).
    /// Tags with bit 63 set are reserved for the collectives.
    fn send(&self, to: usize, tag: u64, data: Vec<f64>) -> CommResult<()>;
    /// Receive the message with exactly `tag` from rank `from` (blocking;
    /// out-of-order arrivals are buffered). Under a fault plan the wait is
    /// bounded: retries with exponential backoff, then
    /// [`CommError::Timeout`].
    fn recv(&self, from: usize, tag: u64) -> CommResult<Vec<f64>>;
    /// Non-blocking receive: hand back the message with exactly `tag` from
    /// rank `from` if it is already available, `Ok(None)` otherwise —
    /// never waits. Arrivals with other tags are stashed for their own
    /// receives. Under a fault plan a poll doubles as a NACK opportunity:
    /// anything parked on the edge is retransmitted and re-checked, so a
    /// progress engine that polls between compute chunks recovers dropped
    /// and delayed traffic without ever blocking.
    fn try_recv(&self, from: usize, tag: u64) -> CommResult<Option<Vec<f64>>>;
    /// Next collective epoch (every rank calls collectives in the same
    /// order, so the per-rank counters agree globally).
    #[doc(hidden)]
    fn next_epoch(&self) -> u64;
    /// Whether the fault plan stalls this rank for the whole region — a
    /// stalled rank must skip its work *and* every collective.
    fn stalled(&self) -> bool {
        false
    }

    /// Out-of-band failure notification for a *peer* rank — the model's
    /// stand-in for the control system's RAS events (on BG/Q the job
    /// controller learns of a dead node from the machine, not from a
    /// timeout). Deterministic in the fault seed, which is what keeps the
    /// pipelined engine's stall/steal counters replayable; the caller
    /// still decides *when* to act on it (the steal queue waits for the
    /// rank's timeout to fire before re-issuing its chunks).
    fn peer_stalled(&self, _rank: usize) -> bool {
        false
    }

    /// Element-wise global sum, result replicated on all ranks: reduce up
    /// a binomial tree to rank 0 (`⌈log₂ P⌉` rounds), then broadcast down
    /// it. Deterministic, but a *different floating-point association*
    /// than an ascending-rank sequential sum; code that needs the serial
    /// order must use [`Comm::gather`] and reduce in canonical order
    /// itself.
    fn allreduce_sum(&self, data: &mut [f64]) -> CommResult<()> {
        let p = self.size();
        if p == 1 {
            return Ok(());
        }
        let epoch = self.next_epoch();
        let me = self.rank();
        let mut mask = 1usize;
        while mask < p {
            let tag = ctag(OP_REDUCE, epoch, mask as u32);
            if me & mask != 0 {
                self.send(me - mask, tag, data.to_vec())?;
                break;
            }
            if me | mask < p {
                let part = self.recv(me | mask, tag)?;
                if part.len() != data.len() {
                    return Err(CommError::LengthMismatch {
                        expected: data.len(),
                        got: part.len(),
                    });
                }
                for (d, x) in data.iter_mut().zip(part) {
                    *d += x;
                }
            }
            mask <<= 1;
        }
        let mut out = data.to_vec();
        self.bcast_tree(&mut out, epoch)?;
        data.copy_from_slice(&out);
        Ok(())
    }

    /// Binomial-tree broadcast from rank 0 — the result-distribution half
    /// of [`Comm::allreduce_sum`].
    #[doc(hidden)]
    fn bcast_tree(&self, data: &mut Vec<f64>, epoch: u64) -> CommResult<()> {
        let p = self.size();
        let me = self.rank();
        // Receive once from the parent (the first set bit of the rank) …
        let mut mask = 1usize;
        while mask < p {
            if me & mask != 0 {
                *data = self.recv(me - mask, ctag(OP_BCAST, epoch, mask as u32))?;
                break;
            }
            mask <<= 1;
        }
        // … then relay to children below that bit.
        mask >>= 1;
        while mask > 0 {
            if me + mask < p {
                self.send(me + mask, ctag(OP_BCAST, epoch, mask as u32), data.clone())?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// Gather per-rank vectors on `root` up a binomial tree; returns
    /// `Some(parts)` on the root (indexed by rank) and `None` elsewhere.
    /// In round `k` a rank whose `k`-th virtual bit is set forwards
    /// everything it has collected (framed, with rank ids) to its parent.
    /// Data movement only: the root receives the bits each rank sent.
    /// Strict: an unresponsive peer fails the collective with its
    /// [`CommError::Timeout`] — a node that loses a child forwards
    /// nothing, so the loss surfaces at every ancestor up to the root and
    /// the result is never a short vector.
    fn gather(&self, root: usize, data: Vec<f64>) -> CommResult<Option<Vec<Vec<f64>>>> {
        let p = self.size();
        let me = self.rank();
        self.check_rank(root)?;
        if p == 1 {
            return Ok(Some(vec![data]));
        }
        let epoch = self.next_epoch();
        let vr = (me + p - root) % p;
        let mut collected: Vec<(usize, Vec<f64>)> = vec![(me, data)];
        let mut mask = 1usize;
        while mask < p {
            let tag = ctag(OP_GATHER, epoch, mask as u32);
            if vr & mask != 0 {
                self.send((vr - mask + root) % p, tag, frame(&collected))?;
                return Ok(None);
            }
            if vr + mask < p {
                let words = self.recv((vr + mask + root) % p, tag)?;
                collected.extend(unframe(&words));
            }
            mask <<= 1;
        }
        collected.sort_unstable_by_key(|&(rank, _)| rank);
        Ok(Some(
            collected.into_iter().map(|(_, words)| words).collect(),
        ))
    }

    /// Validate a rank id against this communicator.
    #[doc(hidden)]
    fn check_rank(&self, rank: usize) -> CommResult<()> {
        if rank >= self.size() {
            Err(CommError::InvalidRank {
                rank,
                size: self.size(),
            })
        } else {
            Ok(())
        }
    }
}

/// Thread-backed communicator.
pub struct LocalComm {
    rank: usize,
    size: usize,
    /// `senders[to]` delivers into `to`'s inbox slot for this rank.
    senders: Vec<Sender<WireMsg>>,
    /// `inboxes[from]` receives messages sent by `from`.
    inboxes: Vec<Receiver<WireMsg>>,
    /// Out-of-order buffer: per source, tag → queue.
    stash: Mutex<Vec<HashMap<u64, VecDeque<Vec<f64>>>>>,
    /// Per-source set of already-delivered sequence numbers (duplicate
    /// suppression under fault injection).
    seen: Mutex<Vec<HashSet<u64>>>,
    /// Per-destination next send sequence number.
    next_seq: Vec<AtomicU64>,
    /// Collective invocation counter (same sequence on every rank).
    epoch: AtomicU64,
    /// Fault injection, when this region runs under a plan.
    injector: Option<Arc<FaultInjector>>,
}

impl LocalComm {
    /// Pop a stashed message for `(from, tag)`.
    fn take_stashed(&self, from: usize, tag: u64) -> Option<Vec<f64>> {
        self.stash.lock()[from].get_mut(&tag)?.pop_front()
    }

    /// Admit an arrived wire message: suppress duplicates, hand back the
    /// payload if it matches `wanted`, stash it otherwise.
    fn admit(&self, from: usize, wanted: u64, (tag, seq, data): WireMsg) -> Option<Vec<f64>> {
        if self.injector.is_some() && !self.seen.lock()[from].insert(seq) {
            if let Some(inj) = &self.injector {
                inj.note_dup();
            }
            return None;
        }
        if tag == wanted {
            return Some(data);
        }
        self.stash.lock()[from]
            .entry(tag)
            .or_default()
            .push_back(data);
        None
    }

    /// Dedup-filter an arrived wire message and stash it regardless of
    /// which tag the caller is currently waiting on.
    fn stash_wire(&self, from: usize, (tag, seq, data): WireMsg) {
        if self.injector.is_some() && !self.seen.lock()[from].insert(seq) {
            if let Some(inj) = &self.injector {
                inj.note_dup();
            }
            return;
        }
        self.stash.lock()[from]
            .entry(tag)
            .or_default()
            .push_back(data);
    }
}

impl Comm for LocalComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed)
    }

    fn stalled(&self) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|inj| inj.stalled(self.rank))
    }

    fn peer_stalled(&self, rank: usize) -> bool {
        self.injector.as_ref().is_some_and(|inj| inj.stalled(rank))
    }

    fn send(&self, to: usize, tag: u64, data: Vec<f64>) -> CommResult<()> {
        self.check_rank(to)?;
        if to == self.rank {
            return Err(CommError::SelfMessage { rank: to });
        }
        let seq = self.next_seq[to].fetch_add(1, Ordering::Relaxed);
        let copies = match &self.injector {
            None => 1,
            Some(inj) => match inj.verdict(self.rank, to, seq) {
                crate::fault::Verdict::Deliver => 1,
                crate::fault::Verdict::Duplicate => 2,
                verdict => {
                    inj.park(self.rank, to, (tag, seq, data), verdict);
                    return Ok(());
                }
            },
        };
        for _ in 0..copies {
            self.senders[to]
                .send((tag, seq, data.clone()))
                .map_err(|_| CommError::Disconnected { rank: to })?;
        }
        Ok(())
    }

    fn try_recv(&self, from: usize, tag: u64) -> CommResult<Option<Vec<f64>>> {
        self.check_rank(from)?;
        if from == self.rank {
            return Err(CommError::SelfMessage { rank: from });
        }
        if let Some(msg) = self.take_stashed(from, tag) {
            return Ok(Some(msg));
        }
        while let Ok(wire) = self.inboxes[from].try_recv() {
            if let Some(data) = self.admit(from, tag, wire) {
                return Ok(Some(data));
            }
        }
        // The poll models a piggy-backed NACK: recover everything parked
        // on this edge (dropped/delayed under injection) and re-check.
        if let Some(inj) = &self.injector {
            for wire in inj.retransmit(from, self.rank) {
                self.stash_wire(from, wire);
            }
            if let Some(msg) = self.take_stashed(from, tag) {
                return Ok(Some(msg));
            }
        }
        Ok(None)
    }

    fn recv(&self, from: usize, tag: u64) -> CommResult<Vec<f64>> {
        self.check_rank(from)?;
        if from == self.rank {
            return Err(CommError::SelfMessage { rank: from });
        }
        if let Some(msg) = self.take_stashed(from, tag) {
            return Ok(msg);
        }
        match self.injector.clone() {
            None => loop {
                let wire = self.inboxes[from]
                    .recv()
                    .map_err(|_| CommError::Disconnected { rank: from })?;
                if let Some(data) = self.admit(from, tag, wire) {
                    return Ok(data);
                }
            },
            Some(inj) => {
                let plan = *inj.plan();
                let mut attempts = 0usize;
                loop {
                    if let Some(msg) = self.take_stashed(from, tag) {
                        return Ok(msg);
                    }
                    match self.inboxes[from].recv_timeout(plan.attempt_timeout(attempts)) {
                        Ok(wire) => {
                            if let Some(data) = self.admit(from, tag, wire) {
                                return Ok(data);
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(CommError::Disconnected { rank: from })
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            // The timeout models a NACK reaching the
                            // sender: everything parked on this edge is
                            // retransmitted. Only a fruitless recovery
                            // consumes an attempt.
                            let recovered = inj.retransmit(from, self.rank);
                            let progressed = !recovered.is_empty();
                            for wire in recovered {
                                // Stash unconditionally (dedup applies);
                                // the loop head re-checks the stash.
                                self.stash_wire(from, wire);
                            }
                            if !progressed {
                                inj.note_retry();
                                attempts += 1;
                                if attempts >= plan.max_attempts {
                                    return Err(CommError::Timeout {
                                        rank: from,
                                        attempts,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Everything a [`run_spmd_cfg`] region is configured with.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommConfig {
    /// Deterministic fault plan, if the region runs under injection.
    pub fault: Option<crate::fault::FaultPlan>,
    /// Map ranks onto this torus and account every transfer's route
    /// (hop counts, per-link loads) for the machine cost model.
    pub torus: Option<liair_bgq::Torus5D>,
}

/// Outcome of a configured SPMD region: per-rank results plus the
/// fault/traffic accounting the configuration enabled.
#[derive(Debug)]
pub struct SpmdRun<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Fault counters `(drops, delays, dups, retransmissions, retries)`
    /// when a fault plan was active.
    pub fault_stats: Option<(usize, usize, usize, usize, usize)>,
    /// The traffic ledger when a torus was configured.
    pub traffic: Option<crate::topo::TrafficLog>,
}

/// Build the channel mesh and per-rank communicators.
fn build_comms(nranks: usize, injector: Option<Arc<FaultInjector>>) -> Vec<LocalComm> {
    // Channel mesh: tx[from][to].
    let mut txs: Vec<Vec<Option<Sender<WireMsg>>>> = (0..nranks)
        .map(|_| (0..nranks).map(|_| None).collect())
        .collect();
    let mut rxs: Vec<Vec<Option<Receiver<WireMsg>>>> = (0..nranks)
        .map(|_| (0..nranks).map(|_| None).collect())
        .collect();
    for from in 0..nranks {
        for to in 0..nranks {
            if from == to {
                continue;
            }
            let (tx, rx) = unbounded();
            txs[from][to] = Some(tx);
            rxs[to][from] = Some(rx);
        }
    }
    let mut comms: Vec<LocalComm> = Vec::with_capacity(nranks);
    for (rank, rx_row) in rxs.into_iter().enumerate() {
        let senders: Vec<Sender<WireMsg>> = (0..nranks)
            .map(|to| {
                if to == rank {
                    // placeholder channel, never used (self-send errors)
                    unbounded().0
                } else {
                    txs[rank][to].take().expect("mesh slot filled above")
                }
            })
            .collect();
        let inboxes: Vec<Receiver<WireMsg>> = rx_row
            .into_iter()
            .map(|r| r.unwrap_or_else(|| unbounded().1))
            .collect();
        comms.push(LocalComm {
            rank,
            size: nranks,
            senders,
            inboxes,
            stash: Mutex::new(vec![HashMap::new(); nranks]),
            seen: Mutex::new(vec![HashSet::new(); nranks]),
            next_seq: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            epoch: AtomicU64::new(0),
            injector: injector.clone(),
        });
    }
    comms
}

/// Run `body` as an SPMD region over `nranks` virtual ranks (one OS thread
/// each) under a [`CommConfig`] — deterministic fault injection and torus
/// traffic accounting, both off by default — and collect each rank's
/// return value, indexed by rank. `body` receives the communicator as
/// `&dyn Comm` so it runs unchanged over the plain and the
/// topology-accounting transports.
pub fn run_spmd_cfg<T, F>(nranks: usize, cfg: CommConfig, body: F) -> CommResult<SpmdRun<T>>
where
    T: Send,
    F: Fn(&dyn Comm) -> T + Sync,
{
    if nranks < 1 {
        return Err(CommError::InvalidArgument("nranks must be >= 1".into()));
    }
    let injector = match cfg.fault {
        Some(plan) => Some(Arc::new(FaultInjector::new(plan)?)),
        None => None,
    };
    let torus = match cfg.torus {
        Some(t) => {
            if t.nodes() != nranks {
                return Err(CommError::InvalidArgument(format!(
                    "torus has {} nodes for {nranks} ranks",
                    t.nodes()
                )));
            }
            Some(t)
        }
        None => None,
    };
    let ledger = torus.map(crate::topo::TrafficLog::new);
    let comms = build_comms(nranks, injector.clone());
    let mut out: Vec<Option<T>> = (0..nranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let ledger = &ledger;
        let body = &body;
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| {
                scope.spawn(move || match ledger {
                    Some(log) => {
                        let tc = crate::topo::TorusComm::new(comm, log);
                        body(&tc)
                    }
                    None => body(comm),
                })
            })
            .collect();
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().expect("rank panicked"));
        }
    });
    Ok(SpmdRun {
        results: out.into_iter().map(|o| o.expect("joined above")).collect(),
        fault_stats: injector.map(|inj| inj.stats.snapshot()),
        traffic: ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    /// A region under `plan`, no torus.
    fn faulty(plan: FaultPlan) -> CommConfig {
        CommConfig {
            fault: Some(plan),
            torus: None,
        }
    }

    /// Every non-root rank stalls; receives give up after two short
    /// attempts.
    fn all_stalled() -> FaultPlan {
        FaultPlan {
            stall_p: 1.0,
            drop_p: 0.0,
            delay_p: 0.0,
            dup_p: 0.0,
            max_attempts: 2,
            base_timeout: std::time::Duration::from_millis(5),
            ..FaultPlan::messages_only(0)
        }
    }

    #[test]
    fn allreduce_sums_over_ranks() {
        let run = run_spmd_cfg(4, CommConfig::default(), |comm| {
            let mut data = vec![comm.rank() as f64, 1.0];
            comm.allreduce_sum(&mut data).unwrap();
            data
        })
        .unwrap();
        for r in run.results {
            assert_eq!(r, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn ring_pass_accumulates() {
        let results = run_spmd_cfg(4, CommConfig::default(), |comm| {
            let me = comm.rank();
            let p = comm.size();
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            let mut acc = me as f64;
            for step in 0..p - 1 {
                comm.send(next, step as u64, vec![acc]).unwrap();
                let got = comm.recv(prev, step as u64).unwrap();
                acc = got[0] + me as f64;
            }
            acc
        })
        .unwrap()
        .results;
        // Each rank ends with a path sum; the total over ranks is fixed.
        let total: f64 = results.iter().sum();
        assert_eq!(results.len(), 4);
        assert!(total > 0.0);
    }

    #[test]
    fn gather_collects_by_rank() {
        for root in [0, 1] {
            for n in [1usize, 2, 3, 4, 7, 8] {
                if root >= n {
                    continue;
                }
                let run = run_spmd_cfg(n, CommConfig::default(), move |comm| {
                    let data = vec![comm.rank() as f64; comm.rank() + 1];
                    comm.gather(root, data).unwrap()
                })
                .unwrap();
                for (rank, out) in run.results.into_iter().enumerate() {
                    if rank == root {
                        let parts = out.expect("root gets parts");
                        assert_eq!(parts.len(), n);
                        for (r, part) in parts.iter().enumerate() {
                            assert_eq!(part, &vec![r as f64; r + 1], "n={n}");
                        }
                    } else {
                        assert!(out.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn tree_gather_returns_the_bits_each_rank_sent() {
        // The gather moves words without arithmetic: signed zeros,
        // subnormals and ragged per-rank lengths must arrive bit for bit,
        // for any root and rank count, clean and under message faults.
        let payload = |rank: usize| -> Vec<f64> {
            let mut words = vec![-0.0, f64::MIN_POSITIVE / 2.0, 1.0e-308];
            words.extend((0..rank).map(|k| (k as f64 + 1.0) / 3.0));
            words
        };
        let bits = |words: &[f64]| -> Vec<u64> { words.iter().map(|x| x.to_bits()).collect() };
        let plans = std::iter::once(None).chain((1..=3).map(|s| Some(FaultPlan::messages_only(s))));
        for fault in plans {
            for root in [0usize, 2] {
                for n in [1usize, 2, 3, 5, 6, 8] {
                    if root >= n {
                        continue;
                    }
                    let cfg = CommConfig { fault, torus: None };
                    let run = run_spmd_cfg(n, cfg, move |comm| {
                        comm.gather(root, payload(comm.rank())).unwrap()
                    })
                    .unwrap();
                    for (rank, out) in run.results.into_iter().enumerate() {
                        let what = format!("rank {rank} root {root} n={n} fault {fault:?}");
                        if rank != root {
                            assert!(out.is_none(), "{what}");
                            continue;
                        }
                        let parts = out.expect("root gets parts");
                        assert_eq!(parts.len(), n, "{what}");
                        for (r, part) in parts.iter().enumerate() {
                            assert_eq!(bits(part), bits(&payload(r)), "slot {r}, {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn try_recv_never_blocks_and_drains_in_tag_order() {
        let results = run_spmd_cfg(2, CommConfig::default(), |comm| {
            if comm.rank() == 1 {
                // Nothing in flight on this tag: an immediate None.
                assert_eq!(comm.try_recv(0, 99).unwrap(), None);
                comm.send(0, 100, vec![0.5]).unwrap(); // release the sender
                Vec::new()
            } else {
                comm.recv(1, 100).unwrap() // rank 1 has passed its poll
            }
        })
        .unwrap()
        .results;
        assert_eq!(results[0], vec![0.5]);
        let results = run_spmd_cfg(2, CommConfig::default(), |comm| {
            if comm.rank() == 1 {
                // Blocking recv of the later tag stashes the earlier one;
                // the poll then serves it from the stash without waiting.
                let b = comm.recv(0, 8).unwrap();
                let a = comm.try_recv(0, 7).unwrap().expect("stashed");
                vec![a[0], b[0]]
            } else {
                comm.send(1, 7, vec![1.0]).unwrap();
                comm.send(1, 8, vec![2.0]).unwrap();
                Vec::new()
            }
        })
        .unwrap()
        .results;
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn try_recv_recovers_dropped_traffic_via_poll_nack() {
        // Every first transmission is lost; only the poll's piggy-backed
        // NACK (vault retransmission) can deliver.
        let plan = FaultPlan {
            drop_p: 1.0,
            delay_p: 0.0,
            dup_p: 0.0,
            ..FaultPlan::messages_only(3)
        };
        let run = run_spmd_cfg(2, faulty(plan), |comm| {
            if comm.rank() == 1 {
                comm.send(0, 5, vec![42.0]).unwrap();
                Vec::new()
            } else {
                for _ in 0..1000 {
                    if let Some(msg) = comm.try_recv(1, 5).unwrap() {
                        return msg;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                panic!("poll never recovered the dropped message");
            }
        })
        .unwrap();
        assert_eq!(run.results[0], vec![42.0]);
        let (drops, _, _, retransmissions, _) = run.fault_stats.unwrap();
        assert!(drops >= 1);
        assert!(retransmissions >= drops);
    }

    #[test]
    fn peer_stall_oracle_matches_self_view() {
        let run = run_spmd_cfg(8, faulty(FaultPlan::with_stalls(7)), |comm| {
            let me = comm.stalled();
            let seen_by_root: Vec<bool> = (0..comm.size()).map(|r| comm.peer_stalled(r)).collect();
            (me, seen_by_root)
        })
        .unwrap();
        let truth: Vec<bool> = run.results.iter().map(|(s, _)| *s).collect();
        assert!(!truth[0], "rank 0 never stalls");
        for (_, seen) in &run.results {
            assert_eq!(seen, &truth, "the oracle is globally consistent");
        }
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let results = run_spmd_cfg(2, CommConfig::default(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, vec![1.0]).unwrap();
                comm.send(1, 20, vec![2.0]).unwrap();
                Vec::new()
            } else {
                // Receive in the opposite order of sending.
                let b = comm.recv(0, 20).unwrap();
                let a = comm.recv(0, 10).unwrap();
                vec![a[0], b[0]]
            }
        })
        .unwrap()
        .results;
        assert_eq!(results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let run = run_spmd_cfg(1, CommConfig::default(), |comm| {
            let mut v = vec![4.0];
            comm.allreduce_sum(&mut v).unwrap();
            let g = comm.gather(0, vec![1.0]).unwrap().unwrap();
            (v, g)
        })
        .unwrap();
        let (v, g) = &run.results[0];
        assert_eq!(v, &vec![4.0]);
        assert_eq!(g, &vec![vec![1.0]]);
    }

    #[test]
    fn invalid_ranks_are_typed_errors() {
        run_spmd_cfg(2, CommConfig::default(), |comm| {
            assert!(matches!(
                comm.send(9, 0, vec![1.0]),
                Err(CommError::InvalidRank { rank: 9, size: 2 })
            ));
            assert!(matches!(
                comm.recv(comm.rank(), 0),
                Err(CommError::SelfMessage { .. })
            ));
            assert!(matches!(
                comm.gather(2, vec![0.0]),
                Err(CommError::InvalidRank { rank: 2, size: 2 })
            ));
        })
        .unwrap();
    }

    #[test]
    fn message_faults_are_survived_and_counted() {
        for seed in [1u64, 2, 3] {
            let run = run_spmd_cfg(4, faulty(FaultPlan::messages_only(seed)), |comm| {
                let mut acc = vec![comm.rank() as f64];
                comm.allreduce_sum(&mut acc).unwrap();
                let g = comm.gather(0, vec![comm.rank() as f64; 2]).unwrap();
                (acc[0], g)
            })
            .unwrap();
            for (rank, (sum, g)) in run.results.into_iter().enumerate() {
                assert_eq!(sum, 6.0, "seed {seed}");
                assert_eq!(g.is_some(), rank == 0);
                for (r, part) in g.iter().flatten().enumerate() {
                    assert_eq!(part, &vec![r as f64; 2]);
                }
            }
            assert!(run.fault_stats.is_some(), "plan active");
        }
    }

    #[test]
    fn injected_drops_eventually_occur_and_recover() {
        // A chatty region under a high drop rate: statistics must show
        // real injections AND every transfer must still complete.
        let plan = FaultPlan {
            drop_p: 0.3,
            delay_p: 0.2,
            dup_p: 0.1,
            ..FaultPlan::messages_only(11)
        };
        let run = run_spmd_cfg(4, faulty(plan), |comm| {
            let mut total = 0.0;
            for round in 0..10u64 {
                let mut v = vec![comm.rank() as f64 + round as f64];
                comm.allreduce_sum(&mut v).unwrap();
                total += v[0];
            }
            total
        })
        .unwrap();
        let expect: f64 = (0..10).map(|r| (6 + 4 * r) as f64).sum();
        for t in run.results {
            assert_eq!(t, expect);
        }
        let (drops, delays, _, retransmissions, _) = run.fault_stats.unwrap();
        assert!(drops + delays > 0, "faults must have fired");
        assert_eq!(
            retransmissions,
            drops + delays,
            "all parked traffic recovered"
        );
    }

    #[test]
    fn strict_gather_surfaces_timeout_for_stalled_peer() {
        // Every non-root rank stalls, interior tree node (rank 2, parent
        // of rank 3) included: the root must get a typed timeout — not a
        // hang, and not a vector with slots missing.
        let run = run_spmd_cfg(4, faulty(all_stalled()), |comm| {
            if comm.stalled() {
                return None;
            }
            Some(comm.gather(0, vec![1.0]))
        })
        .unwrap();
        assert!(
            run.results[1..].iter().all(Option::is_none),
            "others stalled"
        );
        match run.results[0].as_ref().expect("rank 0 never stalls") {
            Err(CommError::Timeout { rank: 1, .. }) => {}
            other => panic!("expected timeout for rank 1, got {other:?}"),
        }
    }

    #[test]
    fn fault_schedules_replay_deterministically() {
        let snapshot = |seed: u64| {
            run_spmd_cfg(4, faulty(FaultPlan::messages_only(seed)), |comm| {
                let mut v = vec![comm.rank() as f64];
                comm.allreduce_sum(&mut v).unwrap();
                v[0]
            })
            .unwrap()
            .fault_stats
            .unwrap()
        };
        let (d1, dl1, du1, _, _) = snapshot(77);
        let (d2, dl2, du2, _, _) = snapshot(77);
        assert_eq!((d1, dl1, du1), (d2, dl2, du2), "same seed, same schedule");
    }

    #[test]
    fn frame_unframe_round_trips() {
        let entries = vec![
            (3usize, vec![1.0, -0.0, 5.5]),
            (0usize, Vec::new()),
            (7usize, vec![f64::MIN_POSITIVE]),
        ];
        let decoded = unframe(&frame(&entries));
        assert_eq!(decoded.len(), entries.len());
        for ((ra, va), (rb, vb)) in entries.iter().zip(&decoded) {
            assert_eq!(ra, rb);
            let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(va), bits(vb));
        }
    }
}
