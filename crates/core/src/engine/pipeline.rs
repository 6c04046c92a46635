//! The `Comm` exec stage: double-buffered comm/compute overlap with a
//! root-coordinated steal queue, over point-to-point `send` / `recv` /
//! `try_recv` only (no collective is issued).
//!
//! Running exec and reduce as synchronous phases — every rank finishes
//! its whole share, then one gather lands everything on the root — leaves
//! the collective as pure exposed latency and lets one slow rank stall
//! the build. This module schedules the same work as an asynchronous
//! pipeline:
//!
//! * **streaming results** — each worker fills one of two rotating chunk
//!   buffers while the previous packet is in flight inside the transport
//!   ([`Comm::send`] is non-blocking), so the root ingests contributions
//!   *while* everyone is still computing;
//! * **progress-driven root** — between its own chunks the root polls
//!   [`Comm::try_recv`]: it drains result packets, serves steal requests,
//!   and collects trailers without ever blocking, so ingestion overlaps
//!   its own compute and `BuildProfile::t_reduce_s` times only the drain
//!   after its last own chunk;
//! * **hybrid static + dynamic schedule** — the head of the chunk list is
//!   assigned statically (no coordination traffic for the bulk), the tail
//!   feeds a root-owned steal queue that idle ranks claim one chunk at a
//!   time, absorbing load imbalance and stragglers;
//! * **straggler re-issue on timeout** — a rank the fault model's
//!   out-of-band oracle ([`Comm::peer_stalled`], the RAS stand-in)
//!   declares dead has its chunks fed into the steal queue as soon as its
//!   timeout fires, mid-build, instead of after the final gather.
//!
//! **Canonical-order reassembly invariant.** Every result entry travels
//! as `(chunk id, payload words)`; the root writes it into the canonical
//! slot `id` of one flat output vector regardless of arrival order, steal
//! schedule, or duplicate evaluation (a re-issued chunk replays the
//! identical kernel, so a duplicate overwrites the same bits). The
//! assembled vector is therefore byte-for-byte the serial engine's — the
//! property the cross-backend equivalence suite pins down.
//!
//! **Deterministic steal counters.** The stall set is a pure function of
//! the fault seed, the steal queue holds the same chunk ids in the same
//! order for a fixed workload, every grant moves exactly one chunk, and
//! the root serves the queue itself only when no live worker remains — so
//! `chunks_stolen` and `steal_requests` are replayable for a fixed seed
//! even though the *rank* that wins each chunk races.

use super::profile::BuildProfile;
use crate::balance::{assign, BalanceStrategy};
use crate::error::{Error, Result};
use liair_grid::KernelTimings;
use liair_runtime::{run_spmd_cfg, Comm, CommConfig, CommResult, FaultPlan};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Chunk entries per streamed result packet: small enough that the first
/// packet establishes contact early, large enough to amortize per-message
/// overhead.
const STREAM_BATCH: usize = 2;

/// The dynamically stolen tail is `nitems / STATIC_FRAC_DENOM`; the rest
/// of the chunk list is assigned statically up front.
const STATIC_FRAC_DENOM: usize = 4;

/// Engine-reserved message kinds (bit 63 stays clear — that space belongs
/// to the runtime's collectives). The low 40 bits carry the packet or
/// request sequence number, so every message has a unique tag and the
/// transport's per-tag stash keeps streams ordered.
const TAG_KIND_SHIFT: u64 = 40;
/// Worker → root: `[id, payload…]×` result entries.
const T_RESULT: u64 = 1 << TAG_KIND_SHIFT;
/// Worker → root: empty steal request.
const T_REQUEST: u64 = 2 << TAG_KIND_SHIFT;
/// Root → worker: `[chunk id]` grant, or empty = no more work.
const T_GRANT: u64 = 3 << TAG_KIND_SHIFT;
/// Worker → root: `[fft_s, kernel_s, grew, busy_s, npackets]`.
const T_TRAILER: u64 = 4 << TAG_KIND_SHIFT;
/// Trailer payload length (see [`T_TRAILER`]).
const TRAILER_LEN: usize = 5;

/// The static description of one pipelined region.
pub(crate) struct PipelineJob {
    /// Chunk count (canonical ids `0..nitems`).
    pub nitems: usize,
    /// Output words per chunk.
    pub width: usize,
    /// Virtual rank count.
    pub nranks: usize,
    /// Static assignment strategy for the head of the chunk list.
    pub strategy: BalanceStrategy,
    /// Deterministic fault plan the region runs under (`None` = clean).
    pub fault: Option<FaultPlan>,
}

/// The root-side schedule derived from a [`PipelineJob`].
struct Schedule {
    nitems: usize,
    width: usize,
    /// Static share per rank (chunk ids `0..nstatic`).
    per_rank: Vec<Vec<usize>>,
    /// First tail chunk id; the initial steal queue is `nstatic..nitems`.
    nstatic: usize,
    /// Declare silent ranks dead (oracle-confirmed) once this much wall
    /// time has passed — `None` without a fault plan, where nobody stalls.
    stall_timeout: Option<Duration>,
}

/// Everything the root learned from one pipelined region: the canonical
/// output plus this region's [`BuildProfile`] delta, which
/// [`run_pipelined`] merges into the build's profile.
#[derive(Debug, Default)]
struct RootOut {
    flat: Vec<f64>,
    delta: BuildProfile,
    /// The root's own compute seconds (its static share + queue work).
    root_busy_s: f64,
}

/// Per-worker bookkeeping on the root.
#[derive(Debug, Default)]
struct WorkerState {
    /// Next result-packet sequence number expected.
    next_seq: u64,
    /// Next steal-request sequence number expected.
    next_req: u64,
    /// A received request awaiting its reply (replies are deferred while
    /// an undeclared straggler could still grow the queue).
    pending_req: Option<u64>,
    /// First message seen — a contacted rank is provably live.
    contacted: bool,
    /// Declared dead by the oracle after the timeout fired.
    declared_stalled: bool,
    /// Told there is no more work (its trailer is now unconditional).
    done_granted: bool,
    /// Trailer words, once received.
    trailer: Option<Vec<f64>>,
    /// Trailer merged and every announced packet drained.
    finalized: bool,
}

impl WorkerState {
    /// A resolved rank can no longer surprise the queue: it either proved
    /// itself live or was written off.
    fn resolved(&self) -> bool {
        self.contacted || self.declared_stalled
    }
}

/// Write the `(id, payload…)` entries of one result packet into their
/// canonical slots. Duplicates (an original racing its re-issue)
/// overwrite with identical bits.
fn ingest(pkt: &[f64], width: usize, flat: &mut [f64], filled: &mut [bool]) {
    for e in pkt.chunks_exact(width + 1) {
        let id = e[0] as usize;
        filled[id] = true;
        flat[id * width..(id + 1) * width].copy_from_slice(&e[1..]);
    }
}

/// Evaluate chunk `ci` on the root directly into its canonical slot.
fn eval_local<S, F>(
    eval: &F,
    sc: &mut S,
    ci: usize,
    width: usize,
    out: &mut RootOut,
    filled: &mut [bool],
) where
    F: Fn(&mut S, usize, &mut [f64]) -> (KernelTimings, usize),
{
    let t0 = Instant::now();
    let (t, g) = eval(sc, ci, &mut out.flat[ci * width..(ci + 1) * width]);
    filled[ci] = true;
    out.delta.note_kernel(t, g);
    out.root_busy_s += t0.elapsed().as_secs_f64();
}

/// The non-root side of the protocol: compute the static share streaming
/// results in double-buffered packets, then steal from the root's queue
/// until told there is nothing left, then send the timing trailer.
fn worker_drive<S, F>(
    comm: &dyn Comm,
    width: usize,
    mine: &[usize],
    mut sc: S,
    eval: &F,
) -> CommResult<()>
where
    F: Fn(&mut S, usize, &mut [f64]) -> (KernelTimings, usize),
{
    let cap = STREAM_BATCH * (width + 1);
    // Two rotating buffers: while one packet is in flight inside the
    // transport, the other buffer fills — the double buffering of the
    // pipeline.
    let mut bufs = [Vec::with_capacity(cap), Vec::with_capacity(cap)];
    let mut cur = 0usize;
    let mut entries = 0usize;
    let mut npackets = 0u64;
    let mut tim = KernelTimings::default();
    let mut grew = 0usize;
    let mut busy_s = 0.0f64;
    {
        let mut compute = |ci: usize, sc: &mut S, bufs: &mut [Vec<f64>; 2], cur: &mut usize| {
            let t0 = Instant::now();
            let buf = &mut bufs[*cur];
            buf.push(ci as f64);
            let at = buf.len();
            buf.resize(at + width, 0.0);
            let (t, g) = eval(sc, ci, &mut buf[at..]);
            busy_s += t0.elapsed().as_secs_f64();
            tim.merge(t);
            grew += g;
            entries += 1;
            if entries >= STREAM_BATCH {
                let pkt = std::mem::replace(&mut bufs[*cur], Vec::with_capacity(cap));
                let sent = comm.send(0, T_RESULT | npackets, pkt);
                npackets += 1;
                entries = 0;
                *cur ^= 1;
                sent
            } else {
                Ok(())
            }
        };
        for &ci in mine {
            compute(ci, &mut sc, &mut bufs, &mut cur)?;
        }
        // Dynamic tail: one outstanding request, one chunk per grant, until
        // the root replies with an empty grant (no more work anywhere).
        let mut req = 0u64;
        loop {
            comm.send(0, T_REQUEST | req, Vec::new())?;
            let grant = comm.recv(0, T_GRANT | req)?;
            req += 1;
            match grant.first() {
                Some(&ci) => compute(ci as usize, &mut sc, &mut bufs, &mut cur)?,
                None => break,
            }
        }
    }
    if entries > 0 {
        let pkt = std::mem::take(&mut bufs[cur]);
        comm.send(0, T_RESULT | npackets, pkt)?;
        npackets += 1;
    }
    comm.send(
        0,
        T_TRAILER,
        vec![
            tim.fft_s,
            tim.kernel_s,
            grew as f64,
            busy_s,
            npackets as f64,
        ],
    )?;
    Ok(())
}

/// The root side: interleave its own static chunks with non-blocking
/// progress sweeps, own the steal queue, declare stragglers, and
/// reassemble every contribution in canonical order.
fn root_drive<S, I, F>(comm: &dyn Comm, sched: &Schedule, init: &I, eval: &F) -> CommResult<RootOut>
where
    I: Fn() -> S,
    F: Fn(&mut S, usize, &mut [f64]) -> (KernelTimings, usize),
{
    let p = comm.size();
    let (nitems, width) = (sched.nitems, sched.width);
    let t_start = Instant::now();
    let mut out = RootOut {
        flat: vec![0.0; nitems * width],
        ..Default::default()
    };
    out.delta.rank_busy_min_s = f64::INFINITY;
    let mut filled = vec![false; nitems];
    let mut queue: VecDeque<usize> = (sched.nstatic..nitems).collect();
    let mut ws: Vec<WorkerState> = (0..p).map(|_| WorkerState::default()).collect();
    ws[0].contacted = true; // the root is trivially live
    let mut sc = init();

    // One non-blocking progress sweep over every worker; expands in place
    // (a macro, not a closure, so it can split-borrow the local state).
    // Evaluates to whether anything moved.
    macro_rules! sweep {
        () => {{
            let mut progressed = false;
            for w in 1..p {
                if ws[w].finalized || ws[w].declared_stalled {
                    continue;
                }
                // Drain streamed result packets in sequence order.
                while let Some(pkt) = comm.try_recv(w, T_RESULT | ws[w].next_seq)? {
                    ingest(&pkt, width, &mut out.flat, &mut filled);
                    out.delta.bytes_reduced += pkt.len() * std::mem::size_of::<f64>();
                    ws[w].next_seq += 1;
                    ws[w].contacted = true;
                    progressed = true;
                }
                // Pick up a steal request (workers keep one outstanding).
                if ws[w].pending_req.is_none() && !ws[w].done_granted {
                    if comm.try_recv(w, T_REQUEST | ws[w].next_req)?.is_some() {
                        ws[w].pending_req = Some(ws[w].next_req);
                        ws[w].next_req += 1;
                        ws[w].contacted = true;
                        progressed = true;
                    }
                }
                // Reply when possible. An empty queue defers the reply
                // until every rank is resolved — an undeclared straggler
                // could still feed the queue, and a premature `done`
                // would send the thief home early.
                if let Some(req) = ws[w].pending_req {
                    if let Some(ci) = queue.pop_front() {
                        comm.send(w, T_GRANT | req, vec![ci as f64])?;
                        ws[w].pending_req = None;
                        out.delta.chunks_stolen += 1;
                        out.delta.steal_requests += 1;
                        progressed = true;
                    } else if (1..p).all(|r| ws[r].resolved()) {
                        comm.send(w, T_GRANT | req, Vec::new())?;
                        ws[w].pending_req = None;
                        ws[w].done_granted = true;
                        out.delta.steal_requests += 1;
                        progressed = true;
                    }
                }
                if ws[w].trailer.is_none() {
                    if let Some(tr) = comm.try_recv(w, T_TRAILER)? {
                        debug_assert_eq!(tr.len(), TRAILER_LEN);
                        out.delta.bytes_reduced += tr.len() * std::mem::size_of::<f64>();
                        ws[w].trailer = Some(tr);
                        ws[w].contacted = true;
                        progressed = true;
                    }
                }
                // Finalize once every announced packet is drained.
                if let Some(tr) = &ws[w].trailer {
                    if ws[w].next_seq >= tr[4] as u64 {
                        let d = &mut out.delta;
                        d.t_fft_s += tr[0];
                        d.t_kernel_s += tr[1];
                        d.steady_allocs += tr[2] as usize;
                        d.rank_busy_min_s = d.rank_busy_min_s.min(tr[3]);
                        d.rank_busy_max_s = d.rank_busy_max_s.max(tr[3]);
                        ws[w].finalized = true;
                        progressed = true;
                    }
                }
            }
            // Straggler path: once a silent rank's timeout fires and the
            // out-of-band oracle confirms it is dead, feed its entire
            // static share to the steal queue *now*, mid-build — the
            // survivors absorb it instead of the root after the gather.
            if let Some(timeout) = sched.stall_timeout {
                if t_start.elapsed() >= timeout {
                    for w in 1..p {
                        if !ws[w].resolved() && comm.peer_stalled(w) {
                            ws[w].declared_stalled = true;
                            out.delta.ranks_stalled += 1;
                            for &ci in &sched.per_rank[w] {
                                queue.push_back(ci);
                                out.delta.chunks_reissued += 1;
                            }
                            progressed = true;
                        }
                    }
                }
            }
            progressed
        }};
    }

    // Phase 1 — the root's own static chunks, one progress sweep after
    // each: everything the sweeps accomplish here is reduce/steal work
    // hidden behind compute.
    for &ci in &sched.per_rank[0] {
        eval_local(eval, &mut sc, ci, width, &mut out, &mut filled);
        sweep!();
    }

    // Phase 2 — service loop: whatever the root waits on here is the
    // exposed remainder of the reduce.
    let t_drain = Instant::now();
    loop {
        if queue.is_empty() && (1..p).all(|w| ws[w].finalized || ws[w].declared_stalled) {
            break;
        }
        let progressed = sweep!();
        // No live thief will ever come for the queue — the root is the
        // thief of last resort (single-rank regions, every worker dead).
        if !(1..p).any(|w| !ws[w].declared_stalled) {
            while let Some(ci) = queue.pop_front() {
                out.delta.chunks_stolen += 1;
                eval_local(eval, &mut sc, ci, width, &mut out, &mut filled);
            }
            continue;
        }
        if !progressed {
            // A worker that was told `done` owes its remaining packets
            // and its trailer unconditionally — block for them instead of
            // spinning. A blocking receive that exhausts its retry budget
            // writes the rank off; the safety net below recomputes
            // whatever it still owed.
            let mut blocked = false;
            for w in 1..p {
                if ws[w].done_granted && !ws[w].finalized && !ws[w].declared_stalled {
                    let want_trailer = ws[w].trailer.is_none();
                    let got = if want_trailer {
                        comm.recv(w, T_TRAILER)
                    } else {
                        comm.recv(w, T_RESULT | ws[w].next_seq)
                    };
                    match got {
                        Ok(data) => {
                            out.delta.bytes_reduced += data.len() * std::mem::size_of::<f64>();
                            if want_trailer {
                                ws[w].trailer = Some(data);
                            } else {
                                ingest(&data, width, &mut out.flat, &mut filled);
                                ws[w].next_seq += 1;
                            }
                        }
                        Err(_) => {
                            ws[w].declared_stalled = true;
                            out.delta.ranks_stalled += 1;
                        }
                    }
                    blocked = true;
                    break;
                }
            }
            if !blocked {
                // Workers are heads-down computing; don't burn their cores.
                std::thread::yield_now();
            }
        }
    }
    // Safety net: anything still unfilled (a worker written off after
    // chunks were granted to it) is recomputed locally through the
    // identical kernel — bit-identical contributions in the same slots.
    for ci in 0..nitems {
        if !filled[ci] {
            out.delta.chunks_reissued += 1;
            eval_local(eval, &mut sc, ci, width, &mut out, &mut filled);
        }
    }
    let d = &mut out.delta;
    d.t_reduce_s = t_drain.elapsed().as_secs_f64();
    d.bytes_reduced += out.flat.len() * std::mem::size_of::<f64>();
    // The root's own compute participates in the busy bracket.
    d.rank_busy_min_s = d.rank_busy_min_s.min(out.root_busy_s);
    d.rank_busy_max_s = d.rank_busy_max_s.max(out.root_busy_s);
    Ok(out)
}

/// Run a [`PipelineJob`] over the Comm backend and return the
/// canonical flat output (`nitems × width` words, chunk-major). `eval`
/// fills the `width`-word slot of chunk `ci` and reports its kernel
/// timings and scratch growth — the identical closure every other backend
/// runs, which is what keeps the pipeline bit-identical to them.
pub(crate) fn run_pipelined<S, I, F>(
    job: &PipelineJob,
    init: &I,
    eval: &F,
    profile: &mut BuildProfile,
) -> Result<Vec<f64>>
where
    S: Send,
    I: Fn() -> S + Send + Sync,
    F: Fn(&mut S, usize, &mut [f64]) -> (KernelTimings, usize) + Send + Sync,
{
    if job.nranks == 0 {
        return Err(Error::InvalidConfig("need at least one rank".into()));
    }
    if job.nitems == 0 {
        return Ok(Vec::new());
    }
    // Hybrid schedule: static head (no coordination traffic for the bulk
    // of the work), stolen tail (absorbs imbalance and stragglers). A
    // single rank keeps everything static — there is nobody to steal.
    let ntail = if job.nranks == 1 {
        0
    } else {
        job.nitems / STATIC_FRAC_DENOM
    };
    let nstatic = job.nitems - ntail;
    let costs = vec![1.0; nstatic];
    let sched = Schedule {
        nitems: job.nitems,
        width: job.width,
        per_rank: assign(&costs, job.nranks, job.strategy).per_rank,
        nstatic,
        stall_timeout: job.fault.map(|plan| plan.base_timeout),
    };
    let cfg = CommConfig {
        fault: job.fault,
        ..CommConfig::default()
    };
    let run = run_spmd_cfg(job.nranks, cfg, |comm| -> CommResult<Option<RootOut>> {
        if comm.stalled() {
            return Ok(None);
        }
        if comm.rank() == 0 {
            root_drive(comm, &sched, init, eval).map(Some)
        } else {
            worker_drive(
                comm,
                sched.width,
                &sched.per_rank[comm.rank()],
                init(),
                eval,
            )
            .map(|()| None)
        }
    })
    .map_err(Error::Comm)?;
    let mut out = run
        .results
        .into_iter()
        .next()
        .expect("nranks >= 1")
        .map_err(Error::Comm)?
        .expect("rank 0 never stalls and drives the pipeline");
    if let Some((_, _, _, _, retries)) = run.fault_stats {
        out.delta.comm_retries = retries;
    }
    profile.merge(&out.delta);
    Ok(out.flat)
}
