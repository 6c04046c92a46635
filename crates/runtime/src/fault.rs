//! Deterministic fault injection for the message-passing runtime.
//!
//! The harness models the failure modes a real interconnect exhibits —
//! lost packets, delayed packets, duplicated packets, and unresponsive
//! (stalled) ranks — *deterministically*: every decision is a pure
//! function of the plan seed and the message's `(from, to, sequence)`
//! coordinates, so a failing schedule replays exactly under the same
//! seed regardless of thread interleaving.
//!
//! Transport semantics mirror a sender-retransmit protocol without
//! modelling the acknowledgement traffic explicitly: a dropped or delayed
//! message is parked in the injector's vault; when the receiver's
//! [`recv`](crate::Comm::recv) attempt times out it asks the vault for
//! retransmissions of everything parked on that directed edge (exactly
//! what a NACK/timeout-driven resend would deliver), then retries with
//! exponential backoff. A message is therefore never lost permanently —
//! only late — unless the peer has genuinely stalled, in which case the
//! retry budget expires and the receive returns
//! [`crate::CommError::Timeout`].

use crate::error::{CommError, CommResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A seeded, deterministic fault schedule plus the retry policy used to
/// survive it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of every injection decision.
    pub seed: u64,
    /// Probability a message's first transmission is lost (recovered by
    /// retransmission after the receiver's first timeout).
    pub drop_p: f64,
    /// Probability a message is held back until the receiver times out
    /// once (late delivery rather than loss).
    pub delay_p: f64,
    /// Probability a message is delivered twice (the duplicate is
    /// discarded by the receiver's sequence filter).
    pub dup_p: f64,
    /// Probability a rank (other than rank 0, the coordinator) stalls for
    /// the whole SPMD region: it computes nothing and answers nothing.
    pub stall_p: f64,
    /// Receive attempts before a peer is declared unresponsive (≥ 1).
    pub max_attempts: usize,
    /// Timeout of the first receive attempt; each retry doubles it.
    pub base_timeout: Duration,
}

impl FaultPlan {
    /// A plan with moderate message-level faults and no stalls — the
    /// default for soak-testing the retry path.
    pub fn messages_only(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.10,
            delay_p: 0.10,
            dup_p: 0.05,
            stall_p: 0.0,
            max_attempts: 6,
            base_timeout: Duration::from_millis(10),
        }
    }

    /// A plan that additionally stalls ~1 in 8 non-root ranks, driving
    /// the graceful-degradation (work re-issue) path.
    pub fn with_stalls(seed: u64) -> Self {
        FaultPlan {
            stall_p: 0.125,
            ..Self::messages_only(seed)
        }
    }

    /// Check the plan is executable: probabilities in `[0, 1]`, their sum
    /// per message ≤ 1, and a non-zero retry budget.
    pub fn validate(&self) -> CommResult<()> {
        for (name, p) in [
            ("drop_p", self.drop_p),
            ("delay_p", self.delay_p),
            ("dup_p", self.dup_p),
            ("stall_p", self.stall_p),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(CommError::InvalidArgument(format!(
                    "{name} = {p} outside [0, 1]"
                )));
            }
        }
        if self.drop_p + self.delay_p + self.dup_p > 1.0 {
            return Err(CommError::InvalidArgument(
                "drop_p + delay_p + dup_p > 1".into(),
            ));
        }
        if self.max_attempts == 0 {
            return Err(CommError::InvalidArgument("max_attempts = 0".into()));
        }
        Ok(())
    }

    /// Timeout of receive attempt `k` (0-based): exponential backoff,
    /// capped at 1 s per attempt.
    pub fn attempt_timeout(&self, k: usize) -> Duration {
        let factor = 1u32 << k.min(10) as u32;
        (self.base_timeout * factor).min(Duration::from_secs(1))
    }
}

/// What the injector decided for one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Lose the first transmission (recover via retransmission).
    Drop,
    /// Hold until the receiver's first timeout.
    Delay,
    /// Deliver twice.
    Duplicate,
}

/// Counters of everything the injector did (monotone; read after a run).
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Messages whose first transmission was dropped.
    pub drops: AtomicUsize,
    /// Messages delayed past the receiver's first timeout.
    pub delays: AtomicUsize,
    /// Messages delivered twice.
    pub dups: AtomicUsize,
    /// Parked messages handed back as retransmissions.
    pub retransmissions: AtomicUsize,
    /// Receive attempts that timed out and retried.
    pub retries: AtomicUsize,
}

impl FaultStats {
    /// Snapshot as plain counts `(drops, delays, dups, retransmissions,
    /// retries)`.
    pub fn snapshot(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.drops.load(Ordering::Relaxed),
            self.delays.load(Ordering::Relaxed),
            self.dups.load(Ordering::Relaxed),
            self.retransmissions.load(Ordering::Relaxed),
            self.retries.load(Ordering::Relaxed),
        )
    }
}

/// A parked (dropped or delayed) message awaiting retransmission.
pub(crate) type Envelope = (u64, u64, Vec<f64>); // (tag, seq, data)

/// The shared per-region fault state: the vault of parked messages and
/// the statistics, consulted by every rank's transport.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Parked messages per directed edge `(from, to)`.
    vault: Mutex<HashMap<(usize, usize), VecDeque<Envelope>>>,
    /// Event counters.
    pub stats: FaultStats,
}

/// SplitMix64 step — the standard 64-bit finalizer, kept local so the
/// runtime does not grow a dependency for three lines of mixing.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform `[0, 1)` double.
fn u01(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultInjector {
    /// Build the injector for a validated plan.
    pub fn new(plan: FaultPlan) -> CommResult<Self> {
        plan.validate()?;
        Ok(FaultInjector {
            plan,
            vault: Mutex::new(HashMap::new()),
            stats: FaultStats::default(),
        })
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether `rank` stalls for the whole region. Deterministic in
    /// `(seed, rank)`; rank 0 — the coordinator that reassembles results
    /// and re-issues a stalled rank's work — never stalls (the model's
    /// stand-in for the job controller surviving member failures).
    pub fn stalled(&self, rank: usize) -> bool {
        if rank == 0 || self.plan.stall_p <= 0.0 {
            return false;
        }
        u01(mix(self.plan.seed ^ 0x57A1_1ED0 ^ (rank as u64) << 16)) < self.plan.stall_p
    }

    /// Decide the fate of transmission `seq` on edge `(from, to)`.
    /// Deterministic in `(seed, from, to, seq)` — independent of thread
    /// scheduling.
    pub fn verdict(&self, from: usize, to: usize, seq: u64) -> Verdict {
        let h = mix(self
            .plan
            .seed
            .wrapping_mul(0x2545F4914F6CDD1D)
            .wrapping_add((from as u64) << 40 | (to as u64) << 20)
            .wrapping_add(seq));
        let x = u01(h);
        if x < self.plan.drop_p {
            Verdict::Drop
        } else if x < self.plan.drop_p + self.plan.delay_p {
            Verdict::Delay
        } else if x < self.plan.drop_p + self.plan.delay_p + self.plan.dup_p {
            Verdict::Duplicate
        } else {
            Verdict::Deliver
        }
    }

    /// Park a dropped/delayed message for later retransmission.
    pub(crate) fn park(&self, from: usize, to: usize, env: Envelope, verdict: Verdict) {
        match verdict {
            Verdict::Drop => self.stats.drops.fetch_add(1, Ordering::Relaxed),
            Verdict::Delay => self.stats.delays.fetch_add(1, Ordering::Relaxed),
            _ => unreachable!("only dropped/delayed messages are parked"),
        };
        self.vault
            .lock()
            .entry((from, to))
            .or_default()
            .push_back(env);
    }

    /// Retransmit everything parked on edge `(from, to)` — the effect of
    /// the receiver's timeout-driven NACK reaching the sender.
    pub(crate) fn retransmit(&self, from: usize, to: usize) -> Vec<Envelope> {
        let mut vault = self.vault.lock();
        let out: Vec<Envelope> = vault
            .get_mut(&(from, to))
            .map(|q| q.drain(..).collect())
            .unwrap_or_default();
        self.stats
            .retransmissions
            .fetch_add(out.len(), Ordering::Relaxed);
        out
    }

    /// Record a duplicate delivery.
    pub(crate) fn note_dup(&self) {
        self.stats.dups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a timed-out receive attempt that will retry.
    pub(crate) fn note_retry(&self) {
        self.stats.retries.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_are_deterministic_and_seed_sensitive() {
        let a = FaultInjector::new(FaultPlan::messages_only(7)).unwrap();
        let b = FaultInjector::new(FaultPlan::messages_only(7)).unwrap();
        let c = FaultInjector::new(FaultPlan::messages_only(8)).unwrap();
        let va: Vec<Verdict> = (0..200).map(|s| a.verdict(1, 2, s)).collect();
        let vb: Vec<Verdict> = (0..200).map(|s| b.verdict(1, 2, s)).collect();
        let vc: Vec<Verdict> = (0..200).map(|s| c.verdict(1, 2, s)).collect();
        assert_eq!(va, vb, "same seed must replay identically");
        assert_ne!(va, vc, "different seeds must differ somewhere");
    }

    #[test]
    fn fault_rates_match_probabilities_roughly() {
        let inj = FaultInjector::new(FaultPlan::messages_only(42)).unwrap();
        let n = 20_000;
        let mut drops = 0;
        for s in 0..n {
            if inj.verdict(0, 1, s) == Verdict::Drop {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn rank_zero_never_stalls() {
        for seed in 0..50 {
            let inj = FaultInjector::new(FaultPlan::with_stalls(seed)).unwrap();
            assert!(!inj.stalled(0));
        }
        // And with a generous stall probability some other rank does.
        let plan = FaultPlan {
            stall_p: 0.9,
            ..FaultPlan::messages_only(3)
        };
        let inj = FaultInjector::new(plan).unwrap();
        assert!((1..16).any(|r| inj.stalled(r)));
    }

    #[test]
    fn park_and_retransmit_round_trip() {
        let inj = FaultInjector::new(FaultPlan::messages_only(1)).unwrap();
        inj.park(2, 0, (9, 0, vec![1.0]), Verdict::Drop);
        inj.park(2, 0, (9, 1, vec![2.0]), Verdict::Delay);
        inj.park(1, 0, (9, 0, vec![3.0]), Verdict::Drop);
        let got = inj.retransmit(2, 0);
        assert_eq!(got.len(), 2, "only the (2, 0) edge drains");
        assert_eq!(inj.retransmit(2, 0).len(), 0, "vault drained");
        assert_eq!(inj.retransmit(1, 0).len(), 1);
        let (d, dl, _, rt, _) = inj.stats.snapshot();
        assert_eq!((d, dl, rt), (2, 1, 3));
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let mut p = FaultPlan::messages_only(0);
        p.drop_p = 1.5;
        assert!(FaultInjector::new(p).is_err());
        let mut p = FaultPlan::messages_only(0);
        p.max_attempts = 0;
        assert!(FaultInjector::new(p).is_err());
        let mut p = FaultPlan::messages_only(0);
        p.drop_p = 0.5;
        p.delay_p = 0.4;
        p.dup_p = 0.3;
        assert!(FaultInjector::new(p).is_err());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = FaultPlan::messages_only(0);
        assert!(p.attempt_timeout(1) > p.attempt_timeout(0));
        assert!(p.attempt_timeout(30) <= Duration::from_secs(1));
    }
}
