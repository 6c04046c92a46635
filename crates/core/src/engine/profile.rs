//! The one record of what an executed exchange build did: every
//! [`super::ExchangeEngine`] entry point and both incremental paths return
//! a [`BuildProfile`], and no other type carries a copy of its counts.
//!
//! It holds measured numbers only. The machine model prices builds in
//! [`crate::SimOutcome`]'s phases (see `crate::simulate`), and the process-wide
//! FFT plan-cache counters are read from `liair_math::plan::plan_cache_stats`
//! — concurrent builds share that cache, so no per-build window of it
//! exists here.

/// Phase-resolved wall times and work counters of one exchange build.
///
/// Every driver that routes through the engine — energy-only, patched,
/// K-operator, message-passing, incremental — fills the same fields, so
/// `repro` tables and downstream tooling can compare builds without
/// knowing which driver produced them. The work counters partition the
/// build's candidate orbital pairs: `pairs_computed + pairs_reused +
/// pairs_screened` is `N(N+1)/2` for an energy build over `N` orbitals and
/// for a K build over `N` occupied ones alike. Times are wall seconds; the FFT and kernel phases are summed
/// *across workers* (they can exceed `t_exec_s` on a multi-core build),
/// while `t_exec_s` and `t_reduce_s` are elapsed times of the whole stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BuildProfile {
    /// Orbital field evaluation (and localization) ahead of the pair loop.
    pub t_ao_eval_s: f64,
    /// Forward/inverse FFT time summed over all workers.
    pub t_fft_s: f64,
    /// Reciprocal-space kernel multiply / energy-contraction time summed
    /// over all workers.
    pub t_kernel_s: f64,
    /// Elapsed wall time of the execute stage (pair/task loop, all backends).
    pub t_exec_s: f64,
    /// Elapsed wall time of the reduction stage (ordered contribution sum,
    /// K's `B` accumulation and ACE assembly, or the Comm gather).
    pub t_reduce_s: f64,
    /// Pairs dropped by ε screening before execution.
    pub pairs_screened: usize,
    /// Candidate pairs the pair source actually *inspected*
    /// while building the list — `N(N+1)/2` for the brute scan, the far
    /// smaller O(N·partners) count for the locality-aware cell-list
    /// source. The per-build evidence of sub-quadratic sourcing.
    pub pairs_considered: usize,
    /// Pairs actually computed through a Poisson solve.
    pub pairs_computed: usize,
    /// Pairs served from the incremental cache instead.
    pub pairs_reused: usize,
    /// Bytes that flowed through the reduction stage (contribution vectors,
    /// K pair items, allreduce payloads).
    pub bytes_reduced: usize,
    /// Steady-state scratch growth events during execution (0 once every
    /// worker's grow-once buffers are warm).
    pub steady_allocs: usize,
    /// Ranks that stalled under the fault plan and never delivered their
    /// share (their chunks were re-issued to the root).
    pub ranks_stalled: usize,
    /// Chunks recomputed on the root because their owning rank stalled —
    /// the graceful-degradation work of a faulty build.
    pub chunks_reissued: usize,
    /// Receive attempts that timed out and retried during the build's
    /// collectives (0 on a fault-free build).
    pub comm_retries: usize,
    /// Chunks dispatched through the steal queue instead of a static
    /// owner: the dynamic tail plus every chunk re-issued from a stalled
    /// rank. 0 on the staged backend.
    pub chunks_stolen: usize,
    /// Steal-protocol messages the root served: one grant per stolen
    /// chunk claimed by a worker plus one final `Done` per live worker.
    /// Deterministic for a fixed fault seed.
    pub steal_requests: usize,
    /// Busiest rank's compute seconds in the distributed build (0 when
    /// unmeasured; min/max bracket the load balance the steal queue
    /// achieved).
    pub rank_busy_max_s: f64,
    /// Least-busy *live* rank's compute seconds (0 when unmeasured).
    pub rank_busy_min_s: f64,
}

impl BuildProfile {
    /// Accumulate another build's profile into this one (times and
    /// counters both add — used by SCF loops that profile per iteration).
    pub fn merge(&mut self, other: &BuildProfile) {
        self.t_ao_eval_s += other.t_ao_eval_s;
        self.t_fft_s += other.t_fft_s;
        self.t_kernel_s += other.t_kernel_s;
        self.t_exec_s += other.t_exec_s;
        self.t_reduce_s += other.t_reduce_s;
        self.pairs_screened += other.pairs_screened;
        self.pairs_considered += other.pairs_considered;
        self.pairs_computed += other.pairs_computed;
        self.pairs_reused += other.pairs_reused;
        self.bytes_reduced += other.bytes_reduced;
        self.steady_allocs += other.steady_allocs;
        self.ranks_stalled += other.ranks_stalled;
        self.chunks_reissued += other.chunks_reissued;
        self.comm_retries += other.comm_retries;
        self.chunks_stolen += other.chunks_stolen;
        self.steal_requests += other.steal_requests;
        self.rank_busy_max_s = self.rank_busy_max_s.max(other.rank_busy_max_s);
        // 0 means "unmeasured", not "a rank that did nothing": only a
        // populated min participates.
        self.rank_busy_min_s = match (self.rank_busy_min_s, other.rank_busy_min_s) {
            (0.0, b) => b,
            (a, 0.0) => a,
            (a, b) => a.min(b),
        };
    }

    /// Set the work counters of a build over `pairs`: `computed` pairs ran
    /// a Poisson solve, `reused` came from a cache, the ε screen dropped
    /// the rest of the candidates.
    pub(crate) fn count_pairs(
        &mut self,
        pairs: &crate::screening::PairList,
        computed: usize,
        reused: usize,
    ) {
        self.pairs_computed = computed;
        self.pairs_reused = reused;
        self.pairs_screened = pairs.n_candidates - pairs.len();
        self.pairs_considered = pairs.considered;
    }

    /// Account one executed item: its kernel phase times and whether its
    /// worker's scratch grew.
    pub(crate) fn note_kernel(&mut self, t: liair_grid::KernelTimings, grew: usize) {
        self.t_fft_s += t.fft_s;
        self.t_kernel_s += t.kernel_s;
        self.steady_allocs += grew;
    }

    /// Whether this profile carries any evidence of a build (a populated
    /// profile has either elapsed execute time or non-zero work counters).
    pub fn is_populated(&self) -> bool {
        self.t_exec_s > 0.0
            || self.pairs_computed > 0
            || self.pairs_reused > 0
            || self.pairs_screened > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_times_and_counters() {
        let mut a = BuildProfile {
            t_exec_s: 1.0,
            pairs_computed: 3,
            ..Default::default()
        };
        let b = BuildProfile {
            t_exec_s: 0.5,
            t_fft_s: 0.25,
            pairs_computed: 2,
            pairs_reused: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.t_exec_s, 1.5);
        assert_eq!(a.t_fft_s, 0.25);
        assert_eq!(a.pairs_computed, 5);
        assert_eq!(a.pairs_reused, 7);
    }

    #[test]
    fn merge_brackets_busy_extremes() {
        let mut a = BuildProfile {
            rank_busy_min_s: 2.0,
            rank_busy_max_s: 3.0,
            chunks_stolen: 4,
            steal_requests: 6,
            ..Default::default()
        };
        let b = BuildProfile {
            rank_busy_min_s: 1.0,
            rank_busy_max_s: 5.0,
            chunks_stolen: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rank_busy_min_s, 1.0);
        assert_eq!(a.rank_busy_max_s, 5.0);
        assert_eq!(a.chunks_stolen, 5);
        assert_eq!(a.steal_requests, 6);
        // An unmeasured profile never drags the min to 0.
        a.merge(&BuildProfile::default());
        assert_eq!(a.rank_busy_min_s, 1.0);
    }

    #[test]
    fn default_profile_is_unpopulated() {
        let p = BuildProfile::default();
        assert!(!p.is_populated());
        let q = BuildProfile {
            pairs_computed: 1,
            ..Default::default()
        };
        assert!(q.is_populated());
    }
}
