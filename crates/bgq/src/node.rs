//! The per-node compute model: a BG/Q node has 16 in-order A2 cores at
//! 1.6 GHz, 4-way SMT (64 hardware threads), and the 4-wide double-precision
//! QPX vector unit — 204.8 GFLOP/s peak.
//!
//! The model turns a flop count into a duration given a thread count and
//! SIMD setting. Threading scales linearly across cores; the extra SMT
//! threads recover pipeline/memory stalls with diminishing returns (the
//! published BG/Q experience: ~1.3–1.9× from 4-way SMT). These curves are
//! what the `fig-node-threading` experiment sweeps. Every efficiency is a
//! documented literature value; none is fitted to a host measurement.

use serde::{Deserialize, Serialize};

/// Compute model of one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeModel {
    /// Physical cores.
    pub cores: usize,
    /// Hardware threads per core.
    pub smt: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// SIMD lanes (double precision).
    pub simd_width: usize,
    /// Fraction of peak a well-tuned scalar FFT kernel sustains.
    pub scalar_efficiency: f64,
    /// Fraction of the ideal `simd_width×` speedup the vectorized kernel
    /// realizes (QPX on FFT kernels: ~0.85).
    pub simd_efficiency: f64,
    /// Incremental throughput of the 2nd/3rd/4th SMT thread on a core,
    /// relative to the 1st.
    pub smt_gain: [f64; 3],
}

impl NodeModel {
    /// The Blue Gene/Q A2 node.
    ///
    /// `simd_efficiency` is the documented literature value (QPX on FFT
    /// kernels: ~0.85). It is a model input, not a host measurement: the
    /// host kernels are portable loops with no vector level to compare.
    pub fn bgq() -> Self {
        Self {
            cores: 16,
            smt: 4,
            clock_ghz: 1.6,
            simd_width: 4,
            scalar_efficiency: 0.55,
            simd_efficiency: 0.85,
            smt_gain: [0.35, 0.20, 0.12],
        }
    }

    /// Total hardware threads.
    pub fn hw_threads(&self) -> usize {
        self.cores * self.smt
    }

    /// Peak double-precision GFLOP/s (FMA counted as 2 flops).
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.clock_ghz * 2.0 * self.simd_width as f64
    }

    /// Relative throughput of running `threads` hardware threads
    /// (1 ≤ threads ≤ 64), normalized so 1 thread = 1.0.
    ///
    /// Threads fill cores first (one per core up to 16), then stack SMT
    /// ways round-robin; each extra SMT way on a core adds its
    /// `smt_gain` share.
    pub fn thread_scaling(&self, threads: usize) -> f64 {
        assert!(
            threads >= 1 && threads <= self.hw_threads(),
            "threads = {threads}"
        );
        let full_cores = threads.min(self.cores);
        let mut total = full_cores as f64;
        let mut remaining = threads - full_cores;
        for way in 0..(self.smt - 1) {
            if remaining == 0 {
                break;
            }
            let on_this_way = remaining.min(self.cores);
            total += on_this_way as f64 * self.smt_gain[way.min(2)];
            remaining -= on_this_way;
        }
        total
    }

    /// Sustained GFLOP/s with `threads` hardware threads and SIMD on/off.
    pub fn sustained_gflops(&self, threads: usize, simd: bool) -> f64 {
        // Per-thread scalar rate: clock × 2 flops (FMA) × efficiency.
        let per_thread = self.clock_ghz * 2.0 * self.scalar_efficiency;
        let simd_factor = if simd {
            1.0 + (self.simd_width as f64 - 1.0) * self.simd_efficiency
        } else {
            1.0
        };
        per_thread * simd_factor * self.thread_scaling(threads)
    }

    /// Time in seconds to execute `flops` floating-point operations.
    pub fn compute_time(&self, flops: f64, threads: usize, simd: bool) -> f64 {
        flops / (self.sustained_gflops(threads, simd) * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgq_peak_is_204_8() {
        let n = NodeModel::bgq();
        assert!((n.peak_gflops() - 204.8).abs() < 1e-9);
        assert_eq!(n.hw_threads(), 64);
    }

    #[test]
    fn thread_scaling_monotone_and_bounded() {
        let n = NodeModel::bgq();
        let mut prev = 0.0;
        for t in 1..=64 {
            let s = n.thread_scaling(t);
            assert!(s > prev, "t = {t}");
            prev = s;
        }
        // 16 threads = 16 cores exactly linear.
        assert!((n.thread_scaling(16) - 16.0).abs() < 1e-12);
        // Full SMT: 16 × (1 + 0.35 + 0.20 + 0.12) = 26.72.
        assert!((n.thread_scaling(64) - 26.72).abs() < 1e-9);
        // SMT gain within the published 1.3–2× band.
        let smt_gain = n.thread_scaling(64) / n.thread_scaling(16);
        assert!(smt_gain > 1.3 && smt_gain < 2.0, "{smt_gain}");
    }

    #[test]
    fn simd_speedup_close_to_width() {
        let n = NodeModel::bgq();
        let ratio = n.sustained_gflops(16, true) / n.sustained_gflops(16, false);
        assert!(ratio > 3.0 && ratio < 4.0, "{ratio}");
    }

    #[test]
    fn compute_time_inverse_to_rate() {
        let n = NodeModel::bgq();
        let t1 = n.compute_time(1e9, 1, false);
        let t64 = n.compute_time(1e9, 64, true);
        assert!(t1 / t64 > 50.0, "ratio {}", t1 / t64);
        assert!(t64 > 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        NodeModel::bgq().thread_scaling(0);
    }
}
