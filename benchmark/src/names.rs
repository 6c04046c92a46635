//! Every metric the benchmark prints, by name. `BENCHMARK.json` lists
//! exactly these (a test compares the two), and every later performance
//! claim in this repository is made against them.

/// Seconds of timed units per run (`run_seconds` of `BENCHMARK.json`),
/// split evenly over the trials.
pub const RUN_SECONDS: u64 = 18;
/// Fresh child processes per run.
pub const TRIALS: usize = 3;
/// Fewest timed units a trial runs, however slow the units are.
pub const MIN_UNITS: usize = 6;

/// (name, unit, better, bound): what a user of the system sees, per workload.
pub const END_TO_END: [(&str, &str, &str, f64); 3] = [
    ("unit_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
];

/// The crates a per-layer metric or span can belong to (`bench` aside).
pub const LAYERS: [&str; 9] = [
    "math",
    "grid",
    "core",
    "runtime",
    "integrals",
    "scf",
    "xc",
    "md",
    "serve",
];

/// (name, unit, better): single layers. The prefix is the crate the number
/// belongs to; a workload that never enters a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, &str); 81] = [
    // math — 3-D real FFTs at the grid sizes the workloads use, the
    // symmetric eigensolver, FFT plans built since process start.
    ("math.rfft3_fwd_16_s", "s", "lower"),
    ("math.rfft3_fwd_24_s", "s", "lower"),
    ("math.rfft3_fwd_32_s", "s", "lower"),
    ("math.rfft3_fwd_48_s", "s", "lower"),
    ("math.irfft3_24_s", "s", "lower"),
    ("math.irfft3_32_s", "s", "lower"),
    ("math.eigh_15_s", "s", "lower"),
    ("math.plan_cache_misses", "count", "lower"),
    // grid — one pair-Poisson energy, the share of it spent in FFTs, one
    // potential solve, building a solver (kernel tables).
    ("grid.pair_energy_32_s", "s", "lower"),
    ("grid.pair_energy_48_s", "s", "lower"),
    ("grid.pair_fft_frac_32", "ratio", "lower"),
    ("grid.pair_fft_frac_48", "ratio", "lower"),
    ("grid.solve_24_s", "s", "lower"),
    ("grid.solver_build_32_s", "s", "lower"),
    ("grid.solver_build_48_s", "s", "lower"),
    // core — exchange builds over Comm and over the plain single-worker
    // baseline, what the engine and the ranks add, and the counters of the
    // last unit's builds.
    ("core.build32_s", "s", "lower"),
    ("core.build48_s", "s", "lower"),
    ("core.serial_build32_s", "s", "lower"),
    ("core.serial_build48_s", "s", "lower"),
    ("core.comm_overhead_frac", "ratio", "lower"),
    ("core.engine_overhead_frac", "ratio", "lower"),
    ("core.pair_source_s", "s", "lower"),
    ("core.pairs_considered", "count", "lower"),
    ("core.pairs_screened", "count", "higher"),
    ("core.pairs_computed", "count", "lower"),
    ("core.t_fft_s", "s", "lower"),
    ("core.t_kernel_s", "s", "lower"),
    ("core.t_exec_s", "s", "lower"),
    ("core.t_reduce_s", "s", "lower"),
    ("core.bytes_reduced", "bytes", "lower"),
    ("core.steady_allocs", "count", "lower"),
    ("core.chunks_stolen", "count", "lower"),
    ("core.steal_requests", "count", "lower"),
    ("core.comm_retries", "count", "lower"),
    ("core.rank_busy_imbalance", "ratio", "lower"),
    ("core.inc_pairs_reused", "count", "higher"),
    ("core.inc_pairs_recomputed", "count", "lower"),
    ("core.inc_reuse_frac", "ratio", "higher"),
    ("core.cachepool_hits", "count", "higher"),
    ("core.cachepool_misses", "count", "lower"),
    // runtime — launching a 2-rank region, one collective inside it, and
    // the service's rank-pool counters.
    ("runtime.spmd_launch_s", "s", "lower"),
    ("runtime.gather_2r_s", "s", "lower"),
    ("runtime.allreduce_2r_s", "s", "lower"),
    ("runtime.pool_granted", "count", "lower"),
    ("runtime.pool_peak_leased", "count", "higher"),
    // integrals — one-electron matrices, one J/K build, one
    // density-screened J/K build on the last density step.
    ("integrals.one_electron_s", "s", "lower"),
    ("integrals.jk_build_s", "s", "lower"),
    ("integrals.jk_build_dscreen_s", "s", "lower"),
    ("integrals.jk_frac", "ratio", "lower"),
    // scf
    ("scf.rhf_s", "s", "lower"),
    ("scf.iterations", "count", "lower"),
    ("scf.nonjk_s", "s", "lower"),
    ("scf.checkpoint_bytes", "bytes", "lower"),
    ("scf.checkpoint_roundtrip_s", "s", "lower"),
    // xc
    ("xc.lda_energy_24_s", "s", "lower"),
    // md
    ("md.init_forces_s", "s", "lower"),
    ("md.fast_s", "s", "lower"),
    ("md.slow_s", "s", "lower"),
    ("md.slow_frac", "ratio", "lower"),
    ("md.integrator_s", "s", "lower"),
    ("md.energy_drift_ha", "Ha", "lower"),
    ("md.checkpoint_bytes", "bytes", "lower"),
    ("md.checkpoint_roundtrip_s", "s", "lower"),
    // serve
    ("serve.jobs_per_s", "1/s", "higher"),
    ("serve.latency_p50_s", "s", "lower"),
    ("serve.latency_p90_s", "s", "lower"),
    ("serve.latency_samples", "count", "higher"),
    ("serve.standalone_sum_s", "s", "lower"),
    ("serve.overhead_frac", "ratio", "lower"),
    ("serve.resumed", "count", "higher"),
    ("serve.attempts_total", "count", "lower"),
    ("serve.checkpoint_bytes_max", "bytes", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.cache_hit_rate", "ratio", "higher"),
    // bench — the run protocol itself.
    ("bench.pinned", "count", "higher"),
    ("bench.trials", "count", "higher"),
    ("bench.units_per_trial", "count", "higher"),
    ("bench.unit_p50_s", "s", "lower"),
    ("bench.unit_p90_s", "s", "lower"),
    ("bench.trial_spread", "ratio", "lower"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
];
