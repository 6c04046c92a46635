//! # liair-bench
//!
//! The reproduction harness: one function per table/figure of the paper's
//! evaluation (as reconstructed in DESIGN.md — only the abstract of the
//! original text was available) plus the sweeps that go beyond it. Every
//! experiment returns [`Table`]s that are `Measured` (executed on this
//! host) or `Modeled` (priced by `liair-bgq`); the `repro` binary prints
//! them and alone serializes the record-keeping ones to `BENCH_*.json`.
//! Host kernel/engine/serve timings are not this crate's job: they come
//! from the repository benchmark (`BENCHMARK.json`, package `benchmark/`).
//!
//! Experiment ids:
//!
//! | id | claim reproduced |
//! |----|------------------|
//! | `fig-strong-scaling` | near-perfect efficiency to 6,291,456 threads |
//! | `fig-weak-scaling` | flat time per build at constant work per rack |
//! | `fig-baseline-scaling` | >20× scalability vs prior state of the art |
//! | `tab-time-to-solution` | >10× time-to-solution vs comparable approach |
//! | `fig-screening-accuracy` | controllable accuracy via ε |
//! | `fig-node-threading` | extreme threading + SIMD exploitation |
//! | `fig-load-balance` | LPT balance under screening inhomogeneity |
//! | `fig-torus-mapping` | topology-aware collectives on the 5-D torus |
//! | `fig-link-congestion` | locality-aware traffic rides the torus at congestion ≈ 1 |
//! | `fig-group-size` | the hierarchical node-group ablation |
//! | `fig-accuracy-cost` | the ε cost/accuracy Pareto |
//! | `tab-step-breakdown` | compute-dominated phase profile |
//! | `tab-memory` | the 16 GB memory wall and why patches fit |
//! | `tab-hfx-validation` | grid pair-Poisson exchange = analytic exchange |
//! | `tab-battery` | PC degrades at Li₂O₂; candidate solvents survive |
//! | `fig-md-water` | stable condensed-phase MD substrate |
//! | `bench-mts` | r-RESPA MD time-to-solution and drift vs `n_inner` (record: `BENCH_mts.json`) |
//! | `bench-collectives` | the executed tree gather, and flat vs hierarchical collectives modeled to 6,291,456 threads (record: `BENCH_collectives.json`) |
//! | `bench-scaling` | O(N) pair sourcing: the cell list vs the O(N²) scan to 32,768 orbitals (record: `BENCH_scaling.json`) |
//! | `screen-solvents` | the solvent-screening campaign through the batch service (record: `BENCH_screening.json`) |

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops are the clearer idiom in this numeric code

pub mod experiments;
pub mod table;

pub use table::{Datum, Provenance, Table};
