//! # liair-bench
//!
//! The reproduction harness: one function per table/figure of the paper's
//! evaluation (as reconstructed in DESIGN.md — only the abstract of the
//! original text was available). The `repro` binary drives them; the
//! Criterion benches measure the real kernels the cost models are
//! calibrated against.
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
//! | `bench-incremental` | incremental exchange vs from-scratch across an MD-like step (writes `BENCH_incremental.json`) |
//! | `bench-simd` | runtime-dispatched vector kernels vs the pre-SIMD loops (writes `BENCH_simd.json`) |
//! | `bench-collectives` | flat vs hierarchical collectives, measured and modeled to 6,291,456 threads (writes `BENCH_collectives.json`) |

#![allow(clippy::needless_range_loop)] // index loops are the clearer idiom in this numeric code

pub mod experiments;
pub mod table;

pub use table::Table;
