//! The benchmark behind `BENCHMARK.json`: four workloads, end-to-end and
//! per-layer metrics, and a run protocol that repeats on a shared host.
//! See `benchmark/README.md`.

pub mod json;
pub mod layers;
pub mod names;
pub mod pin;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
