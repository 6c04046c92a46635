//! The four workloads. Each is generated in-process from `--seed`; the
//! program under test only ever receives the generated inputs.

use crate::trace::Tracer;

pub mod hfx;
pub mod mts;
pub mod scf;
pub mod serve;

/// Seed used when none is given (and the one the pinned energies are for).
pub const DEFAULT_SEED: u64 = 2014;

/// Workload names with the one-line reason each exists (the `why` of
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "hfx-build",
        "the paper's kernel: from-scratch exchange builds, every pair computed, radix-2 (32^3) and Bluestein (48^3) FFT sizes weighing about equally, over the 2-rank Comm backend",
    ),
    (
        "mts-bomd",
        "same FFT/grid/core layers used differently: 24^3 grid SCF through the K-operator path with a warm incremental cache, plus md, xc and scf; warm reuse must not pay for faster cold builds",
    ),
    (
        "scf-direct",
        "the analytic integral-direct SCF that dominates the screening campaign and enters no grid layer: an FFT or engine change must not move it",
    ),
    (
        "serve-mix",
        "tiny jobs of four kinds with preemptions and faults, so admission, aged queue, rank leases, checkpoint/replay and the cross-job cache pool dominate",
    ),
];

/// One workload, set up and ready to run units.
pub trait Workload {
    /// One timed unit. Leaves its outputs in `self` for [`Workload::check`].
    fn unit(&mut self, tr: &mut Tracer);

    /// Compare the last unit's outputs with the reference computed during
    /// set-up. Runs outside the timed region.
    fn check(&self) -> Result<(), String>;

    /// Traced trial only, after the units: time calls into the layers this
    /// workload enters and read the counters those calls return.
    /// `unit_s` is the lower-quartile unit time of this (traced) trial.
    fn layers(&mut self, tr: &mut Tracer, unit_s: f64) -> Vec<(&'static str, f64)>;
}

/// Build the inputs and the reference of workload `name` from `seed`.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "hfx-build" => Box::new(hfx::HfxBuild::setup(seed)),
        "mts-bomd" => Box::new(mts::MtsBomd::setup(seed)),
        "scf-direct" => Box::new(scf::ScfDirect::setup(seed)),
        "serve-mix" => Box::new(serve::ServeMix::setup(seed)),
        _ => return None,
    })
}

/// Lower-quartile duration, in seconds, of the spans named `name` that lie
/// inside timed units.
pub(crate) fn unit_span_s(tr: &Tracer, name: &str) -> f64 {
    let d: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == name && s.unit.is_some())
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect();
    crate::stats::p25(&d)
}

/// Relative difference `|a - b| / |b|`.
pub(crate) fn rel_diff(a: f64, b: f64) -> f64 {
    ((a - b) / b).abs()
}
