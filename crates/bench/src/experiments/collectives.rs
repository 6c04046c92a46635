//! `bench-collectives` — flat vs hierarchical gather: the tree the runtime
//! executes, and both families priced on the BG/Q model up to the full
//! machine.
//!
//! A gather's cost has two regimes: the bandwidth term `(P−1)·b/BW` every
//! algorithm shares (all contributions land on the root), and the latency
//! term — `(P−1)·α` for a flat root gather vs `⌈log₂P⌉·α` for the binomial
//! tree. At the paper's 6,291,456 threads the flat term alone costs ~0.2 s
//! per build; the tree keeps the collective in the hundreds of
//! microseconds, which is what keeps the modeled build efficiency flat.
//!
//! Three tables:
//!
//! 1. **measured** — the runtime's actual message pattern: `run_spmd_cfg`
//!    executes its (binomial-tree) gather and the
//!    [`TrafficLog`](liair_runtime::TrafficLog) records every wire
//!    message (counts, hops, link bytes);
//! 2. **modeled** — what the model machine charges at the same rank
//!    counts: `liair-bgq`'s router pricing the executed link loads, beside
//!    the analytic price of both families — in a table of its own, since
//!    a modeled number never shares a row with an executed one;
//! 3. **modeled** — [`liair_bgq::collectives::gather`] over the paper's
//!    scaling series (1 → 96 racks), with the strong-scaling build
//!    efficiency each algorithm family sustains. The flat family exists
//!    only here, as [`CollectiveAlgo::FlatRoot`].

use crate::{Datum, Table};
use liair_bgq::collectives::{gather, CollectiveAlgo};
use liair_bgq::machine::scaling_series;
use liair_bgq::MachineConfig;
use liair_runtime::{fit_torus, run_spmd_cfg, CommConfig};

/// Per-rank gather payload of a typical engine build: a node group's
/// chunk contributions plus the timing trailer (10 doubles).
const PAYLOAD_BYTES: f64 = 80.0;

/// Compute seconds of the one-rack build the strong-scaling efficiency is
/// measured against (the paper's per-MD-step exchange budget).
const T_BUILD_1RACK_S: f64 = 30.0;

/// One modeled scaling point.
struct ModelRow {
    racks: usize,
    threads: usize,
    t_flat: f64,
    t_tree: f64,
    t_torus: f64,
    eff_flat: f64,
    eff_hier: f64,
}

/// Strong-scaling efficiency of a build whose compute shrinks as `1/P`
/// while every build pays one gather: `t_ideal / (t_ideal + t_gather)`.
fn efficiency(t_ideal: f64, t_gather: f64) -> f64 {
    t_ideal / (t_ideal + t_gather)
}

fn model_series() -> Vec<ModelRow> {
    let series = scaling_series();
    let n1 = series[0].nodes() as f64;
    series
        .iter()
        .map(|m| {
            let t_ideal = T_BUILD_1RACK_S * n1 / m.nodes() as f64;
            let t_flat = gather(m, CollectiveAlgo::FlatRoot, PAYLOAD_BYTES);
            let t_tree = gather(m, CollectiveAlgo::BinomialTree, PAYLOAD_BYTES);
            let t_torus = gather(m, CollectiveAlgo::TorusPipelined, PAYLOAD_BYTES);
            ModelRow {
                racks: m.nodes() / 1024,
                threads: m.threads(),
                t_flat,
                t_tree,
                t_torus,
                eff_flat: efficiency(t_ideal, t_flat),
                eff_hier: efficiency(t_ideal, t_tree),
            }
        })
        .collect()
}

/// One executed point: the runtime's real gather traffic, and what the
/// model's router charges for exactly those messages.
struct MeasuredRow {
    nranks: usize,
    messages: usize,
    mean_hops: f64,
    max_link_bytes: f64,
    routed_s: f64,
}

fn measure(nranks: usize, words: usize) -> MeasuredRow {
    let cfg = CommConfig {
        fault: None,
        torus: Some(fit_torus(nranks)),
    };
    let run = run_spmd_cfg(nranks, cfg, move |comm| {
        let payload = vec![comm.rank() as f64 + 0.5; words];
        comm.gather(0, payload).expect("fault-free gather");
    })
    .expect("valid fault-free configuration");
    let log = run.traffic.expect("torus was configured");
    MeasuredRow {
        nranks,
        messages: log.messages(),
        mean_hops: log.mean_hops(),
        max_link_bytes: log.route().max(),
        routed_s: log.modeled_comm_time(&MachineConfig::bgq_nodes(nranks)),
    }
}

/// The analytic model's `(flat, tree)` gather seconds on `nranks` nodes.
fn model_at(nranks: usize, words: usize) -> (f64, f64) {
    let machine = MachineConfig::bgq_nodes(nranks);
    let bytes = (words * 8) as f64;
    (
        gather(&machine, CollectiveAlgo::FlatRoot, bytes),
        gather(&machine, CollectiveAlgo::BinomialTree, bytes),
    )
}

/// Run the `bench-collectives` experiment.
pub fn bench_collectives(fast: bool) -> Vec<Table> {
    // ── measured: the runtime's wire pattern, logged on the fitted torus ──
    let rank_counts: &[usize] = if fast { &[8, 16] } else { &[8, 16, 32, 64] };
    let words = 10; // PAYLOAD_BYTES / 8
    let mut tm = Table::measured(
        "bench-collectives — executed tree gather (threaded runtime, traffic logged on the fitted torus)",
        &["ranks", "pattern", "wire msgs", "mean hops", "max link [B]"],
    );
    // ── modeled: what that traffic, and both analytic families, cost on
    // the model machine at the same rank counts ──
    let mut tp = Table::modeled(
        "bench-collectives — model prices at the executed rank counts (executed traffic routed link by link; analytic flat and tree)",
        &[
            "ranks",
            "routed [us]",
            "model flat [us]",
            "model tree [us]",
        ],
    );
    for r in rank_counts.iter().map(|&n| measure(n, words)) {
        tm.row(vec![
            r.nranks.into(),
            "binomial-tree".into(),
            r.messages.into(),
            Datum::fixed(r.mean_hops, 2),
            Datum::fixed(r.max_link_bytes, 0),
        ]);
        let (flat, tree) = model_at(r.nranks, words);
        tp.row(vec![
            r.nranks.into(),
            Datum::fixed(r.routed_s * 1e6, 2),
            Datum::fixed(flat * 1e6, 2),
            Datum::fixed(tree * 1e6, 2),
        ]);
    }
    tm.note = "every non-root rank sends exactly once; interior nodes forward their subtree \
               (3 frame words per message + 2 per forwarded rank ride along)"
        .into();

    // ── modeled: the scaling series to 6,291,456 threads ──
    let rows = model_series();
    let mut t = Table::modeled(
        "bench-collectives — modeled build efficiency, flat vs hierarchical gather (80 B/rank)",
        &[
            "racks",
            "threads",
            "flat gather [s]",
            "tree gather [s]",
            "torus gather [s]",
            "eff flat",
            "eff hier",
            "hier/flat speedup",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.racks.into(),
            r.threads.into(),
            Datum::sci(r.t_flat, 3),
            Datum::sci(r.t_tree, 3),
            Datum::sci(r.t_torus, 3),
            Datum::fixed(r.eff_flat, 4),
            Datum::fixed(r.eff_hier, 4),
            Datum::shown(r.t_flat / r.t_tree, format!("{:.1}x", r.t_flat / r.t_tree)),
        ]);
    }
    let dominated = rows
        .iter()
        .filter(|r| r.threads >= 1_000_000)
        .all(|r| r.eff_hier > r.eff_flat && r.t_tree < r.t_flat);
    let full = rows.last().expect("scaling series is non-empty");
    t.note = format!(
        "{PAYLOAD_BYTES} B/rank against a {T_BUILD_1RACK_S} s one-rack build; \
         full machine ({} threads): flat loses {:.1}% build efficiency to the (P-1)*alpha wall, \
         hierarchical {:.2}%; dominance at >=1M threads: {}",
        full.threads,
        (1.0 - full.eff_flat) * 100.0,
        (1.0 - full.eff_hier) * 100.0,
        dominated
    );
    vec![tm, tp, t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_strictly_dominates_at_scale() {
        // The acceptance property: at >= 1M threads the hierarchical
        // gather is strictly cheaper and sustains strictly higher build
        // efficiency, and the series reaches the paper's 6,291,456 threads.
        let rows = model_series();
        assert_eq!(rows.last().unwrap().threads, 6_291_456);
        let mut checked = 0;
        for r in rows.iter().filter(|r| r.threads >= 1_000_000) {
            assert!(
                r.t_tree < r.t_flat,
                "{} threads: tree {} !< flat {}",
                r.threads,
                r.t_tree,
                r.t_flat
            );
            assert!(
                r.eff_hier > r.eff_flat,
                "{} threads: eff_hier {} !> eff_flat {}",
                r.threads,
                r.eff_hier,
                r.eff_flat
            );
            checked += 1;
        }
        assert!(checked >= 4, "series must cover the >=1M-thread regime");
        // And the full-machine gap is the (P−1)·α wall: >2 orders.
        let full = rows.last().unwrap();
        assert!(full.t_flat / full.t_tree > 100.0);
    }

    #[test]
    fn executed_tree_sends_once_per_non_root() {
        // One send per non-root rank, ⌈log₂ 8⌉ of them into the root.
        let row = measure(8, 4);
        assert_eq!(row.messages, 7);
        assert!(row.routed_s > 0.0);
        let (flat, tree) = model_at(8, 4);
        assert!(tree < flat);
    }
}
