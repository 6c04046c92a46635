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
//! Two sections:
//!
//! 1. **measured** — the runtime's actual message pattern: `run_spmd_cfg`
//!    executes its (binomial-tree) gather, the
//!    [`TrafficLog`](liair_runtime::TrafficLog) records every wire
//!    message, and `liair-bgq`'s router prices the resulting link loads —
//!    executed pattern, modeled machine — beside the analytic model's
//!    price of both families at the same rank count;
//! 2. **modeled** — [`liair_bgq::collectives::gather`] over the paper's
//!    scaling series (1 → 96 racks), with the strong-scaling build
//!    efficiency each algorithm family sustains. The flat family exists
//!    only here, as [`CollectiveAlgo::FlatRoot`].
//!
//! Writes the machine-readable `BENCH_collectives.json`.

use crate::Table;
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

/// One measured point: the runtime's real gather traffic, routed, beside
/// the analytic model of both families on the same machine.
struct MeasuredRow {
    nranks: usize,
    messages: usize,
    mean_hops: f64,
    max_link_bytes: f64,
    routed_s: f64,
    model_flat_s: f64,
    model_tree_s: f64,
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
    let machine = MachineConfig::bgq_nodes(nranks);
    let bytes = (words * 8) as f64;
    MeasuredRow {
        nranks,
        messages: log.messages(),
        mean_hops: log.mean_hops(),
        max_link_bytes: log.route().max(),
        routed_s: log.modeled_comm_time(&machine),
        model_flat_s: gather(&machine, CollectiveAlgo::FlatRoot, bytes),
        model_tree_s: gather(&machine, CollectiveAlgo::BinomialTree, bytes),
    }
}

/// Run the `bench-collectives` experiment.
pub fn bench_collectives(fast: bool) -> Vec<Table> {
    let mut tables = Vec::new();
    let mut json = String::from("{\n  \"experiment\": \"bench-collectives\",\n");
    json.push_str(&format!(
        "  \"payload_bytes_per_rank\": {PAYLOAD_BYTES},\n  \"t_build_1rack_s\": {T_BUILD_1RACK_S},\n"
    ));

    // ── measured: the runtime's wire patterns through the torus router ──
    let rank_counts: &[usize] = if fast { &[8, 16] } else { &[8, 16, 32, 64] };
    let words = 10; // PAYLOAD_BYTES / 8
    let mut tm = Table::new(
        "bench-collectives — executed tree gather (threaded runtime, routed on the fitted torus) vs the model",
        &[
            "ranks",
            "wire msgs",
            "mean hops",
            "max link [B]",
            "routed [us]",
            "model flat [us]",
            "model tree [us]",
        ],
    );
    json.push_str("  \"measured\": [\n");
    let measured: Vec<MeasuredRow> = rank_counts.iter().map(|&n| measure(n, words)).collect();
    for (i, r) in measured.iter().enumerate() {
        tm.row(vec![
            r.nranks.to_string(),
            r.messages.to_string(),
            format!("{:.2}", r.mean_hops),
            format!("{:.0}", r.max_link_bytes),
            format!("{:.2}", r.routed_s * 1e6),
            format!("{:.2}", r.model_flat_s * 1e6),
            format!("{:.2}", r.model_tree_s * 1e6),
        ]);
        json.push_str(&format!(
            "    {{\"ranks\": {}, \"pattern\": \"binomial-tree\", \"messages\": {}, \
             \"mean_hops\": {:.3}, \"max_link_bytes\": {:.1}, \"routed_s\": {:.3e}, \
             \"model_flat_s\": {:.3e}, \"model_tree_s\": {:.3e}}}{}\n",
            r.nranks,
            r.messages,
            r.mean_hops,
            r.max_link_bytes,
            r.routed_s,
            r.model_flat_s,
            r.model_tree_s,
            if i + 1 < measured.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    tm.note = "every non-root rank sends exactly once; interior nodes forward their subtree \
               (3 frame words per message + 2 per forwarded rank ride along)"
        .into();
    tables.push(tm);

    // ── modeled: the scaling series to 6,291,456 threads ──
    let rows = model_series();
    let mut t = Table::new(
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
    json.push_str("  \"modeled\": [\n");
    for (i, r) in rows.iter().enumerate() {
        t.row(vec![
            r.racks.to_string(),
            r.threads.to_string(),
            format!("{:.3e}", r.t_flat),
            format!("{:.3e}", r.t_tree),
            format!("{:.3e}", r.t_torus),
            format!("{:.4}", r.eff_flat),
            format!("{:.4}", r.eff_hier),
            format!("{:.1}x", r.t_flat / r.t_tree),
        ]);
        json.push_str(&format!(
            "    {{\"racks\": {}, \"threads\": {}, \"t_flat_s\": {:.6e}, \"t_tree_s\": {:.6e}, \
             \"t_torus_s\": {:.6e}, \"eff_flat\": {:.6}, \"eff_hier\": {:.6}}}{}\n",
            r.racks,
            r.threads,
            r.t_flat,
            r.t_tree,
            r.t_torus,
            r.eff_flat,
            r.eff_hier,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let dominated = rows
        .iter()
        .filter(|r| r.threads >= 1_000_000)
        .all(|r| r.eff_hier > r.eff_flat && r.t_tree < r.t_flat);
    json.push_str(&format!(
        "  \"hierarchical_dominates_at_1m_threads\": {dominated}\n}}\n"
    ));
    let full = rows.last().expect("scaling series is non-empty");
    t.note = format!(
        "full machine ({} threads): flat loses {:.1}% build efficiency to the (P-1)*alpha wall, \
         hierarchical {:.2}%; dominance at >=1M threads: {}",
        full.threads,
        (1.0 - full.eff_flat) * 100.0,
        (1.0 - full.eff_hier) * 100.0,
        dominated
    );
    tables.push(t);

    match std::fs::write("BENCH_collectives.json", &json) {
        Ok(()) => tables
            .last_mut()
            .expect("tables is non-empty")
            .note
            .push_str("; BENCH_collectives.json written"),
        Err(e) => tables
            .last_mut()
            .expect("tables is non-empty")
            .note
            .push_str(&format!("; JSON not written: {e}")),
    }
    tables
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
        assert!(row.model_tree_s < row.model_flat_s);
    }
}
