//! The experiment implementations, one per table/figure (see crate docs
//! and DESIGN.md for the index).

pub mod accuracy;
pub mod battery;
pub mod collectives;
pub mod locality;
pub mod mts;
pub mod node;
pub mod scaling;
pub mod screening;
pub mod validation;

use crate::Table;

/// One runnable experiment.
pub struct Experiment {
    /// The id `repro` takes on its command line.
    pub id: &'static str,
    /// Run it; `fast` trims the heaviest sweeps to keep the full suite
    /// runnable in minutes.
    pub run: fn(bool) -> Vec<Table>,
    /// File `repro` serializes the tables to. Paper tables and figures
    /// only print; the sweeps beyond the paper also leave a record.
    pub record: Option<&'static str>,
}

const fn exp(
    id: &'static str,
    run: fn(bool) -> Vec<Table>,
    record: Option<&'static str>,
) -> Experiment {
    Experiment { id, run, record }
}

/// Every experiment, in the DESIGN.md order — the one table `repro list`,
/// `repro all` and [`find`] are derived from.
pub static EXPERIMENTS: [Experiment; 20] = [
    exp("fig-strong-scaling", scaling::fig_strong_scaling, None),
    exp("fig-weak-scaling", scaling::fig_weak_scaling, None),
    exp("fig-baseline-scaling", scaling::fig_baseline_scaling, None),
    exp("tab-time-to-solution", scaling::tab_time_to_solution, None),
    exp(
        "fig-screening-accuracy",
        accuracy::fig_screening_accuracy,
        None,
    ),
    exp("fig-node-threading", node::fig_node_threading, None),
    exp("fig-load-balance", scaling::fig_load_balance, None),
    exp("fig-torus-mapping", node::fig_torus_mapping, None),
    exp("fig-link-congestion", node::fig_link_congestion, None),
    exp("fig-group-size", scaling::fig_group_size, None),
    exp("fig-accuracy-cost", scaling::fig_accuracy_cost, None),
    exp("tab-step-breakdown", scaling::tab_step_breakdown, None),
    exp("tab-memory", scaling::tab_memory, None),
    exp("tab-hfx-validation", validation::tab_hfx_validation, None),
    exp("tab-battery", battery::tab_battery, None),
    exp("fig-md-water", battery::fig_md_water, None),
    exp("bench-mts", mts::bench_mts, Some("BENCH_mts.json")),
    exp(
        "bench-collectives",
        collectives::bench_collectives,
        Some("BENCH_collectives.json"),
    ),
    exp(
        "bench-scaling",
        locality::bench_scaling,
        Some("BENCH_scaling.json"),
    ),
    exp(
        "screen-solvents",
        screening::screen_solvents,
        Some("BENCH_screening.json"),
    ),
];

/// Look an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_every_id_resolves() {
        for (k, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..k].iter().all(|other| other.id != e.id),
                "duplicate id {}",
                e.id
            );
            let found = find(e.id).expect("listed id resolves");
            assert!(std::ptr::eq(found, e), "{} resolved to another entry", e.id);
        }
        let records: Vec<_> = EXPERIMENTS.iter().filter_map(|e| e.record).collect();
        for (k, r) in records.iter().enumerate() {
            assert!(!records[..k].contains(r), "two experiments write {r}");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(find("fig-nonsense").is_none());
        assert!(find("").is_none());
        assert!(find("all").is_none(), "`all` is repro's word, not an id");
    }

    #[test]
    fn every_id_dispatches() {
        // Smoke-run the cheap model-only experiments end to end.
        for id in [
            "fig-load-balance",
            "fig-torus-mapping",
            "tab-step-breakdown",
            "tab-memory",
            "fig-group-size",
        ] {
            let tables = (find(id).expect("known id").run)(true);
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in tables {
                assert!(!t.rows.is_empty(), "{id}: empty table {}", t.title);
                assert_eq!(
                    t.provenance,
                    crate::Provenance::Modeled,
                    "{id}: {} prices the machine model",
                    t.title
                );
            }
        }
    }
}
