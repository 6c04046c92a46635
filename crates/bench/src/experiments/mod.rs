//! The experiment implementations, one per table/figure (see crate docs
//! and DESIGN.md for the index).

pub mod accuracy;
pub mod battery;
pub mod collectives;
pub mod incremental;
pub mod locality;
pub mod mts;
pub mod node;
pub mod scaling;
pub mod screening;
pub mod serve;
pub mod simd;
pub mod validation;

use crate::Table;

/// All experiment ids in the DESIGN.md order.
pub const ALL_IDS: [&str; 23] = [
    "fig-strong-scaling",
    "fig-weak-scaling",
    "fig-baseline-scaling",
    "tab-time-to-solution",
    "fig-screening-accuracy",
    "fig-node-threading",
    "fig-load-balance",
    "fig-torus-mapping",
    "fig-link-congestion",
    "fig-group-size",
    "fig-accuracy-cost",
    "tab-step-breakdown",
    "tab-memory",
    "tab-hfx-validation",
    "tab-battery",
    "fig-md-water",
    "bench-incremental",
    "bench-mts",
    "bench-simd",
    "bench-collectives",
    "bench-scaling",
    "bench-serve",
    "screen-solvents",
];

/// Run one experiment by id. `fast` trims the heaviest sweeps to keep the
/// full suite runnable in minutes.
pub fn run(id: &str, fast: bool) -> Vec<Table> {
    match id {
        "fig-strong-scaling" => scaling::fig_strong_scaling(fast),
        "fig-weak-scaling" => scaling::fig_weak_scaling(fast),
        "fig-baseline-scaling" => scaling::fig_baseline_scaling(fast),
        "tab-time-to-solution" => scaling::tab_time_to_solution(fast),
        "fig-screening-accuracy" => accuracy::fig_screening_accuracy(fast),
        "fig-node-threading" => node::fig_node_threading(fast),
        "fig-load-balance" => scaling::fig_load_balance(fast),
        "fig-group-size" => scaling::fig_group_size(fast),
        "fig-accuracy-cost" => scaling::fig_accuracy_cost(fast),
        "fig-torus-mapping" => node::fig_torus_mapping(fast),
        "fig-link-congestion" => node::fig_link_congestion(fast),
        "tab-step-breakdown" => scaling::tab_step_breakdown(fast),
        "tab-memory" => scaling::tab_memory(fast),
        "tab-hfx-validation" => validation::tab_hfx_validation(fast),
        "tab-battery" => battery::tab_battery(fast),
        "fig-md-water" => battery::fig_md_water(fast),
        "bench-incremental" => incremental::bench_incremental(fast),
        "bench-mts" => mts::bench_mts(fast),
        "bench-simd" => simd::bench_simd(fast),
        "bench-collectives" => collectives::bench_collectives(fast),
        "bench-scaling" => locality::bench_scaling(fast),
        "bench-serve" => serve::bench_serve(fast),
        "screen-solvents" => screening::screen_solvents(fast),
        other => panic!("unknown experiment id '{other}' (see ALL_IDS)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let tables = run(id, true);
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in tables {
                assert!(!t.rows.is_empty(), "{id}: empty table {}", t.title);
            }
        }
    }

    #[test]
    #[should_panic]
    fn unknown_id_panics() {
        run("fig-nonsense", true);
    }
}
