//! Machine-scale experiments: strong scaling, baseline comparison,
//! time-to-solution, load balance and phase breakdown.

use crate::Table;
use liair_bgq::collectives::CollectiveAlgo;
use liair_bgq::machine::scaling_series;
use liair_bgq::MachineConfig;
use liair_core::balance::assign_pairs;
use liair_core::simulate::parallel_efficiency;
use liair_core::{simulate_hfx_build, BalanceStrategy, Scheme, Workload};

fn workload(_fast: bool) -> Workload {
    // The paper workload is cheap to *model* (the expensive part at scale
    // is real FFT work, which the simulator prices analytically), so even
    // fast mode uses it — a smaller workload would hit its legitimate
    // strong-scaling limit and muddy the claim tables.
    Workload::paper_water_box()
}

fn series(fast: bool) -> Vec<MachineConfig> {
    if fast {
        [1usize, 4, 16, 96]
            .iter()
            .map(|&r| MachineConfig::bgq_racks(r))
            .collect()
    } else {
        scaling_series()
    }
}

/// `fig-strong-scaling`: the headline figure — time per exchange build and
/// parallel efficiency of this work's scheme up to 6,291,456 threads.
pub fn fig_strong_scaling(fast: bool) -> Vec<Table> {
    let w = workload(fast);
    let algo = CollectiveAlgo::TorusPipelined;
    let outcomes: Vec<_> = series(fast)
        .iter()
        .map(|m| simulate_hfx_build(&w, m, Scheme::ours(), algo))
        .collect();
    let eff = parallel_efficiency(&outcomes);
    let mut t = Table::modeled(
        &format!(
            "fig-strong-scaling — {} ({} pairs after eps={:.0e} screening)",
            w.name,
            w.pairs.len(),
            w.pairs.eps
        ),
        &[
            "racks",
            "nodes",
            "threads",
            "time/build [ms]",
            "speedup",
            "efficiency",
            "group",
            "t_fft/t_reduce [ms]",
        ],
    );
    let t0 = outcomes[0].time;
    for (o, e) in outcomes.iter().zip(&eff) {
        t.row(vec![
            format!("{}", o.nodes / 1024),
            format!("{}", o.nodes),
            format!("{}", o.threads),
            format!("{:.3}", o.time * 1e3),
            format!("{:.1}x", t0 / o.time),
            format!("{:.1}%", e * 100.0),
            format!("{}", o.group_size),
            // The pair-FFT makespan and the energy allreduce.
            format!(
                "{:.3}/{:.3}",
                o.report.phases[0].compute * 1e3,
                o.report.phases[2].comm * 1e3
            ),
        ]);
    }
    t.note = "paper claim: near-perfect parallel efficiency at 6,291,456 threads (96 racks)".into();
    vec![t]
}

/// `fig-baseline-scaling`: efficiency of every scheme across the series —
/// the >20× scalability-gap figure.
pub fn fig_baseline_scaling(fast: bool) -> Vec<Table> {
    let w = workload(fast);
    let algo = CollectiveAlgo::TorusPipelined;
    let machines = series(fast);
    let mut t = Table::modeled(
        "fig-baseline-scaling — parallel efficiency by scheme",
        &["threads", "this work", "full-grid pairs", "PW-distributed"],
    );
    let mut per_scheme: Vec<Vec<f64>> = Vec::new();
    for scheme in [Scheme::ours(), Scheme::FullGridPairs, Scheme::PwDistributed] {
        let outcomes: Vec<_> = machines
            .iter()
            .map(|m| simulate_hfx_build(&w, m, scheme, algo))
            .collect();
        per_scheme.push(parallel_efficiency(&outcomes));
    }
    for (k, m) in machines.iter().enumerate() {
        t.row(vec![
            format!("{}", m.threads()),
            format!("{:.1}%", per_scheme[0][k] * 100.0),
            format!("{:.1}%", per_scheme[1][k] * 100.0),
            format!("{:.1}%", per_scheme[2][k] * 100.0),
        ]);
    }
    // Scalability metric: largest thread count still above 50 % efficiency.
    let useful = |effs: &[f64]| -> usize {
        machines
            .iter()
            .zip(effs)
            .filter(|(_, &e)| e > 0.5)
            .map(|(m, _)| m.threads())
            .max()
            .unwrap_or(0)
    };
    let ours = useful(&per_scheme[0]);
    let pw = useful(&per_scheme[2]).max(1);
    t.note = format!(
        "useful scaling (>50% eff): this work {} threads vs PW baseline {} — {:.0}x (paper: >20x)",
        ours,
        pw,
        ours as f64 / pw as f64
    );
    vec![t]
}

/// `tab-time-to-solution`: wall time of one build per scheme at fixed
/// machine sizes — the >10× claim.
pub fn tab_time_to_solution(fast: bool) -> Vec<Table> {
    let w = workload(fast);
    let algo = CollectiveAlgo::TorusPipelined;
    let racks: &[usize] = if fast { &[4] } else { &[1, 4, 16] };
    let mut t = Table::modeled(
        "tab-time-to-solution — one HFX build (ms)",
        &[
            "racks",
            "this work",
            "full-grid pairs",
            "speedup",
            "replicated direct",
            "speedup",
        ],
    );
    for &r in racks {
        let m = MachineConfig::bgq_racks(r);
        let ours = simulate_hfx_build(&w, &m, Scheme::ours(), algo);
        let full = simulate_hfx_build(&w, &m, Scheme::FullGridPairs, algo);
        let rep = simulate_hfx_build(&w, &m, Scheme::ReplicatedDirect, algo);
        t.row(vec![
            format!("{r}"),
            format!("{:.2}", ours.time * 1e3),
            format!("{:.2}", full.time * 1e3),
            format!("{:.1}x", full.time / ours.time),
            format!("{:.2}", rep.time * 1e3),
            format!("{:.1}x", rep.time / ours.time),
        ]);
    }
    t.note = "paper claim: improvement that can surpass a 10-fold decrease in runtime".into();

    // Second view: the same mechanism *measured* on this host — one real
    // exchange pair on the full cell grid vs on its pair-local patch.
    let mut t2 = Table::measured(
        "tab-time-to-solution — the compact representation, measured on this host",
        &["kernel", "grid", "time/pair [ms]", "speedup"],
    );
    {
        use liair_grid::{patch_pair_energy_ws, PatchScratch};
        use liair_grid::{PoissonSolver, PoissonWorkspace, RealGrid};
        use liair_math::Vec3;
        let l = 24.0;
        // Keep the full grid a power of two, like the patch, so both paths
        // run the same radix-4/2 passes, and run both through the same
        // kernel (the energy-only `exchange_pair_energy`, warm workspace)
        // — the comparison isolates the representation, not the transform
        // algorithm or the entry point.
        let n_full = 64;
        let parent = RealGrid::cubic(liair_basis::Cell::cubic(l), n_full);
        let mk = |center: Vec3| -> Vec<f64> {
            let alpha: f64 = 1.1;
            let norm = (2.0 * alpha / std::f64::consts::PI).powf(0.75);
            (0..parent.len())
                .map(|i| {
                    let d = parent.cell.min_image(center, parent.point_flat(i));
                    norm * (-alpha * d.norm_sqr()).exp()
                })
                .collect()
        };
        let c1 = Vec3::new(l / 2.0 - 1.0, l / 2.0, l / 2.0);
        let c2 = Vec3::new(l / 2.0 + 1.0, l / 2.0, l / 2.0);
        let (phi_i, phi_j) = (mk(c1), mk(c2));
        let solver = PoissonSolver::isolated(parent);
        let reps = if fast { 2 } else { 5 };
        let time_it = |f: &mut dyn FnMut() -> f64| -> f64 {
            let _ = f(); // warm up (sizes the workspace)
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                std::hint::black_box(f());
            }
            t0.elapsed().as_secs_f64() / reps as f64
        };
        let mut rho = vec![0.0; parent.len()];
        let mut ws = PoissonWorkspace::new();
        let t_full = time_it(&mut || {
            liair_math::simd::mul_into(&mut rho, &phi_i, &phi_j);
            solver.exchange_pair_energy(&rho, &mut ws)
        });
        let mut scratch = PatchScratch::new();
        let mid = (c1 + c2) * 0.5;
        let t_patch = time_it(&mut || {
            patch_pair_energy_ws(&parent, &phi_i, &phi_j, mid, n_full * 3 / 8, &mut scratch)
        });
        t2.row(vec![
            "full-cell transform".into(),
            format!("{n_full}^3"),
            format!("{:.2}", t_full * 1e3),
            "1.0x".into(),
        ]);
        t2.row(vec![
            "pair-local patch".into(),
            format!("{}^3", (n_full * 3 / 8).next_power_of_two()),
            format!("{:.2}", t_patch * 1e3),
            format!("{:.1}x", t_full / t_patch),
        ]);
    }
    t2.note = "identical pair, identical spacing — the representation alone buys the factor".into();
    vec![t, t2]
}

/// `fig-load-balance`: max/mean load by strategy and machine size, on the
/// real screened pair list, under the adaptive-pair-box cost model (pair
/// cost grows with orbital separation — the heterogeneous-cost regime
/// where balancing strategy matters; fixed boxes cost uniformly and any
/// striping balances).
pub fn fig_load_balance(fast: bool) -> Vec<Table> {
    let w = workload(fast);
    let costs = w.adaptive_pair_costs();
    let racks: &[usize] = if fast { &[1, 16] } else { &[1, 4, 16, 96] };
    let mut t = Table::modeled(
        "fig-load-balance — max/mean load, adaptive pair-box costs",
        &["racks", "round-robin", "block", "greedy LPT"],
    );
    for &r in racks {
        let nodes = r * 1024;
        let mut cells = vec![format!("{r}")];
        for strat in [
            BalanceStrategy::RoundRobin,
            BalanceStrategy::Block,
            BalanceStrategy::GreedyLpt,
        ] {
            let a = liair_core::balance::assign(&costs, nodes, strat);
            cells.push(format!("{:.3}", a.imbalance()));
        }
        t.row(cells);
    }
    let _ = assign_pairs; // unit-cost path exercised elsewhere
    t.note = "1.000 = perfect balance; block striping concentrates the expensive long pairs".into();
    vec![t]
}

/// `tab-step-breakdown`: per-phase share of one build across machine sizes.
pub fn tab_step_breakdown(fast: bool) -> Vec<Table> {
    let w = workload(fast);
    let algo = CollectiveAlgo::TorusPipelined;
    let mut t = Table::modeled(
        "tab-step-breakdown — phase share of one build (this work)",
        &[
            "racks",
            "total [ms]",
            "pair FFTs",
            "exposed traffic",
            "allreduce",
            "utilization",
        ],
    );
    for m in series(fast) {
        let o = simulate_hfx_build(&w, &m, Scheme::ours(), algo);
        let total = o.time.max(1e-30);
        let pct = |x: f64| format!("{:.1}%", 100.0 * x / total);
        let phase = |name: &str| -> f64 {
            o.report
                .phases
                .iter()
                .find(|p| p.name.contains(name))
                .map(|p| p.compute + p.comm)
                .unwrap_or(0.0)
        };
        t.row(vec![
            format!("{}", o.nodes / 1024),
            format!("{:.3}", o.time * 1e3),
            pct(phase("pair FFTs")),
            pct(phase("traffic")),
            pct(phase("allreduce")),
            format!("{:.1}%", o.report.compute_utilization * 100.0),
        ]);
    }
    t.note = "compute-dominated at every scale — the communication-avoiding design".into();
    vec![t]
}

/// `fig-weak-scaling`: grow the system with the machine (constant orbitals
/// per rack) — the production AIMD regime; time per build should stay
/// flat if the scheme is communication-avoiding.
pub fn fig_weak_scaling(fast: bool) -> Vec<Table> {
    let algo = CollectiveAlgo::TorusPipelined;
    let racks: &[usize] = if fast {
        &[1, 16, 96]
    } else {
        &[1, 4, 16, 48, 96]
    };
    let mut t = Table::modeled(
        "fig-weak-scaling — constant work per rack (1024 orbitals/rack-eqv)",
        &[
            "racks",
            "orbitals",
            "pairs",
            "time/build [ms]",
            "weak efficiency",
        ],
    );
    let mut t_ref = None;
    for &r in racks {
        // System volume grows with the machine at fixed density: orbital
        // count ∝ racks, cell edge ∝ racks^{1/3}.
        let norb = 1024 * r;
        let edge = 37.2 * (r as f64).cbrt();
        let w = Workload::condensed("weak", norb, edge, 1.5, 1e-6, 48, 128, 2014);
        let m = MachineConfig::bgq_racks(r);
        let o = simulate_hfx_build(&w, &m, Scheme::ours(), algo);
        let t0 = *t_ref.get_or_insert(o.time);
        t.row(vec![
            format!("{r}"),
            format!("{norb}"),
            format!("{}", w.pairs.len()),
            format!("{:.2}", o.time * 1e3),
            format!("{:.1}%", t0 / o.time * 100.0),
        ]);
    }
    t.note = "flat time per build = perfect weak scaling (linear-scaling pair counts make the work per rack constant)".into();
    vec![t]
}

/// `fig-group-size`: ablation of the hierarchical second level — forcing
/// the node-group size at the full machine shows why grouping is needed
/// once pairs/node drops below a handful.
pub fn fig_group_size(fast: bool) -> Vec<Table> {
    let w = workload(fast);
    let m = MachineConfig::bgq_racks(96);
    let algo = CollectiveAlgo::TorusPipelined;
    let mut t = Table::modeled(
        "fig-group-size — forced node-group size at 96 racks (6.29M threads)",
        &["group", "pairs/group", "time [ms]", "vs auto"],
    );
    let auto = simulate_hfx_build(&w, &m, Scheme::ours(), algo);
    for g in [1usize, 2, 4, 8, 16, 32, 64] {
        let o = simulate_hfx_build(
            &w,
            &m,
            Scheme::PairDistributed {
                strategy: BalanceStrategy::GreedyLpt,
                group_size: Some(g),
                threads: 64,
                simd: true,
            },
            algo,
        );
        t.row(vec![
            format!("{g}"),
            format!("{:.1}", w.pairs.len() as f64 / (m.nodes() / g) as f64),
            format!("{:.3}", o.time * 1e3),
            format!("{:+.1}%", (o.time / auto.time - 1.0) * 100.0),
        ]);
    }
    t.note = format!(
        "auto-selected group size {} → {:.3} ms; too-small groups lose to integer \
         pair quantization, too-large ones to intra-group FFT overhead",
        auto.group_size,
        auto.time * 1e3
    );
    vec![t]
}

/// `fig-accuracy-cost`: the controllable-accuracy Pareto — the same ε knob
/// simultaneously sets the (bound-estimated) exchange error and the
/// modelled build time at scale.
pub fn fig_accuracy_cost(fast: bool) -> Vec<Table> {
    let m = MachineConfig::bgq_racks(16);
    let algo = CollectiveAlgo::TorusPipelined;
    let mut t = Table::modeled(
        "fig-accuracy-cost — screening eps vs build time at 16 racks",
        &[
            "eps",
            "pairs",
            "dropped-bound^2 sum",
            "time [ms]",
            "speedup vs eps=1e-10",
        ],
    );
    let (norb, edge) = if fast { (1024, 37.2) } else { (4096, 59.2) };
    let mut t_ref = None;
    for &eps in &[1e-10, 1e-8, 1e-6, 1e-4, 1e-2] {
        let w = Workload::condensed("pareto", norb, edge, 1.5, eps, 48, 128, 2014);
        // Error proxy: Σ over dropped pairs of (screening bound)² — the
        // quadratic dependence of (ij|ij) on the pair magnitude.
        let kept: std::collections::HashSet<(u32, u32)> =
            w.pairs.pairs.iter().map(|p| (p.i, p.j)).collect();
        let all = Workload::condensed("pareto", norb, edge, 1.5, 0.0, 48, 128, 2014);
        let dropped_bound_sq: f64 = all
            .pairs
            .pairs
            .iter()
            .filter(|p| !kept.contains(&(p.i, p.j)))
            .map(|p| p.weight * p.bound * p.bound)
            .sum();
        let o = simulate_hfx_build(&w, &m, Scheme::ours(), algo);
        let t0 = *t_ref.get_or_insert(o.time);
        t.row(vec![
            format!("{eps:.0e}"),
            format!("{}", w.pairs.len()),
            format!("{dropped_bound_sq:.2e}"),
            format!("{:.3}", o.time * 1e3),
            format!("{:.1}x", t0 / o.time),
        ]);
    }
    t.note = "one knob controls both axes — the paper's 'highly controllable manner'".into();
    vec![t]
}

/// `tab-memory`: per-node orbital-storage footprint by representation —
/// the 16 GB BG/Q node is why full-cell replication is impossible and why
/// the compact pair-local representation matters beyond speed.
pub fn tab_memory(fast: bool) -> Vec<Table> {
    let w = workload(fast);
    let mut t = Table::modeled(
        "tab-memory — orbital storage per node (16 GB BG/Q nodes)",
        &[
            "representation",
            "per-orbital",
            "1 rack/node",
            "96 racks/node",
            "feasible?",
        ],
    );
    let gb = |b: f64| format!("{:.2} GB", b / 1e9);
    let nodes_1 = 1024f64;
    let nodes_96 = 98304f64;
    // This work: compact patches, only the locality neighbourhood resident.
    let patch = w.patch_bytes();
    let neighborhood = |nodes: f64| {
        let pairs_per = w.pairs.len() as f64 / nodes;
        (2.0 * (2.0 * pairs_per).sqrt()).min(w.norb as f64).max(1.0)
    };
    t.row(vec![
        "pair-local patches (this work)".into(),
        format!("{:.2} MB", patch / 1e6),
        gb(neighborhood(nodes_1) * patch),
        gb(neighborhood(nodes_96) * patch),
        "yes".into(),
    ]);
    // Comparable approach: full-cell fields, full replication.
    let full = w.full_grid_bytes() / 2.0; // real field
    let total_full = w.norb as f64 * full;
    t.row(vec![
        "full-cell fields, replicated".into(),
        format!("{:.2} MB", full / 1e6),
        gb(total_full),
        gb(total_full),
        if total_full < 16e9 {
            "yes"
        } else {
            "NO (>16 GB)"
        }
        .into(),
    ]);
    // PW-distributed: full fields sharded across the partition.
    t.row(vec![
        "full-cell fields, distributed".into(),
        format!("{:.2} MB", full / 1e6),
        gb(total_full / nodes_1),
        gb(total_full / nodes_96),
        "yes (but all-to-alls)".into(),
    ]);
    t.note = format!(
        "{} orbitals; replication of full-cell fields needs {:.0} GB/node — \
         the memory wall that forces either the compact representation or \
         communication-heavy distribution",
        w.norb,
        total_full / 1e9
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_scaling_fast_has_expected_shape() {
        let tables = fig_strong_scaling(true);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 4);
        // Last row is the full machine.
        assert_eq!(t.rows.last().unwrap()[2].text(), "6291456");
    }

    #[test]
    fn baseline_scaling_reports_gap() {
        let tables = fig_baseline_scaling(true);
        assert!(tables[0].note.contains("x (paper: >20x)"));
    }

    #[test]
    fn time_to_solution_speedup_over_10x_on_paper_workload() {
        // Run the real (non-fast) workload at one machine size.
        let w = Workload::paper_water_box();
        let m = MachineConfig::bgq_racks(4);
        let algo = CollectiveAlgo::TorusPipelined;
        let ours = simulate_hfx_build(&w, &m, Scheme::ours(), algo);
        let full = simulate_hfx_build(&w, &m, Scheme::FullGridPairs, algo);
        assert!(full.time / ours.time > 10.0);
    }

    #[test]
    fn load_balance_lpt_is_best() {
        let t = &fig_load_balance(true)[0];
        for row in &t.rows {
            let rr: f64 = row[1].text().parse().unwrap();
            let lpt: f64 = row[3].text().parse().unwrap();
            assert!(lpt <= rr + 1e-9, "LPT {lpt} worse than RR {rr}");
        }
    }
}
