//! `bench-simd` — the runtime-dispatched vector kernel layer measured head
//! to head.
//!
//! Every primitive of [`liair_math::simd`] runs at every level the host
//! supports (`off` = the portable sequential loops, `avx2` = the
//! intrinsics path where available), plus the end-to-end pair-energy
//! kernel those primitives feed. Speedups
//! are against the `off` baseline — the exact loops the tree ran before the
//! SIMD layer existed. Also writes the machine-readable `BENCH_simd.json`
//! and feeds the measured kernel ratio into the BG/Q node-model
//! calibration ([`liair_bgq::NodeModel::with_calibrated_simd`]).

use crate::Table;
use liair_basis::Cell;
use liair_grid::{PoissonSolver, PoissonWorkspace, RealGrid};
use liair_math::rfft::{half_len, rfft3_into_with};
use liair_math::simd::{self, SimdLevel};
use liair_math::Complex64;
use std::time::Instant;

/// Best-of-2 over `reps`-call batches, ns per call: robust to one-off
/// scheduler noise without criterion's full sampling machinery.
fn time_ns(reps: usize, f: &mut dyn FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        let mut acc = 0.0;
        for _ in 0..reps {
            acc += f();
        }
        let dt = t0.elapsed().as_secs_f64() * 1e9 / reps as f64;
        std::hint::black_box(acc);
        best = best.min(dt);
    }
    best
}

/// Per-kernel timings at one grid size: `ns[i]` matches `levels[i]`.
struct KernelRow {
    name: &'static str,
    ns: Vec<f64>,
}

/// Measure all primitives and the end-to-end pair kernel on an `n`³ grid.
fn measure_grid(n: usize, levels: &[SimdLevel], reps: usize) -> Vec<KernelRow> {
    let dims = (n, n, n);
    let len = n * n * n;
    let h = half_len(dims);
    let mut rng = liair_math::rng::SplitMix64::new(0x51_4d_d0 ^ n as u64);
    let a: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
    let b: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
    let mut out = vec![0.0f64; len];
    let mut half = vec![Complex64::ZERO; h];
    rfft3_into_with(SimdLevel::Off, &a, dims, &mut half);
    // Kernel table in [0.5, 2) paired with its reciprocal: alternating the
    // two keeps the spectrum magnitudes stable across thousands of reps
    // (no drift into denormals), so the multiply kernel can be timed
    // in-place without a restoring memcpy polluting the measurement.
    let table: Vec<f64> = (0..h).map(|_| 0.5 + 1.5 * rng.next_f64()).collect();
    let table_inv: Vec<f64> = table.iter().map(|&v| 1.0 / v).collect();
    let wk: Vec<f64> = table.clone();

    let grid = RealGrid::cubic(Cell::cubic(20.0), n);
    let solver = PoissonSolver::isolated(grid);
    let mut ws = PoissonWorkspace::new();

    let mut rows = vec![
        KernelRow {
            name: "pair density  phi_i*phi_j",
            ns: Vec::new(),
        },
        KernelRow {
            name: "axpy accumulate",
            ns: Vec::new(),
        },
        KernelRow {
            name: "kernel multiply  v(G)*rho",
            ns: Vec::new(),
        },
        KernelRow {
            name: "energy contraction",
            ns: Vec::new(),
        },
        KernelRow {
            name: "rfft3 forward",
            ns: Vec::new(),
        },
        KernelRow {
            name: "pair energy end-to-end",
            ns: Vec::new(),
        },
    ];
    for &level in levels {
        // Warm up every path once (plans, tables, scratch).
        simd::mul_into_with(level, &mut out, &a, &b);
        let _ = solver.exchange_pair_energy_with(level, &a, &mut ws);

        rows[0].ns.push(time_ns(reps, &mut || {
            simd::mul_into_with(level, &mut out, &a, &b);
            out[0]
        }));
        rows[1].ns.push(time_ns(reps, &mut || {
            simd::axpy_with(level, &mut out, 1e-6, &a);
            out[0]
        }));
        // One rep = multiply by the table and back by its reciprocal;
        // halve to get ns per single kernel application.
        rows[2].ns.push(
            time_ns(reps, &mut || {
                simd::scale_by_table_with(level, &mut half, &table);
                simd::scale_by_table_with(level, &mut half, &table_inv);
                half[0].re
            }) / 2.0,
        );
        rows[3].ns.push(time_ns(reps, &mut || {
            simd::weighted_energy_with(level, &half, &wk)
        }));
        let mut tmp = vec![Complex64::ZERO; h];
        rows[4].ns.push(time_ns(reps, &mut || {
            rfft3_into_with(level, &a, dims, &mut tmp);
            tmp[0].re
        }));
        rows[5].ns.push(time_ns(reps.div_ceil(2), &mut || {
            solver.exchange_pair_energy_with(level, &a, &mut ws)
        }));
    }
    rows
}

/// Measured vector/baseline speedup of the half-spectrum energy
/// contraction — the kernel the BG/Q node-model calibration cares
/// about. Returns `(ratio, lanes)` where `ratio` is the
/// best available level's speedup over the `off` sequential loop and
/// `lanes` that level's vector width. Cheap: one 16³ half-spectrum —
/// in-cache, so the ratio reflects the compute-bound kernel the node
/// model prices rather than the host's memory bandwidth.
pub fn measured_kernel_ratio() -> (f64, usize) {
    let n = 16usize;
    let h = half_len((n, n, n));
    let mut rng = liair_math::rng::SplitMix64::new(0xca11b);
    let z: Vec<Complex64> = (0..h)
        .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
        .collect();
    let wk: Vec<f64> = (0..h).map(|_| 0.5 + rng.next_f64()).collect();
    let best = simd::detect();
    let reps = 4000;
    let t_off = time_ns(reps, &mut || {
        simd::weighted_energy_with(SimdLevel::Off, &z, &wk)
    });
    let t_best = time_ns(reps, &mut || simd::weighted_energy_with(best, &z, &wk));
    ((t_off / t_best).max(1.0), best.lanes().max(1))
}

/// Run the `bench-simd` experiment.
pub fn bench_simd(fast: bool) -> Vec<Table> {
    let levels = simd::available_levels();
    // 16³ keeps every buffer inside L2 — the latency-vs-throughput regime
    // where vectorization pays; 32³+ slides into memory-bandwidth-bound
    // territory where all levels converge on the same stream rate.
    let sizes: &[usize] = if fast {
        &[8, 16, 32]
    } else {
        &[8, 16, 32, 48, 64]
    };
    let mut tables = Vec::new();
    let mut json = String::from(
        "{\n  \"experiment\": \"bench-simd\",\n  \"unit\": \"ns_per_call\",\n  \"grids\": [\n",
    );
    for (gi, &n) in sizes.iter().enumerate() {
        let reps = if n >= 64 {
            20
        } else if n >= 48 {
            50
        } else if n >= 32 {
            200
        } else {
            1000
        };
        let rows = measure_grid(n, &levels, reps);
        let mut headers: Vec<String> = vec!["kernel".into()];
        for l in &levels {
            headers.push(format!("{} [ns]", l.name()));
        }
        headers.push("best speedup".into());
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            &format!("bench-simd — {n}^3 grid, speedup vs the pre-SIMD `off` loops"),
            &header_refs,
        );
        json.push_str(&format!("    {{\"n\": {n}, \"kernels\": [\n"));
        for (ki, row) in rows.iter().enumerate() {
            let t_off = row.ns[0];
            let best = row.ns.iter().cloned().fold(f64::INFINITY, f64::min);
            let mut cells = vec![row.name.to_string()];
            for &ns in &row.ns {
                cells.push(format!("{ns:.0}"));
            }
            cells.push(format!("{:.2}x", t_off / best));
            t.row(cells);
            let mut levels_json = String::new();
            for (li, l) in levels.iter().enumerate() {
                levels_json.push_str(&format!(
                    "{}\"{}\": {:.1}",
                    if li == 0 { "" } else { ", " },
                    l.name(),
                    row.ns[li]
                ));
            }
            json.push_str(&format!(
                "      {{\"kernel\": \"{}\", {}, \"best_speedup\": {:.3}}}{}\n",
                row.name,
                levels_json,
                t_off / best,
                if ki + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if gi + 1 < sizes.len() { "," } else { "" }
        ));
        t.note = format!(
            "levels available here: {}; LIAIR_SIMD=off|avx2 forces one",
            levels
                .iter()
                .map(|l| l.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        tables.push(t);
    }
    // Node-model calibration from the measured contraction ratio.
    let (ratio, lanes) = measured_kernel_ratio();
    let fallback = liair_bgq::NodeModel::bgq();
    let calibrated = fallback.with_calibrated_simd(ratio, lanes);
    let mut tc = Table::new(
        "bench-simd — BG/Q node-model SIMD calibration",
        &["model", "simd efficiency", "model vector speedup"],
    );
    for (name, m) in [
        ("literature fallback", &fallback),
        ("calibrated (host)", &calibrated),
    ] {
        tc.row(vec![
            name.into(),
            format!("{:.3}", m.simd_efficiency),
            format!(
                "{:.2}x",
                1.0 + (m.simd_width as f64 - 1.0) * m.simd_efficiency
            ),
        ]);
    }
    tc.note = format!(
        "host contraction ratio {ratio:.2}x on {lanes} lanes -> efficiency {:.3}",
        calibrated.simd_efficiency
    );
    tables.push(tc);
    json.push_str(&format!(
        "  ],\n  \"calibration\": {{\"kernel_ratio\": {ratio:.3}, \"lanes\": {lanes}, \"simd_efficiency\": {:.4}}}\n}}\n",
        calibrated.simd_efficiency
    ));
    match std::fs::write("BENCH_simd.json", &json) {
        Ok(()) => tables
            .last_mut()
            .unwrap()
            .note
            .push_str("; BENCH_simd.json written"),
        Err(e) => tables
            .last_mut()
            .unwrap()
            .note
            .push_str(&format!("; JSON not written: {e}")),
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_ratio_is_sane() {
        let (ratio, lanes) = measured_kernel_ratio();
        assert!(ratio >= 1.0 && ratio.is_finite(), "{ratio}");
        assert!((1..=8).contains(&lanes), "{lanes}");
    }
}
