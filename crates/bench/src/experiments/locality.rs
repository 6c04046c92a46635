//! `bench-scaling` — O(N) locality-first pair sourcing and hierarchical
//! domain sharding, from one laptop node to the modeled full machine.
//!
//! Three sections:
//!
//! 1. **sourcing** — the cell-list pair source against the O(N²) scan on
//!    growing paper-density water boxes (ε = 10⁻⁶, σ = 1.5 Bohr): the
//!    candidates *inspected* per orbital stay constant while the brute
//!    scan's grow linearly — the observable O(N) evidence;
//! 2. **weak scaling** — the sharded source at a fixed 3375 orbitals per
//!    domain over `g³` subdomains, `g ∈ {2, 4, 8, 16, 32}` (up to
//!    1.1 × 10⁸ orbitals at g = 32). Only domain 0 and its neighbor shell
//!    are ever materialized — per-domain deterministic RNG streams make
//!    every rank's orbitals reproducible without a global table — so the
//!    per-rank resident count, pair share, inspection count, build time
//!    and memory are measured directly and must stay flat (±10%) while
//!    the *global* problem grows 4096×. Bit-identity of the sharded and
//!    SPMD halo-exchange lists against the global builders is checked at
//!    laptop scale;
//! 3. **torus** — the halo demand set of the 3-D domain grid folded onto
//!    each partition of the paper's scaling series
//!    ([`liair_bgq::domainmap`]), routed link by link, against the
//!    replicated-orbital baseline it replaces.

use crate::{Datum, Table};
use liair_basis::Cell;
use liair_bgq::domainmap::{halo_cost, DomainMap};
use liair_bgq::machine::scaling_series;
use liair_core::domain::DomainGeometry;
use liair_core::screening::{
    build_pair_list, build_pair_list_celllist, cutoff_radius, OrbitalInfo, Pair,
};
use liair_core::{build_pair_list_sharded, sharded_pair_list_spmd};
use liair_math::rng::SplitMix64;
use liair_math::Vec3;

/// Screening threshold of the paper's production runs.
const EPS: f64 = 1e-6;
/// Localized-orbital spread (Bohr) of the water workloads.
const SPREAD: f64 = 1.5;
/// Orbitals per domain in the weak-scaling series (15³).
const M_PER_DOMAIN: usize = 3375;
/// Bytes per orbital record on the halo wire (id + center + spread).
const WIRE_BYTES: f64 = 40.0;

/// Cubic cell edge at the paper's water density for `n` orbitals
/// (4096 orbitals ↔ 59.2 Bohr).
fn edge_for(n: usize) -> f64 {
    59.2 * (n as f64 / 4096.0).cbrt()
}

fn layout(seed: u64, n: usize, edge: f64) -> Vec<OrbitalInfo> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| OrbitalInfo {
            center: Vec3::new(
                rng.range_f64(0.0, edge),
                rng.range_f64(0.0, edge),
                rng.range_f64(0.0, edge),
            ),
            spread: SPREAD,
        })
        .collect()
}

// ── section 1: the O(N) sourcing sweep ──

struct SweepRow {
    n: usize,
    celllist_ms: f64,
    brute_ms: Option<f64>,
    pairs: usize,
    considered: usize,
    candidates: usize,
}

fn sourcing_sweep(fast: bool) -> Vec<SweepRow> {
    let sizes: &[usize] = if fast {
        &[512, 1024, 2048, 4096]
    } else {
        &[512, 1024, 2048, 4096, 8192, 16384, 32768]
    };
    let brute_cap = if fast { 2048 } else { 8192 };
    sizes
        .iter()
        .map(|&n| {
            let edge = edge_for(n);
            let cell = Cell::cubic(edge);
            let orbs = layout(2014 + n as u64, n, edge);
            let t0 = std::time::Instant::now();
            let cl = build_pair_list_celllist(&orbs, EPS, &cell).expect("finite eps");
            let celllist_ms = t0.elapsed().as_secs_f64() * 1e3;
            let brute_ms = (n <= brute_cap).then(|| {
                let t0 = std::time::Instant::now();
                let brute = build_pair_list(&orbs, EPS, Some(&cell));
                assert_eq!(brute.pairs, cl.pairs, "cell list must equal brute at n={n}");
                t0.elapsed().as_secs_f64() * 1e3
            });
            SweepRow {
                n,
                celllist_ms,
                brute_ms,
                pairs: cl.len(),
                considered: cl.considered,
                candidates: cl.n_candidates,
            }
        })
        .collect()
}

/// O(N) evidence: inspected candidates per orbital stay bounded as N
/// grows (the brute scan's grow like N/2). Scored over the sizes whose
/// cell spans at least four cutoff radii per axis — below that the bins
/// legitimately cover the whole box and locality cannot engage.
fn sourcing_is_linear(rows: &[SweepRow]) -> bool {
    let min_edge = 4.0 * cutoff_radius(SPREAD, SPREAD, EPS);
    let per_orb: Vec<f64> = rows
        .iter()
        .filter(|r| edge_for(r.n) >= min_edge)
        .map(|r| r.considered as f64 / r.n as f64)
        .collect();
    let lo = per_orb.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = per_orb.iter().copied().fold(0.0, f64::max);
    per_orb.len() >= 2 && hi / lo <= 1.5
}

// ── section 2: weak scaling over sharded domains ──

/// Domain `d`'s owned orbitals from its private deterministic RNG stream:
/// global id `d·m + k`, centers uniform in the domain's box. No global
/// table is ever built — any rank can re-derive any neighbor's orbitals.
fn domain_orbitals(geom: &DomainGeometry, d: usize, m: usize) -> Vec<(u32, OrbitalInfo)> {
    let c = geom.coords_of(d);
    let w = geom.box_widths();
    let mut rng = SplitMix64::new(0xD05EED ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..m)
        .map(|k| {
            (
                (d * m + k) as u32,
                OrbitalInfo {
                    center: Vec3::new(
                        rng.range_f64(c[0] as f64 * w[0], (c[0] + 1) as f64 * w[0]),
                        rng.range_f64(c[1] as f64 * w[1], (c[1] + 1) as f64 * w[1]),
                        rng.range_f64(c[2] as f64 * w[2], (c[2] + 1) as f64 * w[2]),
                    ),
                    spread: SPREAD,
                },
            )
        })
        .collect()
}

struct WeakRow {
    g: usize,
    ranks: usize,
    orbitals_total: u64,
    residents: usize,
    halo: usize,
    pairs: usize,
    considered: usize,
    build_ms: f64,
    mem_mb: f64,
    windowed: bool,
}

/// Measure domain 0 of a `g³` grid at fixed per-domain occupancy:
/// materialize it and its neighbor shell, import the halo by predicate,
/// and build its local pair share (`reps` timing repetitions, min kept).
fn weak_point(g: usize, reps: usize) -> WeakRow {
    let box_edge = edge_for(M_PER_DOMAIN);
    let cell = Cell::cubic(box_edge * g as f64);
    let geom = DomainGeometry::new(cell, [g, g, g], EPS, SPREAD).expect("finite eps");
    let mut residents = domain_orbitals(&geom, 0, M_PER_DOMAIN);
    let mut halo = 0usize;
    for e in geom.neighbor_domains(0) {
        for (id, o) in domain_orbitals(&geom, e, M_PER_DOMAIN) {
            if geom.in_halo(0, &o) {
                residents.push((id, o));
                halo += 1;
            }
        }
    }
    residents.sort_unstable_by_key(|&(id, _)| id);
    let mut best = f64::INFINITY;
    let mut result: Option<(Vec<Pair>, usize)> = None;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        let out = geom.local_pairs(0, &residents);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        result = Some(out);
    }
    let (pairs, considered) = result.expect("at least one rep");
    let mem_mb = (residents.len() * std::mem::size_of::<(u32, OrbitalInfo)>()
        + pairs.len() * std::mem::size_of::<Pair>()) as f64
        / 1e6;
    WeakRow {
        g,
        ranks: g * g * g,
        orbitals_total: (M_PER_DOMAIN * g * g * g) as u64,
        residents: residents.len(),
        halo,
        pairs: pairs.len(),
        considered,
        build_ms: best,
        mem_mb,
        windowed: geom.windowed(),
    }
}

fn weak_scaling_rows(reps: usize) -> Vec<WeakRow> {
    [2usize, 4, 8, 16, 32]
        .iter()
        .map(|&g| weak_point(g, reps))
        .collect()
}

/// Flatness of the per-rank load across the windowed weak-scaling points
/// (g = 2 runs the exact fallback and is reported but not scored): every
/// per-rank quantity within ±10% of its mean.
fn weak_scaling_is_flat(rows: &[WeakRow]) -> bool {
    let flat = |vals: Vec<f64>| -> bool {
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        vals.iter().all(|v| (v - mean).abs() <= 0.10 * mean)
    };
    let win: Vec<&WeakRow> = rows.iter().filter(|r| r.windowed).collect();
    win.len() >= 2
        && flat(win.iter().map(|r| r.residents as f64).collect())
        && flat(win.iter().map(|r| r.pairs as f64).collect())
        && flat(win.iter().map(|r| r.considered as f64).collect())
}

/// Laptop-scale bit-identity of every sourcing route: sharded and SPMD
/// (real halo messages) lists against the global O(N²) and cell-list
/// builders, compared field by field in bits.
struct Identity {
    sharded: bool,
    spmd: bool,
    windowed: bool,
}

fn bit_identity() -> Identity {
    let same = |a: &[Pair], b: &[Pair]| -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                (x.i, x.j) == (y.i, y.j)
                    && x.weight.to_bits() == y.weight.to_bits()
                    && x.bound.to_bits() == y.bound.to_bits()
            })
    };
    let edge = 26.0;
    let cell = Cell::cubic(edge);
    let orbs = layout(77, 400, edge);
    let eps = 1e-5;
    let brute = build_pair_list(&orbs, eps, Some(&cell));
    let cl = build_pair_list_celllist(&orbs, eps, &cell).expect("finite eps");
    let sharded = [[2, 2, 2], [3, 2, 1]].iter().all(|&dims| {
        let sh = build_pair_list_sharded(&orbs, eps, &cell, dims).expect("finite eps");
        same(&brute.pairs, &sh.pairs) && same(&cl.pairs, &sh.pairs)
    });
    let spmd = {
        let sh = sharded_pair_list_spmd(&orbs, eps, &cell, [2, 2, 1]).expect("spmd build");
        same(&brute.pairs, &sh.pairs)
    };
    // A fine grid with a short cutoff engages the windowed O(residents)
    // local build; it must stay exact too.
    let windowed = {
        let edge = 80.0;
        let cell = Cell::cubic(edge);
        let orbs = layout(78, 600, edge);
        let eps = 1e-4;
        let geom = DomainGeometry::new(cell, [4, 4, 4], eps, SPREAD).expect("finite eps");
        let sh = build_pair_list_sharded(&orbs, eps, &cell, [4, 4, 4]).expect("finite eps");
        geom.windowed() && same(&build_pair_list(&orbs, eps, Some(&cell)).pairs, &sh.pairs)
    };
    Identity {
        sharded,
        spmd,
        windowed,
    }
}

// ── section 3: modeled torus halo traffic ──

struct TorusRow {
    racks: usize,
    nodes: usize,
    grid: [usize; 3],
    max_link_kb: f64,
    congestion: f64,
    mean_hops: f64,
    halo_us: f64,
    replication_us: f64,
}

fn torus_rows() -> Vec<TorusRow> {
    let owned_bytes = M_PER_DOMAIN as f64 * WIRE_BYTES;
    let box_edge = edge_for(M_PER_DOMAIN);
    let halo = cutoff_radius(SPREAD, SPREAD, EPS);
    // One face exports the slab of owned orbitals within the halo depth
    // of that face.
    let face_bytes = owned_bytes * (halo / box_edge).min(1.0);
    scaling_series()
        .iter()
        .map(|m| {
            let map = DomainMap::fold(m.torus);
            let cost = halo_cost(m, &map, face_bytes, owned_bytes);
            TorusRow {
                racks: m.nodes() / 1024,
                nodes: m.nodes(),
                grid: map.grid,
                max_link_kb: cost.max_link_bytes / 1e3,
                congestion: cost.congestion,
                mean_hops: cost.mean_hops,
                halo_us: cost.time * 1e6,
                replication_us: cost.replication_time * 1e6,
            }
        })
        .collect()
}

/// Run the `bench-scaling` experiment.
pub fn bench_scaling(fast: bool) -> Vec<Table> {
    // ── sourcing ──
    let rows = sourcing_sweep(fast);
    let linear = sourcing_is_linear(&rows);
    let mut ts = Table::measured(
        "bench-scaling — cell-list pair source vs O(N^2) scan, paper water density",
        &[
            "orbitals",
            "cell list [ms]",
            "brute [ms]",
            "pairs",
            "inspected",
            "inspected/N",
            "candidates",
        ],
    );
    for r in &rows {
        ts.row(vec![
            r.n.into(),
            Datum::fixed(r.celllist_ms, 1),
            r.brute_ms.map_or(Datum::missing(), |t| Datum::fixed(t, 1)),
            r.pairs.into(),
            r.considered.into(),
            Datum::fixed(r.considered as f64 / r.n as f64, 1),
            r.candidates.into(),
        ]);
    }
    ts.note = format!(
        "eps = {EPS:e}, spread = {SPREAD} Bohr; inspected candidates per orbital stay bounded as N \
         grows (linear sourcing: {linear}); every brute-checked size matches the cell list pair \
         for pair"
    );

    // ── weak scaling ──
    let reps = if fast { 1 } else { 3 };
    let wrows = weak_scaling_rows(reps);
    let flat = weak_scaling_is_flat(&wrows);
    let ident = bit_identity();
    let mut tw = Table::measured(
        "bench-scaling — weak scaling, 3375 orbitals/rank over g^3 torus subdomains (domain 0 measured)",
        &[
            "g",
            "ranks",
            "orbitals total",
            "residents",
            "halo",
            "pairs/rank",
            "inspected/rank",
            "build [ms]",
            "mem [MB]",
            "path",
        ],
    );
    for r in &wrows {
        tw.row(vec![
            r.g.into(),
            r.ranks.into(),
            r.orbitals_total.into(),
            r.residents.into(),
            r.halo.into(),
            r.pairs.into(),
            r.considered.into(),
            Datum::fixed(r.build_ms, 1),
            Datum::fixed(r.mem_mb, 2),
            if r.windowed {
                "window"
            } else {
                "exact-fallback"
            }
            .into(),
        ]);
    }
    let max_total = wrows.iter().map(|r| r.orbitals_total).max().unwrap_or(0);
    tw.note = format!(
        "per-rank load flat within 10% across the windowed series up to {max_total} total \
         orbitals ({flat}); sharded/SPMD lists bit-identical to the global builders \
         (sharded: {}, spmd: {}, windowed: {})",
        ident.sharded, ident.spmd, ident.windowed
    );

    // ── torus halo traffic ──
    let trows = torus_rows();
    let halo_wins = trows.iter().all(|r| r.halo_us < r.replication_us);
    let mut tt = Table::modeled(
        "bench-scaling — modeled halo exchange on the folded torus vs replicated orbitals",
        &[
            "racks",
            "nodes",
            "domain grid",
            "max link [kB]",
            "congestion",
            "mean hops",
            "halo [us]",
            "replication [us]",
        ],
    );
    for r in &trows {
        tt.row(vec![
            r.racks.into(),
            r.nodes.into(),
            format!("{}x{}x{}", r.grid[0], r.grid[1], r.grid[2]).into(),
            Datum::fixed(r.max_link_kb, 1),
            Datum::fixed(r.congestion, 2),
            Datum::fixed(r.mean_hops, 2),
            Datum::fixed(r.halo_us, 1),
            Datum::fixed(r.replication_us, 1),
        ]);
    }
    tt.note = format!(
        "halo stays O(1)/rank while replication grows O(P); halo cheaper at every scale: \
         {halo_wins}"
    );
    vec![ts, tw, tt]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_scaling_per_rank_load_is_flat_to_1e8_orbitals() {
        // The acceptance claim: growing the system 4096× at fixed
        // per-rank occupancy leaves every per-rank quantity flat, and the
        // largest point simulates more than 10^8 orbitals.
        let rows = weak_scaling_rows(1);
        assert!(weak_scaling_is_flat(&rows), "per-rank load not flat");
        let max = rows.iter().map(|r| r.orbitals_total).max().unwrap();
        assert!(max >= 100_000_000, "largest point only {max} orbitals");
        // The windowed path engages everywhere it is declared exact, and
        // the inspection count stays O(m): far below the O(m²) fallback.
        for r in rows.iter().filter(|r| r.windowed) {
            assert!(r.g >= 4);
            assert!(
                r.considered < M_PER_DOMAIN * M_PER_DOMAIN / 4,
                "g={}: {} inspections is not sub-quadratic",
                r.g,
                r.considered
            );
        }
    }

    #[test]
    fn every_sourcing_route_is_bit_identical() {
        let ident = bit_identity();
        assert!(ident.sharded, "sharded list diverged from global");
        assert!(ident.spmd, "SPMD halo-exchange list diverged from global");
        assert!(ident.windowed, "windowed local build diverged from global");
    }

    #[test]
    fn cell_list_sourcing_is_linear_at_paper_density() {
        let rows = sourcing_sweep(true);
        assert!(sourcing_is_linear(&rows), "inspected/N not flat");
        // And inspection stays far below the quadratic candidate count
        // once the box spans several cutoff radii (the margin keeps
        // growing with N — per-orbital inspection is constant).
        for r in rows.iter().filter(|r| r.n >= 4096) {
            assert!(
                r.considered * 4 < r.candidates,
                "n={}: {} of {} inspected",
                r.n,
                r.considered,
                r.candidates
            );
        }
    }

    #[test]
    fn modeled_halo_beats_replication_on_the_whole_series() {
        let rows = torus_rows();
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert!(
                r.halo_us < r.replication_us,
                "{} racks: halo {} >= replication {}",
                r.racks,
                r.halo_us,
                r.replication_us
            );
        }
        // The advantage widens with machine size (replication is O(P)).
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(
            last.replication_us / last.halo_us > first.replication_us / first.halo_us,
            "gap must widen with scale"
        );
    }
}
