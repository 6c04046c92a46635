//! Hierarchical domain sharding of the pair source.
//!
//! The cell-list builder in [`crate::screening`] makes pair sourcing
//! O(N·partners) on one node, but it still touches every orbital. At the
//! paper's scale (10⁸ atoms on 96 racks) no rank can even *hold* the
//! global orbital table. This module adds the missing level: the periodic
//! cell is cut into a `gx × gy × gz` grid of spatial subdomains, one per
//! rank (mapped onto the torus by `liair-bgq::domainmap`), and each rank
//! materializes only
//!
//! - its **owned** orbitals — those whose wrapped center falls in its box;
//! - its **halo** — foreign orbitals within the screening cutoff of its
//!   box, imported once per build from the face/edge/corner neighbors.
//!
//! Ownership of the surviving pair `(i, j)`, `i ≤ j`, goes to the domain
//! owning orbital `i`. The halo criterion `box_distance(d, c_j) ≤
//! rc(σ_j, σ_max)` makes that domain self-sufficient: if the pair
//! survives screening then `dist(c_i, c_j) ≤ rc(σ_i, σ_j) ≤
//! rc(σ_max, σ_j)`, and the box distance is a lower bound on any
//! distance from a point inside the box — so `j` is guaranteed resident.
//! Every surviving pair is therefore built by exactly one domain, from
//! locally resident data only.
//!
//! **Local builds.** On a fine grid (`box + 2·halo ≤ L/2` per axis) the
//! residents are unfolded around the box center and binned in the same
//! crate-private index the cell list uses (`bins.rs`; its `RADIUS_SLACK`
//! is also the slack of every halo comparison here), so a domain inspects
//! O(residents) candidates; on a coarse grid every resident is one.
//!
//! **Bit-identity is load-bearing.** Local builds evaluate the identical
//! [`crate::screening::pair_bound`] (minimum image in the full cell) the
//! global builders evaluate, and the merged per-domain lists are sorted
//! into the canonical `(i, j)` order — so the sharded list equals the
//! global [`crate::screening::build_pair_list`] output *to the bit*, and
//! every downstream engine backend (serial, rayon, comm; any SIMD level,
//! any fault plan) produces bit-identical energies from it.
//!
//! [`DomainGeometry`] is deliberately O(1) state (cell, grid, ε, σ_max):
//! the weak-scaling benchmark instantiates a 10⁸-orbital decomposition
//! and materializes a single domain plus its neighbor shell without ever
//! allocating a global array. [`DomainDecomposition`] adds the O(N)
//! owner/owned/halo tables for laptop-scale whole-system runs.

use crate::bins::{BinIndex, RADIUS_SLACK};
use crate::error::{Error, Result};
use crate::screening::{cutoff_radius, screen_pair, OrbitalInfo, Pair, PairList};
use liair_basis::Cell;
use liair_math::Vec3;
use liair_runtime::{run_spmd_cfg, Comm, CommConfig, CommResult};

/// Point-to-point user tag of the halo import (bit 63 clear — the
/// runtime reserves the high bit for internal collective tags).
pub const HALO_TAG: u64 = 0x4841_4C4F; // "HALO"

/// The O(1) description of a domain grid over a periodic cell: enough to
/// answer ownership, halo membership, and neighbor queries for *any*
/// orbital without holding a single global table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainGeometry {
    /// The full periodic cell being sharded.
    pub cell: Cell,
    /// Domain counts per axis; `dims[0]·dims[1]·dims[2]` ranks.
    pub dims: [usize; 3],
    /// Screening threshold the pair lists are built at.
    pub eps: f64,
    /// Largest orbital spread in the system (sets the halo depth).
    pub sigma_max: f64,
}

impl DomainGeometry {
    /// A `dims` grid of equal boxes over `cell`. Needs a finite cutoff
    /// (`0 < eps ≤ 1`), else [`Error::InvalidEps`].
    pub fn new(cell: Cell, dims: [usize; 3], eps: f64, sigma_max: f64) -> Result<Self> {
        if !(eps > 0.0 && eps <= 1.0) {
            return Err(Error::InvalidEps { eps });
        }
        assert!(
            dims.iter().all(|&g| g >= 1),
            "domain grid must be at least 1 per axis"
        );
        assert!(sigma_max >= 0.0, "spreads are non-negative");
        Ok(Self {
            cell,
            dims,
            eps,
            sigma_max,
        })
    }

    /// Total domain (= rank) count.
    pub fn n_domains(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Box edge lengths per axis.
    pub fn box_widths(&self) -> [f64; 3] {
        [
            self.cell.lengths.x / self.dims[0] as f64,
            self.cell.lengths.y / self.dims[1] as f64,
            self.cell.lengths.z / self.dims[2] as f64,
        ]
    }

    /// The halo depth: the largest cutoff any pair in the system can
    /// have, `rc(σ_max, σ_max, ε)`.
    pub fn halo_radius(&self) -> f64 {
        cutoff_radius(self.sigma_max, self.sigma_max, self.eps)
    }

    /// Linear rank of grid coordinates (x-major, z fastest).
    pub fn rank_of(&self, c: [usize; 3]) -> usize {
        debug_assert!(c[0] < self.dims[0] && c[1] < self.dims[1] && c[2] < self.dims[2]);
        (c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2]
    }

    /// Grid coordinates of a linear rank.
    pub fn coords_of(&self, d: usize) -> [usize; 3] {
        debug_assert!(d < self.n_domains());
        let z = d % self.dims[2];
        let y = (d / self.dims[2]) % self.dims[1];
        let x = d / (self.dims[1] * self.dims[2]);
        [x, y, z]
    }

    /// Owning domain of a point (by wrapped center).
    pub fn domain_of(&self, p: Vec3) -> usize {
        let w = self.cell.wrap(p);
        let mut c = [0usize; 3];
        for k in 0..3 {
            let g = self.dims[k];
            c[k] = ((w[k] / self.cell.lengths[k] * g as f64) as usize).min(g - 1);
        }
        self.rank_of(c)
    }

    /// Circular (periodic) distance from wrapped point `p` to the box of
    /// domain `d` — zero inside, else the closest approach over images.
    pub fn box_distance(&self, d: usize, p: Vec3) -> f64 {
        let w = self.cell.wrap(p);
        let c = self.coords_of(d);
        let widths = self.box_widths();
        let mut sq = 0.0;
        for k in 0..3 {
            let l = self.cell.lengths[k];
            let lo = c[k] as f64 * widths[k];
            let hi = lo + widths[k];
            let x = w[k];
            if x >= lo && x <= hi {
                continue;
            }
            let circ = |a: f64, b: f64| {
                let t = (a - b).abs();
                t.min(l - t)
            };
            let dk = circ(x, lo).min(circ(x, hi));
            sq += dk * dk;
        }
        sq.sqrt()
    }

    /// Periodic distance between the boxes of two domains (zero for
    /// face/edge/corner contact; boxes tile the cell exactly, so the
    /// per-axis gap is a whole number of box widths).
    pub fn box_to_box_distance(&self, d: usize, e: usize) -> f64 {
        let a = self.coords_of(d);
        let b = self.coords_of(e);
        let widths = self.box_widths();
        let mut sq = 0.0;
        for k in 0..3 {
            let g = self.dims[k];
            let t = a[k].abs_diff(b[k]);
            let hops = t.min(g - t);
            if hops > 1 {
                let dk = (hops - 1) as f64 * widths[k];
                sq += dk * dk;
            }
        }
        sq.sqrt()
    }

    /// Domains whose box lies within the halo radius of `d`'s box — the
    /// complete set of ranks `d` imports halo orbitals from (and, by
    /// symmetry, exports to). Ascending rank order.
    pub fn neighbor_domains(&self, d: usize) -> Vec<usize> {
        let h = self.halo_radius() * RADIUS_SLACK;
        (0..self.n_domains())
            .filter(|&e| e != d && self.box_to_box_distance(d, e) <= h)
            .collect()
    }

    /// Whether a foreign orbital belongs in domain `d`'s halo: it is not
    /// owned by `d` and its center lies within `rc(σ, σ_max, ε)` of the
    /// box — exactly the self-sufficiency criterion of the module docs.
    pub fn in_halo(&self, d: usize, o: &OrbitalInfo) -> bool {
        self.domain_of(o.center) != d
            && self.box_distance(d, o.center)
                <= cutoff_radius(o.spread, self.sigma_max, self.eps) * RADIUS_SLACK
    }

    /// Center of domain `d`'s box.
    fn box_center(&self, d: usize) -> Vec3 {
        let c = self.coords_of(d);
        let widths = self.box_widths();
        Vec3::new(
            (c[0] as f64 + 0.5) * widths[0],
            (c[1] as f64 + 0.5) * widths[1],
            (c[2] as f64 + 0.5) * widths[2],
        )
    }

    /// Whether the windowed (binned, O(residents)) local build is exact
    /// for this geometry: residents unfolded minimum-image around the box
    /// center span at most `box + 2·halo` per axis, and plain Euclidean
    /// distance in that window equals the minimum-image distance whenever
    /// every axis extent stays within half the cell. Fails for coarse
    /// grids (e.g. 2 domains per axis), where the local build falls back
    /// to the exact O(residents²) scan.
    pub fn windowed(&self) -> bool {
        let widths = self.box_widths();
        let h = self.halo_radius() * RADIUS_SLACK;
        (0..3).all(|k| widths[k] + 2.0 * h <= 0.5 * self.cell.lengths[k])
    }

    /// Build domain `d`'s share of the global pair list from its resident
    /// orbitals (owned ∪ halo, as `(global id, info)`). Emits exactly the
    /// surviving pairs `(i, j)` whose smaller-index orbital `i` is owned
    /// by `d`: diagonals for every owned orbital plus every off-diagonal
    /// pair with `id_j > id_i` that passes the exact screening filter.
    /// Bounds are [`crate::screening::pair_bound`] with the full-cell
    /// minimum image, so the union over domains is bit-identical to the
    /// global builders.
    ///
    /// Returns `(pairs, considered)` where `considered` counts the bound
    /// evaluations performed (diagonals included) — O(residents) on the
    /// windowed path, O(residents²) on the fallback.
    pub fn local_pairs(&self, d: usize, residents: &[(u32, OrbitalInfo)]) -> (Vec<Pair>, usize) {
        let mut pairs = Vec::new();
        let mut considered = 0usize;
        let owned: Vec<bool> = residents
            .iter()
            .map(|(_, o)| self.domain_of(o.center) == d)
            .collect();
        for (k, &(id, _)) in residents.iter().enumerate() {
            if owned[k] {
                pairs.push(Pair {
                    i: id,
                    j: id,
                    weight: 1.0,
                    bound: 1.0,
                });
                considered += 1;
            }
        }
        // Unfold residents minimum-image around the box center: inside the
        // window, Euclidean distance == minimum-image distance, so a binned
        // range search finds every partner the exact filter keeps.
        let window = (self.windowed() && residents.len() > 1).then(|| {
            let center = self.box_center(d);
            let pos: Vec<Vec3> = residents
                .iter()
                .map(|(_, o)| center + self.cell.min_image(center, o.center))
                .collect();
            let index = BinIndex::build(pos.iter().copied(), self.halo_radius(), None);
            (pos, index)
        });
        for (k, &(id_k, ref ok)) in residents.iter().enumerate() {
            if !owned[k] {
                continue;
            }
            // The claim rule (larger id) and the exact filter, applied to
            // each candidate partner.
            let mut consider = |&(id_j, ref oj): &(u32, OrbitalInfo)| {
                if id_j > id_k {
                    considered += 1;
                    screen_pair(
                        (id_k, ok),
                        (id_j, oj),
                        self.eps,
                        Some(&self.cell),
                        &mut pairs,
                    );
                }
            };
            // Candidates: the residents within the claimer's worst-case
            // radius rc(σ_k, σ_max) — or, on a coarse grid with no window,
            // all of them.
            match &window {
                Some((pos, index)) => {
                    let r = cutoff_radius(ok.spread, self.sigma_max, self.eps);
                    index.for_each_within(pos[k], r, |c| consider(&residents[c as usize]));
                }
                None => residents.iter().for_each(consider),
            }
        }
        (pairs, considered)
    }
}

/// The O(N) ownership tables of a whole-system decomposition: who owns
/// each orbital, and per domain the owned and halo id lists (both
/// ascending).
#[derive(Debug, Clone)]
pub struct DomainDecomposition {
    /// The O(1) grid geometry.
    pub geometry: DomainGeometry,
    /// Owning domain per orbital.
    pub owner: Vec<u32>,
    /// Owned orbital ids per domain, ascending.
    pub owned: Vec<Vec<u32>>,
    /// Halo orbital ids per domain (foreign, within cutoff of the box),
    /// ascending.
    pub halo: Vec<Vec<u32>>,
}

impl DomainDecomposition {
    /// Decompose `orbitals` over a `dims` grid of subdomains in `cell` at
    /// screening threshold `eps`.
    pub fn build(
        orbitals: &[OrbitalInfo],
        eps: f64,
        cell: &Cell,
        dims: [usize; 3],
    ) -> Result<Self> {
        let sigma_max = orbitals.iter().map(|o| o.spread).fold(0.0, f64::max);
        let geometry = DomainGeometry::new(*cell, dims, eps, sigma_max)?;
        let nd = geometry.n_domains();
        let mut owner = Vec::with_capacity(orbitals.len());
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); nd];
        for (i, o) in orbitals.iter().enumerate() {
            let d = geometry.domain_of(o.center);
            owner.push(d as u32);
            owned[d].push(i as u32);
        }
        // Halo candidates can only live in neighbor domains: the halo
        // criterion bounds the box distance by the halo radius, which is
        // exactly the neighbor relation.
        let mut halo: Vec<Vec<u32>> = vec![Vec::new(); nd];
        for d in 0..nd {
            for e in geometry.neighbor_domains(d) {
                for &j in &owned[e] {
                    if geometry.in_halo(d, &orbitals[j as usize]) {
                        halo[d].push(j);
                    }
                }
            }
            halo[d].sort_unstable();
        }
        Ok(Self {
            geometry,
            owner,
            owned,
            halo,
        })
    }

    /// Resident ids of domain `d` (owned ∪ halo), ascending.
    pub fn residents(&self, d: usize) -> Vec<u32> {
        let mut r: Vec<u32> = self.owned[d].iter().chain(&self.halo[d]).copied().collect();
        r.sort_unstable();
        r
    }
}

/// Build the global screened pair list by sharding it over a `dims` grid
/// of subdomains and merging the per-domain shares — bit-identical to
/// [`crate::screening::build_pair_list`] (and so to the cell-list source)
/// in sequence, weights, and bound bits. `considered` sums the per-domain
/// bound evaluations.
pub fn build_pair_list_sharded(
    orbitals: &[OrbitalInfo],
    eps: f64,
    cell: &Cell,
    dims: [usize; 3],
) -> Result<PairList> {
    let decomp = DomainDecomposition::build(orbitals, eps, cell, dims)?;
    let n = orbitals.len();
    let mut pairs = Vec::new();
    let mut considered = 0usize;
    for d in 0..decomp.geometry.n_domains() {
        let residents: Vec<(u32, OrbitalInfo)> = decomp
            .residents(d)
            .into_iter()
            .map(|i| (i, orbitals[i as usize]))
            .collect();
        let (mut local, c) = decomp.geometry.local_pairs(d, &residents);
        considered += c;
        pairs.append(&mut local);
    }
    // Each surviving pair is emitted by exactly one domain (the owner of
    // its smaller index); sorting restores the canonical order.
    pairs.sort_unstable_by_key(|p| (p.i, p.j));
    Ok(PairList {
        pairs,
        n_candidates: n * (n + 1) / 2,
        considered,
        eps,
    })
}

/// Import this rank's halo over point-to-point messages: send every owned
/// orbital that falls in a neighbor's halo to that neighbor, then receive
/// the symmetric imports. Rank == domain. All sends are posted before any
/// receive (the transport buffers), so the exchange cannot deadlock. The
/// received set is exactly `DomainDecomposition::halo[rank]` — both sides
/// evaluate the same [`DomainGeometry::in_halo`] predicate.
pub fn exchange_halo(
    comm: &dyn Comm,
    geometry: &DomainGeometry,
    owned: &[(u32, OrbitalInfo)],
) -> CommResult<Vec<(u32, OrbitalInfo)>> {
    let d = comm.rank();
    let neighbors = geometry.neighbor_domains(d);
    for &e in &neighbors {
        let mut buf = Vec::new();
        for &(id, ref o) in owned {
            if geometry.in_halo(e, o) {
                buf.extend_from_slice(&[id as f64, o.center.x, o.center.y, o.center.z, o.spread]);
            }
        }
        comm.send(e, HALO_TAG, buf)?;
    }
    let mut halo: Vec<(u32, OrbitalInfo)> = Vec::new();
    for &e in &neighbors {
        let words = comm.recv(e, HALO_TAG)?;
        for ch in words.chunks_exact(5) {
            halo.push((
                ch[0] as u32,
                OrbitalInfo {
                    center: Vec3::new(ch[1], ch[2], ch[3]),
                    spread: ch[4],
                },
            ));
        }
    }
    halo.sort_unstable_by_key(|&(id, _)| id);
    Ok(halo)
}

/// The full SPMD pair build: one rank per domain, each holding only its
/// owned orbitals, importing its halo via [`exchange_halo`], building its
/// local share, and gathering the shares on rank 0 — the laptop-scale
/// correctness proof of the distributed sourcing protocol. The result is
/// bit-identical to the global builders.
pub fn sharded_pair_list_spmd(
    orbitals: &[OrbitalInfo],
    eps: f64,
    cell: &Cell,
    dims: [usize; 3],
) -> Result<PairList> {
    let decomp = DomainDecomposition::build(orbitals, eps, cell, dims)?;
    let geometry = decomp.geometry;
    let nd = geometry.n_domains();
    let run = run_spmd_cfg(
        nd,
        CommConfig::default(),
        |comm| -> CommResult<Option<(Vec<Pair>, usize)>> {
            let d = comm.rank();
            let owned: Vec<(u32, OrbitalInfo)> = decomp.owned[d]
                .iter()
                .map(|&i| (i, orbitals[i as usize]))
                .collect();
            let halo = exchange_halo(comm, &geometry, &owned)?;
            let mut residents = owned;
            residents.extend(halo);
            residents.sort_unstable_by_key(|&(id, _)| id);
            let (local, considered) = geometry.local_pairs(d, &residents);
            // Flat frame: [considered, (i, j, weight, bound)…]. Indices
            // and counts are exact in f64 (far below 2^53); weights and
            // bounds ride unchanged, so the gather is bitwise faithful.
            let mut flat = Vec::with_capacity(1 + 4 * local.len());
            flat.push(considered as f64);
            for p in &local {
                flat.extend_from_slice(&[p.i as f64, p.j as f64, p.weight, p.bound]);
            }
            let gathered = comm.gather(0, flat)?;
            Ok(gathered.map(|ranks| {
                let mut pairs = Vec::new();
                let mut considered = 0usize;
                for words in &ranks {
                    considered += words[0] as usize;
                    for ch in words[1..].chunks_exact(4) {
                        pairs.push(Pair {
                            i: ch[0] as u32,
                            j: ch[1] as u32,
                            weight: ch[2],
                            bound: ch[3],
                        });
                    }
                }
                (pairs, considered)
            }))
        },
    )?;
    let root = run
        .results
        .into_iter()
        .next()
        .expect("at least one rank ran")?
        .expect("rank 0 receives the gather");
    let (mut pairs, considered) = root;
    pairs.sort_unstable_by_key(|p| (p.i, p.j));
    let n = orbitals.len();
    Ok(PairList {
        pairs,
        n_candidates: n * (n + 1) / 2,
        considered,
        eps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screening::{build_pair_list, build_pair_list_celllist};
    use liair_math::rng::SplitMix64;

    fn random_layout(seed: u64, n: usize, edge: f64, smin: f64, smax: f64) -> Vec<OrbitalInfo> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| OrbitalInfo {
                center: Vec3::new(
                    rng.range_f64(0.0, edge),
                    rng.range_f64(0.0, edge),
                    rng.range_f64(0.0, edge),
                ),
                spread: rng.range_f64(smin, smax),
            })
            .collect()
    }

    #[test]
    fn partition_is_exact_and_disjoint() {
        let cell = Cell::cubic(30.0);
        let orbs = random_layout(3, 200, 30.0, 0.5, 1.5);
        let dec = DomainDecomposition::build(&orbs, 1e-6, &cell, [3, 2, 2]).unwrap();
        let mut seen = vec![false; orbs.len()];
        for (d, ids) in dec.owned.iter().enumerate() {
            for &i in ids {
                assert!(!seen[i as usize], "orbital {i} owned twice");
                seen[i as usize] = true;
                assert_eq!(dec.owner[i as usize] as usize, d);
                assert_eq!(dec.geometry.domain_of(orbs[i as usize].center), d);
            }
        }
        assert!(seen.iter().all(|&s| s), "every orbital must be owned");
        // Halos never contain owned orbitals.
        for d in 0..dec.geometry.n_domains() {
            for &j in &dec.halo[d] {
                assert_ne!(dec.owner[j as usize] as usize, d);
            }
        }
    }

    #[test]
    fn halo_covers_every_cross_domain_pair() {
        let cell = Cell::cubic(24.0);
        let orbs = random_layout(11, 150, 24.0, 0.4, 1.2);
        let eps = 1e-5;
        let dec = DomainDecomposition::build(&orbs, eps, &cell, [2, 2, 2]).unwrap();
        let global = build_pair_list(&orbs, eps, Some(&cell));
        for p in &global.pairs {
            if p.i == p.j {
                continue;
            }
            let d = dec.owner[p.i as usize] as usize;
            let resident =
                dec.owner[p.j as usize] as usize == d || dec.halo[d].binary_search(&p.j).is_ok();
            assert!(
                resident,
                "pair ({}, {}) not buildable in owner domain {d}",
                p.i, p.j
            );
        }
    }

    #[test]
    fn sharded_list_is_bit_identical_to_global() {
        let cell = Cell::cubic(26.0);
        for (seed, dims) in [
            (1u64, [2, 2, 2]),
            (2, [3, 2, 1]),
            (3, [1, 1, 1]),
            (4, [4, 1, 2]),
        ] {
            let orbs = random_layout(seed, 180, 26.0, 0.4, 1.4);
            for eps in [1e-3, 1e-8] {
                let brute = build_pair_list(&orbs, eps, Some(&cell));
                let cl = build_pair_list_celllist(&orbs, eps, &cell).unwrap();
                let sh = build_pair_list_sharded(&orbs, eps, &cell, dims).unwrap();
                assert_eq!(brute.pairs.len(), sh.pairs.len(), "dims {dims:?} eps {eps}");
                for (a, b) in brute.pairs.iter().zip(&sh.pairs) {
                    assert_eq!((a.i, a.j), (b.i, b.j));
                    assert_eq!(a.weight.to_bits(), b.weight.to_bits());
                    assert_eq!(a.bound.to_bits(), b.bound.to_bits());
                }
                assert_eq!(cl.pairs, sh.pairs);
                assert_eq!(sh.n_candidates, brute.n_candidates);
            }
        }
    }

    #[test]
    fn windowed_path_engages_on_fine_grids_and_stays_exact() {
        // 4 domains per axis with a small cutoff: the window condition
        // box + 2·halo ≤ L/2 holds, so the O(residents) binned path runs.
        let cell = Cell::cubic(80.0);
        let orbs = random_layout(7, 400, 80.0, 0.5, 1.0);
        let eps = 1e-4;
        let geom = DomainGeometry::new(cell, [4, 4, 4], eps, 1.0).unwrap();
        assert!(geom.windowed(), "halo {} too deep", geom.halo_radius());
        let brute = build_pair_list(&orbs, eps, Some(&cell));
        let sh = build_pair_list_sharded(&orbs, eps, &cell, [4, 4, 4]).unwrap();
        assert_eq!(brute.pairs, sh.pairs);
        // Coarse grids must *not* window (the unfolded span can exceed
        // the unambiguous minimum-image range).
        let coarse = DomainGeometry::new(cell, [2, 2, 2], eps, 1.0).unwrap();
        assert!(!coarse.windowed());
    }

    #[test]
    fn spmd_halo_exchange_reproduces_the_decomposition() {
        let cell = Cell::cubic(22.0);
        let orbs = random_layout(21, 120, 22.0, 0.4, 1.1);
        let eps = 1e-4;
        let dec = DomainDecomposition::build(&orbs, eps, &cell, [2, 2, 1]).unwrap();
        let geom = dec.geometry;
        let run = run_spmd_cfg(geom.n_domains(), CommConfig::default(), |comm| {
            let d = comm.rank();
            let owned: Vec<(u32, OrbitalInfo)> = dec.owned[d]
                .iter()
                .map(|&i| (i, orbs[i as usize]))
                .collect();
            let halo = exchange_halo(comm, &geom, &owned).unwrap();
            halo.iter().map(|&(id, _)| id).collect::<Vec<u32>>()
        })
        .unwrap();
        for (d, got) in run.results.iter().enumerate() {
            assert_eq!(got, &dec.halo[d], "halo mismatch on rank {d}");
        }
    }

    #[test]
    fn spmd_sharded_list_matches_global() {
        let cell = Cell::cubic(20.0);
        let orbs = random_layout(5, 90, 20.0, 0.4, 1.0);
        let eps = 1e-5;
        let brute = build_pair_list(&orbs, eps, Some(&cell));
        let sh = sharded_pair_list_spmd(&orbs, eps, &cell, [2, 2, 2]).unwrap();
        assert_eq!(brute.pairs, sh.pairs);
        assert!(sh.considered >= sh.len());
    }

    #[test]
    fn invalid_eps_is_a_typed_error() {
        let cell = Cell::cubic(10.0);
        let orbs = random_layout(1, 10, 10.0, 0.5, 1.0);
        for eps in [0.0, -2.0, 1.5] {
            let err = build_pair_list_sharded(&orbs, eps, &cell, [2, 2, 2]).unwrap_err();
            assert!(matches!(err, Error::InvalidEps { .. }), "eps {eps}");
        }
    }

    #[test]
    fn neighbor_relation_is_symmetric_and_local() {
        let geom = DomainGeometry::new(Cell::cubic(60.0), [4, 3, 2], 1e-6, 1.0).unwrap();
        for d in 0..geom.n_domains() {
            for e in geom.neighbor_domains(d) {
                assert!(
                    geom.neighbor_domains(e).contains(&d),
                    "neighbor relation must be symmetric ({d} vs {e})"
                );
            }
        }
        // A fine grid with a shallow halo keeps the neighborhood to the
        // 26-box shell (halo rc(1,1,1e-6) ≈ 7.4 < box width 15 on x).
        let fine = DomainGeometry::new(Cell::cubic(120.0), [8, 8, 8], 1e-6, 1.0).unwrap();
        let nbs = fine.neighbor_domains(0);
        assert_eq!(nbs.len(), 26, "face/edge/corner shell expected");
    }
}
