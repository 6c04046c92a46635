//! Controllable-accuracy pair screening.
//!
//! For localized orbitals `i`, `j` with centers `c_i`, `c_j` and spreads
//! `σ_i`, `σ_j`, the pair density magnitude is bounded by the Gaussian
//! overlap estimate
//!
//! `B_ij = exp(−d²/(2(σ_i² + σ_j²)))`, `d = |c_i − c_j|` (minimum image in
//! periodic cells).
//!
//! Since `(ij|ij)` is quadratic in the pair density, dropping pairs with
//! `B_ij < ε` discards exchange contributions of order `ε²·(ii|ii)` —
//! the error is controlled *monotonically* by the single knob ε, which is
//! the paper's "highly controllable manner". ε = 0 disables screening.
//! Every caller passes one ε for a whole calculation; nothing tightens it
//! across SCF iterations. [`IncSchedule`] is likewise fixed: the reuse
//! tolerance and rebuild cadence an incremental cache is built with.
//!
//! **Who builds lists.** [`source_pairs`] is the one pair source, for
//! the energy path and the K path alike: the cell list
//! [`build_pair_list_celllist`] when a cell and `0 < ε ≤ 1` are given,
//! else [`build_pair_list`], the O(N²) reference the cell list is
//! bit-compared against. The cell list takes its candidates from a
//! crate-private uniform-bin index (`bins.rs`, which also owns the one
//! rounding guard) and adds only its claim rule and the shared exact
//! filter `pair_bound ≥ ε` (`screen_pair`) — which is what makes its
//! output the reference's, bit for bit.

use crate::bins::BinIndex;
use liair_basis::Cell;
use liair_math::Vec3;
use serde::{Deserialize, Serialize};

/// What screening needs to know about one localized occupied orbital.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrbitalInfo {
    /// Localization center (Bohr).
    #[serde(with = "vec3_serde")]
    pub center: Vec3,
    /// Spread σ (Bohr).
    pub spread: f64,
}

mod vec3_serde {
    use liair_math::Vec3;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(v: &Vec3, s: S) -> Result<S::Ok, S::Error> {
        [v.x, v.y, v.z].serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Vec3, D::Error> {
        let a = <[f64; 3]>::deserialize(d)?;
        Ok(Vec3::new(a[0], a[1], a[2]))
    }
}

/// One surviving exchange task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pair {
    /// First orbital index (`i ≤ j`).
    pub i: u32,
    /// Second orbital index.
    pub j: u32,
    /// Multiplicity in the exchange sum: 1 for diagonal, 2 for off-diagonal
    /// (E_x = −Σ_{i≤j} w_ij (ij|ij) for a closed shell).
    pub weight: f64,
    /// The screening bound the pair survived with (1.0 for diagonal).
    pub bound: f64,
}

/// The task list after screening.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairList {
    /// Surviving pairs, `i ≤ j`, sorted lexicographically by `(i, j)` —
    /// the canonical order every builder emits and the engine's chunk
    /// discipline relies on.
    pub pairs: Vec<Pair>,
    /// Total candidate count `N(N+1)/2`.
    pub n_candidates: usize,
    /// Candidate pairs the builder actually inspected (distance/bound
    /// evaluations, diagonals included). `n_candidates` for the O(N²)
    /// scan; O(N·partners) for the cell-list source — the observable
    /// evidence of sub-quadratic sourcing.
    #[serde(default)]
    pub considered: usize,
    /// The ε used.
    pub eps: f64,
}

impl PairList {
    /// Number of surviving pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether nothing survived (only possible for pathological ε > 1).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Fraction of candidates kept.
    pub fn survival(&self) -> f64 {
        if self.n_candidates == 0 {
            return 1.0;
        }
        self.pairs.len() as f64 / self.n_candidates as f64
    }
}

/// The Gaussian-overlap screening bound for one orbital pair.
pub fn pair_bound(a: &OrbitalInfo, b: &OrbitalInfo, cell: Option<&Cell>) -> f64 {
    let d = match cell {
        Some(c) => c.distance(a.center, b.center),
        None => a.center.distance(b.center),
    };
    let denom = 2.0 * (a.spread * a.spread + b.spread * b.spread);
    assert!(denom > 0.0, "orbital spreads must be positive");
    (-d * d / denom).exp()
}

/// Distance beyond which a pair of spread-σ orbitals drops below ε.
pub fn cutoff_radius(sigma_a: f64, sigma_b: f64, eps: f64) -> f64 {
    assert!(eps > 0.0 && eps <= 1.0);
    (2.0 * (sigma_a * sigma_a + sigma_b * sigma_b) * (1.0 / eps).ln()).sqrt()
}

/// The exact filter under every builder, spelled once: push the
/// off-diagonal pair of orbitals `a` and `b` (each given as `(id, info)`,
/// smaller id first in the entry) if its [`pair_bound`] survives `eps`.
pub(crate) fn screen_pair(
    a: (u32, &OrbitalInfo),
    b: (u32, &OrbitalInfo),
    eps: f64,
    cell: Option<&Cell>,
    pairs: &mut Vec<Pair>,
) {
    let bound = pair_bound(a.1, b.1, cell);
    if bound >= eps {
        pairs.push(Pair {
            i: a.0.min(b.0),
            j: a.0.max(b.0),
            weight: 2.0,
            bound,
        });
    }
}

/// Build the screened pair list over `orbitals` with threshold `eps`
/// (`eps = 0` keeps everything); distances use the minimum image if a
/// periodic cell is given. The O(N²) reference every locality-aware
/// builder is bit-compared against.
pub fn build_pair_list(orbitals: &[OrbitalInfo], eps: f64, cell: Option<&Cell>) -> PairList {
    let n = orbitals.len();
    let mut pairs = Vec::new();
    for (i, oi) in orbitals.iter().enumerate() {
        pairs.push(Pair {
            i: i as u32,
            j: i as u32,
            weight: 1.0,
            bound: 1.0,
        });
        for j in i + 1..n {
            screen_pair(
                (i as u32, oi),
                (j as u32, &orbitals[j]),
                eps,
                cell,
                &mut pairs,
            );
        }
    }
    let considered = n * (n + 1) / 2;
    PairList {
        pairs,
        n_candidates: considered,
        considered,
        eps,
    }
}

/// The engine's canonical pair source. Routes to the O(N·partners)
/// cell-list builder whenever a periodic cell and a finite threshold
/// (`0 < ε ≤ 1`) are present, and falls back to the O(N²) scan otherwise
/// (ε = 0 keeps every pair, so there is no cutoff radius to bin by).
/// Every route emits the identical canonical `(i, j)`-sorted list, so
/// callers can switch freely without perturbing a single bit downstream.
pub fn source_pairs(orbitals: &[OrbitalInfo], eps: f64, cell: Option<&Cell>) -> PairList {
    match cell {
        Some(c) if eps > 0.0 && eps <= 1.0 => {
            build_pair_list_celllist(orbitals, eps, c).expect("eps range checked")
        }
        _ => build_pair_list(orbitals, eps, cell),
    }
}

/// Bin-width target of the cell list: the self-cutoff of the
/// *median* spread, so the typical orbital searches O(1) shells of bins
/// regardless of the spread distribution's tail.
fn median_cutoff(orbitals: &[OrbitalInfo], eps: f64) -> f64 {
    let mut spreads: Vec<f64> = orbitals.iter().map(|o| o.spread).collect();
    spreads.sort_by(f64::total_cmp);
    let median = spreads.get(spreads.len() / 2).copied().unwrap_or(1.0);
    cutoff_radius(median, median, eps)
}

/// Linear-scaling pair-list construction for large condensed systems,
/// O(N·partners) instead of O(N²); the result is identical to
/// [`build_pair_list`] — same canonical order, same bound bits.
///
/// Orbitals are binned by wrapped center; the pair `(i, j)` is *claimed*
/// by its wider partner (ties by index), which searches only its own
/// cutoff radius `r_σ = cutoff_radius(σ, σ, eps)` — exact because
/// `cutoff_radius(σ, σ', eps) ≤ r_σ` whenever `σ' ≤ σ`. The per-orbital
/// search radius means a dense population of narrow orbitals never pays
/// for one wide outlier (the old global `sigma_max` bin sizing degraded
/// every orbital's search to the widest cutoff).
///
/// Needs a finite cutoff radius: `0 < eps ≤ 1`, else
/// [`crate::error::Error::InvalidEps`].
pub fn build_pair_list_celllist(
    orbitals: &[OrbitalInfo],
    eps: f64,
    cell: &Cell,
) -> crate::error::Result<PairList> {
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(crate::error::Error::InvalidEps { eps });
    }
    let n = orbitals.len();
    let centers = orbitals.iter().map(|o| o.center);
    let index = BinIndex::build(centers, median_cutoff(orbitals, eps), cell);
    // A pair is claimed exactly once, by its wider partner.
    let claims = |i: usize, j: usize| -> bool {
        let (si, sj) = (orbitals[i].spread, orbitals[j].spread);
        si > sj || (si == sj && i < j)
    };
    let mut pairs = Vec::with_capacity(2 * n);
    let mut considered = n; // the always-kept diagonals
    for (i, oi) in orbitals.iter().enumerate() {
        pairs.push(Pair {
            i: i as u32,
            j: i as u32,
            weight: 1.0,
            bound: 1.0,
        });
        let ri = cutoff_radius(oi.spread, oi.spread, eps);
        index.for_each_within(oi.center, ri, |j| {
            if claims(i, j as usize) {
                considered += 1;
                let oj = &orbitals[j as usize];
                screen_pair((i as u32, oi), (j, oj), eps, Some(cell), &mut pairs);
            }
        });
    }
    // Each surviving pair was claimed by exactly one orbital and each bin
    // visited once, so sorting restores the canonical (i, j) order with no
    // duplicates (the dedup is a cheap invariant guard).
    pairs.sort_unstable_by_key(|p| (p.i, p.j));
    pairs.dedup_by_key(|p| (p.i, p.j));
    Ok(PairList {
        pairs,
        n_candidates: n * (n + 1) / 2,
        considered,
        eps,
    })
}

/// The incremental-exchange reuse settings of a grid SCF: the fingerprint
/// tolerance and full-rebuild cadence each slot's
/// [`crate::incremental::IncrementalExchange`] is built with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IncSchedule {
    /// Reuse tolerance (`0` = every build from scratch).
    pub eps_inc: f64,
    /// Force a full rebuild every N builds (`0` = never force).
    pub rebuild_every: usize,
}

impl IncSchedule {
    /// A fixed tolerance with full-rebuild cadence.
    pub fn fixed(eps_inc: f64, rebuild_every: usize) -> Self {
        Self {
            eps_inc,
            rebuild_every,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_math::approx_eq;

    fn orb(x: f64, s: f64) -> OrbitalInfo {
        OrbitalInfo {
            center: Vec3::new(x, 0.0, 0.0),
            spread: s,
        }
    }

    #[test]
    fn diagonal_pairs_always_kept() {
        let orbs = vec![orb(0.0, 1.0), orb(100.0, 1.0)];
        let pl = build_pair_list(&orbs, 0.9999, None);
        // Both diagonals survive; the distant off-diagonal does not.
        assert_eq!(pl.len(), 2);
        assert!(pl.pairs.iter().all(|p| p.i == p.j));
    }

    #[test]
    fn eps_zero_keeps_everything() {
        let orbs: Vec<_> = (0..10).map(|k| orb(3.0 * k as f64, 1.2)).collect();
        let pl = build_pair_list(&orbs, 0.0, None);
        assert_eq!(pl.len(), pl.n_candidates);
        assert_eq!(pl.n_candidates, 55);
        assert!(approx_eq(pl.survival(), 1.0, 1e-15));
    }

    #[test]
    fn survivors_monotone_in_eps() {
        let orbs: Vec<_> = (0..20).map(|k| orb(1.5 * k as f64, 1.0)).collect();
        let mut prev = usize::MAX;
        for eps in [0.0, 1e-12, 1e-8, 1e-4, 1e-2, 0.5] {
            let pl = build_pair_list(&orbs, eps, None);
            assert!(pl.len() <= prev, "eps = {eps}");
            prev = pl.len();
        }
    }

    #[test]
    fn bound_matches_cutoff_radius() {
        let (sa, sb, eps) = (1.3, 0.9, 1e-6);
        let rc = cutoff_radius(sa, sb, eps);
        let just_inside = pair_bound(
            &orb(0.0, sa),
            &OrbitalInfo {
                center: Vec3::new(rc - 1e-9, 0.0, 0.0),
                spread: sb,
            },
            None,
        );
        let just_outside = pair_bound(
            &orb(0.0, sa),
            &OrbitalInfo {
                center: Vec3::new(rc + 1e-9, 0.0, 0.0),
                spread: sb,
            },
            None,
        );
        assert!(just_inside >= eps);
        assert!(just_outside < eps);
    }

    #[test]
    fn periodic_screening_wraps() {
        // Two orbitals near opposite faces of the cell are *close* through
        // the boundary.
        let cell = Cell::cubic(20.0);
        let a = orb(0.5, 1.0);
        let b = orb(19.5, 1.0);
        let with_cell = pair_bound(&a, &b, Some(&cell));
        let without = pair_bound(&a, &b, None);
        assert!(with_cell > 0.5); // distance 1.0
        assert!(without < 1e-30); // distance 19.0
    }

    #[test]
    fn weights_encode_multiplicity() {
        let orbs = vec![orb(0.0, 1.0), orb(0.5, 1.0)];
        let pl = build_pair_list(&orbs, 1e-10, None);
        assert_eq!(pl.len(), 3);
        let total_weight: f64 = pl.pairs.iter().map(|p| p.weight).sum();
        // N² ordered pairs = Σ weights = 4.
        assert!(approx_eq(total_weight, 4.0, 1e-15));
    }

    #[test]
    fn celllist_matches_brute_force() {
        use liair_math::rng::SplitMix64;
        // The cell must be several cutoff radii per axis for locality to
        // pay off (rc(1.2, 1.2, 1e-6) ≈ 8.9 Bohr against a 60 Bohr edge);
        // in smaller boxes the bins legitimately cover everything.
        let cell = Cell::cubic(60.0);
        let mut rng = SplitMix64::new(13);
        let orbitals: Vec<OrbitalInfo> = (0..900)
            .map(|_| OrbitalInfo {
                center: Vec3::new(
                    rng.range_f64(0.0, 60.0),
                    rng.range_f64(0.0, 60.0),
                    rng.range_f64(0.0, 60.0),
                ),
                spread: 1.2,
            })
            .collect();
        for eps in [1e-2, 1e-6] {
            let brute = build_pair_list(&orbitals, eps, Some(&cell));
            let fast = build_pair_list_celllist(&orbitals, eps, &cell).unwrap();
            // Canonical order is part of the contract: the sequences match
            // directly, no sorting.
            let key = |pl: &PairList| {
                let v: Vec<(u32, u32)> = pl.pairs.iter().map(|p| (p.i, p.j)).collect();
                v
            };
            assert_eq!(key(&brute), key(&fast), "eps = {eps}");
            // Sub-quadratic sourcing is observable: far fewer candidates
            // inspected than the N(N+1)/2 the brute scan pays.
            assert_eq!(brute.considered, brute.n_candidates);
            assert!(
                fast.considered < fast.n_candidates / 2,
                "considered {} of {}",
                fast.considered,
                fast.n_candidates
            );
            assert!(fast.len() <= fast.considered);
        }
    }

    #[test]
    fn celllist_rejects_unbinnable_eps() {
        let cell = Cell::cubic(10.0);
        let orbs = vec![orb(1.0, 1.0)];
        for eps in [0.0, -1.0, 1.5] {
            let err = build_pair_list_celllist(&orbs, eps, &cell).unwrap_err();
            assert!(
                matches!(err, crate::error::Error::InvalidEps { .. }),
                "eps = {eps}"
            );
        }
    }

    #[test]
    fn source_pairs_routes_and_falls_back() {
        let cell = Cell::cubic(36.0);
        let orbs: Vec<_> = (0..60).map(|k| orb(0.6 * k as f64, 0.5)).collect();
        // Cell + finite eps: the cell-list route, canonical order.
        let sourced = source_pairs(&orbs, 1e-4, Some(&cell));
        let brute = build_pair_list(&orbs, 1e-4, Some(&cell));
        assert_eq!(sourced.pairs, brute.pairs);
        assert!(sourced.considered < sourced.n_candidates);
        // eps = 0 (no finite cutoff) and no-cell both fall back brute.
        assert_eq!(
            source_pairs(&orbs, 0.0, Some(&cell)).considered,
            brute.n_candidates
        );
        assert_eq!(
            source_pairs(&orbs, 1e-4, None).len(),
            build_pair_list(&orbs, 1e-4, None).len()
        );
        // Nothing to bin is not a special case of the cell-list route.
        let none = source_pairs(&[], 1e-4, Some(&cell));
        assert_eq!((none.len(), none.considered, none.n_candidates), (0, 0, 0));
    }

    #[test]
    fn wide_outlier_does_not_degrade_narrow_search() {
        // One wide orbital among many narrow ones: with per-orbital radii
        // only the outlier searches far, so the candidate count stays far
        // below the global-sigma_max regime (which would approach N²/2).
        use liair_math::rng::SplitMix64;
        let cell = Cell::cubic(40.0);
        let mut rng = SplitMix64::new(99);
        let mut orbitals: Vec<OrbitalInfo> = (0..500)
            .map(|_| OrbitalInfo {
                center: Vec3::new(
                    rng.range_f64(0.0, 40.0),
                    rng.range_f64(0.0, 40.0),
                    rng.range_f64(0.0, 40.0),
                ),
                spread: 0.6,
            })
            .collect();
        orbitals[250].spread = 6.0;
        let pl = build_pair_list_celllist(&orbitals, 1e-6, &cell).unwrap();
        let brute = build_pair_list(&orbitals, 1e-6, Some(&cell));
        assert_eq!(pl.pairs, brute.pairs);
        assert!(
            pl.considered < pl.n_candidates / 4,
            "considered {} of {}",
            pl.considered,
            pl.n_candidates
        );
    }

    #[test]
    fn bound_is_symmetric_and_unit_at_zero() {
        let a = orb(0.0, 0.8);
        let b = orb(2.5, 1.7);
        assert!(approx_eq(
            pair_bound(&a, &b, None),
            pair_bound(&b, &a, None),
            1e-15
        ));
        assert!(approx_eq(pair_bound(&a, &a, None), 1.0, 1e-15));
    }
}
