//! The uniform-bin spatial index behind the locality-aware pair source.
//!
//! Points are dropped into a regular grid of bins and a range query visits
//! only the bins a ball of radius `r` can reach, so sourcing partners costs
//! O(N·partners) instead of O(N²). The index knows nothing about orbitals,
//! spreads or ε: it hands back *candidate* ids, a superset of the points
//! within `r`, and every caller applies its own exact filter
//! ([`crate::screening::pair_bound`]) and claim rule on top — which is why
//! the lists it feeds are bit-identical to the brute scan's.
//!
//! The periodic cell list ([`crate::screening::build_pair_list_celllist`])
//! sits on it; the index spans the cell and its queries wrap.

use liair_basis::Cell;
use liair_math::Vec3;

/// Relative inflation of every cutoff radius that is compared against a
/// distance or converted to a bin count — the one rounding guard of the
/// pair sources. A pair whose bound lands exactly on ε is kept by the
/// `≥ ε` screening rule, but the radius it was converted to and the
/// quotients `radius / bin width` and `(x ± radius) / bin width` each round;
/// 1e-12 is far above those few ulps and far below any physical length,
/// so a partner can never be lost to rounding and the candidate sets grow
/// by nothing measurable.
const RADIUS_SLACK: f64 = 1.0 + 1e-12;

/// Points binned on a regular grid over a periodic [`Cell`] (queries
/// wrap).
pub(crate) struct BinIndex {
    cell: Cell,
    width: [f64; 3],
    nb: [usize; 3],
    bins: Vec<Vec<u32>>,
}

impl BinIndex {
    /// Bin `points` (ids are positions in the iteration order) with bins
    /// as close to `target` wide as divides the extent evenly, never
    /// narrower. The bin count per axis is capped at `2·⌈∛N⌉`, ~8N bins in
    /// all, so sparse systems in huge cells stay O(N).
    pub(crate) fn build(
        points: impl Iterator<Item = Vec3> + Clone,
        target: f64,
        cell: &Cell,
    ) -> BinIndex {
        let n = points.clone().count();
        let ext = [cell.lengths.x, cell.lengths.y, cell.lengths.z];
        let cap = (((n as f64).cbrt().ceil() as usize) * 2).max(1);
        let nb = ext.map(|l| ((l / target.max(1e-9)).floor() as usize).clamp(1, cap));
        let width = [0, 1, 2].map(|k| ext[k] / nb[k] as f64);
        let mut index = BinIndex {
            cell: *cell,
            width,
            nb,
            bins: vec![Vec::new(); nb[0] * nb[1] * nb[2]],
        };
        for (id, p) in points.enumerate() {
            let b = index.bin_of(p);
            index.bins[b].push(id as u32);
        }
        index
    }

    /// Bin of coordinate `x` along axis `k`, clamped to the grid (a
    /// wrapped coordinate may round onto the upper cell face).
    fn axis_bin(&self, k: usize, x: f64) -> i64 {
        ((x / self.width[k]).floor() as i64).clamp(0, self.nb[k] as i64 - 1)
    }

    /// The (flat, x-major) bin holding `p`.
    fn bin_of(&self, p: Vec3) -> usize {
        let p = self.cell.wrap(p);
        let b = [0, 1, 2].map(|k| self.axis_bin(k, p[k]) as usize);
        (b[0] * self.nb[1] + b[1]) * self.nb[2] + b[2]
    }

    /// Call `f` with the id of every point in a bin the ball of radius
    /// `r·`[`RADIUS_SLACK`] around `p` can reach — each bin, and so each
    /// id, exactly once. Bins are visited x-major and ids ascending within
    /// a bin.
    ///
    /// Each axis visits whole shells, `⌈r / width⌉` bins either side of
    /// `p`'s own, wrapping around the cell and stopping at one full turn
    /// when the shells cover the axis.
    pub(crate) fn for_each_within(&self, p: Vec3, r: f64, mut f: impl FnMut(u32)) {
        let r = r * RADIUS_SLACK;
        let p = self.cell.wrap(p);
        // Per axis: first bin (wrapped into the grid) and how many to visit.
        let span = [0, 1, 2].map(|k| {
            let nb = self.nb[k] as i64;
            let shells = (r / self.width[k]).ceil() as i64;
            let home = self.axis_bin(k, p[k]);
            let first = (home - shells).rem_euclid(nb) as usize;
            (first, (2 * shells + 1).min(nb) as usize)
        });
        // `t < count ≤ nb` past a first bin `< nb`: one subtraction wraps.
        let bin = |k: usize, t: usize| {
            let b = span[k].0 + t;
            if b >= self.nb[k] {
                b - self.nb[k]
            } else {
                b
            }
        };
        for tx in 0..span[0].1 {
            let bx = bin(0, tx) * self.nb[1];
            for ty in 0..span[1].1 {
                let bxy = (bx + bin(1, ty)) * self.nb[2];
                for tz in 0..span[2].1 {
                    self.bins[bxy + bin(2, tz)].iter().for_each(|&id| f(id));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_math::rng::SplitMix64;

    /// Ids the query reports, sorted; panics if any id is reported twice.
    fn candidates(index: &BinIndex, p: Vec3, r: f64) -> Vec<u32> {
        let mut out = Vec::new();
        index.for_each_within(p, r, |id| out.push(id));
        out.sort_unstable();
        let n = out.len();
        out.dedup();
        assert_eq!(out.len(), n, "a bin was visited twice");
        out
    }

    /// The contract: the candidates are a duplicate-free superset of the
    /// brute filter `distance ≤ r` (minimum image).
    fn assert_covers(points: &[Vec3], target: f64, cell: &Cell, queries: &[(Vec3, f64)]) {
        let index = BinIndex::build(points.iter().copied(), target, cell);
        for &(q, r) in queries {
            let got = candidates(&index, q, r);
            for (id, &p) in points.iter().enumerate() {
                let d = cell.distance(q, p);
                if d <= r {
                    assert!(
                        got.binary_search(&(id as u32)).is_ok(),
                        "point {id} at distance {d} missed by the r = {r} query at {q:?}"
                    );
                }
            }
        }
    }

    fn random_points(seed: u64, n: usize, edge: f64) -> Vec<Vec3> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.range_f64(0.0, edge),
                    rng.range_f64(0.0, edge),
                    rng.range_f64(0.0, edge),
                )
            })
            .collect()
    }

    #[test]
    fn query_is_a_duplicate_free_superset_of_the_brute_filter() {
        let edge = 20.0;
        let cell = Cell::cubic(edge);
        let mut points = random_points(5, 150, edge);
        // Points exactly on bin edges (target 4 → 5 bins of width 4) and
        // on the cell faces.
        points.extend([
            Vec3::new(4.0, 8.0, 12.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(edge, 16.0, 4.0),
        ]);
        let mut queries: Vec<(Vec3, f64)> = random_points(6, 20, edge)
            .into_iter()
            .zip([0.5, 3.9, 4.0, 7.3].into_iter().cycle())
            .collect();
        queries.extend([
            // On a bin edge, reaching exactly to the next edges.
            (Vec3::new(8.0, 8.0, 8.0), 4.0),
            // A periodic image of an interior point.
            (Vec3::new(-3.0, 25.0, 10.0), 5.0),
            // Larger than the cell: every bin once, not once per image.
            (Vec3::new(1.0, 2.0, 3.0), 3.0 * edge),
        ]);
        assert_covers(&points, 4.0, &cell, &queries);
        // One bin per axis (target wider than the cell).
        assert_covers(&points, 50.0, &cell, &queries);
        // The whole-cell query reports every point exactly once.
        let index = BinIndex::build(points.iter().copied(), 4.0, &cell);
        let all = candidates(&index, Vec3::new(1.0, 2.0, 3.0), 3.0 * edge);
        assert_eq!(all.len(), points.len());
    }

    #[test]
    fn empty_and_degenerate_inputs_are_queryable() {
        let cell = Cell::cubic(10.0);
        let empty = BinIndex::build(std::iter::empty(), 2.0, &cell);
        assert!(candidates(&empty, Vec3::splat(1.0), 100.0).is_empty());
        // Coincident points.
        let same = [Vec3::splat(3.0); 4];
        let index = BinIndex::build(same.iter().copied(), 2.0, &cell);
        assert_eq!(candidates(&index, Vec3::splat(3.5), 1.0).len(), 4);
    }
}
