//! The Blue Gene/Q 5-D torus interconnect: geometry and routing metrics.

use serde::{Deserialize, Serialize};

/// A 5-dimensional torus of nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Torus5D {
    /// Extent of each dimension (A, B, C, D, E); BG/Q's E dimension is
    /// always 2 on real hardware, but any extents are accepted.
    pub dims: [usize; 5],
}

impl Torus5D {
    /// Construct; every extent must be ≥ 1.
    pub fn new(dims: [usize; 5]) -> Self {
        assert!(dims.iter().all(|&d| d >= 1), "torus extents must be ≥ 1");
        Self { dims }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.dims.iter().product()
    }

    /// Coordinates of a node id (row-major over dimensions).
    pub fn coords(&self, rank: usize) -> [usize; 5] {
        assert!(rank < self.nodes());
        let mut c = [0; 5];
        let mut r = rank;
        for k in (0..5).rev() {
            c[k] = r % self.dims[k];
            r /= self.dims[k];
        }
        c
    }

    /// Node id of coordinates.
    pub fn rank(&self, coords: [usize; 5]) -> usize {
        let mut r = 0;
        for k in 0..5 {
            assert!(coords[k] < self.dims[k]);
            r = r * self.dims[k] + coords[k];
        }
        r
    }

    /// Per-dimension minimum hop distance with wraparound.
    pub fn dim_distance(&self, a: usize, b: usize, dim: usize) -> usize {
        let n = self.dims[dim];
        let d = a.abs_diff(b) % n;
        d.min(n - d)
    }

    /// Dimension-ordered routing hop count between two nodes.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..5).map(|k| self.dim_distance(ca[k], cb[k], k)).sum()
    }

    /// Network diameter (max hop count).
    pub fn diameter(&self) -> usize {
        self.dims.iter().map(|&d| d / 2).sum()
    }

    /// Average hop count under uniform random traffic (per-dimension mean
    /// of the wrapped distance).
    pub fn mean_hops(&self) -> f64 {
        self.dims
            .iter()
            .map(|&n| {
                let nf = n as f64;
                // mean over all pairs of min(d, n−d)
                if n == 1 {
                    0.0
                } else if n % 2 == 0 {
                    nf / 4.0
                } else {
                    (nf * nf - 1.0) / (4.0 * nf)
                }
            })
            .sum()
    }

    /// Number of unidirectional links crossing the smallest bisection.
    /// Bisecting the largest even dimension cuts `2 × nodes/dim_max`
    /// links (wraparound doubles the cut).
    pub fn bisection_links(&self) -> usize {
        let max_dim = *self.dims.iter().max().unwrap();
        if max_dim == 1 {
            return 0;
        }
        2 * self.nodes() / max_dim
    }

    /// The ranks adjacent to `rank` (±1 in each dimension, deduplicated).
    pub fn neighbors(&self, rank: usize) -> Vec<usize> {
        let c = self.coords(rank);
        let mut out = Vec::new();
        for k in 0..5 {
            if self.dims[k] == 1 {
                continue;
            }
            for step in [1, self.dims[k] - 1] {
                let mut n = c;
                n[k] = (c[k] + step) % self.dims[k];
                let r = self.rank(n);
                if r != rank && !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coord_roundtrip() {
        let t = Torus5D::new([4, 3, 2, 5, 2]);
        for r in 0..t.nodes() {
            assert_eq!(t.rank(t.coords(r)), r);
        }
        assert_eq!(t.nodes(), 240);
    }

    #[test]
    fn hop_distance_wraps() {
        let t = Torus5D::new([8, 1, 1, 1, 1]);
        // 0 → 7 is one hop through the wraparound link.
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn hops_is_a_metric() {
        let t = Torus5D::new([4, 4, 2, 3, 2]);
        let (a, b, c) = (5, 77, 130);
        assert_eq!(t.hops(a, a), 0);
        assert_eq!(t.hops(a, b), t.hops(b, a));
        assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
    }

    #[test]
    fn hops_equals_sum_of_dim_distances() {
        // Property: routing distance decomposes per dimension.
        let t = Torus5D::new([3, 4, 5, 2, 2]);
        let mut rng = 12345u64;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng >> 33) as usize % t.nodes()
        };
        for _ in 0..100 {
            let a = next();
            let b = next();
            let ca = t.coords(a);
            let cb = t.coords(b);
            let want: usize = (0..5).map(|k| t.dim_distance(ca[k], cb[k], k)).sum();
            assert_eq!(t.hops(a, b), want);
        }
    }

    #[test]
    fn neighbors_have_hop_one() {
        let t = Torus5D::new([4, 4, 4, 2, 2]);
        let nbrs = t.neighbors(37);
        assert!(!nbrs.is_empty());
        for n in nbrs {
            assert_eq!(t.hops(37, n), 1);
        }
    }

    #[test]
    fn bisection_grows_with_machine() {
        let one_rack = Torus5D::new([4, 4, 4, 8, 2]);
        let full = Torus5D::new([16, 16, 16, 12, 2]);
        assert!(full.bisection_links() > 10 * one_rack.bisection_links());
        assert_eq!(full.nodes(), 98304);
    }

    #[test]
    fn mean_hops_even_dimension() {
        // For a ring of 4: distances to others are 1,2,1 → mean over all
        // (incl. self) is (0+1+2+1)/4 = 1 = n/4.
        let t = Torus5D::new([4, 1, 1, 1, 1]);
        assert!((t.mean_hops() - 1.0).abs() < 1e-12);
    }
}
