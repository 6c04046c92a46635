//! 3-vectors and 3×3 matrices for geometry and lattice work.

use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A Cartesian 3-vector (positions, forces, lattice vectors).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Construct from components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// All components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Self { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Self) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Self) -> Self {
        Self::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, o: Self) -> f64 {
        (self - o).norm()
    }

    /// Unit vector in the same direction. Panics on the zero vector.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize the zero vector");
        self / n
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Self) -> Self {
        Self::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Self) -> Self {
        Self::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl Add for Vec3 {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f64) -> Self {
        Self::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Self;
    #[inline]
    fn div(self, s: f64) -> Self {
        Self::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Self) {
        self.x += o.x;
        self.y += o.y;
        self.z += o.z;
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Self) {
        self.x -= o.x;
        self.y -= o.y;
        self.z -= o.z;
    }
}

/// A 3×3 matrix in row-major order (lattice matrices, inertia tensors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Rows of the matrix.
    pub rows: [Vec3; 3],
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        rows: [
            Vec3 {
                x: 1.0,
                y: 0.0,
                z: 0.0,
            },
            Vec3 {
                x: 0.0,
                y: 1.0,
                z: 0.0,
            },
            Vec3 {
                x: 0.0,
                y: 0.0,
                z: 1.0,
            },
        ],
    };

    /// Build from three rows.
    #[inline]
    pub const fn from_rows(r0: Vec3, r1: Vec3, r2: Vec3) -> Self {
        Self { rows: [r0, r1, r2] }
    }

    /// Diagonal matrix.
    #[inline]
    pub fn diag(d: Vec3) -> Self {
        Self::from_rows(
            Vec3::new(d.x, 0.0, 0.0),
            Vec3::new(0.0, d.y, 0.0),
            Vec3::new(0.0, 0.0, d.z),
        )
    }

    /// Determinant.
    #[inline]
    pub fn det(&self) -> f64 {
        self.rows[0].dot(self.rows[1].cross(self.rows[2]))
    }

    /// Transpose.
    #[inline]
    pub fn transpose(&self) -> Self {
        Self::from_rows(
            Vec3::new(self.rows[0].x, self.rows[1].x, self.rows[2].x),
            Vec3::new(self.rows[0].y, self.rows[1].y, self.rows[2].y),
            Vec3::new(self.rows[0].z, self.rows[1].z, self.rows[2].z),
        )
    }

    /// Inverse. Panics if singular (|det| < 1e-300).
    pub fn inverse(&self) -> Self {
        let d = self.det();
        assert!(d.abs() > 1e-300, "Mat3::inverse: singular matrix");
        let [a, b, c] = self.rows;
        // Rows of the inverse are cross products of columns / det; using the
        // adjugate expressed through cross products of rows of the transpose.
        let inv_rows = [b.cross(c) / d, c.cross(a) / d, a.cross(b) / d];
        // Those are the columns of the inverse; transpose to get rows.
        Mat3::from_rows(inv_rows[0], inv_rows[1], inv_rows[2]).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn dot_cross_norm() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 5.0, 6.0);
        assert_eq!(a.dot(b), -4.0 + 10.0 + 18.0);
        let c = a.cross(b);
        // Orthogonality of cross product.
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
        assert!(approx_eq(Vec3::new(3.0, 4.0, 0.0).norm(), 5.0, 1e-15));
    }

    #[test]
    fn normalized_is_unit() {
        let v = Vec3::new(2.0, -7.0, 0.5).normalized();
        assert!(approx_eq(v.norm(), 1.0, 1e-14));
    }

    #[test]
    fn mat3_inverse_roundtrip() {
        let m = Mat3::from_rows(
            Vec3::new(2.0, 1.0, 0.5),
            Vec3::new(-1.0, 3.0, 1.0),
            Vec3::new(0.0, 0.5, 4.0),
        );
        let inv = m.inverse();
        // m * inv should be the identity.
        let id = Mat3::IDENTITY;
        for i in 0..3 {
            let row = m.rows[i];
            let prod = Vec3::new(
                row.dot(Vec3::new(inv.rows[0].x, inv.rows[1].x, inv.rows[2].x)),
                row.dot(Vec3::new(inv.rows[0].y, inv.rows[1].y, inv.rows[2].y)),
                row.dot(Vec3::new(inv.rows[0].z, inv.rows[1].z, inv.rows[2].z)),
            );
            for k in 0..3 {
                assert!(approx_eq(prod[k], id.rows[i][k], 1e-12), "entry ({i},{k})");
            }
        }
    }

    #[test]
    fn mat3_det_of_diag() {
        let m = Mat3::diag(Vec3::new(2.0, 3.0, 4.0));
        assert!(approx_eq(m.det(), 24.0, 1e-15));
    }

    #[test]
    fn index_roundtrip() {
        let mut v = Vec3::ZERO;
        v[0] = 1.0;
        v[1] = 2.0;
        v[2] = 3.0;
        assert_eq!((v.x, v.y, v.z), (1.0, 2.0, 3.0));
    }
}
