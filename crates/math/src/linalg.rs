//! Dense real linear algebra sized for quantum-chemistry matrices
//! (basis-set dimensions of up to a few hundred).
//!
//! * [`Mat`] — row-major dense matrix with the handful of BLAS-like
//!   operations the SCF needs (products are rayon-threaded above a cutoff).
//! * [`eigh`] — cyclic Jacobi eigensolver for symmetric matrices: O(n³) per
//!   sweep but unconditionally robust, which matters more than speed at the
//!   basis sizes we run.
//! * [`solve`] — LU with partial pivoting (DIIS systems are tiny).

use rayon::prelude::*;

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

/// Below this element count, products run sequentially (threading overhead
/// dominates for tiny SCF matrices).
const PAR_CUTOFF: usize = 64 * 64;

impl Mat {
    /// Zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Wrap a flat row-major buffer.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "Mat size mismatch");
        Self { nrows, ncols, data }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(nrows: usize, ncols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self · other` (rayon-threaded above a size cutoff).
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.ncols, other.nrows, "matmul shape mismatch");
        let (n, k, m) = (self.nrows, self.ncols, other.ncols);
        let mut out = Mat::zeros(n, m);
        let body = |(i, orow): (usize, &mut [f64])| {
            let arow = &self.data[i * k..(i + 1) * k];
            for (p, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[p * m..(p + 1) * m];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        };
        if n * m >= PAR_CUTOFF {
            out.data.par_chunks_mut(m).enumerate().for_each(body);
        } else {
            out.data.chunks_mut(m).enumerate().for_each(body);
        }
        out
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.ncols, v.len());
        (0..self.nrows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `self + other`.
    pub fn add(&self, other: &Mat) -> Mat {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Mat::from_vec(self.nrows, self.ncols, data)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Mat) -> Mat {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Mat::from_vec(self.nrows, self.ncols, data)
    }

    /// `self * s` (scalar).
    pub fn scale(&self, s: f64) -> Mat {
        let data = self.data.iter().map(|a| a * s).collect();
        Mat::from_vec(self.nrows, self.ncols, data)
    }

    /// In-place `self += s * other` (axpy).
    pub fn axpy(&mut self, s: f64, other: &Mat) {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Trace.
    pub fn trace(&self) -> f64 {
        assert_eq!(self.nrows, self.ncols);
        (0..self.nrows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Largest absolute off-diagonal asymmetry `max |a_ij − a_ji|`.
    pub fn asymmetry(&self) -> f64 {
        assert_eq!(self.nrows, self.ncols);
        let mut worst = 0.0f64;
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// `Tr(A·B)` without forming the product (both square, same size).
    pub fn trace_product(&self, other: &Mat) -> f64 {
        assert_eq!(self.ncols, other.nrows);
        assert_eq!(self.nrows, other.ncols);
        let mut acc = 0.0;
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                acc += self[(i, j)] * other[(j, i)];
            }
        }
        acc
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

/// Symmetric eigendecomposition by cyclic Jacobi rotations.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending and the
/// `k`-th *column* of the eigenvector matrix matching `eigenvalues[k]`.
/// Panics if `a` is not square; the strictly-lower triangle is ignored
/// (callers pass symmetric matrices).
pub fn eigh(a: &Mat) -> (Vec<f64>, Mat) {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "eigh requires a square matrix");
    let mut m = a.clone();
    // Symmetrize defensively against round-off in the caller's assembly.
    for i in 0..n {
        for j in (i + 1)..n {
            let s = 0.5 * (m[(i, j)] + m[(j, i)]);
            m[(i, j)] = s;
            m[(j, i)] = s;
        }
    }
    let mut v = Mat::identity(n);
    let max_sweeps = 100;
    for _sweep in 0..max_sweeps {
        // Off-diagonal Frobenius mass.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() < 1e-14 * (1.0 + m.fro_norm()) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tan of the rotation angle.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation G(p,q,θ) from both sides: M ← GᵀMG.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    // Collect and sort ascending, permuting eigenvector columns alongside.
    let mut order: Vec<usize> = (0..n).collect();
    let evals: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    order.sort_by(|&i, &j| evals[i].partial_cmp(&evals[j]).unwrap());
    let sorted_vals: Vec<f64> = order.iter().map(|&i| evals[i]).collect();
    let mut sorted_vecs = Mat::zeros(n, n);
    for (new_col, &old_col) in order.iter().enumerate() {
        for r in 0..n {
            sorted_vecs[(r, new_col)] = v[(r, old_col)];
        }
    }
    (sorted_vals, sorted_vecs)
}

/// `S^{-1/2}` of a symmetric positive-definite matrix (Löwdin symmetric
/// orthogonalization). Panics if any eigenvalue ≤ `1e-10` (linearly
/// dependent basis).
pub fn sym_inv_sqrt(s: &Mat) -> Mat {
    let (vals, vecs) = eigh(s);
    let n = s.nrows();
    assert!(
        vals.iter().all(|&v| v > 1e-10),
        "sym_inv_sqrt: matrix not positive definite (min eig {:?})",
        vals.first()
    );
    // V · diag(1/√λ) · Vᵀ
    let mut scaled = vecs.clone();
    for j in 0..n {
        let f = 1.0 / vals[j].sqrt();
        for i in 0..n {
            scaled[(i, j)] *= f;
        }
    }
    scaled.matmul(&vecs.transpose())
}

/// Solve `A x = b` by LU with partial pivoting. Panics on exactly singular
/// pivots; use [`try_solve`] where near-singularity is expected.
pub fn solve(a: &Mat, b: &[f64]) -> Vec<f64> {
    try_solve(a, b).expect("solve: singular matrix")
}

/// Fallible LU solve: `None` when a pivot vanishes (singular system).
pub fn try_solve(a: &Mat, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.nrows();
    assert_eq!(n, a.ncols());
    assert_eq!(n, b.len());
    let mut lu = a.clone();
    let mut x: Vec<f64> = b.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();
    for col in 0..n {
        // Pivot selection.
        let mut best = col;
        let mut best_val = lu[(perm[col], col)].abs();
        for row in (col + 1)..n {
            let v = lu[(perm[row], col)].abs();
            if v > best_val {
                best = row;
                best_val = v;
            }
        }
        if best_val <= 1e-300 {
            return None;
        }
        perm.swap(col, best);
        let prow = perm[col];
        let pivot = lu[(prow, col)];
        for row in (col + 1)..n {
            let r = perm[row];
            let f = lu[(r, col)] / pivot;
            if f == 0.0 {
                continue;
            }
            lu[(r, col)] = f;
            for j in (col + 1)..n {
                let delta = f * lu[(prow, j)];
                lu[(r, j)] -= delta;
            }
            x[r] -= f * x[prow];
        }
    }
    // Back substitution.
    let mut out = vec![0.0; n];
    for col in (0..n).rev() {
        let r = perm[col];
        let mut acc = x[r];
        for j in (col + 1)..n {
            acc -= lu[(r, j)] * out[j];
        }
        out[col] = acc / lu[(r, col)];
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::rng::SplitMix64;

    fn random_sym(n: usize, seed: u64) -> Mat {
        let mut rng = SplitMix64::new(seed);
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rng.next_f64() - 0.5;
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    }

    #[test]
    fn matmul_against_hand_example() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_sym(5, 3);
        let i = Mat::identity(5);
        assert!(a.matmul(&i).sub(&a).fro_norm() < 1e-14);
        assert!(i.matmul(&a).sub(&a).fro_norm() < 1e-14);
    }

    #[test]
    fn eigh_reconstructs_matrix() {
        let a = random_sym(8, 11);
        let (vals, vecs) = eigh(&a);
        // A = V diag(λ) Vᵀ
        let mut lam = Mat::zeros(8, 8);
        for i in 0..8 {
            lam[(i, i)] = vals[i];
        }
        let rec = vecs.matmul(&lam).matmul(&vecs.transpose());
        assert!(
            rec.sub(&a).fro_norm() < 1e-10,
            "err {}",
            rec.sub(&a).fro_norm()
        );
        // Eigenvalues ascending.
        for k in 1..vals.len() {
            assert!(vals[k] >= vals[k - 1]);
        }
        // Orthonormal eigenvectors.
        let vtv = vecs.transpose().matmul(&vecs);
        assert!(vtv.sub(&Mat::identity(8)).fro_norm() < 1e-10);
    }

    #[test]
    fn eigh_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Mat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let (vals, _) = eigh(&a);
        assert!(approx_eq(vals[0], 1.0, 1e-12));
        assert!(approx_eq(vals[1], 3.0, 1e-12));
    }

    #[test]
    fn sym_inv_sqrt_property() {
        // X = S^{-1/2} must satisfy X·S·X = I.
        let mut s = random_sym(6, 21);
        // Make SPD: S ← SᵀS + I
        s = s.transpose().matmul(&s);
        for i in 0..6 {
            s[(i, i)] += 1.0;
        }
        let x = sym_inv_sqrt(&s);
        let should_be_identity = x.matmul(&s).matmul(&x);
        assert!(should_be_identity.sub(&Mat::identity(6)).fro_norm() < 1e-9);
    }

    #[test]
    fn solve_roundtrip() {
        let mut rng = SplitMix64::new(77);
        let n = 9;
        let a = Mat::from_fn(n, n, |_, _| rng.next_f64() - 0.5);
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 4.0).collect();
        let b = a.matvec(&x_true);
        let x = solve(&a, &b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!(approx_eq(*got, *want, 1e-9), "{got} vs {want}");
        }
    }

    #[test]
    fn solve_uses_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = Mat::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[3.0, 4.0]);
        assert!(approx_eq(x[0], 4.0, 1e-14));
        assert!(approx_eq(x[1], 3.0, 1e-14));
    }

    #[test]
    fn trace_and_trace_product_agree() {
        let a = random_sym(5, 1);
        let b = random_sym(5, 2);
        let direct = a.matmul(&b).trace();
        assert!(approx_eq(a.trace_product(&b), direct, 1e-12));
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }
}
