//! Pulay's Direct Inversion in the Iterative Subspace.
//!
//! Stores recent `(Fock, error)` pairs and extrapolates the next Fock
//! matrix as the linear combination minimizing the norm of the combined
//! error, subject to coefficients summing to one (solved via the standard
//! bordered linear system).

use liair_math::linalg::try_solve;
use liair_math::Mat;
use std::collections::VecDeque;

/// DIIS accelerator state.
#[derive(Debug, Clone)]
pub struct Diis {
    depth: usize,
    focks: VecDeque<Mat>,
    errors: VecDeque<Mat>,
}

impl Diis {
    /// New accelerator keeping up to `depth` history entries (≥ 1).
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1);
        Self {
            depth,
            focks: VecDeque::new(),
            errors: VecDeque::new(),
        }
    }

    /// Rebuild an accelerator from checkpointed history (oldest first).
    /// The history is truncated to `depth` from the back, matching what
    /// an uninterrupted run would have retained.
    pub fn from_history(depth: usize, focks: Vec<Mat>, errors: Vec<Mat>) -> Self {
        assert!(depth >= 1);
        assert_eq!(focks.len(), errors.len(), "mismatched DIIS history");
        let skip = focks.len().saturating_sub(depth);
        Self {
            depth,
            focks: focks.into_iter().skip(skip).collect(),
            errors: errors.into_iter().skip(skip).collect(),
        }
    }

    /// Stored `(Fock, error)` history, oldest first (for checkpointing).
    pub fn history(&self) -> (Vec<&Mat>, Vec<&Mat>) {
        (self.focks.iter().collect(), self.errors.iter().collect())
    }

    /// Current worst error element (∞-norm of the latest error), or
    /// `f64::INFINITY` before the first push.
    pub fn latest_error(&self) -> f64 {
        self.errors
            .back()
            .map(|e| e.as_slice().iter().fold(0.0f64, |m, &x| m.max(x.abs())))
            .unwrap_or(f64::INFINITY)
    }

    /// Push a new `(F, error)` pair and return the extrapolated Fock
    /// matrix. Falls back to plain `F` while fewer than two entries exist
    /// or if the DIIS system is ill-conditioned.
    pub fn extrapolate(&mut self, fock: Mat, error: Mat) -> Mat {
        self.focks.push_back(fock);
        self.errors.push_back(error);
        if self.focks.len() > self.depth {
            self.focks.pop_front();
            self.errors.pop_front();
        }
        let m = self.focks.len();
        if m < 2 {
            return self.focks.back().unwrap().clone();
        }
        // Bordered system:  [B  1][c]   [0]
        //                   [1ᵀ 0][λ] = [1]
        let mut a = Mat::zeros(m + 1, m + 1);
        for i in 0..m {
            for j in 0..m {
                let bij: f64 = self.errors[i]
                    .as_slice()
                    .iter()
                    .zip(self.errors[j].as_slice())
                    .map(|(x, y)| x * y)
                    .sum();
                a[(i, j)] = bij;
            }
            a[(i, m)] = 1.0;
            a[(m, i)] = 1.0;
        }
        let mut rhs = vec![0.0; m + 1];
        rhs[m] = 1.0;
        // Near convergence the B block becomes singular; fall back to the
        // latest Fock matrix in that case.
        let coeffs = match try_solve(&a, &rhs) {
            Some(c) if c.iter().take(m).all(|x| x.is_finite()) => c,
            _ => return self.focks.back().unwrap().clone(),
        };
        let n = self.focks[0].nrows();
        let mut out = Mat::zeros(n, self.focks[0].ncols());
        for (i, f) in self.focks.iter().enumerate() {
            out.axpy(coeffs[i], f);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_of(vals: &[f64]) -> Mat {
        Mat::from_vec(1, vals.len(), vals.to_vec())
    }

    #[test]
    fn single_entry_returns_input() {
        let mut d = Diis::new(5);
        let f = mat_of(&[1.0, 2.0]);
        let out = d.extrapolate(f.clone(), mat_of(&[0.5, 0.5]));
        assert_eq!(out, f);
        assert_eq!(d.history().0.len(), 1);
    }

    #[test]
    fn two_opposite_errors_cancel() {
        // Errors e1 = +1, e2 = −1 ⇒ coefficients (½, ½) kill the combined
        // error; extrapolated F is the average.
        let mut d = Diis::new(5);
        d.extrapolate(mat_of(&[0.0]), mat_of(&[1.0]));
        let out = d.extrapolate(mat_of(&[2.0]), mat_of(&[-1.0]));
        assert!((out[(0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn history_is_bounded() {
        let mut d = Diis::new(3);
        for k in 0..10 {
            d.extrapolate(mat_of(&[k as f64]), mat_of(&[1.0 / (k + 1) as f64]));
        }
        assert_eq!(d.history().0.len(), 3);
    }

    #[test]
    fn latest_error_tracks_inf_norm() {
        let mut d = Diis::new(4);
        assert!(d.latest_error().is_infinite());
        d.extrapolate(mat_of(&[0.0]), mat_of(&[0.25, -0.75]));
        assert!((d.latest_error() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn coefficients_sum_to_one_property() {
        // With random errors the extrapolation of identical Fock matrices
        // must return that same matrix (coefficients sum to 1).
        let mut d = Diis::new(6);
        let f = mat_of(&[3.5, -1.25, 0.75]);
        let mut rng = liair_math::rng::SplitMix64::new(11);
        let mut out = f.clone();
        for _ in 0..5 {
            let e = mat_of(&[
                rng.next_f64() - 0.5,
                rng.next_f64() - 0.5,
                rng.next_f64() - 0.5,
            ]);
            out = d.extrapolate(f.clone(), e);
        }
        assert!(out.sub(&f).fro_norm() < 1e-9);
    }
}
