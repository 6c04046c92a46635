//! McMurchie–Davidson building blocks.
//!
//! * [`ECoefs`] — the Hermite expansion coefficients `E_t^{ij}` of the 1-D
//!   Gaussian product `x_A^i x_B^j e^{-a x_A²} e^{-b x_B²}`;
//! * [`hermite_aux_into`] — the Coulomb auxiliary integrals
//!   `R_{tuv}(p, P−C)` for `t + u + v ≤ L` only, from one Boys evaluation
//!   of order `L` and `L` steps of the standard downward-in-`n` recursion.
//!   Every order shares one layout ([`hermite_index`]), so a two-electron
//!   quartet (`L = la+lb+lc+ld`) and a nuclear-attraction pair
//!   (`L = la+lb`) use the same routine. A (pp|pp) quartet evaluates 35
//!   entries from Boys order 4.

use liair_math::special::{boys_into, BOYS_MAX_ORDER};
use liair_math::Vec3;

/// Hermite expansion coefficients for a primitive pair along one axis.
///
/// `get(i, j, t)` returns `E_t^{ij}`; entries with `t > i + j` (or any index
/// out of the constructed range) are zero by construction.
#[derive(Debug, Clone)]
pub struct ECoefs {
    imax: usize,
    jmax: usize,
    /// Flattened `[i][j][t]` with `t` dimension `imax + jmax + 1`.
    data: Vec<f64>,
}

impl ECoefs {
    /// Build the full table for `i ≤ imax`, `j ≤ jmax` given exponents
    /// `a`, `b` and the center separation `qx = Ax − Bx`.
    pub fn new(imax: usize, jmax: usize, qx: f64, a: f64, b: f64) -> Self {
        let p = a + b;
        let mu = a * b / p;
        let xpa = -b * qx / p; // P − A
        let xpb = a * qx / p; // P − B
        let tdim = imax + jmax + 1;
        let mut data = vec![0.0; (imax + 1) * (jmax + 1) * tdim];
        let idx = |i: usize, j: usize, t: usize| (i * (jmax + 1) + j) * tdim + t;
        data[idx(0, 0, 0)] = (-mu * qx * qx).exp();
        // Raise i at j = 0.
        for i in 0..imax {
            for t in 0..=(i + 1) {
                let mut v = xpa * data[idx(i, 0, t)];
                if t > 0 {
                    v += data[idx(i, 0, t - 1)] / (2.0 * p);
                }
                if t < i {
                    v += (t + 1) as f64 * data[idx(i, 0, t + 1)];
                }
                data[idx(i + 1, 0, t)] = v;
            }
        }
        // Raise j for every i.
        for j in 0..jmax {
            for i in 0..=imax {
                for t in 0..=(i + j + 1) {
                    let mut v = xpb * data[idx(i, j, t)];
                    if t > 0 {
                        v += data[idx(i, j, t - 1)] / (2.0 * p);
                    }
                    if t < i + j {
                        v += (t + 1) as f64 * data[idx(i, j, t + 1)];
                    }
                    data[idx(i, j + 1, t)] = v;
                }
            }
        }
        Self { imax, jmax, data }
    }

    /// `E_t^{ij}` (zero outside the stored/valid range).
    #[inline]
    pub fn get(&self, i: usize, j: usize, t: usize) -> f64 {
        if i > self.imax || j > self.jmax || t > i + j {
            return 0.0;
        }
        let tdim = self.imax + self.jmax + 1;
        self.data[(i * (self.jmax + 1) + j) * tdim + t]
    }

    /// `E_t^{ij}` for `t = 0..=i+j`, for `i ≤ imax`, `j ≤ jmax`.
    pub(crate) fn row(&self, i: usize, j: usize) -> &[f64] {
        let start = (i * (self.jmax + 1) + j) * (self.imax + self.jmax + 1);
        &self.data[start..=start + i + j]
    }
}

/// Number of Hermite triples `(t, u, v)` with `t + u + v ≤ l`:
/// `(l+1)(l+2)(l+3)/6` (35 at `l = 4`, a (pp|pp) quartet).
pub const fn hermite_len(l: usize) -> usize {
    (l + 1) * (l + 2) * (l + 3) / 6
}

/// Position of `(t, u, v)` in the one layout every order shares: shells of
/// `n = t + u + v` in increasing `n`; inside a shell, `t` descending, then
/// `v` ascending. So an order-`l` table is the first [`hermite_len`]`(l)`
/// entries of any higher-order one.
pub const fn hermite_index(t: usize, u: usize, v: usize) -> usize {
    let n = t + u + v;
    let m = u + v;
    n * (n + 1) * (n + 2) / 6 + m * (m + 1) / 2 + v
}

/// One step of the `R` recursion for the entry at the same position:
/// `R^n_{tuv} = PC[axis]·R^{n+1}[minus1] + mult·R^{n+1}[minus2]`.
#[derive(Debug, Clone, Copy)]
struct RStep {
    mult: f64,
    axis: u16,
    minus1: u16,
    minus2: u16,
}

/// The recursion of every entry up to [`BOYS_MAX_ORDER`], reducing along
/// the first nonzero index (entry 0 is the Boys value and has no step).
static R_STEPS: [RStep; hermite_len(BOYS_MAX_ORDER)] = r_steps();

const fn r_steps() -> [RStep; hermite_len(BOYS_MAX_ORDER)] {
    let mut steps = [RStep {
        axis: 0,
        mult: 0.0,
        minus1: 0,
        minus2: 0,
    }; hermite_len(BOYS_MAX_ORDER)];
    let mut n = 1;
    while n <= BOYS_MAX_ORDER {
        let mut t = 0;
        while t <= n {
            let mut u = 0;
            while u <= n - t {
                let v = n - t - u;
                // `mult` is zero where the second term is absent; `minus2`
                // then points at entry 0, which always holds a finite value.
                let (axis, k, minus1, minus2) = if t > 0 {
                    let m2 = if t > 1 { hermite_index(t - 2, u, v) } else { 0 };
                    (0, t, hermite_index(t - 1, u, v), m2)
                } else if u > 0 {
                    let m2 = if u > 1 { hermite_index(t, u - 2, v) } else { 0 };
                    (1, u, hermite_index(t, u - 1, v), m2)
                } else {
                    let m2 = if v > 1 { hermite_index(t, u, v - 2) } else { 0 };
                    (2, v, hermite_index(t, u, v - 1), m2)
                };
                steps[hermite_index(t, u, v)] = RStep {
                    mult: (k - 1) as f64,
                    axis,
                    minus1: minus1 as u16,
                    minus2: minus2 as u16,
                };
                u += 1;
            }
            t += 1;
        }
        n += 1;
    }
    steps
}

/// [`hermite_aux_into`] into a fresh table: the tests' one-call form.
#[cfg(test)]
pub(crate) fn hermite_aux(l: usize, p: f64, pc: Vec3) -> Vec<f64> {
    let mut scratch = AuxScratch::default();
    hermite_aux_into(l, p, pc, &mut scratch);
    scratch.r
}

/// Reusable buffers for [`hermite_aux_into`] — the ERI hot loop calls this
/// once per primitive quartet, so allocation there matters.
#[derive(Debug, Default, Clone)]
pub struct AuxScratch {
    /// `R⁰_{tuv}` after a call, in the [`hermite_index`] layout.
    pub r: Vec<f64>,
    /// `(−2p)^n F_n` for `n ≤ l`.
    boys: Vec<f64>,
}

#[cfg(test)]
thread_local! {
    /// `R` tables evaluated on this thread: the tests' exact work count.
    pub(crate) static R_TABLES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Coulomb auxiliary integrals `R_{tuv} = R^0_{tuv}(p, PC)` for every
/// `t + u + v ≤ l`, in the [`hermite_index`] layout
/// ([`hermite_len`]`(l)` entries).
///
/// Recursion (Helgaker–Jørgensen–Olsen §9.9):
/// `R^n_{000} = (−2p)^n F_n(p·|PC|²)`,
/// `R^n_{t+1,u,v} = t·R^{n+1}_{t−1,u,v} + X_PC·R^{n+1}_{t,u,v}` (same per
/// axis). One Boys evaluation of order `l`, then `l` downward steps in `n`;
/// step `n` needs `R^n` only for `t + u + v ≤ l − n`.
///
/// The table is written into reusable scratch storage: it lives in
/// `scratch.r`.
pub fn hermite_aux_into(l: usize, p: f64, pc: Vec3, scratch: &mut AuxScratch) {
    #[cfg(test)]
    R_TABLES.with(|n| n.set(n.get() + 1));
    assert!(
        l <= BOYS_MAX_ORDER,
        "R order {l} above BOYS_MAX_ORDER = {BOYS_MAX_ORDER}"
    );
    let f = &mut scratch.boys;
    f.resize(l + 1, 0.0);
    boys_into(f, p * pc.norm_sqr());
    let mut scale = 1.0;
    for fn_ in f.iter_mut() {
        *fn_ *= scale;
        scale *= -2.0 * p;
    }
    let r = &mut scratch.r;
    r.resize(hermite_len(l), 0.0);
    let pc = [pc.x, pc.y, pc.z];
    // In place: at step n the shells t+u+v = l−n … 1 are overwritten from
    // the top down, each from the two shells below it, which still hold
    // R^{n+1}; entry 0 takes R^n_{000} last.
    r[0] = f[l];
    for n in (0..l).rev() {
        for i in (1..hermite_len(l - n)).rev() {
            let s = &R_STEPS[i];
            r[i] = pc[s.axis as usize] * r[s.minus1 as usize] + s.mult * r[s.minus2 as usize];
        }
        r[0] = f[n];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_math::approx_eq;
    use liair_math::special::boys;
    use std::f64::consts::PI;

    #[test]
    fn e000_is_gaussian_prefactor() {
        let (a, b, qx) = (0.9, 1.7, 0.8);
        let e = ECoefs::new(0, 0, qx, a, b);
        let mu = a * b / (a + b);
        assert!(approx_eq(e.get(0, 0, 0), (-mu * qx * qx).exp(), 1e-14));
    }

    #[test]
    fn overlap_from_e_coefs_matches_closed_form() {
        // 1-D overlap of two unnormalized s Gaussians:
        // ∫ e^{-a x_A²} e^{-b x_B²} dx = E_0^{00} √(π/p).
        let (a, b, qx) = (0.5, 1.25, 1.3);
        let p = a + b;
        let e = ECoefs::new(0, 0, qx, a, b);
        let got = e.get(0, 0, 0) * (PI / p).sqrt();
        let mu = a * b / p;
        let want = (PI / p).sqrt() * (-mu * qx * qx).exp();
        assert!(approx_eq(got, want, 1e-14));
    }

    #[test]
    fn p_s_overlap_odd_symmetry() {
        // Same-center ⟨p|s⟩ overlap must vanish (odd integrand): E_0^{10}
        // with qx = 0 is zero.
        let e = ECoefs::new(1, 0, 0.0, 0.7, 0.7);
        assert!(e.get(1, 0, 0).abs() < 1e-15);
        // And ⟨p|p⟩ same center: E_0^{11} = 1/(2p).
        let e2 = ECoefs::new(1, 1, 0.0, 0.7, 0.7);
        assert!(approx_eq(e2.get(1, 1, 0), 1.0 / (2.0 * 1.4), 1e-14));
    }

    #[test]
    fn e_coefs_sum_rule() {
        // Σ_t E_t^{ij} · t! δ ... simpler: moments identity
        // x_A = (x−P) + PA ⇒ E_0^{10} = X_PA · E_0^{00}.
        let (a, b, qx) = (0.8, 0.3, -0.6);
        let p = a + b;
        let xpa = -b * qx / p;
        let e = ECoefs::new(1, 0, qx, a, b);
        assert!(approx_eq(e.get(1, 0, 0), xpa * e.get(0, 0, 0), 1e-14));
        assert!(approx_eq(e.get(1, 0, 1), e.get(0, 0, 0) / (2.0 * p), 1e-14));
    }

    #[test]
    fn hermite_aux_s_limit() {
        // R_{000} = F_0(p·R²).
        let p = 1.3;
        let pc = Vec3::new(0.4, -0.2, 0.9);
        let r = hermite_aux(0, p, pc);
        let f = boys(0, p * pc.norm_sqr());
        assert_eq!(r.len(), 1);
        assert!(approx_eq(r[0], f[0], 1e-14));
    }

    #[test]
    fn hermite_aux_first_derivative() {
        // R_{100}(PC) = ∂/∂PCx R_000 = X_PC · (−2p) F_1.
        let p = 0.9;
        let pc = Vec3::new(0.7, 0.1, -0.3);
        let r = hermite_aux(1, p, pc);
        let f = boys(1, p * pc.norm_sqr());
        let want = pc.x * (-2.0 * p) * f[1];
        assert!(approx_eq(r[hermite_index(1, 0, 0)], want, 1e-13));
    }

    #[test]
    fn hermite_aux_finite_difference() {
        // Numerically verify R_{010} = ∂R_000/∂PCy via central differences.
        let p = 1.1;
        let pc = Vec3::new(0.3, 0.5, -0.8);
        let h = 1e-5;
        let r = hermite_aux(1, p, pc)[hermite_index(0, 1, 0)];
        let rp = hermite_aux(0, p, pc + Vec3::new(0.0, h, 0.0));
        let rm = hermite_aux(0, p, pc - Vec3::new(0.0, h, 0.0));
        let fd = (rp[0] - rm[0]) / (2.0 * h);
        assert!(approx_eq(r, fd, 1e-7), "{r} vs {fd}");
    }

    #[test]
    fn hermite_index_enumerates_each_order_as_a_prefix() {
        for l in 0..=BOYS_MAX_ORDER {
            let mut seen = vec![false; hermite_len(l)];
            for t in 0..=l {
                for u in 0..=l - t {
                    for v in 0..=l - t - u {
                        let i = hermite_index(t, u, v);
                        assert!(i < hermite_len(l) && !seen[i], "({t},{u},{v}) at order {l}");
                        seen[i] = true;
                    }
                }
            }
        }
    }

    /// `R^n_{tuv}` straight from the recursion's definition, recursively.
    fn r_by_definition(n: usize, t: usize, u: usize, v: usize, p: f64, pc: Vec3, f: &[f64]) -> f64 {
        let rec = |n, t, u, v| r_by_definition(n, t, u, v, p, pc, f);
        if t > 0 {
            let lower = if t > 1 {
                (t - 1) as f64 * rec(n + 1, t - 2, u, v)
            } else {
                0.0
            };
            pc.x * rec(n + 1, t - 1, u, v) + lower
        } else if u > 0 {
            let lower = if u > 1 {
                (u - 1) as f64 * rec(n + 1, t, u - 2, v)
            } else {
                0.0
            };
            pc.y * rec(n + 1, t, u - 1, v) + lower
        } else if v > 0 {
            let lower = if v > 1 {
                (v - 1) as f64 * rec(n + 1, t, u, v - 2)
            } else {
                0.0
            };
            pc.z * rec(n + 1, t, u, v - 1) + lower
        } else {
            (-2.0 * p).powi(n as i32) * f[n]
        }
    }

    #[test]
    fn hermite_aux_matches_the_recursion_by_definition() {
        let (p, pc) = (0.83, Vec3::new(0.6, -1.1, 0.35));
        let l = 6;
        let f = boys(l, p * pc.norm_sqr());
        let r = hermite_aux(l, p, pc);
        assert_eq!(r.len(), hermite_len(l));
        for t in 0..=l {
            for u in 0..=l - t {
                for v in 0..=l - t - u {
                    let want = r_by_definition(0, t, u, v, p, pc, &f);
                    let got = r[hermite_index(t, u, v)];
                    assert!(
                        (got - want).abs() <= 1e-13 * want.abs().max(1e-3),
                        "R_{t}{u}{v}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// The exact work count behind the kernel's speed claim: how many `R`
    /// entries and which Boys order each quartet class evaluates.
    #[test]
    fn r_work_per_quartet_class() {
        // (la, lb, lc, ld) → (R entries, Boys order).
        let classes = [
            ("(ss|ss)", [0, 0, 0, 0], 1, 0),
            ("(ps|ss)", [1, 0, 0, 0], 4, 1),
            ("(ps|ps)", [1, 0, 1, 0], 10, 2),
            ("(pp|ss)", [1, 1, 0, 0], 10, 2),
            ("(pp|ps)", [1, 1, 1, 0], 20, 3),
            ("(pp|pp)", [1, 1, 1, 1], 35, 4),
        ];
        let mut scratch = AuxScratch::default();
        for (name, ls, entries, order) in classes {
            let l: usize = ls.iter().sum();
            hermite_aux_into(l, 0.7, Vec3::new(0.2, 0.4, -0.1), &mut scratch);
            assert_eq!(scratch.r.len(), entries, "{name} R entries");
            assert_eq!(scratch.boys.len() - 1, order, "{name} Boys order");
        }
    }
}
