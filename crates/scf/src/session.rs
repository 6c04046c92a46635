//! The SCF loop: the one place in the workspace that iterates a closed-shell
//! SCF, one [`ScfSession::step`] at a time, with checkpoint/restart.
//!
//! Construction builds the immutable per-calculation context (integrals,
//! orthogonalizer, XC grid, Schwarz bounds) and the first density, from
//! the core-Hamiltonian orbitals or a caller's warm-start guess. Each step
//! builds J and K for the current density, forms the Fock matrix of the
//! method, extrapolates it with DIIS, diagonalizes, and tests convergence
//! (energy change below `energy_tol` and DIIS error below 1e-6). `rhf`
//! and `rks_lda` run sessions to completion.
//!
//! Exchange is one term of the loop, with two sources: the analytic build
//! ([`ScfSession::new`]) or a caller-supplied operator on the occupied
//! orbitals ([`ScfSession::with_exchange`]). The grid-exchange SCF of
//! `liair-md`'s `IncrementalGridForces` is the second: its closure calls
//! `liair_core::IncrementalExchange::exchange_operator` on AO fields
//! evaluated once for the geometry, as RKS-LDA's density contracts AO
//! values at the XC grid points evaluated once, in the context.
//!
//! A serve job interrupted between iterations captures an
//! [`ScfCheckpoint`] — every mutable loop variable (density, DIIS history,
//! incremental-Fock accumulators, energies, latest orbitals) as raw
//! IEEE-754 bits — and a later [`ScfSession::resume`] rebuilds the
//! immutable context deterministically from the same molecule/basis and
//! continues the iteration sequence **bit-identically** to an
//! uninterrupted run (property-tested in `tests/session_props.rs`). The
//! context is deliberately *not* serialized: it is a pure function of the
//! inputs and dwarfs the loop state. Neither is a caller's operator, so
//! its checkpoint carries its own magic tag: resuming it as analytic, or
//! an analytic one with an operator, fails with [`CodecError::BadMagic`]
//! instead of switching the exchange source.
//!
//! The stream (layout version 2) carries the four [`ScfOptions`] fields
//! and no DIIS depth: the depth, the DIIS error threshold, the XC grid and
//! the incremental-Fock rebuild cadence are constants of this crate, so a
//! stream cannot set them. Any other version is refused with
//! [`CodecError::BadVersion`].

use crate::diis::Diis;
use crate::driver::{
    EnergyBreakdown, Method, ScfOptions, ScfResult, DIIS_DEPTH, DIIS_ERROR_TOL, FOCK_REBUILD_EVERY,
    XC_GRID_RADIAL, XC_GRID_THETA,
};
use liair_basis::{Basis, Molecule};
use liair_grid::orbital::density_from_aos;
use liair_grid::MolGrid;
use liair_integrals::{kinetic_matrix, nuclear_matrix, overlap_matrix, JkBuilder};
use liair_math::codec::{CodecError, Decoder, Encoder};
use liair_math::linalg::{eigh, sym_inv_sqrt};
use liair_math::Mat;
use liair_xc::lda;
use liair_xc::lda::lda_exc;

/// Magic tag for SCF checkpoint streams (`"LSC1"`).
const MAGIC: u32 = 0x4C53_4331;
/// Magic tag for the checkpoints of a session whose exchange matrix the
/// caller supplies (`"LSCK"`); the layout is [`MAGIC`]'s.
const MAGIC_OPERATOR: u32 = 0x4C53_434B;
/// Layout version; a stream of any other version is refused.
const VERSION: u16 = 2;

/// The magic tag of a session with (`true`) or without a caller's operator.
fn magic(operator: bool) -> u32 {
    if operator {
        MAGIC_OPERATOR
    } else {
        MAGIC
    }
}

/// Immutable per-calculation context, deterministic in the inputs.
struct ScfContext<'a> {
    n: usize,
    nocc: usize,
    s: Mat,
    h: Mat,
    x: Mat,
    e_nuc: f64,
    molgrid: Option<MolGrid>,
    /// AO values at the `molgrid` points (RKS only), evaluated once.
    ao_at_pts: Option<Vec<Vec<f64>>>,
    jk_builder: JkBuilder<'a>,
}

impl<'a> ScfContext<'a> {
    fn build(mol: &Molecule, basis: &'a Basis, method: Method) -> ScfContext<'a> {
        let n = basis.nao();
        let nocc = mol.nocc();
        assert!(nocc >= 1, "no electrons to converge");
        assert!(
            nocc <= n,
            "basis too small: {nocc} occupied orbitals, {n} AOs"
        );
        let s = overlap_matrix(basis);
        let h = kinetic_matrix(basis).add(&nuclear_matrix(basis, mol));
        let x = sym_inv_sqrt(&s);
        let molgrid = if method == Method::RksLda {
            Some(MolGrid::becke(mol, XC_GRID_RADIAL, XC_GRID_THETA))
        } else {
            None
        };
        let ao_at_pts = molgrid
            .as_ref()
            .map(|g| liair_grid::ao_values_at_points(basis, &g.points));
        ScfContext {
            n,
            nocc,
            s,
            h,
            x,
            e_nuc: mol.nuclear_repulsion(),
            molgrid,
            ao_at_pts,
            jk_builder: JkBuilder::new(basis),
        }
    }
}

/// The mutable SCF loop state — exactly what a checkpoint captures.
struct ScfLoopState {
    density: Mat,
    diis: Diis,
    d_ref: Option<Mat>,
    j_acc: Mat,
    k_acc: Mat,
    builds_since_full: usize,
    energy: f64,
    breakdown: EnergyBreakdown,
    /// The orbitals `density` was assembled from.
    c_final: Mat,
    eps_final: Vec<f64>,
    converged: bool,
    iterations: usize,
}

/// An in-flight SCF calculation: step it, checkpoint it, resume it.
pub struct ScfSession<'a> {
    method: Method,
    opts: ScfOptions,
    ctx: ScfContext<'a>,
    st: ScfLoopState,
    /// The caller's exchange operator; `None` builds K analytically.
    exchange: Option<&'a mut dyn FnMut(&Mat) -> Mat>,
}

impl<'a> ScfSession<'a> {
    /// Build the context and core-guess density; no iterations run yet.
    pub fn new(
        mol: &Molecule,
        basis: &'a Basis,
        opts: &ScfOptions,
        method: Method,
    ) -> ScfSession<'a> {
        Self::start(mol, basis, opts, method, None, None)
    }

    /// An RHF session whose exchange matrix comes from `exchange` instead
    /// of the analytic build. Every step calls it once with the `nao ×
    /// nocc` occupied coefficients the current density was assembled from;
    /// it returns K in the analytic `K(D)` convention, `2 Σ_j (μj|jν)`.
    /// J and the one-electron terms stay analytic. `guess` warm-starts the
    /// first density from a previous [`ScfResult::c`] (`nao × nao`; its
    /// first `nocc` columns); `None` starts from the core Hamiltonian.
    pub fn with_exchange(
        mol: &Molecule,
        basis: &'a Basis,
        opts: &ScfOptions,
        exchange: &'a mut dyn FnMut(&Mat) -> Mat,
        guess: Option<&Mat>,
    ) -> ScfSession<'a> {
        Self::start(mol, basis, opts, Method::Rhf, Some(exchange), guess)
    }

    fn start(
        mol: &Molecule,
        basis: &'a Basis,
        opts: &ScfOptions,
        method: Method,
        exchange: Option<&'a mut dyn FnMut(&Mat) -> Mat>,
        guess: Option<&Mat>,
    ) -> ScfSession<'a> {
        let ctx = ScfContext::build(mol, basis, method);
        let n = ctx.n;
        let c = match guess {
            Some(c) => {
                // Square, like every `ScfResult::c`, so a checkpoint taken
                // before the first step still resumes.
                assert_eq!(
                    (c.nrows(), c.ncols()),
                    (n, n),
                    "warm-start orbitals are nao × nao"
                );
                c.clone()
            }
            None => orbitals_from_fock(&ctx.h, &ctx.x).1,
        };
        let density = assemble_density(&c, ctx.nocc);
        let e_nuc = ctx.e_nuc;
        ScfSession {
            method,
            opts: *opts,
            ctx,
            exchange,
            st: ScfLoopState {
                density,
                diis: Diis::new(DIIS_DEPTH),
                d_ref: None,
                j_acc: Mat::zeros(n, n),
                k_acc: Mat::zeros(n, n),
                builds_since_full: 0,
                energy: 0.0,
                breakdown: EnergyBreakdown {
                    e_nuc,
                    ..Default::default()
                },
                c_final: c,
                eps_final: vec![0.0; n],
                converged: false,
                iterations: 0,
            },
        }
    }

    /// Iterations completed so far.
    pub fn iterations(&self) -> usize {
        self.st.iterations
    }

    /// `true` once both convergence criteria were met.
    pub fn converged(&self) -> bool {
        self.st.converged
    }

    /// `true` when stepping is over: converged or out of iterations.
    pub fn done(&self) -> bool {
        self.st.converged || self.st.iterations >= self.opts.max_iter
    }

    /// Advance one SCF iteration (no-op once [`ScfSession::done`]).
    /// Returns `true` while further stepping is useful.
    pub fn step(&mut self) -> bool {
        if self.done() {
            return false;
        }
        let ctx = &self.ctx;
        let st = &mut self.st;
        let opts = &self.opts;
        st.iterations += 1;
        let it = st.iterations;
        let (j, k) = if opts.incremental_fock {
            let full = st.d_ref.is_none() || st.builds_since_full + 1 >= FOCK_REBUILD_EVERY;
            if full {
                let (jf, kf) = ctx.jk_builder.build(&st.density, opts.schwarz_tol);
                st.j_acc = jf;
                st.k_acc = kf;
                st.builds_since_full = 0;
            } else {
                let delta = st.density.sub(st.d_ref.as_ref().unwrap());
                let (dj, dk) = ctx
                    .jk_builder
                    .build_density_screened(&delta, opts.schwarz_tol);
                st.j_acc.axpy(1.0, &dj);
                st.k_acc.axpy(1.0, &dk);
                st.builds_since_full += 1;
            }
            st.d_ref = Some(st.density.clone());
            (st.j_acc.clone(), st.k_acc.clone())
        } else {
            ctx.jk_builder.build(&st.density, opts.schwarz_tol)
        };
        let k = match self.exchange.as_mut() {
            Some(op) => op(&Mat::from_fn(ctx.n, ctx.nocc, |mu, i| st.c_final[(mu, i)])),
            None => k,
        };
        let e_nuc = ctx.e_nuc;
        let (fock, e_elec, bd) = match self.method {
            Method::Rhf => {
                let mut f = ctx.h.clone();
                f.axpy(1.0, &j);
                f.axpy(-0.5, &k);
                let e_core = st.density.trace_product(&ctx.h);
                let e_coul = 0.5 * st.density.trace_product(&j);
                let e_exch = -0.25 * st.density.trace_product(&k);
                (
                    f,
                    e_core + e_coul + e_exch,
                    EnergyBreakdown {
                        e_nuc,
                        e_core,
                        e_coulomb: e_coul,
                        e_exchange: e_exch,
                        e_xc: 0.0,
                    },
                )
            }
            Method::RksLda => {
                let grid = ctx.molgrid.as_ref().unwrap();
                let aos = ctx.ao_at_pts.as_ref().unwrap();
                let n = ctx.n;
                let (nvals, _) = density_from_aos(aos, None, &st.density);
                // V_xc matrix: Σ_p w_p v_xc(n_p) χ_μ(p) χ_ν(p).
                let vxc_pts: Vec<f64> = nvals.iter().map(|&d| lda::lda_vxc(d)).collect();
                let mut vxc = Mat::zeros(n, n);
                for mu in 0..n {
                    for nu in 0..=mu {
                        let mut acc = 0.0;
                        for p in 0..grid.len() {
                            acc += grid.weights[p] * vxc_pts[p] * aos[mu][p] * aos[nu][p];
                        }
                        vxc[(mu, nu)] = acc;
                        vxc[(nu, mu)] = acc;
                    }
                }
                let e_xc: f64 = nvals
                    .iter()
                    .zip(&grid.weights)
                    .map(|(&d, &w)| w * d * lda_exc(d))
                    .sum();
                let mut f = ctx.h.clone();
                f.axpy(1.0, &j);
                f.axpy(1.0, &vxc);
                let e_core = st.density.trace_product(&ctx.h);
                let e_coul = 0.5 * st.density.trace_product(&j);
                (
                    f,
                    e_core + e_coul + e_xc,
                    EnergyBreakdown {
                        e_nuc,
                        e_core,
                        e_coulomb: e_coul,
                        e_exchange: 0.0,
                        e_xc,
                    },
                )
            }
        };

        let new_energy = e_elec + e_nuc;
        // DIIS error FDS − SDF.
        let fds = fock.matmul(&st.density).matmul(&ctx.s);
        let err = fds.sub(&fds.transpose());
        let fock_x = st.diis.extrapolate(fock, err);
        let diis_err = st.diis.latest_error();

        // New density.
        let (eps, c) = orbitals_from_fock(&fock_x, &ctx.x);
        st.density = assemble_density(&c, ctx.nocc);
        let de = (new_energy - st.energy).abs();
        st.energy = new_energy;
        st.breakdown = bd;
        st.c_final = c;
        st.eps_final = eps;
        if it > 1 && de < opts.energy_tol && diis_err < DIIS_ERROR_TOL {
            st.converged = true;
        }
        !self.done()
    }

    /// Step until convergence or `max_iter`, then package the result.
    pub fn run_to_completion(mut self) -> ScfResult {
        while self.step() {}
        self.into_result()
    }

    /// The result as of the current iteration (converged or not).
    pub fn into_result(self) -> ScfResult {
        ScfResult {
            energy: self.st.energy,
            orbital_energies: self.st.eps_final,
            c: self.st.c_final,
            density: self.st.density,
            nocc: self.ctx.nocc,
            iterations: self.st.iterations,
            converged: self.st.converged,
            breakdown: self.st.breakdown,
            method: self.method,
        }
    }

    /// Latest total energy (0.0 before the first step).
    pub fn energy(&self) -> f64 {
        self.st.energy
    }

    /// Capture every mutable loop variable, bit-exact.
    pub fn checkpoint(&self) -> ScfCheckpoint {
        let st = &self.st;
        let mut e = Encoder::with_magic(magic(self.exchange.is_some()), VERSION);
        e.put_u8(match self.method {
            Method::Rhf => 0,
            Method::RksLda => 1,
        });
        put_opts(&mut e, &self.opts);
        e.put_usize(self.ctx.n);
        put_mat(&mut e, &st.density);
        // DIIS history, oldest first.
        let (focks, errors) = st.diis.history();
        e.put_usize(focks.len());
        for (f, er) in focks.iter().zip(&errors) {
            put_mat(&mut e, f);
            put_mat(&mut e, er);
        }
        match &st.d_ref {
            Some(d) => {
                e.put_bool(true);
                put_mat(&mut e, d);
            }
            None => e.put_bool(false),
        }
        put_mat(&mut e, &st.j_acc);
        put_mat(&mut e, &st.k_acc);
        e.put_usize(st.builds_since_full);
        e.put_f64(st.energy);
        for v in [
            st.breakdown.e_nuc,
            st.breakdown.e_core,
            st.breakdown.e_coulomb,
            st.breakdown.e_exchange,
            st.breakdown.e_xc,
        ] {
            e.put_f64(v);
        }
        put_mat(&mut e, &st.c_final);
        e.put_f64_slice(&st.eps_final);
        e.put_bool(st.converged);
        e.put_usize(st.iterations);
        ScfCheckpoint { bytes: e.finish() }
    }

    /// Rebuild a session from a checkpoint plus the *same* molecule and
    /// basis the original was built from (the job spec is the source of
    /// truth; the context is recomputed, the loop state restored). A
    /// checkpoint of a [`ScfSession::with_exchange`] session is refused
    /// with [`CodecError::BadMagic`].
    pub fn resume(
        mol: &Molecule,
        basis: &'a Basis,
        ck: &ScfCheckpoint,
    ) -> Result<ScfSession<'a>, CodecError> {
        Self::restore(mol, basis, ck, None)
    }

    /// [`ScfSession::resume`] for a checkpoint written by a
    /// [`ScfSession::with_exchange`] session, continuing with `exchange`.
    /// An analytic session's checkpoint is refused with
    /// [`CodecError::BadMagic`]. The operator's own state (an incremental
    /// cache, say) is the caller's to restore.
    pub fn resume_with_exchange(
        mol: &Molecule,
        basis: &'a Basis,
        ck: &ScfCheckpoint,
        exchange: &'a mut dyn FnMut(&Mat) -> Mat,
    ) -> Result<ScfSession<'a>, CodecError> {
        Self::restore(mol, basis, ck, Some(exchange))
    }

    fn restore(
        mol: &Molecule,
        basis: &'a Basis,
        ck: &ScfCheckpoint,
        exchange: Option<&'a mut dyn FnMut(&Mat) -> Mat>,
    ) -> Result<ScfSession<'a>, CodecError> {
        let (mut d, version) = Decoder::with_magic(&ck.bytes, magic(exchange.is_some()))?;
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let method = match (d.get_u8()?, exchange.is_some()) {
            (0, _) => Method::Rhf,
            (1, false) => Method::RksLda,
            (m, _) => return Err(CodecError::BadLength(m as u64)),
        };
        let opts = get_opts(&mut d)?;
        let nao = d.get_usize()?;
        if nao != basis.nao() {
            // Resuming against a different basis would silently produce
            // garbage — fail loudly instead.
            return Err(CodecError::BadLength(nao as u64));
        }
        // A matrix of another shape is refused here, not by an index panic
        // in `step`.
        let density = get_mat(&mut d, nao)?;
        let hist_len = d.get_usize()?;
        if hist_len > d.remaining() / 16 {
            return Err(CodecError::BadLength(hist_len as u64));
        }
        let mut focks = Vec::with_capacity(hist_len);
        let mut errors = Vec::with_capacity(hist_len);
        for _ in 0..hist_len {
            focks.push(get_mat(&mut d, nao)?);
            errors.push(get_mat(&mut d, nao)?);
        }
        let d_ref = if d.get_bool()? {
            Some(get_mat(&mut d, nao)?)
        } else {
            None
        };
        let j_acc = get_mat(&mut d, nao)?;
        let k_acc = get_mat(&mut d, nao)?;
        let builds_since_full = d.get_usize()?;
        let energy = d.get_f64()?;
        let breakdown = EnergyBreakdown {
            e_nuc: d.get_f64()?,
            e_core: d.get_f64()?,
            e_coulomb: d.get_f64()?,
            e_exchange: d.get_f64()?,
            e_xc: d.get_f64()?,
        };
        let c_final = get_mat(&mut d, nao)?;
        let eps_final = d.get_f64_vec()?;
        if eps_final.len() != nao {
            return Err(CodecError::BadLength(eps_final.len() as u64));
        }
        let converged = d.get_bool()?;
        let iterations = d.get_usize()?;
        if d.remaining() != 0 {
            return Err(CodecError::BadLength(d.remaining() as u64));
        }
        let ctx = ScfContext::build(mol, basis, method);
        Ok(ScfSession {
            method,
            opts,
            ctx,
            exchange,
            st: ScfLoopState {
                density,
                diis: Diis::from_history(DIIS_DEPTH, focks, errors),
                d_ref,
                j_acc,
                k_acc,
                builds_since_full,
                energy,
                breakdown,
                c_final,
                eps_final,
                converged,
                iterations,
            },
        })
    }
}

/// A frozen SCF loop state as a self-describing byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScfCheckpoint {
    /// Encoded state (see `session.rs` for the layout).
    pub bytes: Vec<u8>,
}

fn put_mat(e: &mut Encoder, m: &Mat) {
    e.put_usize(m.nrows());
    e.put_usize(m.ncols());
    e.put_f64_slice(m.as_slice());
}

/// Decode a matrix written by [`put_mat`]; every matrix of the loop state
/// is `n × n`, and any other shape is [`CodecError::BadLength`].
fn get_mat(d: &mut Decoder<'_>, n: usize) -> Result<Mat, CodecError> {
    let nrows = d.get_usize()?;
    let ncols = d.get_usize()?;
    let data = d.get_f64_vec()?;
    if (nrows, ncols) != (n, n) || data.len() != n * n {
        return Err(CodecError::BadLength(data.len() as u64));
    }
    Ok(Mat::from_vec(n, n, data))
}

fn put_opts(e: &mut Encoder, o: &ScfOptions) {
    e.put_usize(o.max_iter);
    e.put_f64(o.energy_tol);
    e.put_f64(o.schwarz_tol);
    e.put_bool(o.incremental_fock);
}

fn get_opts(d: &mut Decoder<'_>) -> Result<ScfOptions, CodecError> {
    Ok(ScfOptions {
        max_iter: d.get_usize()?,
        energy_tol: d.get_f64()?,
        schwarz_tol: d.get_f64()?,
        incremental_fock: d.get_bool()?,
    })
}

/// Diagonalize a Fock matrix in the orthonormal basis `x`; return
/// `(ε, C)` in the original AO basis, orbitals in ascending energy.
fn orbitals_from_fock(f: &Mat, x: &Mat) -> (Vec<f64>, Mat) {
    let fp = x.transpose().matmul(f).matmul(x);
    let (eps, cp) = eigh(&fp);
    (eps, x.matmul(&cp))
}

/// Closed-shell density `D = 2 C_occ C_occᵀ` of the first `nocc` columns
/// of `c`.
fn assemble_density(c: &Mat, nocc: usize) -> Mat {
    let n = c.nrows();
    let mut d = Mat::zeros(n, n);
    for mu in 0..n {
        for nu in 0..n {
            let mut acc = 0.0;
            for k in 0..nocc {
                acc += c[(mu, k)] * c[(nu, k)];
            }
            d[(mu, nu)] = 2.0 * acc;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_basis::systems;

    fn bitwise_mat(a: &Mat, b: &Mat) -> bool {
        a.nrows() == b.nrows()
            && a.ncols() == b.ncols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn session_matches_monolithic_driver() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let opts = ScfOptions::default();
        let via_session = ScfSession::new(&mol, &basis, &opts, Method::Rhf).run_to_completion();
        let via_driver = crate::driver::rhf(&mol, &basis, &opts);
        assert_eq!(via_session.energy.to_bits(), via_driver.energy.to_bits());
        assert_eq!(via_session.iterations, via_driver.iterations);
        assert!(bitwise_mat(&via_session.density, &via_driver.density));
    }

    #[test]
    fn analytic_k_through_the_operator_seam_is_bit_identical() {
        // A session whose operator returns the analytic K of the density
        // its orbitals assemble must be the analytic session, bit for bit.
        for mol in [systems::h2(), systems::lih(), systems::water()] {
            let basis = Basis::sto3g(&mol);
            let opts = ScfOptions::default();
            let plain = ScfSession::new(&mol, &basis, &opts, Method::Rhf).run_to_completion();
            let jk = JkBuilder::new(&basis);
            let nocc = mol.nocc();
            let mut analytic_k = |c: &Mat| jk.build(&assemble_density(c, nocc), opts.schwarz_tol).1;
            let seam = ScfSession::with_exchange(&mol, &basis, &opts, &mut analytic_k, None)
                .run_to_completion();
            assert_eq!(
                seam.energy.to_bits(),
                plain.energy.to_bits(),
                "{}",
                mol.formula()
            );
            assert_eq!(seam.iterations, plain.iterations, "{}", mol.formula());
            assert!(
                bitwise_mat(&seam.density, &plain.density),
                "{}",
                mol.formula()
            );
        }
    }

    #[test]
    fn interrupt_resume_is_bit_identical() {
        let mol = systems::lih();
        let basis = Basis::sto3g(&mol);
        let opts = ScfOptions::default();

        let uninterrupted = ScfSession::new(&mol, &basis, &opts, Method::Rhf).run_to_completion();

        let mut first = ScfSession::new(&mol, &basis, &opts, Method::Rhf);
        for _ in 0..3 {
            first.step();
        }
        let ck = first.checkpoint();
        drop(first);
        let resumed = ScfSession::resume(&mol, &basis, &ck)
            .unwrap()
            .run_to_completion();

        assert_eq!(resumed.energy.to_bits(), uninterrupted.energy.to_bits());
        assert_eq!(resumed.iterations, uninterrupted.iterations);
        assert!(bitwise_mat(&resumed.density, &uninterrupted.density));
        assert!(bitwise_mat(&resumed.c, &uninterrupted.c));
    }

    #[test]
    fn resume_against_wrong_basis_fails() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let session = ScfSession::new(&mol, &basis, &ScfOptions::default(), Method::Rhf);
        let ck = session.checkpoint();
        let bigger = Basis::b631g(&mol);
        assert!(ScfSession::resume(&mol, &bigger, &ck).is_err());
    }

    #[test]
    fn misshapen_orbitals_in_a_checkpoint_are_refused() {
        // An operator session reads the occupied columns of `c_final` on
        // its next step, so a stream whose orbitals are not nao × nao must
        // fail to decode rather than panic there.
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let opts = ScfOptions::default();
        let jk = JkBuilder::new(&basis);
        let nocc = mol.nocc();
        let mut analytic_k = |c: &Mat| jk.build(&assemble_density(c, nocc), opts.schwarz_tol).1;
        let mut session = ScfSession::with_exchange(&mol, &basis, &opts, &mut analytic_k, None);
        session.step();
        session.st.c_final = Mat::zeros(basis.nao(), 1);
        let ck = session.checkpoint();
        drop(session);
        let mut again = |c: &Mat| jk.build(&assemble_density(c, nocc), opts.schwarz_tol).1;
        assert!(matches!(
            ScfSession::resume_with_exchange(&mol, &basis, &ck, &mut again),
            Err(CodecError::BadLength(_))
        ));
    }

    #[test]
    fn version_1_stream_is_refused() {
        // Version 1 carried a DIIS depth word; a stream claiming it is
        // refused before any field is read.
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let mut ck =
            ScfSession::new(&mol, &basis, &ScfOptions::default(), Method::Rhf).checkpoint();
        ck.bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            ScfSession::resume(&mol, &basis, &ck),
            Err(CodecError::BadVersion(1))
        ));
    }
}
