//! Job execution with checkpoint/restart.
//!
//! The runner executes one *attempt* of a job on whatever backend slice
//! the scheduler leased. An attempt ends three ways:
//!
//! * [`Attempt::Done`] — ran to completion, numbers attached;
//! * [`Attempt::Preempted`] — the injected preemption fired: the runner
//!   checkpointed *at* the preemption step, so resume loses nothing;
//! * [`Attempt::Faulted`] — the injected rank fault fired: only the last
//!   *periodic* checkpoint (every [`CHECKPOINT_EVERY`] steps) survives,
//!   so resume re-executes the lost steps.
//!
//! Either way the follow-up attempt starts from [`JobCheckpoint`] and —
//! because stepping is deterministic and checkpoints are bit-exact
//! (`liair-math::codec`, every float via `to_bits`) — must land on final
//! numbers bitwise equal to an uninterrupted run. That is the property
//! the soak test measures and DESIGN.md promises.
//!
//! Disruptions are injected on the **first attempt only**: the runner is
//! told whether it is resuming, and a resumed attempt runs undisturbed.
//!
//! A reaction job reads every functional's energy off each of its three
//! converged `ScfSession`s, then drops it: no quartet is computed after an
//! SCF, and the job holds one quartet store at a time.

// `Result<_, Attempt>`: the Err is the interrupted attempt itself, built
// once in `drive` and moved straight out through `run_job`.
#![allow(clippy::result_large_err)]

use crate::job::{Disruption, JobKind, JobSpec};
use liair_basis::systems::Solvent;
use liair_basis::{systems, Basis, Cell, Element, Molecule};
use liair_core::screening::{source_pairs, OrbitalInfo};
use liair_core::{BalanceStrategy, BuildProfile, ExchangeCachePool, ExecBackend, SystemKey};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::rng::SplitMix64;
use liair_math::Vec3;
use liair_md::analysis::{degradation_events, rdf_peak, RdfAccumulator};
use liair_md::mts::TetherSplit;
use liair_md::{MdCheckpoint, MdOptions, MdState, MtsOptions, Thermostat};
use liair_scf::{Method, ScfCheckpoint, ScfOptions, ScfResult, ScfSession};
use liair_xc::Functional;

/// Steps between the periodic checkpoints a fault falls back on.
pub const CHECKPOINT_EVERY: usize = 2;

/// Li–O attack distance (Bohr) of the reaction jobs' contact complexes,
/// for their SCFs and their degradation assay alike.
const COMPLEX_LI_O_DIST: f64 = 3.6;

/// Li–O RDF extent (Bohr) of the solvation jobs.
const RDF_R_MAX: f64 = 12.0;
/// Li–O RDF bin count of the solvation jobs.
const RDF_NBINS: usize = 48;
/// First-shell cutoff (Bohr) for the reported Li–O coordination number.
const RDF_COORD_CUT: f64 = 5.0;

/// Fixed cubic cell edge (Bohr) of the screening snapshots.
const SCREEN_CELL_EDGE: f64 = 12.0;
/// Screening pair-list threshold.
const SCREEN_EPS: f64 = 1e-6;
/// Fingerprint tolerance of the screening jobs' incremental caches.
/// Identical orbitals have fingerprint distance exactly 0, so any
/// positive tolerance reuses them — and reuse of identical orbitals is
/// bit-identical to recomputation (the PR 2 property the cross-job cache
/// inherits).
const SCREEN_EPS_INC: f64 = 1e-9;

/// Serialized resume state of a suspended job.
#[derive(Debug, Clone)]
pub enum JobCheckpoint {
    /// An SCF session mid-convergence (SCF and reaction jobs — a
    /// reaction job checkpoints its dominant stage, the complex SCF).
    Scf(ScfCheckpoint),
    /// A trajectory mid-flight (MD and solvation jobs).
    Md {
        /// Serialized [`MdCheckpoint`].
        md: Vec<u8>,
        /// A solvation job's Li–O RDF histogram bins and frame count at
        /// the checkpoint, beside the checksummed MD stream; `None` for
        /// an MD job.
        rdf: Option<(Vec<f64>, usize)>,
    },
}

impl JobCheckpoint {
    /// Serialized size (what a real service would write to burst
    /// buffers; here it feeds the bench's checkpoint-bytes column).
    pub fn nbytes(&self) -> usize {
        match self {
            JobCheckpoint::Scf(ck) => ck.bytes.len(),
            JobCheckpoint::Md { md, rdf } => {
                md.len() + rdf.as_ref().map_or(0, |(bins, _)| 8 * bins.len() + 8)
            }
        }
    }
}

/// Physical observables a job extracted, beyond its headline energy.
/// Every field is `None` (or empty) unless the job kind computes it; all
/// are deterministic functions of the spec, so the soak and campaign layers
/// bit-compare them the same way they compare `final_energy`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observables {
    /// Reaction jobs: `E(complex) − E(solvent) − E(Li₂O₂)` at RHF (Ha).
    pub e_int_rhf: Option<f64>,
    /// Reaction jobs: the same interaction energy under each requested
    /// post-SCF functional (Ha), in job order; the `Hf` entry equals
    /// `e_int_rhf`. Empty for the other kinds.
    pub e_int_by_functional: Vec<(Functional, f64)>,
    /// Reaction jobs: HOMO–LUMO gap of the contact complex (Ha).
    pub gap_complex: Option<f64>,
    /// Reaction jobs: HOMO–LUMO gap of the isolated solvent (Ha).
    pub gap_solvent: Option<f64>,
    /// Solvation jobs: radius (Bohr) of the first Li–O RDF peak.
    pub rdf_li_o_peak_r: Option<f64>,
    /// Solvation jobs: height of the first Li–O RDF peak.
    pub rdf_li_o_peak_g: Option<f64>,
    /// Solvation jobs: mean Li–O coordination number within
    /// `RDF_COORD_CUT` Bohr.
    pub li_o_coordination: Option<f64>,
    /// Reaction jobs: distinct solvent-internal bonds broken by the
    /// hot-MD degradation assay on the contact complex
    /// (`liair_md::analysis::degradation_events`).
    pub bonds_broken: Option<usize>,
}

impl Observables {
    /// Bitwise equality across every field — `to_bits`, not float `==`,
    /// so `-0.0 ≠ 0.0` and NaN equals itself. The comparison the
    /// verification layers use.
    pub fn bits_eq(&self, other: &Observables) -> bool {
        fn beq(a: Option<f64>, b: Option<f64>) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
                _ => false,
            }
        }
        fn by_functional(o: &Observables) -> impl Iterator<Item = (Functional, u64)> + '_ {
            o.e_int_by_functional.iter().map(|&(f, e)| (f, e.to_bits()))
        }
        beq(self.e_int_rhf, other.e_int_rhf)
            && by_functional(self).eq(by_functional(other))
            && beq(self.gap_complex, other.gap_complex)
            && beq(self.gap_solvent, other.gap_solvent)
            && beq(self.rdf_li_o_peak_r, other.rdf_li_o_peak_r)
            && beq(self.rdf_li_o_peak_g, other.rdf_li_o_peak_g)
            && beq(self.li_o_coordination, other.li_o_coordination)
            && self.bonds_broken == other.bonds_broken
    }
}

/// Numbers a completed job reports.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The job's headline number: converged SCF energy, final MD
    /// potential, total screening exchange energy, or RHF reaction
    /// interaction energy. Bit-compared against the uninterrupted
    /// reference by the soak tests.
    pub final_energy: f64,
    /// SCF iterations / MD inner steps / screening pairs in the list.
    pub steps: usize,
    /// SCF convergence flag (`true` for the other kinds).
    pub converged: bool,
    /// Kind-specific physical observables (campaign jobs).
    pub observables: Observables,
    /// Build instrumentation of the job's exchange build (screening jobs;
    /// default for the other kinds). The job reused a cross-job cache
    /// exactly when `pairs_reused > 0`.
    pub profile: BuildProfile,
}

/// How one attempt ended.
// One Attempt per job attempt: the size skew vs a checkpoint variant is
// irrelevant at that rate, and boxing would ripple through every match.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Attempt {
    /// Ran to completion.
    Done(JobOutput),
    /// Preemption point reached; checkpoint taken at that exact step.
    Preempted(JobCheckpoint),
    /// Rank fault; only the last periodic checkpoint survives.
    Faulted(JobCheckpoint),
}

/// The backend a rank lease of `nranks` maps to: the message-passing
/// engine backend for multi-rank leases, rayon for single-rank ones.
/// Engine builds are bit-identical across all of these (the PR 3/4
/// guarantee), which is what makes lease-sized backends safe to mix with
/// cross-job caches.
pub fn backend_for_lease(nranks: usize) -> ExecBackend {
    if nranks > 1 {
        ExecBackend::Comm {
            nranks,
            strategy: BalanceStrategy::GreedyLpt,
        }
    } else {
        ExecBackend::Rayon
    }
}

/// Execute one attempt of `spec`.
///
/// `resume` carries the checkpoint of a previous attempt (disruptions
/// are not re-injected when it is `Some`). `nranks` is the size of the
/// rank lease the scheduler granted. `cache` is the shared cross-job
/// exchange cache pool (screening jobs only).
pub fn run_job(
    spec: &JobSpec,
    resume: Option<&JobCheckpoint>,
    nranks: usize,
    cache: Option<&ExchangeCachePool>,
) -> Attempt {
    let disruption = if resume.is_some() {
        Disruption::None
    } else {
        spec.disruption
    };
    // `Err` is an interrupted attempt, checkpoint attached (see [`drive`]).
    let outcome = match &spec.kind {
        JobKind::Scf {
            system,
            incremental_fock,
        } => run_scf(*system, *incremental_fock, resume, disruption),
        JobKind::Md {
            n_waters,
            n_outer,
            n_inner,
            temperature,
        } => {
            let seed = spec.seeds.resolve_md_seed();
            let water = systems::water_box(*n_waters, seed);
            let mts = (*n_outer, *n_inner, *temperature);
            run_trajectory(water, seed, false, mts, resume, disruption)
        }
        JobKind::Screening {
            system,
            extent,
            norb,
            seed,
        } => run_screening(system, *extent, *norb, *seed, nranks, cache),
        JobKind::Reaction {
            solvent,
            functionals,
        } => run_reaction(*solvent, functionals, resume, disruption),
        JobKind::Solvation {
            solvent,
            box_n,
            seed,
            n_outer,
            n_inner,
            temperature,
        } => {
            let electrolyte = systems::electrolyte_box(*solvent, *box_n, *seed);
            let mts = (*n_outer, *n_inner, *temperature);
            run_trajectory(electrolyte, *seed, true, mts, resume, disruption)
        }
    };
    outcome.map_or_else(|interrupted| interrupted, Attempt::Done)
}

/// Run `spec` uninterrupted on the default backend with no shared cache —
/// the reference the soak tests bit-compare resumed jobs against.
pub fn run_reference(spec: &JobSpec) -> JobOutput {
    let clean = JobSpec {
        disruption: Disruption::None,
        ..spec.clone()
    };
    match run_job(&clean, None, 1, None) {
        Attempt::Done(out) => out,
        _ => unreachable!("an undisrupted attempt always completes"),
    }
}

fn scf_options(incremental_fock: bool) -> ScfOptions {
    ScfOptions {
        incremental_fock,
        ..ScfOptions::default()
    }
}

/// A computation the service can interrupt: it advances in whole steps
/// and can serialize itself between any two of them. [`drive`] runs the
/// checkpoint/disruption protocol over it.
trait Resumable {
    /// Advance one step (a no-op once complete); `true` while steps remain.
    fn advance(&mut self) -> bool;
    /// Steps completed so far — the index disruptions fire on.
    fn position(&self) -> usize;
    /// Resume state at the current position.
    fn snapshot(&self) -> JobCheckpoint;
}

/// Run `job` to completion under the checkpoint/disruption protocol every
/// interruptible job kind shares: `Ok` is the completed job, `Err` the
/// interrupted attempt — carrying a checkpoint taken at the preemption
/// step itself, or, when a fault fired, the last periodic one (the
/// starting state, refreshed every [`CHECKPOINT_EVERY`] steps). A
/// disruption due on the final step never fires: the job is done.
fn drive<J: Resumable>(mut job: J, disruption: Disruption) -> Result<J, Attempt> {
    let mut periodic = job.snapshot();
    while job.advance() {
        let at = job.position();
        match disruption {
            Disruption::Preempt { at_step } if at == at_step => {
                return Err(Attempt::Preempted(job.snapshot()));
            }
            Disruption::Fault { at_step } if at == at_step => {
                return Err(Attempt::Faulted(periodic));
            }
            _ => {}
        }
        if at.is_multiple_of(CHECKPOINT_EVERY) {
            periodic = job.snapshot();
        }
    }
    Ok(job)
}

impl Resumable for ScfSession<'_> {
    fn advance(&mut self) -> bool {
        self.step()
    }

    fn position(&self) -> usize {
        self.iterations()
    }

    fn snapshot(&self) -> JobCheckpoint {
        JobCheckpoint::Scf(self.checkpoint())
    }
}

/// The session an SCF-stage attempt steps: rebuilt from `resume`'s
/// checkpoint when there is one, else started from the core guess.
fn scf_session<'a>(
    mol: &Molecule,
    basis: &'a Basis,
    opts: &ScfOptions,
    resume: Option<&JobCheckpoint>,
) -> ScfSession<'a> {
    match resume {
        Some(JobCheckpoint::Scf(ck)) => ScfSession::resume(mol, basis, ck)
            .expect("a checkpoint taken by this runner resumes against the same basis"),
        Some(_) => unreachable!("SCF-stage job resumed with a non-SCF checkpoint"),
        None => ScfSession::new(mol, basis, opts, Method::Rhf),
    }
}

fn run_scf(
    system: crate::job::ScfSystem,
    incremental_fock: bool,
    resume: Option<&JobCheckpoint>,
    disruption: Disruption,
) -> Result<JobOutput, Attempt> {
    let mol = system.molecule();
    let basis = Basis::sto3g(&mol);
    let opts = scf_options(incremental_fock);
    let session = drive(scf_session(&mol, &basis, &opts, resume), disruption)?;
    Ok(JobOutput {
        final_energy: session.energy(),
        steps: session.iterations(),
        converged: session.converged(),
        observables: Observables::default(),
        profile: BuildProfile::default(),
    })
}

/// SCF options of the reaction jobs (the bigger complexes need the
/// headroom).
fn reaction_scf_options() -> ScfOptions {
    ScfOptions {
        energy_tol: 1e-7,
        max_iter: 150,
        ..Default::default()
    }
}

/// Step `session` to the end and read its energies under `functionals`.
fn finish(mut session: ScfSession<'_>, functionals: &[Functional]) -> (ScfResult, Vec<f64>) {
    while session.step() {}
    let energies = session.functional_energies(functionals);
    (session.into_result(), energies)
}

/// A reaction job: converge the solvent·Li₂O₂ complex (disruptable, the
/// dominant stage), then its isolated fragments (cheap, never
/// disrupted — rerun deterministically on resume), and report the RHF
/// interaction energy, the interaction energy under each of
/// `functionals` off the same three converged sessions, the
/// frontier-orbital gaps, and the complex's degradation assay (also
/// rerun deterministically on resume).
fn run_reaction(
    solvent: Solvent,
    functionals: &[Functional],
    resume: Option<&JobCheckpoint>,
    disruption: Disruption,
) -> Result<JobOutput, Attempt> {
    let complex = systems::li2o2_complex(solvent, COMPLEX_LI_O_DIST);
    let basis_c = Basis::sto3g(&complex);
    let opts = reaction_scf_options();
    let session = drive(scf_session(&complex, &basis_c, &opts, resume), disruption)?;
    let steps = session.iterations();
    let (res_c, e_c) = finish(session, functionals);
    let fragment = |mol: Molecule| {
        let basis = Basis::sto3g(&mol);
        finish(
            ScfSession::new(&mol, &basis, &opts, Method::Rhf),
            functionals,
        )
    };
    let solvent_mol = solvent.molecule();
    let n_solvent = solvent_mol.natoms();
    let (res_s, e_s) = fragment(solvent_mol);
    let (res_x, e_x) = fragment(systems::li2o2());

    let e_int_rhf = res_c.energy - res_s.energy - res_x.energy;
    let e_int_by_functional = functionals
        .iter()
        .zip(e_c.iter().zip(&e_s).zip(&e_x))
        .map(|(&functional, ((c, s), x))| {
            // `Hf` is the RHF energy expression itself: report the RHF
            // E_int so the two numbers are bitwise equal, not merely close.
            let e = if functional == Functional::Hf {
                e_int_rhf
            } else {
                c - s - x
            };
            (functional, e)
        })
        .collect();
    Ok(JobOutput {
        final_energy: e_int_rhf,
        steps,
        converged: res_c.converged && res_s.converged && res_x.converged,
        observables: Observables {
            e_int_rhf: Some(e_int_rhf),
            e_int_by_functional,
            gap_complex: res_c.homo_lumo_gap(),
            gap_solvent: res_s.homo_lumo_gap(),
            bonds_broken: Some(degradation_events(&complex, n_solvent)),
            ..Default::default()
        },
        profile: BuildProfile::default(),
    })
}

/// An MTS trajectory of `n_outer` outer steps under a [`TetherSplit`];
/// one [`Resumable`] step is one outer step. A solvation job's Li–O RDF
/// rides along: one frame per completed outer step, taken inside the step
/// so the histogram is part of every checkpoint of that step.
struct Trajectory {
    state: MdState,
    split: TetherSplit,
    opts: MdOptions,
    n_outer: usize,
    cell: Cell,
    rdf: Option<RdfAccumulator>,
}

impl Resumable for Trajectory {
    fn advance(&mut self) -> bool {
        if self.position() >= self.n_outer {
            return false;
        }
        self.state.step_mts(&self.split, &self.opts);
        if let Some(rdf) = &mut self.rdf {
            rdf.add_frame(&self.state.mol, &self.cell);
        }
        self.position() < self.n_outer
    }

    fn position(&self) -> usize {
        self.state.step_count / self.opts.mts.n_inner
    }

    fn snapshot(&self) -> JobCheckpoint {
        JobCheckpoint::Md {
            md: MdCheckpoint::capture(&self.state).to_bytes(),
            rdf: self
                .rdf
                .as_ref()
                .map(|rdf| (rdf.bins.clone(), rdf.frames())),
        }
    }
}

/// A trajectory job (MD or solvation): `n_outer` outer steps of `n_inner`
/// inner steps on the box `(mol0, cell)`, thermalized at `temperature`
/// from `seed` — or resumed from `resume`'s checkpoint — under the
/// Nosé–Hoover/MTS settings every trajectory job shares. With `with_rdf`
/// the Li–O RDF accumulates once per outer step and checkpoints beside
/// the MD state, so a resumed histogram is bit-identical to an
/// uninterrupted one.
fn run_trajectory(
    (mol0, cell): (Molecule, Cell),
    seed: u64,
    with_rdf: bool,
    (n_outer, n_inner, temperature): (usize, usize, f64),
    resume: Option<&JobCheckpoint>,
    disruption: Disruption,
) -> Result<JobOutput, Attempt> {
    // The provider is never serialized: box geometry and force field are
    // pure functions of the job spec, reconstructed on every attempt.
    let split = TetherSplit::new(&mol0, Some(&cell), 1e-4);
    let new_rdf = || RdfAccumulator::new(Element::Li, Element::O, RDF_R_MAX, RDF_NBINS);
    let (state, rdf) = match resume {
        None => {
            let mut state = MdState::new_split(mol0, Some(cell), &split);
            state.thermalize_seeded(temperature, Some(seed));
            (state, with_rdf.then(new_rdf))
        }
        // A solvation job never resumes with an empty histogram, nor an
        // MD job with one.
        Some(JobCheckpoint::Md { md, rdf }) if rdf.is_some() == with_rdf => {
            let state = MdCheckpoint::from_bytes(md)
                .expect("a checkpoint taken by this runner round-trips")
                .restore();
            let rdf = rdf.clone().map(|(bins, frames)| {
                let mut acc = new_rdf();
                acc.set_state(bins, frames);
                acc
            });
            (state, rdf)
        }
        Some(_) => unreachable!("trajectory job resumed with another job kind's checkpoint"),
    };
    let opts = MdOptions {
        dt: 10.0,
        thermostat: Thermostat::NoseHoover {
            t_target: temperature,
            tau: 300.0,
        },
        mts: MtsOptions { n_inner },
    };
    let run = Trajectory {
        state,
        split,
        opts,
        n_outer,
        cell,
        rdf,
    };
    let Trajectory { state, rdf, .. } = drive(run, disruption)?;
    let observables = match rdf {
        None => Observables::default(),
        Some(rdf) => {
            let (peak_r, peak_g) = rdf_peak(&rdf.finish(&state.mol, &cell));
            Observables {
                rdf_li_o_peak_r: Some(peak_r),
                rdf_li_o_peak_g: Some(peak_g),
                li_o_coordination: Some(rdf.coordination_number(&state.mol, RDF_COORD_CUT)),
                ..Default::default()
            }
        }
    };
    Ok(JobOutput {
        final_energy: state.potential,
        steps: state.step_count,
        converged: true,
        observables,
        profile: BuildProfile::default(),
    })
}

/// Deterministic Gaussian proxy-orbital snapshot for a screening job.
/// Same `(extent, norb, seed)` ⇒ identical fields, bit for bit — the
/// precondition for cross-job cache reuse being exact.
fn screening_snapshot(
    extent: usize,
    norb: usize,
    seed: u64,
) -> (RealGrid, Vec<Vec<f64>>, Vec<OrbitalInfo>, Cell) {
    let cell = Cell::cubic(SCREEN_CELL_EDGE);
    let grid = RealGrid::cubic(cell, extent);
    let mut rng = SplitMix64::new(seed);
    let infos: Vec<OrbitalInfo> = (0..norb)
        .map(|_| OrbitalInfo {
            center: Vec3::new(
                rng.range_f64(2.0, SCREEN_CELL_EDGE - 2.0),
                rng.range_f64(2.0, SCREEN_CELL_EDGE - 2.0),
                rng.range_f64(2.0, SCREEN_CELL_EDGE - 2.0),
            ),
            spread: 1.0,
        })
        .collect();
    let fields: Vec<Vec<f64>> = infos
        .iter()
        .map(|info| {
            (0..grid.len())
                .map(|p| {
                    let d2 = grid.point_flat(p).distance(info.center).powi(2);
                    (-d2 / (2.0 * info.spread * info.spread)).exp()
                })
                .collect()
        })
        .collect();
    (grid, fields, infos, cell)
}

fn run_screening(
    system: &str,
    extent: usize,
    norb: usize,
    seed: u64,
    nranks: usize,
    cache: Option<&ExchangeCachePool>,
) -> Result<JobOutput, Attempt> {
    let (grid, fields, infos, cell) = screening_snapshot(extent, norb, seed);
    let solver = PoissonSolver::isolated(grid);
    let pairs = source_pairs(&infos, SCREEN_EPS, Some(&cell));
    let key = SystemKey {
        system: system.to_string(),
        dims: grid.dims,
        norb,
        seed,
    };
    let mut inc = match cache {
        Some(pool) => pool.checkout(&key, SCREEN_EPS_INC, 0),
        None => liair_core::IncrementalExchange::new(SCREEN_EPS_INC, 0),
    };
    inc.set_backend(backend_for_lease(nranks));
    // The snapshot's fields are sized to its grid, one info per field, and
    // the lease's backend runs without a fault plan: nothing can fail.
    let result = inc
        .exchange_energy(&grid, &solver, &fields, &infos, &pairs)
        .expect("a fault-free build over a well-formed snapshot");
    if let Some(pool) = cache {
        pool.checkin(key, inc);
    }
    Ok(JobOutput {
        final_energy: result.energy,
        steps: pairs.len(),
        converged: true,
        observables: Observables::default(),
        profile: result.profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ScfSystem;
    use liair_runtime::SeedConfig;

    fn scf_spec(disruption: Disruption) -> JobSpec {
        JobSpec::scf(ScfSystem::LiH)
            .tenant("t")
            .disruption(disruption)
            .build()
            .unwrap()
    }

    fn md_spec(disruption: Disruption) -> JobSpec {
        JobSpec::md(2, 5, 2)
            .tenant("t")
            .seeds(SeedConfig::default().with_md_seed(11))
            .disruption(disruption)
            .build()
            .unwrap()
    }

    fn solvation_spec(disruption: Disruption) -> JobSpec {
        JobSpec::solvation(Solvent::EthyleneCarbonate, 2, 3)
            .tenant("t")
            .steps(5, 2)
            .disruption(disruption)
            .build()
            .unwrap()
    }

    fn resume_to_done(spec: &JobSpec, first: Attempt) -> JobOutput {
        let ck = match first {
            Attempt::Preempted(ck) | Attempt::Faulted(ck) => ck,
            Attempt::Done(_) => panic!("expected the first attempt to be disrupted"),
        };
        match run_job(spec, Some(&ck), 1, None) {
            Attempt::Done(out) => out,
            _ => panic!("resumed attempts run undisturbed"),
        }
    }

    #[test]
    fn preempted_scf_resumes_bit_identical() {
        let reference = run_reference(&scf_spec(Disruption::None));
        assert!(reference.converged);
        let spec = scf_spec(Disruption::Preempt { at_step: 3 });
        let first = run_job(&spec, None, 1, None);
        let resumed = resume_to_done(&spec, first);
        assert_eq!(
            resumed.final_energy.to_bits(),
            reference.final_energy.to_bits()
        );
        assert_eq!(resumed.steps, reference.steps);
    }

    #[test]
    fn faulted_scf_replays_lost_steps_bit_identical() {
        let reference = run_reference(&scf_spec(Disruption::None));
        let spec = scf_spec(Disruption::Fault { at_step: 3 });
        let first = run_job(&spec, None, 1, None);
        assert!(matches!(first, Attempt::Faulted(_)));
        let resumed = resume_to_done(&spec, first);
        assert_eq!(
            resumed.final_energy.to_bits(),
            reference.final_energy.to_bits()
        );
    }

    #[test]
    fn preempted_and_faulted_md_resume_bit_identical() {
        for disruption in [
            Disruption::Preempt { at_step: 2 },
            Disruption::Fault { at_step: 3 },
        ] {
            let reference = run_reference(&md_spec(Disruption::None));
            let spec = md_spec(disruption);
            let first = run_job(&spec, None, 1, None);
            let resumed = resume_to_done(&spec, first);
            assert_eq!(
                resumed.final_energy.to_bits(),
                reference.final_energy.to_bits(),
                "under {disruption:?}"
            );
            assert_eq!(resumed.steps, reference.steps);
        }
    }

    #[test]
    fn disrupted_solvation_resumes_bit_identical() {
        let reference = run_reference(&solvation_spec(Disruption::None));
        let obs_ref = &reference.observables;
        assert!(obs_ref.rdf_li_o_peak_g.is_some());
        // Bond scissions are the reaction job's assay, not the box's.
        assert_eq!(obs_ref.bonds_broken, None);
        for disruption in [
            Disruption::Preempt { at_step: 2 },
            Disruption::Fault { at_step: 3 },
        ] {
            let spec = solvation_spec(disruption);
            let first = run_job(&spec, None, 1, None);
            let resumed = resume_to_done(&spec, first);
            assert_eq!(
                resumed.final_energy.to_bits(),
                reference.final_energy.to_bits(),
                "under {disruption:?}"
            );
            assert_eq!(resumed.steps, reference.steps);
            // The RDF accumulator resumed too: every observable is
            // bitwise equal, not merely close.
            let obs = &resumed.observables;
            for (got, want) in [
                (obs.rdf_li_o_peak_r, obs_ref.rdf_li_o_peak_r),
                (obs.rdf_li_o_peak_g, obs_ref.rdf_li_o_peak_g),
                (obs.li_o_coordination, obs_ref.li_o_coordination),
            ] {
                assert_eq!(
                    got.unwrap().to_bits(),
                    want.unwrap().to_bits(),
                    "under {disruption:?}"
                );
            }
        }
    }

    /// The checkpoint of `spec`'s job preempted at step 2, handed to
    /// `other`'s job: a trajectory resumes only from its own kind's state.
    fn resume_across_kinds(
        spec: impl Fn(Disruption) -> JobSpec,
        other: impl Fn(Disruption) -> JobSpec,
    ) {
        let first = run_job(&spec(Disruption::Preempt { at_step: 2 }), None, 1, None);
        resume_to_done(&other(Disruption::None), first);
    }

    #[test]
    #[should_panic(expected = "resumed with another job kind's checkpoint")]
    fn solvation_job_refuses_an_md_checkpoint() {
        resume_across_kinds(md_spec, solvation_spec);
    }

    #[test]
    #[should_panic(expected = "resumed with another job kind's checkpoint")]
    fn md_job_refuses_a_solvation_checkpoint() {
        resume_across_kinds(solvation_spec, md_spec);
    }

    #[test]
    fn trajectory_jobs_are_pinned() {
        // A water box and an EC electrolyte box under the one MTS scheme
        // every trajectory job runs. The bits were recorded on x86-64
        // Linux; 1e-14 relative leaves room only for another platform's
        // libm. The checkpoint sizes are exact: the MD stream, plus the
        // solvation job's 48 RDF bins and frame count.
        let pinned = |got: f64, want: u64| {
            let want = f64::from_bits(want);
            assert!(
                (got - want).abs() <= 1e-14 * want.abs(),
                "{got:.17e} ({:#x}) vs {want:.17e}",
                got.to_bits()
            );
        };
        let first_checkpoint = |spec: &JobSpec| match run_job(spec, None, 1, None) {
            Attempt::Preempted(ck) | Attempt::Faulted(ck) => ck.nbytes(),
            Attempt::Done(_) => panic!("expected a disrupted attempt"),
        };

        let md = |disruption| {
            JobSpec::md(2, 5, 2)
                .md_seed(11)
                .disruption(disruption)
                .build()
                .unwrap()
        };
        let out = run_reference(&md(Disruption::None));
        pinned(out.final_energy, 0x3faa_1914_e2ea_5b91);
        assert_eq!(out.steps, 10);
        assert_eq!(
            first_checkpoint(&md(Disruption::Preempt { at_step: 2 })),
            2719
        );

        let solvation = |disruption| {
            JobSpec::solvation(Solvent::EthyleneCarbonate, 2, 3)
                .steps(5, 2)
                .disruption(disruption)
                .build()
                .unwrap()
        };
        let out = run_reference(&solvation(Disruption::None));
        pinned(out.final_energy, 0x3fde_0019_adbe_c0b4);
        assert_eq!(out.steps, 10);
        let obs = &out.observables;
        pinned(obs.rdf_li_o_peak_r.unwrap(), 0x400b_0000_0000_0000);
        pinned(obs.rdf_li_o_peak_g.unwrap(), 0x4033_92e6_773e_49d4);
        pinned(obs.li_o_coordination.unwrap(), 0x4000_0000_0000_0000);
        assert_eq!(
            first_checkpoint(&solvation(Disruption::Fault { at_step: 3 })),
            8511
        );
    }

    fn word(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    /// Offsets of the length prefixes of an MD checkpoint stream, walked
    /// from the layout `MdCheckpoint::to_bytes` documents: atom count,
    /// then the velocity, mass, force and slow-force arrays.
    fn md_length_fields(bytes: &[u8]) -> Vec<usize> {
        let natoms_at = 6; // magic u32 + version u16
        let n = word(bytes, natoms_at) as usize;
        let cell_flag = natoms_at + 8 + 28 * n + 8;
        let velocities = cell_flag + 1 + 24 * bytes[cell_flag] as usize;
        let masses = velocities + 8 + 24 * n;
        let forces = masses + 8 + 8 * n;
        let forces_slow = forces + 8 + 24 * n + 4 * 8;
        // `forces_slow`, `potential_slow`, then the stream's checksum.
        assert_eq!(
            forces_slow + 8 + 24 * n + 8 + 8,
            bytes.len(),
            "layout drifted"
        );
        vec![natoms_at, velocities, masses, forces, forces_slow]
    }

    /// Offsets of the length fields of an SCF checkpoint stream (layout
    /// version 4): the `(rows, cols, len)` header of every `nao x nao`
    /// matrix, the `nao` word before the first of them and the DIIS
    /// history length right after it.
    fn scf_length_fields(bytes: &[u8], nao: usize) -> Vec<usize> {
        let (n, nn) = (nao as u64, (nao * nao) as u64);
        let mut fields = Vec::new();
        let mut ends = Vec::new();
        let mut at = 0;
        while at + 24 <= bytes.len() {
            if (word(bytes, at), word(bytes, at + 8), word(bytes, at + 16)) == (n, n, nn) {
                if fields.is_empty() {
                    fields.push(at - 8);
                }
                fields.extend([at, at + 8, at + 16]);
                at += 24 + 8 * nao * nao;
                ends.push(at);
            } else {
                at += 1;
            }
        }
        assert!(ends.len() >= 5, "density, J, K, C and a DIIS pair at least");
        fields.push(ends[0]);
        fields
    }

    /// Every strict prefix of `bytes`, and `bytes` with each length field
    /// overwritten by a wrong value, must be refused with a typed error.
    fn assert_hostile_streams_rejected(
        what: &str,
        bytes: &[u8],
        length_fields: &[usize],
        decode: &dyn Fn(&[u8]) -> Result<(), liair_math::codec::CodecError>,
    ) {
        decode(bytes).unwrap_or_else(|e| panic!("{what}: the untouched stream failed: {e}"));
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "{what}: prefix {cut} decoded"
            );
        }
        let mut longer = bytes.to_vec();
        longer.push(0);
        assert!(decode(&longer).is_err(), "{what}: trailing byte accepted");
        for &at in length_fields {
            let v = word(bytes, at);
            for bad in [0, v.wrapping_sub(1), v + 1, bytes.len() as u64, u64::MAX] {
                if bad == v {
                    continue;
                }
                let mut hostile = bytes.to_vec();
                hostile[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                assert!(
                    decode(&hostile).is_err(),
                    "{what}: length {v} at byte {at} overwritten with {bad} decoded"
                );
            }
        }
    }

    #[test]
    fn hostile_checkpoints_are_typed_errors_never_panics() {
        let preempt = Disruption::Preempt { at_step: 3 };
        let checkpoint = |spec: &JobSpec| match run_job(spec, None, 1, None) {
            Attempt::Preempted(ck) => ck,
            _ => panic!("expected a preempted attempt"),
        };
        let md_decode = |b: &[u8]| MdCheckpoint::from_bytes(b).map(|_| ());

        let JobCheckpoint::Scf(scf) = checkpoint(&scf_spec(preempt)) else {
            panic!("SCF jobs checkpoint SCF sessions");
        };
        let mol = ScfSystem::LiH.molecule();
        let basis = Basis::sto3g(&mol);
        let resume =
            |b: &[u8]| ScfSession::resume(&mol, &basis, &ScfCheckpoint { bytes: b.into() });
        assert_hostile_streams_rejected(
            "scf",
            &scf.bytes,
            &scf_length_fields(&scf.bytes, basis.nao()),
            &|b| resume(b).map(|_| ()),
        );
        assert_eq!(resume(&scf.bytes).unwrap().checkpoint(), scf);

        let JobCheckpoint::Md { md, rdf: None } = checkpoint(&md_spec(preempt)) else {
            panic!("MD jobs checkpoint MD states");
        };
        assert_hostile_streams_rejected("md", &md, &md_length_fields(&md), &md_decode);
        assert_eq!(MdCheckpoint::from_bytes(&md).unwrap().to_bytes(), md);

        let JobCheckpoint::Md {
            ref md,
            rdf: Some(_),
        } = checkpoint(&solvation_spec(preempt))
        else {
            panic!("solvation jobs checkpoint solvation runs");
        };
        assert_hostile_streams_rejected("solvation", md, &md_length_fields(md), &md_decode);
        assert_eq!(&MdCheckpoint::from_bytes(md).unwrap().to_bytes(), md);
    }

    /// The checkpoint of `spec`'s job preempted at step 3.
    fn preempted(spec: impl Fn(Disruption) -> JobSpec) -> JobCheckpoint {
        match run_job(&spec(Disruption::Preempt { at_step: 3 }), None, 1, None) {
            Attempt::Preempted(ck) => ck,
            _ => panic!("expected a preempted attempt"),
        }
    }

    /// `bytes` without its trailing checksum.
    fn unsealed(bytes: &[u8]) -> &[u8] {
        &bytes[..bytes.len() - 8]
    }

    /// `body` with a checksum appended: a stream corrupted before it was
    /// sealed, which the checksum cannot see, so the field checks must.
    fn seal(body: &[u8]) -> Vec<u8> {
        if body.len() < 6 {
            return body.to_vec();
        }
        let magic = u32::from_le_bytes(body[..4].try_into().unwrap());
        let version = u16::from_le_bytes(body[4..6].try_into().unwrap());
        let mut e = liair_math::codec::Encoder::with_magic(magic, version);
        body[6..].iter().for_each(|&b| e.put_u8(b));
        e.finish()
    }

    #[test]
    fn resealed_hostile_checkpoints_reach_the_field_checks() {
        // The checksum refuses every stream the hostile test builds before
        // any field is read; sealed again, each one reaches the decoders'
        // own length and shape checks.
        let JobCheckpoint::Scf(scf) = preempted(scf_spec) else {
            panic!("SCF jobs checkpoint SCF sessions");
        };
        let mol = ScfSystem::LiH.molecule();
        let basis = Basis::sto3g(&mol);
        assert_eq!(seal(unsealed(&scf.bytes)), scf.bytes);
        assert_hostile_streams_rejected(
            "resealed scf",
            unsealed(&scf.bytes),
            &scf_length_fields(&scf.bytes, basis.nao()),
            &|b| {
                let ck = ScfCheckpoint { bytes: seal(b) };
                ScfSession::resume(&mol, &basis, &ck).map(|_| ())
            },
        );
        let JobCheckpoint::Md { md, rdf: None } = preempted(md_spec) else {
            panic!("MD jobs checkpoint MD states");
        };
        assert_hostile_streams_rejected(
            "resealed md",
            unsealed(&md),
            &md_length_fields(&md),
            &|b| MdCheckpoint::from_bytes(&seal(b)).map(|_| ()),
        );
    }

    /// Every bit of every 8-byte word at `words`, flipped one at a time,
    /// must be refused by the stream's checksum.
    fn assert_flips_refused(
        what: &str,
        bytes: &[u8],
        words: impl Iterator<Item = usize>,
        decode: &dyn Fn(&[u8]) -> Result<(), liair_math::codec::CodecError>,
    ) {
        for at in words {
            for bit in 0..64 {
                let mut flipped = bytes.to_vec();
                flipped[at + bit / 8] ^= 1 << (bit % 8);
                assert!(
                    matches!(
                        decode(&flipped),
                        Err(liair_math::codec::CodecError::BadChecksum { .. })
                    ),
                    "{what}: bit {bit} of the f64 at byte {at} was not refused"
                );
            }
        }
    }

    #[test]
    fn flipped_bits_in_float_payloads_are_checksum_errors() {
        // Raw bits round-trip any value, so without the checksum each of
        // these streams decodes, and a job resumes from a density (or a
        // geometry) it never had; a NaN there reaches `eigh`'s sort.
        let words = |start: usize, n: usize| (start..start + 8 * n).step_by(8);

        let JobCheckpoint::Scf(scf) = preempted(scf_spec) else {
            panic!("SCF jobs checkpoint SCF sessions");
        };
        let mol = ScfSystem::LiH.molecule();
        let basis = Basis::sto3g(&mol);
        let nao = basis.nao();
        let resume =
            |b: &[u8]| ScfSession::resume(&mol, &basis, &ScfCheckpoint { bytes: b.into() });
        // The `nao` word, then `(rows, cols, len)` per matrix: the density
        // first and the oldest DIIS Fock matrix second.
        let fields = scf_length_fields(&scf.bytes, nao);
        assert!(
            word(&scf.bytes, *fields.last().unwrap()) >= 1,
            "no DIIS history"
        );
        let (density, fock) = (fields[3] + 8, fields[6] + 8);
        let state = resume(&scf.bytes).unwrap().into_result();
        assert_eq!(
            word(&scf.bytes, density + 8),
            state.density[(0, 1)].to_bits()
        );
        let scf_words = words(density, nao * nao).chain(words(fock, nao * nao));
        assert_flips_refused("scf", &scf.bytes, scf_words, &|b| resume(b).map(|_| ()));

        let JobCheckpoint::Md { md, rdf: None } = preempted(md_spec) else {
            panic!("MD jobs checkpoint MD states");
        };
        // Each atom is a `u32` element then its position; the velocities
        // follow their length prefix.
        let n = word(&md, 6) as usize;
        let (position, velocity) = (|i: usize| 6 + 8 + 28 * i + 4, md_length_fields(&md)[1] + 8);
        let state = MdCheckpoint::from_bytes(&md).unwrap().state;
        assert_eq!(
            word(&md, position(n - 1)),
            state.mol.atoms[n - 1].pos.x.to_bits()
        );
        assert_eq!(word(&md, velocity), state.velocities[0].x.to_bits());
        let positions = (0..n).flat_map(|i| words(position(i), 3));
        let velocities = words(velocity, 3 * n);
        assert_flips_refused("md", &md, positions.chain(velocities), &|b| {
            MdCheckpoint::from_bytes(b).map(|_| ())
        });
    }

    #[test]
    fn warm_screening_matches_cold_bitwise() {
        let pool = ExchangeCachePool::new(4);
        let spec = JobSpec::screening("pc", 16, 3, 5)
            .tenant("t")
            .build()
            .unwrap();
        let cold = match run_job(&spec, None, 1, Some(&pool)) {
            Attempt::Done(out) => out,
            _ => unreachable!(),
        };
        assert_eq!(cold.profile.pairs_reused, 0);
        let warm = match run_job(&spec, None, 1, Some(&pool)) {
            Attempt::Done(out) => out,
            _ => unreachable!(),
        };
        assert!(warm.profile.pairs_reused > 0);
        assert_eq!(warm.profile.pairs_computed, 0);
        assert_eq!(warm.final_energy.to_bits(), cold.final_energy.to_bits());
        // `steps` is a function of the spec, not of which job warmed the
        // pool: the pair-list length either way.
        assert_eq!((cold.steps, warm.steps), (6, 6));
        // And both match a pool-free reference.
        let lone = run_reference(&spec);
        assert_eq!(lone.final_energy.to_bits(), cold.final_energy.to_bits());
    }

    #[test]
    fn multirank_lease_screening_is_bit_identical_to_single() {
        let spec = JobSpec::screening("dmso", 16, 3, 9)
            .tenant("t")
            .build()
            .unwrap();
        let single = match run_job(&spec, None, 1, None) {
            Attempt::Done(out) => out,
            _ => unreachable!(),
        };
        let multi = match run_job(&spec, None, 3, None) {
            Attempt::Done(out) => out,
            _ => unreachable!(),
        };
        assert_eq!(single.final_energy.to_bits(), multi.final_energy.to_bits());
    }
}
