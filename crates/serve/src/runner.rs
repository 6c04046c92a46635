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
use liair_md::analysis::{rdf_peak, BondEvents, RdfAccumulator};
use liair_md::mts::SplitForceProvider;
use liair_md::{ForceField, MdCheckpoint, MdOptions, MdState, MtsOptions, Thermostat};
use liair_scf::{functional_energy, rhf, Method, ScfCheckpoint, ScfOptions, ScfSession};
use liair_xc::Functional;

/// Steps between the periodic checkpoints a fault falls back on.
pub const CHECKPOINT_EVERY: usize = 2;

/// Li–O attack distance (Bohr) of the reaction jobs' contact complexes —
/// the geometry `tab-battery` established for the degradation study.
pub const COMPLEX_LI_O_DIST: f64 = 3.6;

/// Li–O RDF extent (Bohr) of the solvation jobs.
const RDF_R_MAX: f64 = 12.0;
/// Li–O RDF bin count of the solvation jobs.
const RDF_NBINS: usize = 48;
/// First-shell cutoff (Bohr) for the reported Li–O coordination number.
const RDF_COORD_CUT: f64 = 5.0;
/// Bond-scission stretch criterion (relative to r₀) of the solvation
/// jobs — the Morse bonds are > 95 % dissociated past it.
const BOND_STRETCH: f64 = 1.5;

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

/// Resume state of an interrupted solvation trajectory: the MD state
/// plus the analysis accumulators, so a resumed attempt continues the
/// RDF histogram and bond-event ledger bit-exactly rather than
/// restarting them.
#[derive(Debug, Clone)]
pub struct SolvationCheckpoint {
    /// Serialized [`MdCheckpoint`].
    pub md: Vec<u8>,
    /// Li–O RDF histogram bins at the checkpoint.
    pub rdf_bins: Vec<f64>,
    /// RDF frames accumulated at the checkpoint.
    pub rdf_frames: usize,
    /// Distinct solvent-internal bonds broken so far (first-broken
    /// order, the [`BondEvents`] ledger).
    pub broken: Vec<usize>,
}

/// Serialized resume state of a suspended job.
#[derive(Debug, Clone)]
pub enum JobCheckpoint {
    /// An SCF session mid-convergence (SCF and reaction jobs — a
    /// reaction job checkpoints its dominant stage, the complex SCF).
    Scf(ScfCheckpoint),
    /// An MD trajectory mid-flight (serialized [`MdCheckpoint`]).
    Md(Vec<u8>),
    /// A solvation trajectory mid-flight: MD state + analysis state.
    Solvation(SolvationCheckpoint),
}

impl JobCheckpoint {
    /// Serialized size (what a real service would write to burst
    /// buffers; here it feeds the bench's checkpoint-bytes column).
    pub fn nbytes(&self) -> usize {
        match self {
            JobCheckpoint::Scf(ck) => ck.bytes.len(),
            JobCheckpoint::Md(b) => b.len(),
            JobCheckpoint::Solvation(ck) => {
                ck.md.len() + 8 * ck.rdf_bins.len() + 8 + 8 * ck.broken.len()
            }
        }
    }
}

/// Physical observables a job extracted, beyond its headline energy.
/// Every field is `None` unless the job kind computes it; all are
/// deterministic functions of the spec, so the soak and campaign layers
/// bit-compare them the same way they compare `final_energy`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observables {
    /// Reaction jobs: `E(complex) − E(solvent) − E(Li₂O₂)` at RHF (Ha).
    pub e_int_rhf: Option<f64>,
    /// Reaction jobs: the same interaction energy under the requested
    /// post-SCF functional (Ha). Equals `e_int_rhf` for `Hf`.
    pub e_int_functional: Option<f64>,
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
    /// Solvation jobs: distinct solvent-internal bonds broken.
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
        beq(self.e_int_rhf, other.e_int_rhf)
            && beq(self.e_int_functional, other.e_int_functional)
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
    /// potential, total screening exchange energy, or reaction
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
        } => run_scf(spec, *system, *incremental_fock, resume, disruption),
        JobKind::Md {
            n_waters,
            n_outer,
            n_inner,
            temperature,
        } => run_md(
            spec,
            *n_waters,
            *n_outer,
            *n_inner,
            *temperature,
            resume,
            disruption,
        ),
        JobKind::Screening {
            system,
            extent,
            norb,
            seed,
        } => run_screening(system, *extent, *norb, *seed, nranks, cache),
        JobKind::Reaction {
            solvent,
            functional,
        } => run_reaction(*solvent, *functional, resume, disruption),
        JobKind::Solvation {
            solvent,
            box_n,
            seed,
            n_outer,
            n_inner,
            temperature,
        } => run_solvation(
            *solvent,
            *box_n,
            *seed,
            *n_outer,
            *n_inner,
            *temperature,
            resume,
            disruption,
        ),
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
    _spec: &JobSpec,
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

/// SCF options of the reaction jobs — the `tab-battery` settings (the
/// bigger complexes need the headroom).
fn reaction_scf_options() -> ScfOptions {
    ScfOptions {
        energy_tol: 1e-7,
        max_iter: 150,
        ..Default::default()
    }
}

/// A reaction job: converge the solvent·Li₂O₂ complex (disruptable, the
/// dominant stage), then its isolated fragments (cheap, never
/// disrupted — rerun deterministically on resume), and report the
/// interaction energy plus frontier-orbital gaps.
fn run_reaction(
    solvent: Solvent,
    functional: Functional,
    resume: Option<&JobCheckpoint>,
    disruption: Disruption,
) -> Result<JobOutput, Attempt> {
    let complex = systems::li2o2_complex(solvent, COMPLEX_LI_O_DIST);
    let basis_c = Basis::sto3g(&complex);
    let opts = reaction_scf_options();
    let session = drive(scf_session(&complex, &basis_c, &opts, resume), disruption)?;
    let steps = session.iterations();
    let res_c = session.into_result();

    let solv_mol = solvent.molecule();
    let basis_s = Basis::sto3g(&solv_mol);
    let res_s = rhf(&solv_mol, &basis_s, &opts);
    let cluster = systems::li2o2();
    let basis_x = Basis::sto3g(&cluster);
    let res_x = rhf(&cluster, &basis_x, &opts);

    let e_int_rhf = res_c.energy - res_s.energy - res_x.energy;
    // `Hf` is the RHF energy expression itself — skip the recompute so
    // the two columns are bitwise equal, not merely close.
    let e_int_fn = if functional == Functional::Hf {
        e_int_rhf
    } else {
        functional_energy(&complex, &basis_c, &res_c, functional, &opts)
            - functional_energy(&solv_mol, &basis_s, &res_s, functional, &opts)
            - functional_energy(&cluster, &basis_x, &res_x, functional, &opts)
    };
    Ok(JobOutput {
        final_energy: e_int_fn,
        steps,
        converged: res_c.converged && res_s.converged && res_x.converged,
        observables: Observables {
            e_int_rhf: Some(e_int_rhf),
            e_int_functional: Some(e_int_fn),
            gap_complex: res_c.homo_lumo_gap(),
            gap_solvent: res_s.homo_lumo_gap(),
            ..Default::default()
        },
        profile: BuildProfile::default(),
    })
}

/// The deterministic force split MD jobs integrate under: classical
/// force field fast part, a weak quartic tether to the *initial*
/// positions as the slow correction (the same split the MTS equivalence
/// proofs use). Reconstructable from the job spec alone — which is why
/// [`MdCheckpoint`] never serializes the provider.
pub struct TetherSplit {
    ff: ForceField,
    anchors: Vec<Vec3>,
    k: f64,
}

impl TetherSplit {
    /// Split anchored at `mol`'s current positions.
    pub fn new(mol: &Molecule, cell: Option<&Cell>, k: f64) -> TetherSplit {
        TetherSplit {
            ff: ForceField::from_molecule(mol, cell),
            anchors: mol.atoms.iter().map(|a| a.pos).collect(),
            k,
        }
    }

    /// The classical force field of the fast part (bond-scission
    /// detection reuses its bond list).
    pub fn force_field(&self) -> &ForceField {
        &self.ff
    }
}

impl SplitForceProvider for TetherSplit {
    fn fast_forces(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        self.ff.energy_forces(mol, cell)
    }

    fn slow_correction(
        &self,
        mol: &Molecule,
        _cell: Option<&Cell>,
        _fast: (f64, &[Vec3]),
    ) -> (f64, Vec<Vec3>) {
        let mut e = 0.0;
        let forces = mol
            .atoms
            .iter()
            .zip(&self.anchors)
            .map(|(a, &r0)| {
                let d = a.pos - r0;
                let r2 = d.norm_sqr();
                e += 0.25 * self.k * r2 * r2;
                -d * (self.k * r2)
            })
            .collect();
        (e, forces)
    }
}

/// An MTS trajectory of `n_outer` outer steps under a [`TetherSplit`];
/// one [`Resumable`] step is one outer step.
struct MdRun<'a> {
    state: MdState,
    split: &'a TetherSplit,
    opts: MdOptions,
    n_outer: usize,
}

impl<'a> MdRun<'a> {
    /// The trajectory `md` resumes — its serialized [`MdCheckpoint`] —
    /// or, without one, a fresh start: `mol0` in `cell`, thermalized at
    /// `temperature` from `seed`. The Nosé–Hoover/MTS settings are the
    /// ones every MD-stage job integrates under.
    #[allow(clippy::too_many_arguments)]
    fn start(
        md: Option<&[u8]>,
        mol0: Molecule,
        cell: Cell,
        split: &'a TetherSplit,
        seed: u64,
        temperature: f64,
        n_outer: usize,
        n_inner: usize,
    ) -> MdRun<'a> {
        let state = match md {
            Some(bytes) => MdCheckpoint::from_bytes(bytes)
                .expect("a checkpoint taken by this runner round-trips")
                .restore(),
            None => {
                let mut st = MdState::new_split(mol0, Some(cell), split);
                st.thermalize_seeded(temperature, Some(seed));
                st
            }
        };
        MdRun {
            state,
            split,
            opts: MdOptions {
                dt: 10.0,
                thermostat: Thermostat::NoseHoover {
                    t_target: temperature,
                    tau: 300.0,
                },
                mts: MtsOptions { n_inner },
            },
            n_outer,
        }
    }

    fn done(&self) -> bool {
        self.position() >= self.n_outer
    }

    fn md_bytes(&self) -> Vec<u8> {
        MdCheckpoint::capture(&self.state).to_bytes()
    }
}

impl Resumable for MdRun<'_> {
    fn advance(&mut self) -> bool {
        if self.done() {
            return false;
        }
        self.state.step_mts(self.split, &self.opts);
        !self.done()
    }

    fn position(&self) -> usize {
        self.state.step_count / self.opts.mts.n_inner
    }

    fn snapshot(&self) -> JobCheckpoint {
        JobCheckpoint::Md(self.md_bytes())
    }
}

fn run_md(
    spec: &JobSpec,
    n_waters: usize,
    n_outer: usize,
    n_inner: usize,
    temperature: f64,
    resume: Option<&JobCheckpoint>,
    disruption: Disruption,
) -> Result<JobOutput, Attempt> {
    let seed = spec.seeds.resolve_md_seed(None);
    // The provider is never serialized: it is a pure function of the job
    // spec (initial box geometry), reconstructed on every attempt.
    let (mol0, cell) = systems::water_box(n_waters, seed);
    let split = TetherSplit::new(&mol0, Some(&cell), 1e-4);
    let md = resume.map(|ck| match ck {
        JobCheckpoint::Md(bytes) => bytes.as_slice(),
        _ => unreachable!("MD job resumed with a non-MD checkpoint"),
    });
    let run = MdRun::start(md, mol0, cell, &split, seed, temperature, n_outer, n_inner);
    let run = drive(run, disruption)?;
    Ok(JobOutput {
        final_energy: run.state.potential,
        steps: run.state.step_count,
        converged: true,
        observables: Observables::default(),
        profile: BuildProfile::default(),
    })
}

/// A solvation trajectory: an [`MdRun`] plus the analysis that rides on
/// it — one Li–O RDF frame and one bond-scission scan per completed outer
/// step, taken inside the step so the accumulators are part of every
/// checkpoint of that step.
struct SolvationRun<'a> {
    md: MdRun<'a>,
    cell: Cell,
    rdf: RdfAccumulator,
    events: BondEvents,
    /// Indices (into the force field's bond list) of the bonds whose
    /// scission counts against the solvent.
    solvent_bonds: Vec<usize>,
}

impl Resumable for SolvationRun<'_> {
    fn advance(&mut self) -> bool {
        if self.md.done() {
            return false;
        }
        let more = self.md.advance();
        let mol = &self.md.state.mol;
        self.rdf.add_frame(mol, &self.cell);
        let broken_now: Vec<usize> = self
            .md
            .split
            .force_field()
            .broken_bonds(mol, Some(&self.cell), BOND_STRETCH)
            .into_iter()
            .filter(|b| self.solvent_bonds.contains(b))
            .collect();
        self.events.record(&broken_now);
        more
    }

    fn position(&self) -> usize {
        self.md.position()
    }

    fn snapshot(&self) -> JobCheckpoint {
        JobCheckpoint::Solvation(SolvationCheckpoint {
            md: self.md.md_bytes(),
            rdf_bins: self.rdf.bins.clone(),
            rdf_frames: self.rdf.frames(),
            broken: self.events.broken.clone(),
        })
    }
}

/// A solvation job: MTS-integrate an electrolyte box, accumulating the
/// Li–O RDF and solvent-internal bond scissions once per outer step.
/// The analysis accumulators checkpoint *with* the MD state
/// ([`SolvationCheckpoint`]), so a resumed trajectory's histogram is
/// bit-identical to an uninterrupted one.
#[allow(clippy::too_many_arguments)]
fn run_solvation(
    solvent: Solvent,
    box_n: usize,
    seed: u64,
    n_outer: usize,
    n_inner: usize,
    temperature: f64,
    resume: Option<&JobCheckpoint>,
    disruption: Disruption,
) -> Result<JobOutput, Attempt> {
    // Spec-reconstructable, like the MD jobs' provider: geometry, force
    // field, and bond filter are pure functions of the job spec.
    let (mol0, cell) = systems::electrolyte_box(solvent, box_n, seed);
    let split = TetherSplit::new(&mol0, Some(&cell), 1e-4);
    // Solvent-internal bonds only: the cluster's Li–O/O–O bonds stretch
    // and reform as solvation forces act on it, and counting those would
    // charge the solvent for the peroxide's breathing. No solvent in the
    // candidate set has an O–O bond, and only the cluster has Li.
    let solvent_bonds: Vec<usize> = split
        .force_field()
        .bonds
        .iter()
        .enumerate()
        .filter(|(_, b)| {
            let (ei, ej) = (mol0.atoms[b.i].element, mol0.atoms[b.j].element);
            ei != Element::Li && ej != Element::Li && !(ei == Element::O && ej == Element::O)
        })
        .map(|(idx, _)| idx)
        .collect();
    let mut rdf = RdfAccumulator::new(Element::Li, Element::O, RDF_R_MAX, RDF_NBINS);
    let mut events = BondEvents::default();
    let md = resume.map(|ck| match ck {
        JobCheckpoint::Solvation(ck) => {
            rdf.set_state(ck.rdf_bins.clone(), ck.rdf_frames);
            events.broken = ck.broken.clone();
            ck.md.as_slice()
        }
        _ => unreachable!("solvation job resumed with a non-solvation checkpoint"),
    });
    let run = SolvationRun {
        md: MdRun::start(md, mol0, cell, &split, seed, temperature, n_outer, n_inner),
        cell,
        rdf,
        events,
        solvent_bonds,
    };
    let SolvationRun {
        md, rdf, events, ..
    } = drive(run, disruption)?;
    let state = md.state;
    let g = rdf.finish(&state.mol, &cell);
    let (peak_r, peak_g) = rdf_peak(&g);
    Ok(JobOutput {
        final_energy: state.potential,
        steps: state.step_count,
        converged: true,
        observables: Observables {
            rdf_li_o_peak_r: Some(peak_r),
            rdf_li_o_peak_g: Some(peak_g),
            li_o_coordination: Some(rdf.coordination_number(&state.mol, RDF_COORD_CUT)),
            bonds_broken: Some(events.count()),
            ..Default::default()
        },
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
    let result = inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
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
        assert!(obs_ref.bonds_broken.is_some());
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
            // The analysis accumulators resumed too: every observable is
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
            assert_eq!(obs.bonds_broken, obs_ref.bonds_broken);
        }
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
        assert_eq!(forces_slow + 8 + 24 * n + 8, bytes.len(), "layout drifted");
        vec![natoms_at, velocities, masses, forces, forces_slow]
    }

    /// Offsets of the length fields of an SCF checkpoint stream: the
    /// `(rows, cols, len)` header of every `nao x nao` matrix, the `nao`
    /// word before the first of them, the DIIS history length two words
    /// after it, and the eigenvalue vector's prefix after the last.
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
        fields.extend([ends[0] + 8, *ends.last().unwrap()]);
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

        let JobCheckpoint::Md(md) = checkpoint(&md_spec(preempt)) else {
            panic!("MD jobs checkpoint MD states");
        };
        assert_hostile_streams_rejected("md", &md, &md_length_fields(&md), &md_decode);
        assert_eq!(MdCheckpoint::from_bytes(&md).unwrap().to_bytes(), md);

        let JobCheckpoint::Solvation(solv) = checkpoint(&solvation_spec(preempt)) else {
            panic!("solvation jobs checkpoint solvation runs");
        };
        let md = &solv.md;
        assert_hostile_streams_rejected("solvation", md, &md_length_fields(md), &md_decode);
        assert_eq!(&MdCheckpoint::from_bytes(md).unwrap().to_bytes(), md);
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
