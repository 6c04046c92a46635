//! Job specifications: what a tenant submits to the service.
//!
//! A [`JobSpec`] is a complete, self-contained description of one batch
//! computation — the physical problem ([`JobKind`]), the tenant it bills
//! to, its scheduling priority, the rank-pool slice it wants, and the
//! per-job determinism knobs ([`SeedConfig`]). Neither a spec nor the
//! layers a job runs on read the process environment — thermalization
//! takes the spec's seed, and an `ExchangeEngine` runs under a fault plan
//! only when its builder was handed one — so two tenants with different
//! seeds coexist in one service, and no variable set on the serving
//! process can inject faults into their builds.
//!
//! [`Disruption`] injects deterministic failures for the soak tests:
//! a job preempted or faulted at a known step must *resume from its
//! checkpoint* and land on bit-identical final numbers.

use liair_basis::systems::Solvent;
use liair_basis::{systems, Molecule};
use liair_runtime::SeedConfig;
use liair_xc::Functional;

/// The small SCF systems the service schedules (each converges in a few
/// iterations at STO-3G — real work, but cheap enough to soak-test with
/// hundreds of jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScfSystem {
    /// H₂ at equilibrium.
    H2,
    /// Lithium hydride.
    LiH,
    /// A single water molecule.
    Water,
    /// A helium atom.
    Helium,
}

impl ScfSystem {
    /// The geometry this system names.
    pub fn molecule(self) -> Molecule {
        match self {
            ScfSystem::H2 => systems::h2(),
            ScfSystem::LiH => systems::lih(),
            ScfSystem::Water => systems::water(),
            ScfSystem::Helium => systems::helium(),
        }
    }

    /// Stable label for reports.
    pub fn name(self) -> &'static str {
        match self {
            ScfSystem::H2 => "h2",
            ScfSystem::LiH => "lih",
            ScfSystem::Water => "water",
            ScfSystem::Helium => "helium",
        }
    }
}

/// What one job computes.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Converge an RHF SCF on a named small molecule. Checkpointable per
    /// iteration through [`liair_scf::ScfSession`].
    Scf {
        /// Which molecule.
        system: ScfSystem,
        /// Incremental (difference-density) Fock builds.
        incremental_fock: bool,
    },
    /// An r-RESPA MTS trajectory on a seeded water box under the
    /// classical force field (tether-split slow correction).
    /// Checkpointable per outer step through [`liair_md::MdCheckpoint`].
    Md {
        /// Molecules in the box.
        n_waters: usize,
        /// Outer (slow-force) steps.
        n_outer: usize,
        /// Inner steps per outer step.
        n_inner: usize,
        /// Thermalization temperature (K).
        temperature: f64,
    },
    /// A grid-exchange screening evaluation on a synthetic solvent
    /// snapshot: Gaussian proxy orbitals placed deterministically by
    /// `seed`, total exchange energy through the incremental engine.
    /// Same `(system, extent, norb, seed)` ⇒ identical orbitals ⇒ a warm
    /// cross-job cache reproduces the cold result bit-for-bit.
    Screening {
        /// Solvent label (cache namespace).
        system: String,
        /// Cubic grid extent per axis: even and `2ᵃ3ᵇ5ᶜ`, a size the grid
        /// transform runs (checked by [`JobBuilder::build`]).
        extent: usize,
        /// Proxy orbital count.
        norb: usize,
        /// Geometry seed.
        seed: u64,
    },
    /// The campaign's quantum observable: the reaction (interaction)
    /// energy of the solvent·Li₂O₂ contact complex against its isolated
    /// fragments, `E_int = E(complex) − E(solvent) − E(Li₂O₂)`, at RHF
    /// and under every listed post-SCF functional (all read off the same
    /// three converged RHF densities), with HOMO–LUMO gaps of the
    /// complex and the free solvent as oxidative-stability proxies, and
    /// the bond scissions of the complex's hot-MD degradation assay.
    /// Checkpointable during the (dominant) complex SCF stage.
    Reaction {
        /// Which candidate solvent.
        solvent: Solvent,
        /// Post-SCF functionals of the reported interaction energies, in
        /// report order: non-empty, duplicate-free (checked by
        /// [`JobBuilder::build`]). `Functional::Hf` reproduces the RHF
        /// number exactly.
        functionals: Vec<Functional>,
    },
    /// The campaign's dynamical observable: an r-RESPA MTS trajectory of
    /// an electrolyte box (`box_n³ − 1` solvent molecules around one
    /// Li₂O₂ cluster), accumulating the Li–O radial distribution
    /// function along the way; bond scissions are the reaction job's.
    /// Checkpointable per outer step, including the RDF histogram.
    Solvation {
        /// Which candidate solvent fills the box.
        solvent: Solvent,
        /// Lattice side: `box_n³ − 1` solvent molecules + 1 Li₂O₂.
        box_n: usize,
        /// Geometry seed (lattice orientations).
        seed: u64,
        /// Outer (slow-force) MTS steps.
        n_outer: usize,
        /// Inner steps per outer step.
        n_inner: usize,
        /// Thermostat target (K).
        temperature: f64,
    },
}

impl JobKind {
    /// Stable label for reports.
    pub fn label(&self) -> String {
        match self {
            JobKind::Scf { system, .. } => format!("scf:{}", system.name()),
            JobKind::Md { n_waters, .. } => format!("md:w{n_waters}"),
            JobKind::Screening { system, seed, .. } => format!("screen:{system}#{seed}"),
            JobKind::Reaction {
                solvent,
                functionals,
            } => {
                let names: Vec<&str> = functionals.iter().map(|f| f.name()).collect();
                format!("reaction:{}:{}", solvent.key(), names.join("+"))
            }
            JobKind::Solvation {
                solvent,
                box_n,
                seed,
                ..
            } => format!("solvation:{}:n{box_n}#{seed}", solvent.key()),
        }
    }
}

/// Deterministic failure injection, applied on a job's *first* attempt
/// only — the resumed attempt must run undisturbed to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disruption {
    /// Run to completion.
    None,
    /// Scheduler preemption: the runner checkpoints *at* `at_step` and
    /// yields. Resume loses no work.
    Preempt {
        /// SCF iteration / MD outer step at which the job is preempted.
        at_step: usize,
    },
    /// Rank fault (the PR 5 failure model): the attempt dies at
    /// `at_step`, and only the last *periodic* checkpoint survives —
    /// resume re-executes the steps since, and must still reproduce the
    /// uninterrupted numbers bitwise.
    Fault {
        /// SCF iteration / MD outer step at which the attempt dies.
        at_step: usize,
    },
}

impl Disruption {
    /// Whether this spec injects any failure.
    pub fn is_disruptive(&self) -> bool {
        !matches!(self, Disruption::None)
    }
}

/// Why a [`JobBuilder`] refused to produce a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Tenant names are quota keys; an empty one would alias every
    /// anonymous submitter onto one budget.
    EmptyTenant,
    /// A size/step parameter that must be ≥ 1 was 0.
    ZeroParam(&'static str),
    /// A physical parameter outside its sane range.
    BadParam {
        /// Which field.
        field: &'static str,
        /// What went wrong.
        why: &'static str,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::EmptyTenant => write!(f, "tenant must be non-empty"),
            SpecError::ZeroParam(field) => write!(f, "{field} must be at least 1"),
            SpecError::BadParam { field, why } => write!(f, "{field}: {why}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Billing/quota identity.
    pub tenant: String,
    /// The computation.
    pub kind: JobKind,
    /// Base scheduling priority (higher runs sooner).
    pub priority: u32,
    /// Ranks requested from the shared pool (clamped by the pool).
    pub nranks: usize,
    /// Per-job determinism knobs; never read from the environment.
    pub seeds: SeedConfig,
    /// Deterministic failure injection (first attempt only).
    pub disruption: Disruption,
}

impl JobSpec {
    /// Typed entry point: an RHF SCF job on a named small molecule.
    pub fn scf(system: ScfSystem) -> JobBuilder {
        JobBuilder::new(JobKind::Scf {
            system,
            incremental_fock: false,
        })
    }

    /// Typed entry point: an MTS MD job on a seeded water box.
    pub fn md(n_waters: usize, n_outer: usize, n_inner: usize) -> JobBuilder {
        JobBuilder::new(JobKind::Md {
            n_waters,
            n_outer,
            n_inner,
            temperature: 300.0,
        })
    }

    /// Typed entry point: a grid-exchange screening job on a synthetic
    /// solvent snapshot.
    pub fn screening(system: &str, extent: usize, norb: usize, seed: u64) -> JobBuilder {
        JobBuilder::new(JobKind::Screening {
            system: system.to_string(),
            extent,
            norb,
            seed,
        })
    }

    /// Typed entry point: a reaction-energy job on a solvent·Li₂O₂
    /// complex, reporting the interaction energy under each of
    /// `functionals`.
    pub fn reaction(solvent: Solvent, functionals: &[Functional]) -> JobBuilder {
        JobBuilder::new(JobKind::Reaction {
            solvent,
            functionals: functionals.to_vec(),
        })
    }

    /// Typed entry point: a solvation-shell MD job on an electrolyte
    /// box.
    pub fn solvation(solvent: Solvent, box_n: usize, seed: u64) -> JobBuilder {
        JobBuilder::new(JobKind::Solvation {
            solvent,
            box_n,
            seed,
            n_outer: 4,
            n_inner: 2,
            temperature: 400.0,
        })
    }

    /// Generic entry point when the kind is already in hand.
    pub fn builder(kind: JobKind) -> JobBuilder {
        JobBuilder::new(kind)
    }
}

/// Validating builder behind the typed [`JobSpec`] entry points.
///
/// Every knob has a sane default (tenant `"default"`, priority 0, one
/// rank, [`SeedConfig::default`], no disruption); [`JobBuilder::build`]
/// checks the accumulated spec and is the only way out, so an invalid
/// spec (empty tenant, zero-sized box, non-finite temperature, …) is
/// unrepresentable downstream of it.
#[derive(Debug, Clone)]
pub struct JobBuilder {
    kind: JobKind,
    tenant: String,
    priority: u32,
    nranks: usize,
    seeds: SeedConfig,
    disruption: Disruption,
}

impl JobBuilder {
    fn new(kind: JobKind) -> JobBuilder {
        JobBuilder {
            kind,
            tenant: "default".to_string(),
            priority: 0,
            nranks: 1,
            seeds: SeedConfig::default(),
            disruption: Disruption::None,
        }
    }

    /// Billing/quota identity (default `"default"`).
    pub fn tenant(mut self, tenant: &str) -> JobBuilder {
        self.tenant = tenant.to_string();
        self
    }

    /// Base scheduling priority (default 0; higher runs sooner).
    pub fn priority(mut self, priority: u32) -> JobBuilder {
        self.priority = priority;
        self
    }

    /// Ranks requested from the shared pool (default 1).
    pub fn nranks(mut self, nranks: usize) -> JobBuilder {
        self.nranks = nranks;
        self
    }

    /// Full per-job seed configuration.
    pub fn seeds(mut self, seeds: SeedConfig) -> JobBuilder {
        self.seeds = seeds;
        self
    }

    /// Shorthand: override only the MD seed of the job's seed config.
    pub fn md_seed(mut self, seed: u64) -> JobBuilder {
        self.seeds = self.seeds.with_md_seed(seed);
        self
    }

    /// Toggle incremental (difference-density) Fock builds; no-op for
    /// non-SCF kinds.
    pub fn incremental_fock(mut self, on: bool) -> JobBuilder {
        if let JobKind::Scf {
            incremental_fock, ..
        } = &mut self.kind
        {
            *incremental_fock = on;
        }
        self
    }

    /// Thermalization temperature in K; no-op for non-MD kinds.
    pub fn temperature(mut self, t: f64) -> JobBuilder {
        match &mut self.kind {
            JobKind::Md { temperature, .. } | JobKind::Solvation { temperature, .. } => {
                *temperature = t;
            }
            _ => {}
        }
        self
    }

    /// MTS step counts; no-op for non-MD kinds.
    pub fn steps(mut self, outer: usize, inner: usize) -> JobBuilder {
        match &mut self.kind {
            JobKind::Md {
                n_outer, n_inner, ..
            }
            | JobKind::Solvation {
                n_outer, n_inner, ..
            } => {
                *n_outer = outer;
                *n_inner = inner;
            }
            _ => {}
        }
        self
    }

    /// Deterministic failure injection (default none).
    pub fn disruption(mut self, disruption: Disruption) -> JobBuilder {
        self.disruption = disruption;
        self
    }

    /// Validate and produce the spec.
    pub fn build(self) -> Result<JobSpec, SpecError> {
        if self.tenant.is_empty() {
            return Err(SpecError::EmptyTenant);
        }
        if self.nranks == 0 {
            return Err(SpecError::ZeroParam("nranks"));
        }
        match &self.kind {
            JobKind::Scf { .. } => {}
            JobKind::Reaction { functionals, .. } => {
                if functionals.is_empty() {
                    return Err(SpecError::ZeroParam("functionals"));
                }
                if !all_distinct(functionals) {
                    return Err(SpecError::BadParam {
                        field: "functionals",
                        why: "must be duplicate-free (each is reported once)",
                    });
                }
            }
            JobKind::Md {
                n_waters,
                n_outer,
                n_inner,
                temperature,
            } => {
                if *n_waters == 0 {
                    return Err(SpecError::ZeroParam("n_waters"));
                }
                check_mts(*n_outer, *n_inner, *temperature)?;
            }
            JobKind::Screening { extent, norb, .. } => {
                if *extent == 0 {
                    return Err(SpecError::ZeroParam("extent"));
                }
                if !liair_math::rfft::supported((*extent, *extent, *extent)) {
                    return Err(SpecError::BadParam {
                        field: "extent",
                        why: "the grid transform needs an even 2^a 3^b 5^c extent",
                    });
                }
                if *norb == 0 {
                    return Err(SpecError::ZeroParam("norb"));
                }
            }
            JobKind::Solvation {
                box_n,
                n_outer,
                n_inner,
                temperature,
                ..
            } => {
                if *box_n < 2 {
                    return Err(SpecError::BadParam {
                        field: "box_n",
                        why: "electrolyte box needs box_n >= 2 (box_n^3 - 1 solvent molecules)",
                    });
                }
                check_mts(*n_outer, *n_inner, *temperature)?;
            }
        }
        Ok(JobSpec {
            tenant: self.tenant,
            kind: self.kind,
            priority: self.priority,
            nranks: self.nranks,
            seeds: self.seeds,
            disruption: self.disruption,
        })
    }
}

/// The MTS settings both trajectory kinds validate alike.
fn check_mts(n_outer: usize, n_inner: usize, temperature: f64) -> Result<(), SpecError> {
    if n_outer == 0 {
        return Err(SpecError::ZeroParam("n_outer"));
    }
    if n_inner == 0 {
        return Err(SpecError::ZeroParam("n_inner"));
    }
    if !temperature.is_finite() || temperature <= 0.0 {
        return Err(SpecError::BadParam {
            field: "temperature",
            why: "must be finite and positive",
        });
    }
    Ok(())
}

/// Whether no two entries of `xs` are equal.
pub(crate) fn all_distinct<T: PartialEq>(xs: &[T]) -> bool {
    xs.iter()
        .enumerate()
        .all(|(i, x)| !xs[..i].iter().any(|y| y == x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        let s = JobSpec::scf(ScfSystem::LiH).tenant("acme").build().unwrap();
        assert_eq!(s.kind.label(), "scf:lih");
        assert_eq!(s.tenant, "acme");
        assert_eq!(
            JobKind::Screening {
                system: "pc".into(),
                extent: 16,
                norb: 4,
                seed: 3
            }
            .label(),
            "screen:pc#3"
        );
        assert_eq!(
            JobKind::Reaction {
                solvent: Solvent::Dmso,
                functionals: vec![Functional::Pbe0]
            }
            .label(),
            "reaction:dmso:PBE0"
        );
        assert_eq!(
            JobSpec::reaction(
                Solvent::PropyleneCarbonate,
                &[Functional::Hf, Functional::Pbe0]
            )
            .build()
            .unwrap()
            .kind
            .label(),
            "reaction:pc:HF+PBE0"
        );
        assert_eq!(
            JobKind::Solvation {
                solvent: Solvent::Dme,
                box_n: 2,
                seed: 5,
                n_outer: 4,
                n_inner: 2,
                temperature: 400.0
            }
            .label(),
            "solvation:dme:n2#5"
        );
    }

    #[test]
    fn builders_compose() {
        let s = JobSpec::md(2, 3, 2)
            .tenant("a")
            .priority(7)
            .nranks(4)
            .disruption(Disruption::Preempt { at_step: 2 })
            .build()
            .unwrap();
        assert_eq!(s.priority, 7);
        assert_eq!(s.nranks, 4);
        assert!(s.disruption.is_disruptive());
        match s.kind {
            JobKind::Md {
                n_waters,
                n_outer,
                n_inner,
                temperature,
            } => {
                assert_eq!((n_waters, n_outer, n_inner), (2, 3, 2));
                assert_eq!(temperature, 300.0);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            JobSpec::scf(ScfSystem::H2).tenant("").build().unwrap_err(),
            SpecError::EmptyTenant
        );
        assert_eq!(
            JobSpec::md(0, 3, 2).build().unwrap_err(),
            SpecError::ZeroParam("n_waters")
        );
        assert_eq!(
            JobSpec::screening("pc", 8, 0, 1).build().unwrap_err(),
            SpecError::ZeroParam("norb")
        );
        assert!(matches!(
            JobSpec::solvation(Solvent::Dmso, 1, 0).build().unwrap_err(),
            SpecError::BadParam { field: "box_n", .. }
        ));
        // Both trajectory kinds check their MTS settings alike.
        assert_eq!(
            JobSpec::solvation(Solvent::Dmso, 2, 0)
                .steps(0, 2)
                .build()
                .unwrap_err(),
            SpecError::ZeroParam("n_outer")
        );
        assert_eq!(
            JobSpec::md(2, 3, 0).build().unwrap_err(),
            SpecError::ZeroParam("n_inner")
        );
        assert!(matches!(
            JobSpec::solvation(Solvent::Dmso, 2, 0)
                .temperature(-1.0)
                .build()
                .unwrap_err(),
            SpecError::BadParam {
                field: "temperature",
                ..
            }
        ));
        assert!(matches!(
            JobSpec::md(2, 3, 2)
                .temperature(f64::NAN)
                .build()
                .unwrap_err(),
            SpecError::BadParam {
                field: "temperature",
                ..
            }
        ));
        assert_eq!(
            JobSpec::scf(ScfSystem::H2).nranks(0).build().unwrap_err(),
            SpecError::ZeroParam("nranks")
        );
        assert_eq!(
            JobSpec::reaction(Solvent::Dme, &[]).build().unwrap_err(),
            SpecError::ZeroParam("functionals")
        );
        assert!(matches!(
            JobSpec::reaction(
                Solvent::Dme,
                &[Functional::Pbe0, Functional::Hf, Functional::Pbe0]
            )
            .build()
            .unwrap_err(),
            SpecError::BadParam {
                field: "functionals",
                ..
            }
        ));
    }

    #[test]
    fn screening_extent_must_be_one_the_transform_runs() {
        for extent in [14, 15] {
            assert!(
                matches!(
                    JobSpec::screening("pc", extent, 3, 1).build().unwrap_err(),
                    SpecError::BadParam {
                        field: "extent",
                        ..
                    }
                ),
                "extent {extent}"
            );
        }
        assert!(JobSpec::screening("pc", 16, 3, 1).build().is_ok());
    }

    #[test]
    fn builder_knobs_reach_the_kind() {
        let s = JobSpec::scf(ScfSystem::Water)
            .incremental_fock(true)
            .md_seed(99)
            .build()
            .unwrap();
        assert!(matches!(
            s.kind,
            JobKind::Scf {
                incremental_fock: true,
                ..
            }
        ));
        assert_eq!(s.seeds.resolve_md_seed(), 99);

        let s = JobSpec::solvation(Solvent::EthyleneCarbonate, 2, 1)
            .steps(6, 3)
            .temperature(500.0)
            .build()
            .unwrap();
        match s.kind {
            JobKind::Solvation {
                n_outer,
                n_inner,
                temperature,
                ..
            } => {
                assert_eq!((n_outer, n_inner), (6, 3));
                assert_eq!(temperature, 500.0);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn scf_systems_have_atoms() {
        for sys in [
            ScfSystem::H2,
            ScfSystem::LiH,
            ScfSystem::Water,
            ScfSystem::Helium,
        ] {
            assert!(!sys.molecule().atoms.is_empty(), "{}", sys.name());
        }
    }
}
