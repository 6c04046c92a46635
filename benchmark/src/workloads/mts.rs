//! `mts-bomd`: one unit is a short ab initio r-RESPA trajectory of
//! stretched H₂ from scratch — LDA forces every inner step, the
//! exact-exchange correction (24³ grid SCF through the K-operator path, warm
//! incremental caches) every outer step. The seed draws the velocities.

use super::Workload;
use crate::stats::{p25, time_calls};
use crate::trace::Tracer;
use liair::basis::Cell;
use liair::core::{IncSchedule, IncStats};
use liair::grid::PoissonWorkspace;
use liair::math::rfft::{half_len, irfft3_into, rfft3_into};
use liair::math::Complex64;
use liair::prelude::*;
use std::time::Instant;

const GRID_N: usize = 24;
const EDGE: f64 = 12.0;
const N_OUTER: usize = 2;
const N_INNER: usize = 2;
const DT: f64 = 10.0;
/// Largest |E(t) − E(0)| a correct trajectory of this length shows (Ha).
const DRIFT_BOUND: f64 = 2e-3;

/// What one trajectory produced and where its time went.
#[derive(Clone, Copy)]
struct Run {
    conserved: f64,
    drift: f64,
    total_s: f64,
    init_s: f64,
    fast_s: f64,
    slow_s: f64,
    inc: IncStats,
}

pub struct MtsBomd {
    seed: u64,
    mol: Molecule,
    reference: Run,
    last: Option<Run>,
    /// Every unit of the traced trial, for the per-layer quartiles.
    traced: Vec<Run>,
}

impl MtsBomd {
    pub fn setup(seed: u64) -> Self {
        let mut mol = systems::h2();
        mol.atoms[1].pos.x = 1.5;
        let mut w = MtsBomd {
            seed,
            mol,
            reference: Run {
                conserved: 0.0,
                drift: 0.0,
                total_s: 0.0,
                init_s: 0.0,
                fast_s: 0.0,
                slow_s: 0.0,
                inc: IncStats::default(),
            },
            last: None,
            traced: Vec::new(),
        };
        w.reference = w.trajectory(&mut Tracer::off());
        w
    }

    fn trajectory(&self, tr: &mut Tracer) -> Run {
        let t0 = Instant::now();
        let split = HfxDeltaForces {
            fast: XcForces::new(Functional::Lda),
            full: IncrementalGridForces::new(GRID_N, EDGE, IncSchedule::fixed(1e-4, 0)),
        };
        let t_init = Instant::now();
        let mut state = tr.span("md.new_split", |_| {
            MdState::new_split(self.mol.clone(), None, &split)
        });
        let init_s = t_init.elapsed().as_secs_f64();
        state.thermalize_seeded(300.0, Some(self.seed));
        let e0 = state.total_energy();
        let opts = MdOptions {
            dt: DT,
            thermostat: Thermostat::None,
            mts: MtsOptions { n_inner: N_INNER },
        };
        let log = tr.span("md.run_mts_logged", |tr| {
            let log = state.run_mts_logged(&split, &opts, N_OUTER);
            tr.count(
                "pairs_reused",
                split.full.reuse_totals().pairs_reused as f64,
            );
            log
        });
        Run {
            conserved: log.last().expect("n_outer > 0").conserved,
            drift: log
                .iter()
                .map(|r| (r.conserved - e0).abs())
                .fold(0.0, f64::max),
            total_s: t0.elapsed().as_secs_f64(),
            init_s,
            fast_s: log.iter().map(|r| r.times.t_fast_s).sum(),
            slow_s: log.iter().map(|r| r.times.t_slow_s).sum(),
            inc: split.full.reuse_totals(),
        }
    }
}

impl Workload for MtsBomd {
    fn unit(&mut self, tr: &mut Tracer) {
        let run = self.trajectory(tr);
        if tr.is_on() {
            self.traced.push(run);
        }
        self.last = Some(run);
    }

    fn check(&self) -> Result<(), String> {
        let run = self.last.as_ref().ok_or("no unit ran")?;
        if run.conserved.to_bits() != self.reference.conserved.to_bits() {
            return Err(format!(
                "final conserved energy {:e} differs from the set-up trajectory's {:e}",
                run.conserved, self.reference.conserved
            ));
        }
        if run.drift.is_nan() || run.drift > DRIFT_BOUND {
            return Err(format!(
                "energy drift {:e} Ha exceeds {DRIFT_BOUND:e}",
                run.drift
            ));
        }
        Ok(())
    }

    fn layers(&mut self, tr: &mut Tracer, _unit_s: f64) -> Vec<(&'static str, f64)> {
        let grid = RealGrid::cubic(Cell::cubic(EDGE), GRID_N);
        let solver = PoissonSolver::isolated(grid);
        let centre = Vec3::splat(EDGE / 2.0);
        let mut rho: Vec<f64> = (0..grid.len())
            .map(|i| (-(grid.point_flat(i) - centre).norm_sqr()).exp())
            .collect();
        let mut half = vec![Complex64::ZERO; half_len(grid.dims)];
        let mut ws = PoissonWorkspace::new();

        let xc = tr.span("xc.lda_energy_24_s", |_| {
            time_calls(200, || {
                std::hint::black_box(Functional::Lda.xc_energy(&grid, &rho));
            })
        });
        let solve = tr.span("grid.solve_24_s", |_| {
            time_calls(200, || {
                std::hint::black_box(solver.solve_into(&rho, &mut ws));
            })
        });
        let fwd = tr.span("math.rfft3_fwd_24_s", |_| {
            time_calls(200, || rfft3_into(&rho, grid.dims, &mut half))
        });
        let inv = tr.span("math.irfft3_24_s", |_| {
            time_calls(200, || irfft3_into(&mut half, grid.dims, &mut rho))
        });

        let col = |f: fn(&Run) -> f64| p25(&self.traced.iter().map(f).collect::<Vec<_>>());
        let last = self.last.as_ref().expect("units ran");
        let built = (last.inc.pairs_reused + last.inc.pairs_recomputed) as f64;
        vec![
            ("xc.lda_energy_24_s", xc),
            ("grid.solve_24_s", solve),
            ("math.rfft3_fwd_24_s", fwd),
            ("math.irfft3_24_s", inv),
            ("core.inc_pairs_reused", last.inc.pairs_reused as f64),
            (
                "core.inc_pairs_recomputed",
                last.inc.pairs_recomputed as f64,
            ),
            ("core.inc_reuse_frac", last.inc.pairs_reused as f64 / built),
            ("md.init_forces_s", col(|r| r.init_s)),
            ("md.fast_s", col(|r| r.fast_s)),
            ("md.slow_s", col(|r| r.slow_s)),
            ("md.slow_frac", col(|r| r.slow_s / r.total_s)),
            (
                "md.integrator_s",
                col(|r| r.total_s - r.init_s - r.fast_s - r.slow_s),
            ),
            ("md.energy_drift_ha", last.drift),
        ]
    }
}
