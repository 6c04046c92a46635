//! `hfx-build`: one unit is a from-scratch exchange build of `box32`
//! followed by `box48`, both over the 2-rank message-passing backend.
//!
//! The orbitals are Gaussian proxies on a jittered simple-cubic lattice in a
//! periodic cubic cell. The lattice constant keeps every nearest neighbour
//! inside the ε = 1e-6 screening radius and every second neighbour outside
//! it for any jitter, so the seed moves every centre (and every energy) but
//! not the number of pairs: unit time measures the code, not the draw.

use super::{rel_diff, unit_span_s, Workload, DEFAULT_SEED};
use crate::layers;
use crate::stats::time_calls;
use crate::trace::Tracer;
use liair::basis::Cell;
use liair::core::{source_pairs, HfxResult};
use liair::grid::PoissonWorkspace;
use liair::math::rfft::{half_len, irfft3_into, rfft3_into};
use liair::math::rng::SplitMix64;
use liair::math::Complex64;
use liair::prelude::*;

const EPS: f64 = 1e-6;
/// Uniform jitter amplitude per coordinate (Bohr).
const JITTER: f64 = 0.25;

/// Exchange energies of (`box32`, `box48`) at the default seed.
const PINNED: (f64, f64) = (-1.424304638906671e2, -1.5957692376774618e1);

/// One periodic box of proxy orbitals with its grid and solver.
struct ProxyBox {
    grid: RealGrid,
    solver: PoissonSolver,
    infos: Vec<OrbitalInfo>,
    orbitals: Vec<Vec<f64>>,
    /// Energy of a `Serial` build by this binary (set-up).
    reference: f64,
    /// Output of the last timed build.
    last: Option<HfxResult>,
}

impl ProxyBox {
    /// `sites.0 x sites.1 x sites.2` lattice sites, `sites.0` cells of
    /// `edge / sites.0` along each axis; a layer count below `sites.0`
    /// along z spreads the layers evenly (so they are no neighbours).
    fn new(
        rng: &mut SplitMix64,
        edge: f64,
        n: usize,
        sites: (usize, usize, usize),
        spread: f64,
    ) -> Self {
        let grid = RealGrid::cubic(Cell::cubic(edge), n);
        let solver = PoissonSolver::isolated(grid);
        let a = edge / sites.0 as f64;
        let az = edge / sites.2 as f64;
        let mut infos = Vec::new();
        for ix in 0..sites.0 {
            for iy in 0..sites.1 {
                for iz in 0..sites.2 {
                    let mut j = || rng.range_f64(-JITTER, JITTER);
                    let center = Vec3::new(
                        (ix as f64 + 0.5) * a + j(),
                        (iy as f64 + 0.5) * a + j(),
                        (iz as f64 + 0.5) * az + j(),
                    );
                    infos.push(OrbitalInfo { center, spread });
                }
            }
        }
        // Storage order is part of the input too.
        rng.shuffle(&mut infos);
        let norm = (std::f64::consts::PI * spread * spread).powf(-0.75);
        let orbitals = infos
            .iter()
            .map(|o| {
                (0..grid.len())
                    .map(|i| {
                        let d = grid.cell.min_image(o.center, grid.point_flat(i));
                        norm * (-d.norm_sqr() / (2.0 * spread * spread)).exp()
                    })
                    .collect()
            })
            .collect();
        let mut b = ProxyBox {
            grid,
            solver,
            infos,
            orbitals,
            reference: 0.0,
            last: None,
        };
        b.reference = b.build(ExecBackend::Serial).energy;
        b
    }

    fn pairs(&self) -> liair::core::PairList {
        source_pairs(&self.infos, EPS, Some(&self.grid.cell))
    }

    /// Pair sourcing, engine construction and the energy build.
    fn build(&self, backend: ExecBackend) -> HfxResult {
        let pairs = self.pairs();
        ExchangeEngine::builder(&self.grid, &self.solver)
            .backend(backend)
            .no_faults()
            .build()
            .expect("valid engine configuration")
            .energy(&self.orbitals, &pairs)
    }

    fn check(&self, name: &str, pinned: Option<f64>) -> Result<(), String> {
        let out = self.last.as_ref().ok_or("no unit ran")?;
        if out.energy.to_bits() != self.reference.to_bits() {
            return Err(format!(
                "{name}: Comm energy {:e} differs from Serial {:e}",
                out.energy, self.reference
            ));
        }
        match pinned {
            Some(p) if rel_diff(out.energy, p) > 1e-9 => Err(format!(
                "{name}: energy {:e} is not the pinned {p:e}",
                out.energy
            )),
            _ => Ok(()),
        }
    }
}

const COMM: ExecBackend = ExecBackend::Comm {
    nranks: 2,
    strategy: BalanceStrategy::GreedyLpt,
};

pub struct HfxBuild {
    box32: ProxyBox,
    box48: ProxyBox,
    pinned: bool,
}

impl HfxBuild {
    pub fn setup(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        HfxBuild {
            // rc(0.7, 0.7, 1e-6) = 5.20: neighbours at 4.4 ± jitter are in,
            // second neighbours at 6.2 ± jitter are out. 125 + 375 pairs.
            box32: ProxyBox::new(&mut rng, 22.0, 32, (5, 5, 5), 0.7),
            // rc(0.9, 0.9, 1e-6) = 6.69 against 5.5 and 7.8; the two z
            // layers are 8.25 apart. 18 + 36 pairs.
            box48: ProxyBox::new(&mut rng, 16.5, 48, (3, 3, 2), 0.9),
            pinned: seed == DEFAULT_SEED,
        }
    }
}

impl Workload for HfxBuild {
    fn unit(&mut self, tr: &mut Tracer) {
        for (b, name) in [
            (&mut self.box32, "core.build32"),
            (&mut self.box48, "core.build48"),
        ] {
            b.last = Some(tr.span(name, |tr| {
                let out = b.build(COMM);
                tr.count("pairs_computed", out.profile.pairs_computed as f64);
                tr.count("bytes_reduced", out.profile.bytes_reduced as f64);
                out
            }));
        }
    }

    fn check(&self) -> Result<(), String> {
        self.box32.check("box32", self.pinned.then_some(PINNED.0))?;
        self.box48.check("box48", self.pinned.then_some(PINNED.1))
    }

    fn layers(&mut self, tr: &mut Tracer, _unit_s: f64) -> Vec<(&'static str, f64)> {
        let mut m = Vec::new();
        let b32 = &self.box32;
        let b48 = &self.box48;

        // math: the transforms the pair kernel is made of.
        let fft = |tr: &mut Tracer, b: &ProxyBox, fwd: &'static str, inv: Option<&'static str>| {
            let dims = b.grid.dims;
            let mut real = b.orbitals[0].clone();
            let mut half = vec![Complex64::ZERO; half_len(dims)];
            let mut out = vec![(
                fwd,
                tr.span(fwd, |_| {
                    time_calls(200, || rfft3_into(&real, dims, &mut half))
                }),
            )];
            if let Some(inv) = inv {
                out.push((
                    inv,
                    tr.span(inv, |_| {
                        time_calls(200, || irfft3_into(&mut half, dims, &mut real))
                    }),
                ));
            }
            out
        };
        m.extend(fft(
            tr,
            b32,
            "math.rfft3_fwd_32_s",
            Some("math.irfft3_32_s"),
        ));
        m.extend(fft(tr, b48, "math.rfft3_fwd_48_s", None));

        // grid: one pair-Poisson energy, and building the solver.
        let mut pair_s = [0.0; 2];
        for (k, (b, t_name, frac_name, build_name)) in [
            (
                b32,
                "grid.pair_energy_32_s",
                "grid.pair_fft_frac_32",
                "grid.solver_build_32_s",
            ),
            (
                b48,
                "grid.pair_energy_48_s",
                "grid.pair_fft_frac_48",
                "grid.solver_build_48_s",
            ),
        ]
        .into_iter()
        .enumerate()
        {
            let rho: Vec<f64> = b.orbitals[0]
                .iter()
                .zip(&b.orbitals[1])
                .map(|(x, y)| x * y)
                .collect();
            let mut ws = PoissonWorkspace::new();
            b.solver.exchange_pair_energy(&rho, &mut ws);
            ws.take_timings();
            let t = std::time::Instant::now();
            pair_s[k] = tr.span(t_name, |_| {
                time_calls(200, || {
                    std::hint::black_box(b.solver.exchange_pair_energy(&rho, &mut ws));
                })
            });
            let wall = t.elapsed().as_secs_f64();
            m.push((t_name, pair_s[k]));
            m.push((frac_name, ws.take_timings().fft_s / wall));
            let grid = b.grid;
            m.push((
                build_name,
                tr.span(build_name, |_| {
                    time_calls(20, || {
                        std::hint::black_box(PoissonSolver::isolated(grid));
                    })
                }),
            ));
        }

        // core: the builds themselves, the plain single-worker baseline,
        // pair sourcing, and the counters the last Comm builds returned.
        let build32 = unit_span_s(tr, "core.build32");
        let build48 = unit_span_s(tr, "core.build48");
        let serial32 = tr.span("core.serial_build32", |_| {
            time_calls(6, || {
                std::hint::black_box(b32.build(ExecBackend::Serial));
            })
        });
        let serial48 = tr.span("core.serial_build48", |_| {
            time_calls(6, || {
                std::hint::black_box(b48.build(ExecBackend::Serial));
            })
        });
        let source = tr.span("core.pair_source", |_| {
            time_calls(200, || {
                std::hint::black_box((b32.pairs(), b48.pairs()));
            })
        });
        let mut p = b32.last.as_ref().expect("units ran").profile;
        let p48 = b48.last.as_ref().expect("units ran").profile;
        let kernel_s = p.pairs_computed as f64 * pair_s[0] + p48.pairs_computed as f64 * pair_s[1];
        p.merge(&p48);
        m.extend([
            ("core.build32_s", build32),
            ("core.build48_s", build48),
            ("core.serial_build32_s", serial32),
            ("core.serial_build48_s", serial48),
            (
                "core.comm_overhead_frac",
                (build32 + build48) / (serial32 + serial48) - 1.0,
            ),
            (
                "core.engine_overhead_frac",
                1.0 - kernel_s / (build32 + build48),
            ),
            ("core.pair_source_s", source),
            ("core.pairs_considered", p.pairs_considered as f64),
            ("core.pairs_screened", p.pairs_screened as f64),
            ("core.pairs_computed", p.pairs_computed as f64),
            ("core.t_fft_s", p.t_fft_s),
            ("core.t_kernel_s", p.t_kernel_s),
            ("core.t_exec_s", p.t_exec_s),
            ("core.t_reduce_s", p.t_reduce_s),
            ("core.bytes_reduced", p.bytes_reduced as f64),
            ("core.steady_allocs", p.steady_allocs as f64),
            ("core.chunks_stolen", p.chunks_stolen as f64),
            ("core.steal_requests", p.steal_requests as f64),
            ("core.comm_retries", p.comm_retries as f64),
            (
                "core.rank_busy_imbalance",
                p.rank_busy_max_s / p.rank_busy_min_s,
            ),
        ]);

        // runtime: what one sub-build pays to exist (one launch, one gather).
        m.extend(layers::runtime_spmd(tr));
        m
    }
}
