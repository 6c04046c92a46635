//! The run protocol. A run of one workload is a few *trials*, each a fresh
//! child process that sets up, runs one untimed warm-up unit and then timed
//! units in a closed loop (one client; the next unit starts when the
//! previous one returns). The parent aggregates with the floor estimator of
//! [`crate::stats`] and prints the result line.

use crate::json::{self, Value};
use crate::names::{END_TO_END, LAYERS, MIN_UNITS, PER_LAYER, RUN_SECONDS, TRIALS};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// How many units a trial times.
#[derive(Debug, Clone, Copy)]
pub struct TrialPlan {
    /// Keep starting units until this many seconds of units have run …
    pub budget_s: f64,
    /// … and at least this many units have.
    pub min_units: usize,
}

/// What one trial measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trial {
    /// Process start to first timed unit, warm-up unit included.
    pub setup_s: f64,
    /// Wall seconds of each timed unit.
    pub unit_s: Vec<f64>,
    /// Units that panicked or failed their correctness check.
    pub failed: usize,
    /// First failure message, for the log.
    pub first_error: Option<String>,
    /// The process's `VmHWM` at the end of the trial.
    pub peak_rss_kb: f64,
    /// Whether the process ran on exactly one CPU.
    pub pinned: bool,
    /// Per-layer metrics (traced trial only).
    pub layers: Vec<(String, f64)>,
}

/// Run one unit, then check it outside the timed region. A panic counts as a
/// failed unit.
fn timed_unit(w: &mut dyn Workload, tr: &mut Tracer) -> (f64, Result<(), String>) {
    let t = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| tr.span("bench.unit", |tr| w.unit(tr))));
    let dt = t.elapsed().as_secs_f64();
    let verdict = match ran {
        Ok(()) => w.check(),
        Err(_) => Err("unit panicked".to_string()),
    };
    (dt, verdict)
}

/// The timed part of a trial: units in a closed loop, each checked.
pub fn run_units(w: &mut dyn Workload, tr: &mut Tracer, plan: TrialPlan, trial: &mut Trial) {
    let mut spent = 0.0;
    while trial.unit_s.len() < plan.min_units || spent < plan.budget_s {
        tr.set_unit(Some(trial.unit_s.len()));
        let (dt, verdict) = timed_unit(w, tr);
        spent += dt;
        trial.unit_s.push(dt);
        if let Err(e) = verdict {
            trial.failed += 1;
            trial.first_error.get_or_insert(e);
        }
    }
    tr.set_unit(None);
}

fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(f64::NAN)
}

/// Where the traced trial writes its spans.
pub fn trace_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/trace.jsonl")
}

/// Body of a child process: one trial of `workload`, printed as one JSON
/// line. `started` is the process's first instant.
pub fn child_main(
    started: Instant,
    workload: &str,
    seed: u64,
    plan: TrialPlan,
    traced: bool,
) -> i32 {
    let Some(mut w) = workloads::setup(workload, seed) else {
        eprintln!("unknown workload `{workload}`");
        return 2;
    };
    let mut tr = if traced { Tracer::on() } else { Tracer::off() };
    let (_, warm_up) = timed_unit(w.as_mut(), &mut Tracer::off());
    let mut trial = Trial {
        setup_s: started.elapsed().as_secs_f64(),
        pinned: crate::pin::is_pinned(),
        ..Trial::default()
    };
    if let Err(e) = warm_up {
        trial.first_error = Some(format!("warm-up: {e}"));
    }
    run_units(w.as_mut(), &mut tr, plan, &mut trial);
    if traced {
        let layers = w.layers(&mut tr, stats::p25(&trial.unit_s));
        trial.layers = layers
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let misses = liair::math::plan::plan_cache_stats().misses as f64;
        trial.layers.push(("math.plan_cache_misses".into(), misses));
        for layer in LAYERS {
            eprintln!("  trace: {:>4} spans in {layer}", tr.layer_spans(layer));
        }
        if let Err(e) = tr.write_jsonl(&trace_path(), workload) {
            eprintln!("cannot write {}: {e}", trace_path().display());
            return 1;
        }
    }
    trial.peak_rss_kb = peak_rss_kb();
    println!("{}", trial.to_json());
    0
}

impl Trial {
    /// The child-to-parent line.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("setup_s".into(), Value::Num(self.setup_s)),
            ("unit_s".into(), Value::nums(&self.unit_s)),
            ("failed".into(), Value::Num(self.failed as f64)),
            (
                "first_error".into(),
                self.first_error.clone().map_or(Value::Null, Value::Str),
            ),
            ("peak_rss_kb".into(), Value::Num(self.peak_rss_kb)),
            ("pinned".into(), Value::Bool(self.pinned)),
            (
                "layers".into(),
                Value::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse the child-to-parent line.
    pub fn from_json(v: &Value) -> Option<Trial> {
        Some(Trial {
            setup_s: v.get("setup_s")?.as_f64()?,
            unit_s: v
                .get("unit_s")?
                .as_arr()?
                .iter()
                .filter_map(Value::as_f64)
                .collect(),
            failed: v.get("failed")?.as_f64()? as usize,
            first_error: v.get("first_error")?.as_str().map(str::to_string),
            peak_rss_kb: v.get("peak_rss_kb")?.as_f64().unwrap_or(f64::NAN),
            pinned: matches!(v.get("pinned")?, Value::Bool(true)),
            layers: v
                .get("layers")?
                .as_obj()?
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect(),
        })
    }
}

/// Start one trial as a fresh process and read its line.
fn spawn_trial(workload: &str, seed: u64, plan: TrialPlan, traced: bool) -> Result<Trial, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--child")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--budget-s", &plan.budget_s.to_string()])
        .args(["--min-units", &plan.min_units.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a trial: {e}"))?;
    if !out.status.success() {
        return Err(format!("trial of {workload} ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("trial printed nothing")?;
    json::parse(line)
        .ok()
        .and_then(|v| Trial::from_json(&v))
        .ok_or_else(|| format!("cannot read the trial's line: {line}"))
}

/// The numbers of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Units attempted over all trials.
    pub attempted: usize,
    /// Units that failed over all trials.
    pub failed: usize,
    /// `END_TO_END` values, in order.
    pub end_to_end: Vec<f64>,
    /// `PER_LAYER` values, in order (empty without a traced trial).
    pub per_layer: Vec<f64>,
}

/// Aggregate the untraced trials (and the traced one, when given).
pub fn aggregate(trials: &[Trial], traced: Option<&Trial>) -> Run {
    let units: Vec<Vec<f64>> = trials.iter().map(|t| t.unit_s.clone()).collect();
    let pooled: Vec<f64> = units.concat();
    let unit_s = stats::floor_of_trials(&units);
    let col = |f: fn(&Trial) -> f64| trials.iter().map(f).collect::<Vec<_>>();
    let mut run = Run {
        attempted: pooled.len(),
        failed: trials.iter().map(|t| t.failed).sum(),
        end_to_end: vec![
            unit_s,
            stats::min(&col(|t| t.setup_s)),
            stats::max(&col(|t| t.peak_rss_kb)) / 1024.0,
        ],
        per_layer: Vec::new(),
    };
    if let Some(traced) = traced {
        run.attempted += traced.unit_s.len();
        run.failed += traced.failed;
        let all_pinned = trials.iter().chain([traced]).all(|t| t.pinned);
        let bench = [
            ("bench.pinned", f64::from(all_pinned)),
            ("bench.trials", trials.len() as f64),
            (
                "bench.units_per_trial",
                stats::min(&col(|t| t.unit_s.len() as f64)),
            ),
            ("bench.unit_p50_s", stats::median(&pooled)),
            ("bench.unit_p90_s", stats::quantile(&pooled, 0.9)),
            ("bench.trial_spread", stats::trial_spread(&units)),
            (
                "bench.trace_overhead_frac",
                stats::p25(&traced.unit_s) / unit_s - 1.0,
            ),
        ];
        run.per_layer = PER_LAYER
            .iter()
            .map(|&(name, _, _)| {
                let measured = traced.layers.iter().map(|(k, v)| (k.as_str(), *v));
                // A layer the workload never enters reads 0.
                measured
                    .chain(bench)
                    .find(|(k, _)| *k == name)
                    .map_or(0.0, |(_, v)| v)
            })
            .collect();
    }
    run
}

/// The line the contract asks for: `correct`, `attempted`, `failed` and the
/// end-to-end metrics, or the per-layer ones for a traced run.
pub fn result_line(run: &Run, traced: bool) -> Value {
    let metric = |name: &str, unit: &str, value: f64| {
        let body = vec![
            ("value".into(), Value::Num(value)),
            ("unit".into(), Value::Str(unit.into())),
        ];
        (name.to_string(), Value::Obj(body))
    };
    let metrics = if traced {
        PER_LAYER
            .iter()
            .zip(&run.per_layer)
            .map(|(&(n, u, _), &v)| metric(n, u, v))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(&run.end_to_end)
            .map(|(&(n, u, _, _), &v)| metric(n, u, v))
            .collect()
    };
    Value::Obj(vec![
        ("correct".into(), Value::Bool(run.failed == 0)),
        ("attempted".into(), Value::Num(run.attempted as f64)),
        ("failed".into(), Value::Num(run.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
}

/// Options of `run` and `check`.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub trials: usize,
    pub min_units: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workload: None,
            seed: workloads::DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            traced: false,
            trials: TRIALS,
            min_units: MIN_UNITS,
        }
    }
}

/// One workload: the untraced trials one after another, then the traced one.
fn run_workload(name: &str, opts: &RunOptions) -> Result<(Vec<Trial>, Option<Trial>), String> {
    let plan = TrialPlan {
        budget_s: opts.seconds / opts.trials as f64,
        min_units: opts.min_units,
    };
    let mut trials = Vec::new();
    for k in 0..opts.trials {
        let t = spawn_trial(name, opts.seed, plan, false)?;
        let u = &t.unit_s;
        println!(
            "  trial {k}: set-up {:.3} s, {} units: min {:.4} p25 {:.4} p50 {:.4} max {:.4} s{}",
            t.setup_s,
            u.len(),
            stats::min(u),
            stats::p25(u),
            stats::median(u),
            stats::max(u),
            t.first_error
                .as_ref()
                .map_or(String::new(), |e| format!(", FAILED: {e}")),
        );
        trials.push(t);
    }
    let traced = match opts.traced {
        true => Some(spawn_trial(name, opts.seed, plan, true)?),
        false => None,
    };
    if let Some(t) = &traced {
        let listed = |k: &str| PER_LAYER.iter().any(|m| m.0 == k);
        if let Some((k, _)) = t.layers.iter().find(|(k, _)| !listed(k)) {
            return Err(format!("metric `{k}` is not listed in names.rs"));
        }
    }
    Ok((trials, traced))
}

/// Run the chosen workloads; print every metric by name with its unit, then
/// the result line of each. Returns how many units failed, or `None` when a
/// trial could not be run at all.
pub fn run_main(opts: &RunOptions) -> Option<usize> {
    let names: Vec<&str> = match &opts.workload {
        Some(w) if workloads::WORKLOADS.iter().any(|(n, _)| n == w) => vec![w],
        Some(w) => {
            eprintln!("unknown workload `{w}`");
            return None;
        }
        None => workloads::WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut failed = 0;
    let mut measured = std::collections::BTreeSet::new();
    for name in names {
        println!("workload {name}  seed {}", opts.seed);
        let (trials, traced) = match run_workload(name, opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{name}: {e}");
                return None;
            }
        };
        let run = aggregate(&trials, traced.as_ref());
        failed += run.failed;
        for (&(n, unit, _, bound), v) in END_TO_END.iter().zip(&run.end_to_end) {
            println!("  {n:<32} {v:>14.6} {unit:<6} (regression bound {bound})");
        }
        let failed_frac = run.failed as f64 / run.attempted as f64;
        println!(
            "  {:<32} {failed_frac:>14.6} {:<6} ({} of {} units)",
            "failed_frac", "ratio", run.failed, run.attempted
        );
        for (&(n, unit, _), v) in PER_LAYER.iter().zip(&run.per_layer) {
            println!("  {n:<32} {v:>14.6e} {unit}");
        }
        if !trials.iter().all(|t| t.pinned) {
            println!("  warning: bench.pinned = 0, the process could not be confined to one CPU; times are not comparable");
        }
        measured.extend(
            traced
                .iter()
                .flat_map(|t| t.layers.iter().map(|(k, _)| k.clone())),
        );
        println!("{}", result_line(&run, opts.traced));
    }
    // Over all workloads every listed layer metric must have a source.
    if opts.workload.is_none() && opts.traced {
        let orphan = |k: &&str| !k.starts_with("bench.") && !measured.contains(*k);
        if let Some(k) = PER_LAYER.iter().map(|m| m.0).find(orphan) {
            eprintln!("metric `{k}` is listed in names.rs and measured by no workload");
            return None;
        }
    }
    Some(failed)
}
