//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run
//! [--workload W] [--seed S] [--seconds T] [--trace 0|1]` — see README.md.

use liair_benchmark::pin;
use liair_benchmark::runner::{child_main, run_main, RunOptions, TrialPlan};
use std::time::Instant;

const USAGE: &str = "usage: liair-benchmark <run|check> [--workload W] [--seed S] [--seconds T] [--trace 0|1]
  run    3 trials per workload (plus a traced one with --trace 1); prints every metric and a result line
  check  smoke mode: 1 plain + 1 traced trial x 2 units per workload, all correctness checks";

fn main() {
    let started = Instant::now();
    // Before any thread exists: threads and child processes inherit the mask.
    if !pin::pin_to_one_cpu() {
        if let Some(code) = pin::reexec_under_taskset() {
            std::process::exit(code);
        }
        eprintln!("warning: cannot pin to one CPU; running unpinned (bench.pinned = 0)");
    }
    std::process::exit(real_main(started));
}

fn real_main(started: Instant) -> i32 {
    let mut args = std::env::args().skip(1);
    let Some(mode) = args.next() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let mut opts = RunOptions::default();
    let mut budget_s = 0.0;
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            eprintln!("{flag} needs a value\n{USAGE}");
            return 2;
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                opts.workload = Some(value.clone());
                Ok(())
            }
            "--seed" => value.parse().map(|v| opts.seed = v).map_err(|_| ()),
            "--seconds" => value.parse().map(|v| opts.seconds = v).map_err(|_| ()),
            "--min-units" => value.parse().map(|v| opts.min_units = v).map_err(|_| ()),
            "--budget-s" => value.parse().map(|v| budget_s = v).map_err(|_| ()),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.traced = value == "1";
                    Ok(())
                }
                _ => Err(()),
            },
            _ => Err(()),
        };
        if parsed.is_err() || opts.min_units == 0 {
            eprintln!("bad argument: {flag} {value}\n{USAGE}");
            return 2;
        }
    }
    match mode.as_str() {
        "run" => {
            if run_main(&opts).is_none() {
                return 1;
            }
            0
        }
        "check" => {
            let smoke = RunOptions {
                seconds: 0.0,
                traced: true,
                trials: 1,
                min_units: 2,
                ..opts
            };
            match run_main(&smoke) {
                Some(0) => 0,
                _ => 1,
            }
        }
        "--child" => {
            let plan = TrialPlan {
                budget_s,
                min_units: opts.min_units,
            };
            let workload = opts.workload.unwrap_or_default();
            child_main(started, &workload, opts.seed, plan, opts.traced)
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    }
}
