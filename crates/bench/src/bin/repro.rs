//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--fast] [--markdown] <experiment-id>... | all | list
//! ```
//!
//! * `--fast` trims the heaviest sweeps (minutes instead of tens of
//!   minutes); `--smoke` is an alias (the CI smoke jobs' spelling);
//! * `--markdown` emits GitHub tables (used to fill EXPERIMENTS.md);
//! * `list` prints the available ids.
//!
//! Experiments that keep a record (`bench-*`, `screen-solvents`) have
//! their tables serialized to `BENCH_*.json` in the current directory by
//! the one writer, [`liair_bench::table::record_json`]. An unknown id or
//! flag is rejected (exit 2) before anything runs.

use liair_bench::experiments::{find, Experiment, EXPERIMENTS};
use liair_bench::table::record_json;
use std::process::ExitCode;

fn usage() {
    eprintln!("usage: repro [--fast|--smoke] [--markdown] <id>... | all | list");
    eprintln!("experiments:");
    for e in &EXPERIMENTS {
        eprintln!("  {}", e.id);
    }
}

fn main() -> ExitCode {
    let mut fast = false;
    let mut markdown = false;
    let mut list = false;
    let mut selected: Vec<&Experiment> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--fast" | "--smoke" => fast = true,
            "--markdown" => markdown = true,
            "list" => list = true,
            "all" => selected.extend(&EXPERIMENTS),
            other => match find(other) {
                Some(e) => selected.push(e),
                None => {
                    let what = if other.starts_with('-') {
                        "flag"
                    } else {
                        "experiment id"
                    };
                    eprintln!("repro: unknown {what} '{other}'");
                    usage();
                    return ExitCode::from(2);
                }
            },
        }
    }
    if list || selected.is_empty() {
        usage();
        return ExitCode::SUCCESS;
    }

    let mut status = ExitCode::SUCCESS;
    for e in selected {
        let id = e.id;
        eprintln!(">>> running {id}{}", if fast { " (fast)" } else { "" });
        let t0 = std::time::Instant::now();
        let tables = (e.run)(fast);
        for t in &tables {
            if markdown {
                println!("{}", t.to_markdown());
            } else {
                println!("{}", t.to_text());
            }
        }
        if let Some(path) = e.record {
            match std::fs::write(path, record_json(id, fast, &tables)) {
                Ok(()) => eprintln!("    {path} written"),
                Err(err) => {
                    eprintln!("repro: {path} not written: {err}");
                    status = ExitCode::FAILURE;
                }
            }
        }
        eprintln!("<<< {id} done in {:.1?}\n", t0.elapsed());
    }
    status
}
