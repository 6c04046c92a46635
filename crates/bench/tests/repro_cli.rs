//! The `repro` command line: bad input is rejected before anything runs,
//! and a record-keeping experiment leaves its `BENCH_*.json` in the
//! current directory, written by the one writer.

use std::process::{Command, Output};

fn repro(args: &[&str], cwd: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("repro starts")
}

#[test]
fn unknown_id_or_flag_exits_2_with_the_id_list_and_runs_nothing() {
    let cwd = std::env::temp_dir();
    // `--fats all` must not fall through to the multi-hour full suite, and
    // a good id beside a bad one must not run either.
    for args in [
        &["fig-nonsense"][..],
        &["--fats", "all"],
        &["tab-memory", "fig-nonsense"],
    ] {
        let out = repro(args, &cwd);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown"), "{args:?}: {err}");
        assert!(err.contains("fig-strong-scaling") && err.contains("screen-solvents"));
        assert!(!err.contains(">>> running"), "{args:?} ran something");
    }
}

#[test]
fn list_prints_every_id_and_succeeds() {
    let out = repro(&["list"], &std::env::temp_dir());
    assert_eq!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    for e in &liair_bench::experiments::EXPERIMENTS {
        assert!(err.contains(e.id), "{} missing from list", e.id);
    }
}

#[test]
fn a_sweep_leaves_its_record_and_a_paper_table_does_not() {
    let dir = std::env::temp_dir().join(format!("liair-repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = repro(&["--fast", "tab-memory", "bench-collectives"], &dir);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## tab-memory") && stdout.contains("## bench-collectives"));
    let files: Vec<String> = std::fs::read_dir(&dir)
        .expect("temp dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(files, ["BENCH_collectives.json"]);
    let json = std::fs::read_to_string(dir.join("BENCH_collectives.json")).expect("record");
    assert!(json.starts_with("{\n  \"experiment\": \"bench-collectives\",\n  \"mode\": \"fast\","));
    // The executed rows and the model's prices sit in different sections.
    let measured = json.find("\"measured\": [").expect("measured section");
    let modeled = json.find("\"modeled\": [").expect("modeled section");
    let wire = json.find("\"wire msgs\": 7").expect("executed row");
    let price = json.find("\"model tree [us]\"").expect("model price");
    assert!(
        measured < wire && wire < modeled && modeled < price,
        "{json}"
    );
    std::fs::remove_dir_all(&dir).expect("clean up");
}
