//! `BENCHMARK.json` and the binary agree on every name, unit, direction and
//! bound, and every name is one the contract accepts.

use liair_benchmark::json::{self, Value};
use liair_benchmark::names::{END_TO_END, LAYERS, PER_LAYER, RUN_SECONDS};
use liair_benchmark::runner::{aggregate, result_line, Trial};
use liair_benchmark::workloads::WORKLOADS;

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("valid JSON")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {v}"))
}

#[test]
fn every_name_and_unit_is_well_formed_and_used_once() {
    let mut seen = std::collections::BTreeSet::new();
    let e2e = END_TO_END.iter().map(|&(n, u, b, _)| (n, u, b));
    for (name, unit, better) in e2e.chain(PER_LAYER) {
        assert!(is_name(name), "bad metric name `{name}`");
        assert!(is_unit(unit), "bad unit `{unit}` of {name}");
        assert!(
            ["lower", "higher"].contains(&better),
            "bad direction of {name}"
        );
        assert!(seen.insert(name), "`{name}` is listed twice");
    }
    for (name, why) in WORKLOADS {
        assert!(is_name(name), "bad workload name `{name}`");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "`why` of {name} is too long"
        );
        assert!(seen.insert(name), "`{name}` is used twice");
    }
    // Per-layer names start with the crate they belong to.
    for (name, _, _) in PER_LAYER {
        let layer = name.split('.').next().unwrap();
        assert!(
            layer == "bench" || LAYERS.contains(&layer),
            "`{name}` names no layer"
        );
    }
    assert!(END_TO_END
        .iter()
        .all(|&(_, _, _, bound)| bound > 0.0 && bound <= 0.25));
    let setup = END_TO_END
        .iter()
        .find(|m| m.0 == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.1, setup.2), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.3 <= setup.3),
        "setup_s carries the largest bound"
    );
}

#[test]
fn benchmark_json_lists_exactly_what_the_binary_prints() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        m.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS as f64)
    );
    assert_eq!(
        m.get("paths").unwrap().as_arr().unwrap(),
        [Value::Str("benchmark".into())]
    );

    let listed: Vec<(&str, &str)> = m
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    assert_eq!(listed, WORKLOADS);

    let listed: Vec<(&str, &str, &str, f64)> = m
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|e| {
            (
                field(e, "name"),
                field(e, "unit"),
                field(e, "better"),
                e.get("bound").unwrap().as_f64().unwrap(),
            )
        })
        .collect();
    assert_eq!(listed, END_TO_END);

    let listed: Vec<(&str, &str, &str)> = m
        .get("per_layer")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect();
    assert_eq!(listed, PER_LAYER);
}

#[test]
fn result_line_carries_exactly_the_listed_metrics() {
    let trial = Trial {
        setup_s: 2.5,
        unit_s: vec![0.5, 0.52, 0.51, 0.5, 0.55, 0.5],
        peak_rss_kb: 65536.0,
        pinned: true,
        layers: vec![("core.pairs_computed".into(), 554.0)],
        ..Trial::default()
    };
    let run = aggregate(&[trial.clone(), trial.clone(), trial.clone()], Some(&trial));

    let line = json::parse(&result_line(&run, false).to_string()).expect("valid JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(line.get("attempted").and_then(Value::as_f64), Some(24.0));
    let metrics = line.get("metrics").unwrap().as_obj().unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.map(|m| m.0));
    assert_eq!(metrics[0].1.get("value").and_then(Value::as_f64), Some(0.5));
    assert_eq!(metrics[0].1.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(
        metrics[2].1.get("value").and_then(Value::as_f64),
        Some(64.0)
    );

    let line = json::parse(&result_line(&run, true).to_string()).expect("valid JSON");
    let metrics = line.get("metrics").unwrap().as_obj().unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, PER_LAYER.map(|m| m.0));
    let value = |name: &str| {
        line.get("metrics")
            .unwrap()
            .get(name)
            .unwrap()
            .get("value")
            .unwrap()
            .as_f64()
    };
    assert_eq!(value("core.pairs_computed"), Some(554.0));
    assert_eq!(value("bench.pinned"), Some(1.0));
    assert_eq!(value("bench.trials"), Some(3.0));
    assert_eq!(value("bench.units_per_trial"), Some(6.0));
    // A layer the workload never entered reads 0.
    assert_eq!(value("integrals.jk_build_s"), Some(0.0));
}

#[test]
fn numbers_keep_every_digit_through_the_writer_and_parser() {
    for x in [1.2034, 0.8127000000000001, 6.3e-7, 123456789.125, 0.0, 3.0] {
        let text = Value::Num(x).to_string();
        assert!(!text.contains('e'), "{text} uses an exponent");
        assert_eq!(json::parse(&text), Ok(Value::Num(x)));
    }
    let nested = r#"{"a": [1, 2.5, {"b": "x\"y\n"}], "c": null, "d": true}"#;
    let v = json::parse(nested).expect("valid JSON");
    assert_eq!(json::parse(&v.to_string()), Ok(v));
    assert!(json::parse("{\"a\": 1} x").is_err());
}
