//! Span bookkeeping: parents, units, counts and self time.

use liair_benchmark::trace::{self_times_ns, Span, Tracer};

fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "core.x",
        unit: None,
        start_ns,
        end_ns,
        counts: Vec::new(),
    }
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    let spans = [
        span(0, None, 0, 1000),     // unit
        span(1, Some(0), 100, 400), // layer call
        span(2, Some(1), 150, 250), // nested call
        span(3, Some(0), 500, 900), // second layer call
        span(4, None, 2000, 2100),  // a root with no children
    ];
    assert_eq!(self_times_ns(&spans), [300, 200, 100, 400, 100]);
}

#[test]
fn tracer_links_children_to_the_open_span() {
    let mut tr = Tracer::on();
    tr.set_unit(Some(3));
    let answer = tr.span("bench.unit", |tr| {
        tr.span("core.build32", |tr| tr.count("pairs", 500.0));
        tr.span("grid.solve_24_s", |_| ());
        42
    });
    tr.set_unit(None);
    tr.span("math.eigh_15_s", |_| ());
    assert_eq!(answer, 42);

    let s = tr.spans();
    assert_eq!(s.len(), 4);
    assert_eq!(
        (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
        (None, Some(0), Some(0), None)
    );
    assert_eq!((s[0].unit, s[3].unit), (Some(3), None));
    assert_eq!(s[1].counts, [("pairs", 500.0)]);
    assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
    assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    assert_eq!(
        (
            tr.layer_spans("core"),
            tr.layer_spans("grid"),
            tr.layer_spans("integrals")
        ),
        (1, 1, 0)
    );

    let own = self_times_ns(s);
    assert_eq!(
        own[0],
        s[0].duration_ns() - s[1].duration_ns() - s[2].duration_ns()
    );
}

#[test]
fn a_tracer_that_is_off_records_nothing() {
    let mut tr = Tracer::off();
    assert_eq!(tr.span("core.build32", |tr| tr.span("grid.x", |_| 7)), 7);
    tr.count("pairs", 1.0);
    assert!(tr.spans().is_empty());
}

#[test]
fn trace_file_holds_one_json_object_per_span() {
    let mut tr = Tracer::on();
    tr.span("bench.unit", |tr| {
        tr.span("core.build32", |tr| tr.count("pairs", 2.0))
    });
    let path = std::env::temp_dir().join(format!(
        "liair-benchmark-trace-{}.jsonl",
        std::process::id()
    ));
    tr.write_jsonl(&path, "hfx-build")
        .expect("writable temp dir");
    let text = std::fs::read_to_string(&path).expect("file was written");
    std::fs::remove_file(&path).ok();
    let lines: Vec<_> = text
        .lines()
        .map(|l| liair_benchmark::json::parse(l).expect("valid JSON"))
        .collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(
        lines[1].get("name").and_then(|v| v.as_str()),
        Some("core.build32")
    );
    assert_eq!(lines[1].get("parent").and_then(|v| v.as_f64()), Some(0.0));
    assert_eq!(
        lines[1].get("workload").and_then(|v| v.as_str()),
        Some("hfx-build")
    );
    assert_eq!(
        lines[1]
            .get("counts")
            .and_then(|c| c.get("pairs"))
            .and_then(|v| v.as_f64()),
        Some(2.0)
    );
    for key in ["id", "unit", "start_ns", "end_ns", "self_ns"] {
        assert!(lines[0].get(key).is_some(), "missing {key}");
    }
}
