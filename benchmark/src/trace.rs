//! The benchmark's own span recorder: one span around each unit and around
//! every call the harness makes into a layer, kept in memory and written out
//! when the traced trial ends. Nothing outside `benchmark/` is instrumented.

use crate::json::Value;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// `<layer>.<call>`; the layer is the crate name.
    pub name: &'static str,
    /// Timed unit the span belongs to; `None` in set-up and micro-timings.
    pub unit: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Counts taken at the same boundary (work done, bytes, retries).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall nanoseconds between begin and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. When off, `span` only calls its closure.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    unit: Option<usize>,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records nothing (the untraced trials).
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording recorder (the traced trial).
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            unit: None,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag the spans that follow with a timed-unit index (or none).
    pub fn set_unit(&mut self, unit: Option<usize>) {
        self.unit = unit;
    }

    /// Run `f` inside a span named `name`; spans begun by `f` are children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            unit: self.unit,
            start_ns: self.now_ns(),
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key, value));
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans whose name starts with `layer` followed by a dot.
    pub fn layer_spans(&self, layer: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| {
                s.name
                    .strip_prefix(layer)
                    .is_some_and(|r| r.starts_with('.'))
            })
            .count()
    }

    /// Write one JSON object per span, with its self time, to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times_ns(&self.spans);
        for (s, self_ns) in self.spans.iter().zip(self_ns) {
            let opt = |v: Option<usize>| v.map_or(Value::Null, |v| Value::Num(v as f64));
            let line = Value::Obj(vec![
                ("id".into(), Value::Num(s.id as f64)),
                ("parent".into(), opt(s.parent)),
                ("name".into(), Value::Str(s.name.into())),
                ("workload".into(), Value::Str(workload.into())),
                ("unit".into(), opt(s.unit)),
                ("start_ns".into(), Value::Num(s.start_ns as f64)),
                ("end_ns".into(), Value::Num(s.end_ns as f64)),
                ("self_ns".into(), Value::Num(self_ns as f64)),
                (
                    "counts".into(),
                    Value::Obj(
                        s.counts
                            .iter()
                            .map(|&(k, v)| (k.to_string(), Value::Num(v)))
                            .collect(),
                    ),
                ),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] = self_ns[p].saturating_sub(s.duration_ns());
        }
    }
    self_ns
}
