//! Experiment output: tables of typed cells that know where their numbers
//! came from, rendered as console text / markdown, and serialized by the
//! one JSON writer ([`record_json`]) behind every `BENCH_*.json`.

use std::fmt::Write as _;

/// Where a table's numbers came from. A property of the data, not an
/// option: a table holding both kinds is two tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Produced by executing the library on this host (timings, counters,
    /// energies).
    Measured,
    /// Priced by the `liair-bgq` machine model or the build simulator.
    Modeled,
}

/// One table cell (named apart from the unit `Cell` the experiments
/// import): the text the console shows, plus the JSON literal the record
/// carries when that is not simply the text as a string.
#[derive(Debug, Clone, PartialEq)]
pub struct Datum {
    text: String,
    json: Option<String>,
}

impl Datum {
    fn typed(text: String, json: String) -> Self {
        Self {
            text,
            json: Some(json),
        }
    }

    /// A number shown with `decimals` fixed decimals.
    pub fn fixed(v: f64, decimals: usize) -> Self {
        Self::shown(v, format!("{v:.decimals$}"))
    }

    /// A number shown in scientific notation with `decimals` decimals.
    pub fn sci(v: f64, decimals: usize) -> Self {
        Self::shown(v, format!("{v:.decimals$e}"))
    }

    /// A number with caller-chosen display text (a unit or `x` suffix).
    /// JSON has no NaN / Infinity: a non-finite value is recorded `null`.
    pub fn shown(v: f64, text: String) -> Self {
        let json = if !v.is_finite() {
            "null".into()
        } else if v == 0.0 || (1e-4..1e15).contains(&v.abs()) {
            format!("{v}")
        } else {
            format!("{v:e}")
        };
        Self::typed(text, json)
    }

    /// A missing value, shown as `-` and recorded as `null`.
    pub fn missing() -> Self {
        Self::typed("-".into(), "null".into())
    }

    /// Bytes that already are JSON (a library's canonical report): the
    /// record embeds them verbatim, the console shows only their size.
    pub fn raw_json(json: String) -> Self {
        Self::typed(format!("({} bytes of canonical JSON)", json.len()), json)
    }

    /// The display text.
    pub fn text(&self) -> &str {
        &self.text
    }

    fn write_json(&self, out: &mut String) {
        match &self.json {
            Some(literal) => out.push_str(literal),
            None => write_json_string(out, &self.text),
        }
    }
}

impl From<String> for Datum {
    fn from(text: String) -> Self {
        Self { text, json: None }
    }
}

impl From<&str> for Datum {
    fn from(text: &str) -> Self {
        text.to_string().into()
    }
}

impl From<u64> for Datum {
    fn from(n: u64) -> Self {
        Self::typed(n.to_string(), n.to_string())
    }
}

impl From<usize> for Datum {
    fn from(n: usize) -> Self {
        (n as u64).into()
    }
}

impl From<bool> for Datum {
    fn from(b: bool) -> Self {
        Self::typed(if b { "yes" } else { "no" }.into(), b.to_string())
    }
}

/// A titled table of cells.
#[derive(Debug, Clone)]
pub struct Table {
    /// Heading shown above the table.
    pub title: String,
    /// Where the numbers came from.
    pub provenance: Provenance,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (ragged rows are padded on print).
    pub rows: Vec<Vec<Datum>>,
    /// Free-form note printed under the table.
    pub note: String,
}

impl Table {
    fn new(title: &str, provenance: Provenance, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            provenance,
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    /// Start a table of numbers executed on this host.
    pub fn measured(title: &str, headers: &[&str]) -> Self {
        Self::new(title, Provenance::Measured, headers)
    }

    /// Start a table of numbers priced by the machine model.
    pub fn modeled(title: &str, headers: &[&str]) -> Self {
        Self::new(title, Provenance::Modeled, headers)
    }

    /// Append a row (plain strings become text cells).
    pub fn row<C: Into<Datum>>(&mut self, cells: Vec<C>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }

    /// Column widths for aligned printing.
    fn widths(&self) -> Vec<usize> {
        let ncol = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut w = vec![0usize; ncol];
        for (i, h) in self.headers.iter().enumerate() {
            w[i] = w[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.text.chars().count());
            }
        }
        w
    }

    /// Render aligned plain text.
    pub fn to_text(&self) -> String {
        let w = self.widths();
        let mut out = format!("## {}\n", self.title);
        let fmt_row = |cells: Vec<&str>| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = w[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(self.headers.iter().map(String::as_str).collect()));
        out.push('\n');
        out.push_str(&"-".repeat(w.iter().sum::<usize>() + 2 * w.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row.iter().map(Datum::text).collect()));
            out.push('\n');
        }
        if !self.note.is_empty() {
            out.push_str(&format!("note: {}\n", self.note));
        }
        out
    }

    /// Render GitHub markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            let cells: Vec<&str> = row.iter().map(Datum::text).collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        if !self.note.is_empty() {
            out.push_str(&format!("\n*{}*\n", self.note));
        }
        out
    }

    /// `{"title", "columns", "rows": [{column: value, ..}, ..], "note"}`.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"title\": ");
        write_json_string(out, &self.title);
        out.push_str(", \"columns\": [");
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(out, h);
        }
        out.push_str("], \"rows\": [");
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str(if r > 0 { ",\n      {" } else { "\n      {" });
            for (i, (h, c)) in self.headers.iter().zip(row).enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_json_string(out, h);
                out.push_str(": ");
                c.write_json(out);
            }
            out.push('}');
        }
        out.push_str("\n    ], \"note\": ");
        write_json_string(out, &self.note);
        out.push('}');
    }
}

/// The one `BENCH_*.json` schema: `{"experiment", "mode", "measured":
/// [table..], "modeled": [table..]}`. A table lands in the section its
/// provenance names and nowhere else.
pub fn record_json(experiment: &str, fast: bool, tables: &[Table]) -> String {
    let mut out = String::from("{\n  \"experiment\": ");
    write_json_string(&mut out, experiment);
    out.push_str(",\n  \"mode\": ");
    write_json_string(&mut out, if fast { "fast" } else { "full" });
    for (key, provenance) in [
        ("measured", Provenance::Measured),
        ("modeled", Provenance::Modeled),
    ] {
        write!(out, ",\n  \"{key}\": [").expect("write to String");
        let section = tables.iter().filter(|t| t.provenance == provenance);
        for (i, t) in section.enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            t.write_json(&mut out);
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_ascii() && !c.is_ascii_control() => out.push(c),
            c => {
                // Control and non-ASCII characters as \uXXXX (surrogate
                // pairs beyond the BMP): the file stays pure ASCII.
                for unit in c.encode_utf16(&mut [0u16; 2]) {
                    write!(out, "\\u{unit:04x}").expect("write to String");
                }
            }
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::measured("demo", &["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        t.note = "hello".into();
        t
    }

    #[test]
    fn text_rendering_is_aligned() {
        let txt = sample().to_text();
        assert!(txt.contains("## demo"));
        assert!(txt.contains("333"));
        assert!(txt.contains("note: hello"));
    }

    #[test]
    fn markdown_has_separator() {
        let md = sample().to_markdown();
        assert!(md.contains("| a | bb |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 333 | 4 |"));
    }

    #[test]
    fn every_kind_of_cell_shows_text_and_serializes_its_value() {
        let canon = r#"{"ranking":[{"solvent":"dme","bits":"0xc030615bfac0cf09"}],"x":  1}"#;
        let mut t = Table::measured("t", &["n", "x", "s", "ok", "gap", "nan", "inf", "raw"]);
        t.row(vec![
            Datum::from(7usize),
            Datum::shown(2.5, "2.50x".into()),
            Datum::sci(1.5e-7, 2),
            Datum::from(true),
            Datum::missing(),
            Datum::fixed(f64::NAN, 2),
            Datum::sci(f64::NEG_INFINITY, 2),
            Datum::raw_json(canon.into()),
        ]);
        let text = t.to_text();
        assert!(
            text.contains("7  2.50x  1.50e-7  yes    -  NaN  -inf"),
            "{text}"
        );
        assert!(text.contains("bytes of canonical JSON") && !text.contains("ranking"));
        // Numbers as numbers, no NaN / Infinity, the raw bytes untouched.
        let json = record_json("e", true, &[t]);
        let row = format!(
            r#"{{"n": 7, "x": 2.5, "s": 1.5e-7, "ok": true, "gap": null, "nan": null, "inf": null, "raw": {canon}}}"#
        );
        assert!(json.contains(&row), "{json}");
    }

    #[test]
    fn a_table_lands_only_in_the_section_its_provenance_names() {
        let mut host = Table::measured("host-table", &["t [s]"]);
        host.row(vec![Datum::fixed(0.5, 3)]);
        let mut model = Table::modeled("model-table", &["t [s]"]);
        model.row(vec![Datum::fixed(0.25, 3)]);
        // Whatever order the experiment returned them in.
        for tables in [[host.clone(), model.clone()], [model.clone(), host.clone()]] {
            let json = record_json("e", false, &tables);
            let modeled = json.find("\"modeled\": [").unwrap();
            let (measured_part, modeled_part) = json.split_at(modeled);
            assert!(measured_part.contains("\"measured\": ["), "{json}");
            assert!(measured_part.contains("host-table") && !measured_part.contains("model-table"));
            assert!(modeled_part.contains("model-table") && !modeled_part.contains("host-table"));
        }
        // One kind only: the other section is present and empty.
        let json = record_json("e", false, &[model]);
        assert!(json.contains("\"measured\": [\n  ]"), "{json}");
    }

    #[test]
    fn strings_are_escaped_to_valid_ascii_json() {
        for (s, want) in [
            ("plain", r#""plain""#),
            (
                "quote \" and backslash \\",
                r#""quote \" and backslash \\""#,
            ),
            (
                "32³ grid, 576 µs, Li–O",
                r#""32\u00b3 grid, 576 \u00b5s, Li\u2013O""#,
            ),
            ("line\nbreak\ttab\u{1}", r#""line\nbreak\ttab\u0001""#),
            ("beyond the BMP: 𝛼", r#""beyond the BMP: \ud835\udefc""#),
        ] {
            let mut lit = String::new();
            write_json_string(&mut lit, s);
            assert_eq!(lit, want);
        }
        // Through the whole writer: title, header, cell and note.
        let mut t = Table::measured("a \"q\" \\ µ", &["t [µs]"]);
        t.row(vec!["32³"]);
        t.note = "≥ 3×".into();
        let json = record_json("e", true, &[t]);
        assert!(json.is_ascii());
        assert!(json.contains(r#""title": "a \"q\" \\ \u00b5""#), "{json}");
        assert!(json.contains(r#"{"t [\u00b5s]": "32\u00b3"}"#), "{json}");
        assert!(json.contains(r#""note": "\u2265 3\u00d7""#), "{json}");
    }

    /// Every object key of a JSON text with its nesting depth, in order,
    /// by one scan that skips string contents — enough to pin the schema
    /// without a parser.
    fn keys_by_depth(json: &str) -> Vec<(usize, String)> {
        let mut keys = Vec::new();
        let mut depth = 0usize;
        let mut chars = json.chars();
        while let Some(c) = chars.next() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                '"' => {
                    let mut s = String::new();
                    while let Some(c) = chars.next() {
                        match c {
                            '\\' => {
                                s.push(c);
                                s.extend(chars.next());
                            }
                            '"' => break,
                            c => s.push(c),
                        }
                    }
                    // A string followed by ':' is a key.
                    if chars.clone().find(|c| !c.is_whitespace()) == Some(':') {
                        keys.push((depth, s));
                    }
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON");
        keys
    }

    #[test]
    fn every_checked_in_record_has_the_one_schema() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(&root).expect("repo root") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let json = std::fs::read_to_string(&path).expect("readable record");
            let keys = keys_by_depth(&json);
            let top: Vec<&str> = keys
                .iter()
                .filter(|(d, _)| *d == 1)
                .map(|(_, k)| k.as_str())
                .collect();
            assert_eq!(top, ["experiment", "mode", "measured", "modeled"], "{name}");
            // No modeled quantity in the measured section.
            let section = |key: &str| keys.iter().position(|(d, k)| *d == 1 && k == key).unwrap();
            for (_, key) in &keys[section("measured")..section("modeled")] {
                assert!(!key.contains("model"), "{name}: measured key {key:?}");
            }
            // A `--fast` run is a smoke artifact, never the record.
            assert!(
                json.contains("\"mode\": \"full\""),
                "{name} is not a full run"
            );
            seen += 1;
        }
        assert!(seen > 0, "no BENCH_*.json found under {}", root.display());
    }
}
