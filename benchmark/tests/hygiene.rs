//! The benchmark calls only default, non-deprecated entry points, so that
//! deleting a fork (a SIMD level, a pair path, a pipeline or collective mode,
//! a deprecated constructor, an environment knob) never needs an edit here.

use std::path::Path;

const FORBIDDEN: [&str; 9] = [
    "SimdLevel",
    "PairPath",
    "PipelineMode",
    "CollectiveMode",
    "JobSpec::new",
    "rhf_with_grid_exchange",
    "exchange_pair_reference",
    "LIAIR_",
    "set_var",
];

fn sources(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("readable source file");
            out.push((path.display().to_string(), text));
        }
    }
}

/// Identifiers ending in `_with` that are called in `text`, other than the
/// standard library's string predicates.
fn with_calls(text: &str) -> Vec<&str> {
    text.match_indices("_with(")
        .map(|(at, _)| {
            let head = &text[..at];
            let start = head
                .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .map_or(0, |i| i + 1);
            &text[start..at + "_with".len()]
        })
        .filter(|name| !["starts_with", "ends_with"].contains(name))
        .collect()
}

#[test]
fn sources_name_no_fork_and_no_knob() {
    let mut files = Vec::new();
    sources(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut files,
    );
    assert!(files.len() >= 10, "found only {} source files", files.len());
    for (path, text) in &files {
        for word in FORBIDDEN {
            assert!(!text.contains(word), "{path} names `{word}`");
        }
        // Every level-explicit variant in the workspace is spelled `*_with(`.
        assert_eq!(
            with_calls(text),
            Vec::<&str>::new(),
            "{path} calls a `*_with` variant"
        );
    }
}

#[test]
fn with_calls_finds_level_explicit_variants_only() {
    let text = "rfft3_into_with(level, a); s.starts_with(\"x\"); solve_into_with(l, r)";
    assert_eq!(with_calls(text), ["rfft3_into_with", "solve_into_with"]);
}
