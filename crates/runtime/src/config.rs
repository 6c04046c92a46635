//! Per-job determinism configuration.
//!
//! Every stochastic input of a job is a value the job carries, never a
//! process-global: a [`SeedConfig`] travels inside the job spec, so two
//! tenants of one service with different seeds cannot race on — or leak
//! into each other through — the environment. The one seed a job carries
//! is the MD thermalization seed; a fault schedule is not a seed here but
//! a [`crate::FaultPlan`] handed to the engine builder that should run
//! under it.

/// Fallback MD seed when the job's [`SeedConfig`] provides none (the
/// paper's publication year).
pub const DEFAULT_MD_SEED: u64 = 2014;

/// The deterministic-behavior knobs a job carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedConfig {
    /// MD thermalization seed; `None` falls back to [`DEFAULT_MD_SEED`].
    pub md_seed: Option<u64>,
}

impl SeedConfig {
    /// Resolve the MD seed: the configured seed, else
    /// [`DEFAULT_MD_SEED`].
    pub fn resolve_md_seed(&self) -> u64 {
        self.md_seed.unwrap_or(DEFAULT_MD_SEED)
    }

    /// Builder-style override of the MD seed.
    pub fn with_md_seed(mut self, seed: u64) -> SeedConfig {
        self.md_seed = Some(seed);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md_seed_precedence_matches_pr7_convention() {
        let cfg = SeedConfig::default();
        assert_eq!(cfg.resolve_md_seed(), DEFAULT_MD_SEED);
        assert_eq!(
            cfg.with_md_seed(42).resolve_md_seed(),
            42,
            "configured beats 2014"
        );
    }

    /// `path:line` of every line of a source file under `dir` that names
    /// an environment knob or reads a variable.
    fn env_reads(dir: &std::path::Path, out: &mut Vec<String>) {
        // Split so this test does not find itself.
        let needles = [concat!("LIAIR", "_"), concat!("env::", "var")];
        for entry in std::fs::read_dir(dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                env_reads(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source file");
                for (n, line) in text.lines().enumerate() {
                    if needles.iter().any(|k| line.contains(k)) {
                        out.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
                    }
                }
            }
        }
    }

    #[test]
    fn workspace_reads_no_environment() {
        // Comments and tests included: everything that steers a
        // computation is an argument (`std::env::args` in `repro` is one).
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("crates/ directory");
        let mut hits = Vec::new();
        for krate in std::fs::read_dir(crates).expect("readable crates directory") {
            let src = krate.expect("directory entry").path().join("src");
            if src.is_dir() {
                env_reads(&src, &mut hits);
            }
        }
        assert!(hits.is_empty(), "environment reads:\n{}", hits.join("\n"));
    }

    /// `text` with comments and string/char literal contents blanked to
    /// spaces (newlines kept), so brackets and names are code only.
    fn code_only(text: &str) -> String {
        let b = text.as_bytes();
        let mut out = b.to_vec();
        let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
            for c in &mut out[from..to.min(b.len())] {
                if *c != b'\n' {
                    *c = b' ';
                }
            }
        };
        let mut i = 0;
        while i < b.len() {
            let ident_before = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
            let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
            let end = if b[i..].starts_with(b"//") {
                i + b[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .unwrap_or(b.len() - i)
            } else if b[i..].starts_with(b"/*") {
                i + 2 + text[i + 2..].find("*/").map_or(b.len(), |e| e + 2)
            } else if b[i] == b'r' && !ident_before && b.get(i + 1 + hashes) == Some(&b'"') {
                let close = format!("\"{}", "#".repeat(hashes));
                let body = i + 2 + hashes;
                body + text[body..]
                    .find(&close)
                    .map_or(b.len(), |e| e + close.len())
            } else if b[i] == b'"' {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                j + 1
            } else if b[i] == b'\'' && b.get(i + 1) == Some(&b'\\') {
                i + 2
                    + b[i + 2..]
                        .iter()
                        .position(|&c| c == b'\'')
                        .map_or(0, |e| e + 1)
            } else if b[i] == b'\'' && b.get(i + 2) == Some(&b'\'') {
                i + 3
            } else {
                i += 1;
                continue;
            };
            blank(&mut out, i, end);
            i = end;
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    /// `(path:line, line)` of every `sum` / `reduce` / `fold` called on a
    /// rayon parallel iterator chain in the Rust files under `dir`. Folds
    /// inside the chain's closures and after its `collect` are sequential
    /// and not counted.
    fn parallel_folds(dir: &std::path::Path, out: &mut Vec<(String, String)>) {
        let starts = [
            ".par_iter()",
            ".into_par_iter()",
            ".par_chunks(",
            ".par_chunks_mut(",
        ];
        let folds = [".sum(", ".sum::<", ".reduce(", ".fold("];
        for entry in std::fs::read_dir(dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                parallel_folds(&path, out);
                continue;
            }
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source file");
            let code = code_only(&text);
            let lines: Vec<&str> = text.lines().collect();
            for start in starts {
                for (at, _) in code.match_indices(start) {
                    // Walk the chain at its own bracket depth until it ends.
                    let mut depth = 0usize;
                    for (k, c) in code[at + start.len()..].char_indices() {
                        let pos = at + start.len() + k;
                        match c {
                            '(' | '[' | '{' => depth += 1,
                            ')' | ']' | '}' if depth == 0 => break,
                            ')' | ']' | '}' => depth -= 1,
                            ';' | ',' if depth == 0 => break,
                            // Past `collect` the chain is sequential.
                            '.' if depth == 0 && code[pos..].starts_with(".collect") => break,
                            '.' if depth == 0
                                && folds.iter().any(|f| code[pos..].starts_with(f)) =>
                            {
                                let line = code[..pos].matches('\n').count();
                                out.push((
                                    format!("{}:{}", path.display(), line + 1),
                                    lines[line].trim().to_string(),
                                ));
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn no_float_fold_on_a_parallel_iterator() {
        // A parallel sum splits its input into one block per worker and
        // adds the block sums, so a float result rounds differently on
        // hosts with different CPU counts. Parallel chains `collect` in
        // input order and fold sequentially; an exception (an integer
        // fold, a discarded result) names its file, the folding line and
        // why its bits never reach a result.
        const ALLOWED: [(&str, &str, &str); 1] = [(
            "bench/src/experiments/node.rs",
            ".reduce(|| 0.0, |a, b| a + b)",
            "a timing loop: the reduced energy is thrown away",
        )];
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("crates/ directory");
        let mut hits = Vec::new();
        for krate in std::fs::read_dir(crates).expect("readable crates directory") {
            let src = krate.expect("directory entry").path().join("src");
            if src.is_dir() {
                parallel_folds(&src, &mut hits);
            }
        }
        let allowed = |(at, line): &(String, String)| {
            ALLOWED.iter().any(|(file, text, _)| {
                at.rsplit_once(':').is_some_and(|(p, _)| p.ends_with(file)) && line == text
            })
        };
        let bad: Vec<String> = hits
            .iter()
            .filter(|h| !allowed(h))
            .map(|(at, line)| format!("{at}: {line}"))
            .collect();
        assert!(bad.is_empty(), "parallel float folds:\n{}", bad.join("\n"));
        for (file, text, _) in ALLOWED {
            assert!(
                hits.iter()
                    .any(|h| allowed(h) && h.0.contains(file) && h.1 == text),
                "stale allowlist entry {file}: {text}"
            );
        }
    }
}
