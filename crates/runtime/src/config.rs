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
}
