//! Per-job determinism configuration.
//!
//! Every stochastic input of a job is a value the job carries, never a
//! process-global: a [`SeedConfig`] travels inside the job spec, so two
//! tenants of one service with different seeds cannot race on — or leak
//! into each other through — the environment. The one seed a job carries
//! is the MD thermalization seed; a fault schedule is not a seed here but
//! a [`crate::FaultPlan`] handed to the engine builder that should run
//! under it.

/// Fallback MD seed when neither an explicit seed nor the job's
/// [`SeedConfig`] provides one (the paper's publication year).
pub const DEFAULT_MD_SEED: u64 = 2014;

/// The deterministic-behavior knobs a job carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedConfig {
    /// MD thermalization seed; `None` falls back to [`DEFAULT_MD_SEED`].
    pub md_seed: Option<u64>,
}

impl SeedConfig {
    /// Resolve the MD seed with the established precedence:
    /// explicit argument > configured seed > [`DEFAULT_MD_SEED`].
    pub fn resolve_md_seed(&self, explicit: Option<u64>) -> u64 {
        explicit.or(self.md_seed).unwrap_or(DEFAULT_MD_SEED)
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
        assert_eq!(cfg.resolve_md_seed(None), DEFAULT_MD_SEED);
        assert_eq!(cfg.resolve_md_seed(Some(7)), 7);
        let cfg = cfg.with_md_seed(42);
        assert_eq!(cfg.resolve_md_seed(None), 42);
        assert_eq!(cfg.resolve_md_seed(Some(7)), 7, "explicit beats config");
    }

    /// Every `LIAIR_*` name in a source file under `dir`.
    fn knob_names(dir: &std::path::Path, out: &mut std::collections::BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                knob_names(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source file");
                for (at, prefix) in text.match_indices(concat!("LIAIR", "_")) {
                    let tail = &text[at + prefix.len()..];
                    let end = tail
                        .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                        .unwrap_or(tail.len());
                    if end > 0 {
                        out.insert(format!("{prefix}{}", &tail[..end]));
                    }
                }
            }
        }
    }

    #[test]
    fn workspace_names_exactly_one_env_knob() {
        // Comments and tests included: a knob nobody reads is not named
        // either. `LIAIR_SIMD` is read by `liair_math::simd::level`.
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("crates/ directory");
        let mut names = std::collections::BTreeSet::new();
        for krate in std::fs::read_dir(crates).expect("readable crates directory") {
            let src = krate.expect("directory entry").path().join("src");
            if src.is_dir() {
                knob_names(&src, &mut names);
            }
        }
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        assert_eq!(names, ["LIAIR_SIMD"]);
    }
}
