//! Per-job determinism configuration.
//!
//! Before the serve layer, every seed in the workspace was its own
//! convention: `liair-md` read `LIAIR_MD_SEED`, the fault injector read
//! `LIAIR_FAULT_SEED` — each at its own call site, each with its own
//! parse-and-default logic.
//! Fine for one job per process; wrong for a multi-tenant service, where
//! two tenants with different seeds would race on process-global
//! environment variables.
//!
//! [`SeedConfig`] collects both in one value that a job carries
//! with it. [`SeedConfig::from_env`] reproduces the legacy single-job
//! behavior (and is what the old env-reading call sites now delegate to),
//! while serve jobs construct theirs explicitly and never touch the
//! environment after admission.

use crate::fault::FaultPlan;

/// Environment variable naming the MD thermalization seed.
pub const MD_SEED_ENV: &str = "LIAIR_MD_SEED";
/// Environment variable naming the fault-injection seed.
pub const FAULT_SEED_ENV: &str = "LIAIR_FAULT_SEED";

/// Fallback MD seed when neither an explicit seed nor the environment
/// provides one (the paper's publication year, as established in PR 7).
pub const DEFAULT_MD_SEED: u64 = 2014;

/// All deterministic-behavior knobs a job carries, replacing process-wide
/// environment lookups scattered across `liair-md` and
/// `liair-runtime::fault`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedConfig {
    /// MD thermalization seed; `None` falls back to [`DEFAULT_MD_SEED`].
    pub md_seed: Option<u64>,
    /// Fault-injection seed; `None` disables injected faults.
    pub fault_seed: Option<u64>,
}

impl SeedConfig {
    /// The legacy process-wide convention: read every knob from the
    /// environment once. Single-job binaries (examples, benches, tests)
    /// keep this path; serve jobs construct their config explicitly.
    pub fn from_env() -> SeedConfig {
        SeedConfig {
            md_seed: parse_env_u64(MD_SEED_ENV),
            fault_seed: parse_env_u64(FAULT_SEED_ENV),
        }
    }

    /// Resolve the MD seed with the established precedence:
    /// explicit argument > configured seed > [`DEFAULT_MD_SEED`].
    pub fn resolve_md_seed(&self, explicit: Option<u64>) -> u64 {
        explicit.or(self.md_seed).unwrap_or(DEFAULT_MD_SEED)
    }

    /// The fault plan this config selects: [`FaultPlan::with_stalls`]
    /// under the configured seed, or `None` when fault injection is off.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_seed.map(FaultPlan::with_stalls)
    }

    /// Builder-style override of the MD seed.
    pub fn with_md_seed(mut self, seed: u64) -> SeedConfig {
        self.md_seed = Some(seed);
        self
    }

    /// Builder-style override of the fault seed.
    pub fn with_fault_seed(mut self, seed: u64) -> SeedConfig {
        self.fault_seed = Some(seed);
        self
    }
}

fn parse_env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse::<u64>().ok()
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

    #[test]
    fn fault_plan_matches_with_stalls() {
        assert!(SeedConfig::default().fault_plan().is_none());
        let plan = SeedConfig::default().with_fault_seed(13).fault_plan();
        assert_eq!(plan, Some(FaultPlan::with_stalls(13)));
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
    fn workspace_names_exactly_three_env_knobs() {
        // Comments and tests included: a knob nobody reads is not named
        // either. `LIAIR_SIMD` is read by `liair_math::simd::level`, the
        // two seeds by `SeedConfig::from_env`.
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
        assert_eq!(names, [FAULT_SEED_ENV, MD_SEED_ENV, "LIAIR_SIMD"]);
    }
}
