//! Artifact-path policy for the machine-readable `results/BENCH_*.json`
//! records.
//!
//! A committed artifact once recorded a 0.1396× "speedup" — an
//! unoptimized debug-build test run (~0.14× is exactly debug-vs-release
//! for that kernel) that clobbered the release artifact while the docs
//! kept quoting the healthy number. X18 grew a guard against that class
//! of bug; this module is the same guard, shared by every BENCH writer:
//! debug builds route to a `_debug`-suffixed, gitignored file, and every
//! artifact records `"optimized_build"` so a stray debug record is
//! machine-detectable (`lec-analyze` flags it) even if it lands on the
//! wrong path.
//!
//! CI smoke passes re-run experiments whose artifacts record wall times;
//! with `XTABLE_SMOKE` set in the environment, every artifact goes to a
//! gitignored `_smoke`-suffixed file instead, so a CI run never rewrites
//! a committed measurement.

use std::path::PathBuf;

/// Whether this binary can honestly be compared against recorded
/// release-build baselines. Debug builds still run every self-assertion
/// that is build-independent (counter equalities, ratio floors where both
/// sides slow down together) but must never overwrite a committed release
/// artifact with their wall times.
pub const OPTIMIZED_BUILD: bool = !cfg!(debug_assertions);

/// Whether this run is a CI smoke pass (`XTABLE_SMOKE` is set): its
/// artifacts land on gitignored `_smoke` paths.
fn smoke_run() -> bool {
    std::env::var_os("XTABLE_SMOKE").is_some()
}

/// Resolves `results/BENCH_<stem>.json` in the workspace, routing smoke
/// runs to the gitignored `results/BENCH_<stem>_smoke.json` and debug
/// builds to the gitignored `results/BENCH_<stem>[_smoke]_debug.json`.
pub fn artifact_path(stem: &str) -> PathBuf {
    let smoke = if smoke_run() { "_smoke" } else { "" };
    let suffix = if OPTIMIZED_BUILD { "" } else { "_debug" };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../../results/BENCH_{stem}{smoke}{suffix}.json"))
}

/// Resolves `results/<stem>.md` in the workspace, routing debug builds
/// to the gitignored `results/<stem>_debug.md`. Same policy as the JSON
/// artifacts: `results/xtable_all.md` used to be a raw stdout redirect,
/// which is exactly how a debug run clobbers a committed record.
pub fn markdown_path(stem: &str) -> PathBuf {
    let suffix = if OPTIMIZED_BUILD { "" } else { "_debug" };
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{stem}{suffix}.md"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_path_routes_on_build_profile() {
        let p = markdown_path("xtable_all");
        let name = p.file_name().unwrap().to_str().unwrap();
        if OPTIMIZED_BUILD {
            assert_eq!(name, "xtable_all.md");
        } else {
            assert_eq!(name, "xtable_all_debug.md");
        }
    }

    #[test]
    fn path_routes_on_build_profile() {
        let p = artifact_path("stats");
        let name = p.file_name().unwrap().to_str().unwrap();
        let smoke = if smoke_run() { "_smoke" } else { "" };
        if OPTIMIZED_BUILD {
            assert_eq!(name, format!("BENCH_stats{smoke}.json"));
        } else {
            assert_eq!(name, format!("BENCH_stats{smoke}_debug.json"));
        }
        assert!(p.to_str().unwrap().contains("results"));
    }
}
