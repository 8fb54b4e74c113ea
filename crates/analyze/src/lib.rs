//! `lec-analyze`: the workspace's static-analysis layer (Layer 1).
//!
//! This crate hosts `lec-lint`, a dependency-free, lexer-based lint pass over
//! all workspace sources. It enforces the repo-specific invariants that the
//! compiler cannot see and that the paper's guarantees rest on — determinism
//! of the optimizer/serve paths, exact (epsilon-free) dominance, and honest
//! error handling in library code. See DESIGN.md §7 for the rule catalog and
//! `rules` for the per-rule scopes. Checked-in bench artifacts are linted
//! too (`artifacts`): a `results/BENCH_*.json` claiming a speedup must
//! carry the self-assertion markers its experiment verified before writing.
//!
//! The companion Layer 2 — the plan-IR verifier and the objective
//! certifier — lives in `lec-plan::verify` and `lec-rules::certify`; this
//! crate checks the *source text*, those check the *emitted plans* and the
//! objectives admitted to each optimizer.

pub mod artifacts;
pub mod audit;
pub mod callgraph;
pub mod diag;
pub mod items;
pub mod lexer;
pub mod pragma;
pub mod ratchet;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use diag::{Diagnostic, Status};
use ratchet::Ratchet;

/// Options for one lint run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Path of the ratchet file (normally `<root>/lint-ratchet.toml`).
    pub ratchet_path: PathBuf,
    /// Strict mode: a missing ratchet file and stale (over-generous) budgets
    /// are violations, not notes. `make lint-strict` runs with this on.
    pub strict: bool,
    /// Run the call-graph audit passes (`lec-audit`) in addition to the
    /// token rules. See `audit` for the pass catalog.
    pub audit: bool,
}

impl RunOptions {
    /// Defaults rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let ratchet_path = root.join("lint-ratchet.toml");
        Self {
            root,
            ratchet_path,
            strict: false,
            audit: false,
        }
    }
}

/// Outcome of a lint run.
#[derive(Debug)]
pub struct Report {
    /// All diagnostics (violations, pragma-allowed, ratcheted), sorted by
    /// file then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Ratchet table rows: `(file, actual, budget)`.
    pub ratchet_entries: Vec<(String, usize, usize)>,
    /// Audit pass summary (present when the run had `audit: true`).
    pub audit: Option<audit::AuditSummary>,
}

impl Report {
    /// Count of hard violations (what decides the exit code).
    pub fn violation_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.status == Status::Violation)
            .count()
    }

    /// Render as JSON (the `results/LINT.json` artifact).
    pub fn to_json(&self) -> String {
        let audit_json = self.audit.as_ref().map(|a| a.to_json());
        diag::report_to_json(
            &self.diagnostics,
            self.files_scanned,
            &self.ratchet_entries,
            audit_json.as_deref(),
        )
    }
}

/// Directories never descended into, relative to the workspace root.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "results", "crates/analyze/tests/fixtures"];

/// Collect every `.rs` file under `root`, sorted, as workspace-relative
/// forward-slash paths. Deterministic regardless of filesystem order.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<String>> {
    collect_files(root, |rel| rel.ends_with(".rs"))
}

/// Collect every package manifest (`Cargo.toml`) under `root`, sorted, as
/// workspace-relative paths.
pub fn collect_manifests(root: &Path) -> std::io::Result<Vec<String>> {
    collect_files(root, |rel| {
        rel == "Cargo.toml" || rel.ends_with("/Cargo.toml")
    })
}

/// Every file under `root` whose workspace-relative path satisfies `keep`,
/// sorted, skipping [`SKIP_DIRS`].
fn collect_files(root: &Path, keep: fn(&str) -> bool) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let rel = match path.strip_prefix(root) {
                Ok(r) => r.to_string_lossy().replace('\\', "/"),
                Err(_) => continue,
            };
            if path.is_dir() {
                if SKIP_DIRS.contains(&rel.as_str()) {
                    continue;
                }
                stack.push(path);
            } else if keep(&rel) {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Run the lint pass over the workspace.
pub fn run(opts: &RunOptions) -> Result<Report, String> {
    let ratchet = match std::fs::read_to_string(&opts.ratchet_path) {
        Ok(text) => Ratchet::parse(&text).map_err(|e| e.to_string())?,
        Err(_) if opts.strict => {
            return Err(format!(
                "strict mode requires the ratchet file at {}",
                opts.ratchet_path.display()
            ));
        }
        Err(_) => Ratchet::default(),
    };

    let files = collect_sources(&opts.root).map_err(|e| format!("scan failed: {e}"))?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    let mut diagnostics = Vec::new();
    for rel in &files {
        let source =
            std::fs::read_to_string(opts.root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        diagnostics.extend(rules::lint_source(rel, &source));
        sources.push((rel.clone(), source));
    }

    // Bench artifacts are checked too: a checked-in speedup claim must
    // carry the self-assertion markers its experiment verified.
    let artifact_files = artifacts::collect_artifacts(&opts.root)
        .map_err(|e| format!("artifact scan failed: {e}"))?;
    for rel in &artifact_files {
        let text =
            std::fs::read_to_string(opts.root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        diagnostics.extend(artifacts::lint_artifact(rel, &text));
    }

    let ratchet_entries = apply_ratchet(&mut diagnostics, &ratchet, opts.strict);

    // Call-graph audit passes (panic-reachability, concurrency-determinism,
    // float-order, invariant conformance) over the same source set.
    let audit_summary = if opts.audit {
        let mut manifests = Vec::new();
        for rel in collect_manifests(&opts.root).map_err(|e| format!("scan failed: {e}"))? {
            let text = std::fs::read_to_string(opts.root.join(&rel))
                .map_err(|e| format!("read {rel}: {e}"))?;
            manifests.push((rel, text));
        }
        let ws = callgraph::Workspace::build(&sources, &manifests);
        let outcome = audit::run_audit(&ws, &ratchet);
        diagnostics.extend(outcome.diagnostics);
        Some(outcome.summary)
    } else {
        None
    };

    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Report {
        diagnostics,
        files_scanned: files.len(),
        ratchet_entries,
        audit: audit_summary,
    })
}

/// Current per-file actual counts for the ratcheted rule (violations only —
/// pragma-allowed hits do not consume budget).
pub fn unwrap_actuals(diagnostics: &[Diagnostic]) -> BTreeMap<String, usize> {
    let mut actuals: BTreeMap<String, usize> = BTreeMap::new();
    for d in diagnostics {
        if d.rule == rules::NO_UNWRAP_IN_LIB
            && matches!(d.status, Status::Violation | Status::Ratcheted)
        {
            *actuals.entry(d.file.clone()).or_default() += 1;
        }
    }
    actuals
}

fn apply_ratchet(
    diagnostics: &mut Vec<Diagnostic>,
    ratchet: &Ratchet,
    strict: bool,
) -> Vec<(String, usize, usize)> {
    let actuals = unwrap_actuals(diagnostics);

    // Within-budget files: convert their unwrap violations to Ratcheted.
    for d in diagnostics.iter_mut() {
        if d.rule != rules::NO_UNWRAP_IN_LIB || d.status != Status::Violation {
            continue;
        }
        let actual = actuals.get(&d.file).copied().unwrap_or(0);
        if let Some(budget) = ratchet.budget(rules::NO_UNWRAP_IN_LIB, &d.file) {
            if actual <= budget {
                d.status = Status::Ratcheted;
            }
        }
    }

    // Files over budget get one summary violation on top of the per-hit ones.
    let mut entries: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for (file, &actual) in &actuals {
        let budget = ratchet.budget(rules::NO_UNWRAP_IN_LIB, file).unwrap_or(0);
        entries.insert(file.clone(), (actual, budget));
        if actual > budget {
            diagnostics.push(Diagnostic {
                file: file.clone(),
                line: 1,
                rule: rules::NO_UNWRAP_IN_LIB,
                message: format!(
                    "ratchet exceeded: {actual} unwrap(s) against a budget of {budget}; burn \
                     down to the budget or (with review) raise it in lint-ratchet.toml"
                ),
                snippet: String::new(),
                status: Status::Violation,
            });
        }
    }
    // Stale budgets (budget above actual) must be tightened in strict mode so
    // the ratchet only ever reflects reality.
    if let Some(files) = ratchet.budgets.get(rules::NO_UNWRAP_IN_LIB) {
        for (file, &budget) in files {
            let actual = actuals.get(file).copied().unwrap_or(0);
            entries.entry(file.clone()).or_insert((actual, budget));
            if strict && actual < budget {
                diagnostics.push(Diagnostic {
                    file: file.clone(),
                    line: 1,
                    rule: rules::NO_UNWRAP_IN_LIB,
                    message: format!(
                        "stale ratchet budget: actual {actual} < budget {budget}; run \
                         `--update-ratchet` to tighten"
                    ),
                    snippet: String::new(),
                    status: Status::Violation,
                });
            }
        }
    }
    entries
        .into_iter()
        .map(|(file, (actual, budget))| (file, actual, budget))
        .collect()
}

/// Recompute the ratchet from current actuals and write it back (lower-only).
///
/// When no ratchet file exists yet, this *seeds* budgets from the current
/// actuals — the one legitimate way budgets ever appear. Once the file is
/// checked in, rewrites can only lower them.
pub fn update_ratchet(opts: &RunOptions) -> Result<(), String> {
    let (mut ratchet, seeding) = match std::fs::read_to_string(&opts.ratchet_path) {
        Ok(text) => (Ratchet::parse(&text).map_err(|e| e.to_string())?, false),
        Err(_) => (Ratchet::default(), true),
    };
    let files = collect_sources(&opts.root).map_err(|e| format!("scan failed: {e}"))?;
    let mut diagnostics = Vec::new();
    for rel in &files {
        let source =
            std::fs::read_to_string(opts.root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        diagnostics.extend(rules::lint_source(rel, &source));
    }
    let actuals = unwrap_actuals(&diagnostics);
    if seeding {
        let section = ratchet
            .budgets
            .entry(rules::NO_UNWRAP_IN_LIB.to_string())
            .or_default();
        for (file, &n) in &actuals {
            if n > 0 {
                section.insert(file.clone(), n);
            }
        }
    } else {
        ratchet
            .tighten(rules::NO_UNWRAP_IN_LIB, &actuals)
            .map_err(|over| {
                format!(
                    "refusing to raise budgets; burn these down first:\n  {}",
                    over.join("\n  ")
                )
            })?;
    }
    std::fs::write(&opts.ratchet_path, ratchet.render())
        .map_err(|e| format!("write {}: {e}", opts.ratchet_path.display()))
}
