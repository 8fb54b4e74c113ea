//! Panic-reachability: no panic site may be reachable from a serving or
//! optimizer entry point.
//!
//! Root groups:
//!
//! - **serve** — every non-test `serve*` function in `crates/serve/src`
//!   (`QueryService::serve`, `serve_at`, `ConcurrentServer::serve_stream`,
//!   `serve_stream_collect`, …). A panic here kills a live request.
//! - **optimize** — every non-test enumerator entry point in
//!   `crates/core/src` ([`is_optimize_root`]): the `optimize*` family plus
//!   `top_c_plans`, `exhaustive_lec*` and `ParametricPlans::precompute*`.
//!   A panic here breaks the totality the LEC guarantees assume.
//! - **sample** — every non-test `sample*` function in `crates/catalog/src`
//!   (`SampleEstimator::sample_selectivity`, `sample_histogram`,
//!   `sample_interval_hoeffding`, …). Sampling runs inside the serve loop's
//!   resample path, so it inherits the same no-panic requirement.
//! - **certify** — every non-test `certify*` function in `crates/core/src`
//!   (`certify_plan`, …). Certificates are computed per served request;
//!   a panic here would take down serving for exactly the plans the
//!   (ε, δ) machinery is meant to vouch for.
//!
//! From each group the pass runs a BFS over the over-approximate call graph
//! and flags every panic site (`unwrap`, `expect`, panicking macros,
//! arithmetic indexing — see [`crate::items::PanicKind`]) inside a reached
//! function whose file is in scope. The diagnostic carries the full
//! root→function call-path witness, so a finding is actionable without
//! re-deriving the path by hand.
//!
//! Budgets live in `lint-ratchet.toml` under `[panic-reachability]`, keyed by
//! group name; a missing entry means zero tolerance. All four groups are
//! pinned at 0 — serving, optimizing, sampling, and certifying are
//! certified panic-free.

use std::collections::BTreeMap;

use crate::callgraph::{Provenance, Workspace};
use crate::diag::{Diagnostic, Status};
use crate::items::FnItem;
use crate::ratchet::Ratchet;
use crate::rules::PANIC_REACHABILITY;

use super::AuditSummary;

/// Source trees whose panic sites count against reachability budgets.
/// Bench experiments and the analyzer itself self-assert deliberately and
/// are out of scope; compat shims mirror external crates' APIs.
const PANIC_SCOPE: [&str; 10] = [
    "crates/core/src",
    "crates/plan/src",
    "crates/cost/src",
    "crates/stats/src",
    "crates/serve/src",
    "crates/catalog/src",
    "crates/workload/src",
    "crates/exec/src",
    "crates/rules/src",
    "src/",
];

fn in_scope(path: &str) -> bool {
    PANIC_SCOPE
        .iter()
        .any(|t| path.starts_with(t) && (t.ends_with('/') || path[t.len()..].starts_with('/')))
}

/// Whether `f` (in workspace-relative file `path`) is an optimizer entry
/// point: each enumerator module exposes exactly one, and not all of them
/// are named `optimize*`.
pub fn is_optimize_root(path: &str, f: &FnItem) -> bool {
    path.starts_with("crates/core/src")
        && (f.name.starts_with("optimize")
            || f.name == "top_c_plans"
            || f.name.starts_with("exhaustive_lec")
            || (f.impl_type.as_deref() == Some("ParametricPlans")
                && f.name.starts_with("precompute")))
}

/// Run the pass: one BFS per root group, findings ratcheted per group.
pub fn run(
    ws: &Workspace,
    ratchet: &Ratchet,
    diagnostics: &mut Vec<Diagnostic>,
    summary: &mut AuditSummary,
) {
    let serve_roots =
        ws.find_fns(|path, f| path.starts_with("crates/serve/src") && f.name.starts_with("serve"));
    let optimize_roots = ws.find_fns(is_optimize_root);
    let sample_roots = ws
        .find_fns(|path, f| path.starts_with("crates/catalog/src") && f.name.starts_with("sample"));
    let certify_roots =
        ws.find_fns(|path, f| path.starts_with("crates/core/src") && f.name.starts_with("certify"));

    let groups: [(&str, &[usize]); 4] = [
        ("serve", &serve_roots),
        ("optimize", &optimize_roots),
        ("sample", &sample_roots),
        ("certify", &certify_roots),
    ];
    for (group, roots) in groups {
        let violations = run_group(ws, ratchet, group, roots, diagnostics, summary);
        match group {
            "serve" => summary.serve_roots = violations,
            "optimize" => summary.optimize_roots = violations,
            "sample" => summary.sample_roots = violations,
            _ => summary.certify_roots = violations,
        }
    }
}

fn run_group(
    ws: &Workspace,
    ratchet: &Ratchet,
    group: &str,
    roots: &[usize],
    diagnostics: &mut Vec<Diagnostic>,
    summary: &mut AuditSummary,
) -> usize {
    let reach: BTreeMap<usize, Provenance> = ws.reachable_from(roots);
    let budget = ratchet.budget(PANIC_REACHABILITY, group).unwrap_or(0);

    let mut group_diags: Vec<Diagnostic> = Vec::new();
    let mut unallowed = 0usize;
    for &id in reach.keys() {
        if !in_scope(ws.path_of(id)) {
            continue;
        }
        let f = ws.item(id);
        if f.panic_sites.is_empty() {
            continue;
        }
        let witness = ws.witness(&reach, id);
        let loc = ws.fns[id];
        let file = &ws.files[loc.file];
        for site in &f.panic_sites {
            let status = match ws.allowed_reason(id, PANIC_REACHABILITY, site.line) {
                Some(reason) => {
                    summary.panic_allowed += 1;
                    Status::Allowed { reason }
                }
                None => {
                    unallowed += 1;
                    Status::Violation
                }
            };
            group_diags.push(Diagnostic {
                file: ws.path_of(id).to_string(),
                line: site.line + 1,
                rule: PANIC_REACHABILITY,
                message: format!(
                    "{} reachable from `{group}` roots; call path: {witness}",
                    site.kind.describe()
                ),
                snippet: file
                    .raw_lines
                    .get(site.line)
                    .map_or("", |s| s.trim())
                    .to_string(),
                status,
            });
        }
    }

    let over_budget = unallowed > budget;
    if !over_budget {
        // Within budget: soften violations to ratcheted, exactly like the
        // per-file unwrap ratchet.
        for d in &mut group_diags {
            if d.status == Status::Violation {
                d.status = Status::Ratcheted;
                summary.panic_ratcheted += 1;
            }
        }
    } else {
        diagnostics.push(Diagnostic {
            file: "lint-ratchet.toml".to_string(),
            line: 1,
            rule: PANIC_REACHABILITY,
            message: format!(
                "`{group}` root group has {unallowed} reachable panic site(s) against a budget \
                 of {budget}; fix them, pragma them with reasons, or (with review) raise the \
                 budget under [panic-reachability]"
            ),
            snippet: String::new(),
            status: Status::Violation,
        });
    }
    diagnostics.append(&mut group_diags);
    if over_budget {
        unallowed
    } else {
        0
    }
}
