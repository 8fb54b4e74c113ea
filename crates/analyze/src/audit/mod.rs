//! `lec-audit`: call-graph-aware semantic passes.
//!
//! Where the token rules in [`crate::rules`] judge single lines, the audit
//! passes reason over the workspace call graph built by
//! [`crate::callgraph::Workspace`]:
//!
//! - [`panic`](mod@panic) — panic-reachability from serve/optimize entry points, with
//!   full call-path witnesses and per-root-group ratchet budgets.
//! - [`concurrency`] — shared mutable captures and `Ordering::Relaxed` inside
//!   concurrent regions of deterministic paths.
//! - [`floatorder`] — float reductions over unordered iterators.
//! - [`invariants`] — call-graph conformance: BENCH writers reach
//!   `artifact_path`, optimizer finalizes reach the plan verifier.
//!
//! All passes honor `// lec-lint: allow(<rule>) — <reason>` pragmas, at the
//! flagged line or on the enclosing function's signature (fn-scope coverage,
//! see [`crate::callgraph::Workspace::allowed_reason`]). Findings merge into
//! the main diagnostic stream and a per-pass summary lands in the `audit`
//! section of `results/LINT.json`.

pub mod concurrency;
pub mod floatorder;
pub mod invariants;
pub mod panic;

use crate::callgraph::Workspace;
use crate::diag::{Diagnostic, Status};
use crate::ratchet::Ratchet;

/// Violation/allowed tallies for one pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassCounts {
    /// Hard violations.
    pub violations: usize,
    /// Pragma-suppressed findings.
    pub allowed: usize,
}

/// Per-pass outcome summary, rendered into the `audit` JSON section.
#[derive(Debug, Default)]
pub struct AuditSummary {
    /// Panic-reachability violations whose witness starts at a serve root.
    pub serve_roots: usize,
    /// Panic-reachability violations whose witness starts at an optimize root.
    pub optimize_roots: usize,
    /// Panic-reachability violations whose witness starts at a sampling root.
    pub sample_roots: usize,
    /// Panic-reachability violations whose witness starts at a certify root.
    pub certify_roots: usize,
    /// Pragma-allowed panic-reachability findings.
    pub panic_allowed: usize,
    /// Within-budget (ratcheted) panic-reachability findings.
    pub panic_ratcheted: usize,
    /// Concurrency-determinism tallies.
    pub concurrency: PassCounts,
    /// Float-order tallies.
    pub float_order: PassCounts,
    /// Invariant-conformance tallies.
    pub invariants: PassCounts,
}

impl AuditSummary {
    /// Render as the JSON object embedded under `"audit"` in `LINT.json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n    \"panic_reachability\": {{\"serve_roots\": {}, \"optimize_roots\": {}, \
             \"sample_roots\": {}, \"certify_roots\": {}, \
             \"allowed\": {}, \"ratcheted\": {}}},\n    \
             \"concurrency_determinism\": {{\"violations\": {}, \"allowed\": {}}},\n    \
             \"float_order\": {{\"violations\": {}, \"allowed\": {}}},\n    \
             \"invariant_conformance\": {{\"violations\": {}, \"allowed\": {}}}\n  }}",
            self.serve_roots,
            self.optimize_roots,
            self.sample_roots,
            self.certify_roots,
            self.panic_allowed,
            self.panic_ratcheted,
            self.concurrency.violations,
            self.concurrency.allowed,
            self.float_order.violations,
            self.float_order.allowed,
            self.invariants.violations,
            self.invariants.allowed,
        )
    }
}

/// Outcome of a full audit run.
pub struct AuditOutcome {
    /// All audit diagnostics (violations, allowed, ratcheted).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-pass summary for the JSON artifact and CI smoke asserts.
    pub summary: AuditSummary,
}

/// Run all four audit passes over a built workspace.
pub fn run_audit(ws: &Workspace, ratchet: &Ratchet) -> AuditOutcome {
    let mut diagnostics = Vec::new();
    let mut summary = AuditSummary::default();

    panic::run(ws, ratchet, &mut diagnostics, &mut summary);
    summary.concurrency = concurrency::run(ws, &mut diagnostics);
    summary.float_order = floatorder::run(ws, &mut diagnostics);
    summary.invariants = invariants::run(ws, &mut diagnostics);

    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    AuditOutcome {
        diagnostics,
        summary,
    }
}

/// Tally helper used by the simple passes: resolve one finding against
/// pragmas and push the diagnostic.
pub(crate) fn push_finding(
    ws: &Workspace,
    diagnostics: &mut Vec<Diagnostic>,
    counts: &mut PassCounts,
    fn_id: usize,
    rule: &'static str,
    line: usize,
    message: String,
) {
    let status = match ws.allowed_reason(fn_id, rule, line) {
        Some(reason) => {
            counts.allowed += 1;
            Status::Allowed { reason }
        }
        None => {
            counts.violations += 1;
            Status::Violation
        }
    };
    let loc = ws.fns[fn_id];
    let file = &ws.files[loc.file];
    diagnostics.push(Diagnostic {
        file: ws.path_of(fn_id).to_string(),
        line: line + 1,
        rule,
        message,
        snippet: file
            .raw_lines
            .get(line)
            .map_or("", |s| s.trim())
            .to_string(),
        status,
    });
}
