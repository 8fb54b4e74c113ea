//! Integration tests for the `lec-audit` call-graph passes: synthetic
//! workspaces exercising each pass and the witness machinery, plus the
//! real-workspace certification assert (the serve and optimize root groups
//! must stay panic-free at budget zero).

use lec_analyze::audit::run_audit;
use lec_analyze::callgraph::Workspace;
use lec_analyze::diag::{Diagnostic, Status};
use lec_analyze::ratchet::Ratchet;
use lec_analyze::{run, RunOptions};

fn ws(files: &[(&str, &str)]) -> Workspace {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    Workspace::build(&sources)
}

fn violations<'a>(diags: &'a [Diagnostic], rule: &str) -> Vec<&'a Diagnostic> {
    diags
        .iter()
        .filter(|d| d.rule == rule && d.status == Status::Violation)
        .collect()
}

#[test]
fn cross_crate_call_resolves_and_flags_reachable_unwrap() {
    let w = ws(&[
        (
            "crates/serve/src/lib.rs",
            "pub fn serve_request() {\n    lec_core::optimize_all();\n}\n",
        ),
        (
            "crates/core/src/lib.rs",
            "pub fn optimize_all() {\n    helper();\n}\nfn helper() {\n    x.unwrap();\n}\n",
        ),
    ]);
    let out = run_audit(&w, &Ratchet::default());
    // The unwrap is reachable from BOTH root groups (serve crosses the
    // crate boundary; optimize_all is itself an optimize root).
    assert_eq!(out.summary.serve_roots, 1);
    assert_eq!(out.summary.optimize_roots, 1);
    let v = violations(&out.diagnostics, "panic-reachability");
    assert!(v
        .iter()
        .any(|d| d.file == "crates/core/src/lib.rs" && d.line == 5));
}

#[test]
fn witness_renders_the_full_call_path_three_deep() {
    let w = ws(&[
        (
            "crates/serve/src/lib.rs",
            "pub fn serve_one() {\n    stage_one();\n}\n",
        ),
        (
            "crates/core/src/lib.rs",
            "pub fn stage_one() {\n    stage_two();\n}\npub fn stage_two() {\n    boom();\n}\n\
             pub fn boom() {\n    opt.unwrap();\n}\n",
        ),
    ]);
    let out = run_audit(&w, &Ratchet::default());
    let v = violations(&out.diagnostics, "panic-reachability");
    let site = v
        .iter()
        .find(|d| d.file == "crates/core/src/lib.rs" && d.line == 8)
        .expect("unwrap site flagged");
    let expected = "serve_one (crates/serve/src/lib.rs:1) → \
                    stage_one (crates/core/src/lib.rs:1) → \
                    stage_two (crates/core/src/lib.rs:4) → \
                    boom (crates/core/src/lib.rs:7)";
    assert!(
        site.message.contains(expected),
        "witness mismatch: {}",
        site.message
    );
    assert!(site
        .message
        .contains("`.unwrap()` reachable from `serve` roots"));
}

#[test]
fn trait_dispatch_over_approximates_to_every_method_of_that_name() {
    let w = ws(&[
        (
            "crates/serve/src/lib.rs",
            "pub fn serve_priced(m: &M) {\n    m.price();\n}\n",
        ),
        (
            "crates/cost/src/model_a.rs",
            "pub struct A;\nimpl A {\n    pub fn price(&self) -> f64 {\n        \
             self.table[self.i + 1]\n    }\n}\n",
        ),
        (
            "crates/cost/src/model_b.rs",
            "pub struct B;\nimpl B {\n    pub fn price(&self) -> f64 {\n        1.0\n    }\n}\n",
        ),
    ]);
    let out = run_audit(&w, &Ratchet::default());
    // The receiver type is unknown, so `.price()` reaches BOTH impls; only
    // A::price holds a panic site (arithmetic index).
    assert_eq!(out.summary.serve_roots, 1);
    let v = violations(&out.diagnostics, "panic-reachability");
    let site = v
        .iter()
        .find(|d| d.file == "crates/cost/src/model_a.rs")
        .expect("A::price site flagged");
    assert!(site.message.contains("A::price"));
    assert!(site.message.contains("arithmetic index"));
}

#[test]
fn sample_and_certify_roots_flag_reachable_panics() {
    let w = ws(&[
        (
            "crates/catalog/src/sampling.rs",
            "pub fn sample_selectivity() {\n    draw();\n}\nfn draw() {\n    \
             bucket.expect(\"seeded\");\n}\n",
        ),
        (
            "crates/core/src/certificate.rs",
            "pub fn certify_plan() {\n    bounds.unwrap();\n}\n",
        ),
    ]);
    let out = run_audit(&w, &Ratchet::default());
    assert_eq!(out.summary.sample_roots, 1);
    assert_eq!(out.summary.certify_roots, 1);
    assert_eq!(out.summary.serve_roots, 0);
    assert_eq!(out.summary.optimize_roots, 0);
    let v = violations(&out.diagnostics, "panic-reachability");
    assert!(v
        .iter()
        .any(|d| d.message.contains("reachable from `sample` roots")));
    assert!(v
        .iter()
        .any(|d| d.message.contains("reachable from `certify` roots")));
}

#[test]
fn call_graph_cycles_terminate() {
    let w = ws(&[(
        "crates/core/src/lib.rs",
        "pub fn optimize_loop() {\n    step_a();\n}\nfn step_a() {\n    step_b();\n}\n\
         fn step_b() {\n    step_a();\n    x.unwrap();\n}\n",
    )]);
    let out = run_audit(&w, &Ratchet::default());
    assert_eq!(out.summary.optimize_roots, 1);
}

#[test]
fn panic_budget_softens_violations_to_ratcheted() {
    let ratchet = Ratchet::parse("[panic-reachability]\n\"optimize\" = 1\n").expect("valid toml");
    let w = ws(&[(
        "crates/core/src/lib.rs",
        "pub fn optimize_all() {\n    x.unwrap();\n}\n",
    )]);
    let out = run_audit(&w, &ratchet);
    assert_eq!(out.summary.optimize_roots, 0);
    assert_eq!(out.summary.panic_ratcheted, 1);
    assert!(violations(&out.diagnostics, "panic-reachability").is_empty());
}

#[test]
fn fn_scope_pragma_allows_every_site_in_the_fn() {
    let w = ws(&[(
        "crates/serve/src/lib.rs",
        "// lec-lint: allow(panic-reachability) — both tables are seeded at construction\n\
         pub fn serve_two() {\n    a.unwrap();\n    b.unwrap();\n}\n",
    )]);
    let out = run_audit(&w, &Ratchet::default());
    assert_eq!(out.summary.serve_roots, 0);
    assert_eq!(out.summary.panic_allowed, 2);
}

#[test]
fn concurrency_flags_unmediated_capture_and_relaxed() {
    let w = ws(&[(
        "crates/core/src/par_fixture.rs",
        "pub fn gather(flag: &std::sync::atomic::AtomicBool) -> f64 {\n    \
         let mut acc = 0.0;\n    \
         std::thread::scope(|s| {\n        \
         s.spawn(|| {\n            acc += 1.0;\n        });\n    \
         });\n    \
         let _seen = flag.load(std::sync::atomic::Ordering::Relaxed);\n    \
         acc\n}\n",
    )]);
    let out = run_audit(&w, &Ratchet::default());
    // One shared-mutable-capture finding, one Relaxed finding.
    assert_eq!(out.summary.concurrency.violations, 2);
    let v = violations(&out.diagnostics, "concurrency-determinism");
    assert_eq!(v.len(), 2);
}

#[test]
fn concurrency_accepts_mediated_captures() {
    let w = ws(&[(
        "crates/core/src/par_fixture.rs",
        "pub fn gather() -> u64 {\n    \
         let total = std::sync::atomic::AtomicU64::new(0);\n    \
         std::thread::scope(|s| {\n        \
         s.spawn(|| {\n            total.fetch_add(1, std::sync::atomic::Ordering::SeqCst);\n        \
         });\n    });\n    \
         total.into_inner()\n}\n",
    )]);
    let out = run_audit(&w, &Ratchet::default());
    assert_eq!(out.summary.concurrency.violations, 0);
}

#[test]
fn float_order_flags_reduction_over_unordered_container() {
    let w = ws(&[(
        "crates/core/src/sum_fixture.rs",
        "pub fn total() -> f64 {\n    \
         std::collections::HashMap::<u32, f64>::new()\n        \
         .values()\n        .sum()\n}\n",
    )]);
    let out = run_audit(&w, &Ratchet::default());
    assert_eq!(out.summary.float_order.violations, 1);
    let v = violations(&out.diagnostics, "float-order");
    // Reported at the line carrying the reduction, not the container.
    assert_eq!(v[0].line, 4);
}

#[test]
fn invariants_require_bench_writers_to_reach_artifact_path() {
    let w = ws(&[(
        "crates/bench/src/experiments/x99_fixture.rs",
        "pub fn run_bad() {\n    \
         std::fs::write(\"results/BENCH_x99.json\", \"{}\").expect(\"write BENCH_x99\");\n}\n\
         pub fn run_good() {\n    \
         let path = artifact_path(\"BENCH_x99.json\");\n    \
         std::fs::write(path, \"{}\").expect(\"write BENCH_x99\");\n}\n",
    )]);
    let out = run_audit(&w, &Ratchet::default());
    assert_eq!(out.summary.invariants.violations, 1);
    let v = violations(&out.diagnostics, "invariant-conformance");
    assert!(v[0].message.contains("run_bad"));
}

#[test]
fn invariants_require_optimizers_to_reach_the_verifier() {
    let w = ws(&[(
        "crates/core/src/lib.rs",
        "pub fn optimize_unverified() -> u32 {\n    7\n}\n\
         pub fn optimize_verified() -> u32 {\n    debug_verify_plan();\n    7\n}\n",
    )]);
    let out = run_audit(&w, &Ratchet::default());
    assert_eq!(out.summary.invariants.violations, 1);
    let v = violations(&out.diagnostics, "invariant-conformance");
    assert!(v[0].message.contains("optimize_unverified"));
}

#[test]
fn real_workspace_certifies_clean_at_budget_zero() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let opts = RunOptions {
        audit: true,
        strict: true,
        ..RunOptions::new(&root)
    };
    let report = run(&opts).expect("audit run succeeds");
    let audit = report.audit.as_ref().expect("audit section present");
    assert_eq!(audit.serve_roots, 0, "serve loop must stay panic-free");
    assert_eq!(audit.optimize_roots, 0, "optimizers must stay panic-free");
    assert_eq!(audit.sample_roots, 0, "sampling must stay panic-free");
    assert_eq!(audit.certify_roots, 0, "certification must stay panic-free");
    assert_eq!(audit.concurrency.violations, 0);
    assert_eq!(audit.float_order.violations, 0);
    assert_eq!(audit.invariants.violations, 0);
    assert_eq!(
        report.violation_count(),
        0,
        "workspace must lint clean: {:?}",
        report
            .diagnostics
            .iter()
            .filter(|d| d.status == Status::Violation)
            .collect::<Vec<_>>()
    );
    // The JSON artifact carries the audit section the CI smoke asserts key on.
    let json = report.to_json();
    assert!(json.contains("\"audit\""));
    assert!(json.contains("\"serve_roots\": 0"));
    assert!(json.contains("\"optimize_roots\": 0"));
    assert!(json.contains("\"sample_roots\": 0"));
    assert!(json.contains("\"certify_roots\": 0"));
}

#[test]
fn every_enumerator_module_contributes_an_optimize_root() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let sources: Vec<(String, String)> = lec_analyze::collect_sources(&root)
        .expect("scan workspace")
        .into_iter()
        .filter(|rel| rel.starts_with("crates/core/src"))
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(&rel)).expect("read source");
            (rel, text)
        })
        .collect();
    let w = Workspace::build(&sources);
    let roots = w.find_fns(lec_analyze::audit::panic::is_optimize_root);
    for module in [
        "alg_a",
        "alg_b",
        "alg_c",
        "alg_d",
        "bushy",
        "dp",
        "exhaustive",
        "lsc",
        "parametric",
        "pareto",
        "rules",
        "soundness",
        "topc",
    ] {
        let path = format!("crates/core/src/{module}.rs");
        assert!(
            roots.iter().any(|&id| w.path_of(id) == path),
            "{module} has no entry point in the optimize root group"
        );
    }
    // The renamed entry points are roots too, not just `optimize*`.
    let names: Vec<String> = roots.iter().map(|&id| w.qualified_name(id)).collect();
    for want in ["top_c_plans", "exhaustive_lec", "precompute"] {
        assert!(
            names.iter().any(|n| n.ends_with(want)),
            "no `{want}` root in {names:?}"
        );
    }
}
