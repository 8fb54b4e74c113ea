//! X20 (extension) — the serving loop under drift: cache economics and
//! recalibration recovery.
//!
//! Two runs of the same request stream through a `lec-serve`
//! [`QueryService`]:
//!
//! * **Control** (beliefs ≡ truth): after one optimizer run per query
//!   template the cache answers everything — 100% hits on the steady
//!   state, zero recalibrations, beliefs untouched. These are closed-form
//!   counts and asserted, not just reported.
//! * **Drift**: mid-stream, the truth catalog's filter-column histogram
//!   shifts hot while the beliefs still think it is uniform. The drift
//!   detector fires off execution feedback, recalibrates the beliefs, and
//!   invalidates the poisoned cache entries. Recovery is measured as
//!   *regret*: the expected cost (under the truth catalog's statistics) of
//!   each served plan, relative to a fresh truth-informed optimization —
//!   the always-re-optimize-from-truth oracle. After the recalibration
//!   settles, mean regret must fall below 5% while the service still
//!   spends ≤ 10% as many optimizer invocations as the oracle.

use crate::artifacts::{artifact_path, OPTIMIZED_BUILD};
use crate::table::Table;
use lec_catalog::{Catalog, ColumnMeta, Histogram, TableMeta};
use lec_core::{alg_c, expected_cost, MemoryModel};
use lec_cost::PaperCostModel;
use lec_exec::PAGE_CAPACITY;
use lec_serve::{DriftConfig, QueryRequest, QueryService, ServeConfig};
use lec_stats::Distribution;
use lec_workload::from_catalog::{query_from_catalog, FilterSpec, JoinSpec};
use std::path::PathBuf;

/// Where the machine-readable record lands (workspace `results/`).
/// Debug builds route to the gitignored `_debug` file.
fn json_path() -> PathBuf {
    artifact_path("serve")
}

/// `cust ⋈ ord` and `cust ⋈ item` on 512 shared keys; `cust.v` over
/// [0, 100] carries the given 8-bucket mass profile.
fn catalog(hist: &[f64; 8]) -> Catalog {
    let mut c = Catalog::new();
    let values: Vec<f64> = hist
        .iter()
        .enumerate()
        .flat_map(|(b, &mass)| {
            let n = (mass * 800.0).round() as usize;
            (0..n).map(move |i| b as f64 * 12.5 + 12.5 * (i as f64 + 0.5) / n.max(1) as f64)
        })
        .collect();
    c.register(
        TableMeta::new("cust", 12 * PAGE_CAPACITY as u64, 12)
            .expect("x20: cust table shape is statically valid")
            .with_column(ColumnMeta::new("ck", 512, 0.0, 511.0))
            .with_column(
                ColumnMeta::new("v", 800, 0.0, 100.0).with_histogram(
                    Histogram::equi_width(&values, 8)
                        .expect("x20: synthesized cust.v sample is non-empty"),
                ),
            ),
    )
    .expect("x20: cust registers into an empty catalog");
    c.register(
        TableMeta::new("ord", 24 * PAGE_CAPACITY as u64, 24)
            .expect("x20: ord table shape is statically valid")
            .with_column(ColumnMeta::new("ok", 512, 0.0, 511.0)),
    )
    .expect("x20: ord registers into an empty catalog");
    c.register(
        TableMeta::new("item", 16 * PAGE_CAPACITY as u64, 16)
            .expect("x20: item table shape is statically valid")
            .with_column(ColumnMeta::new("ik", 512, 0.0, 511.0)),
    )
    .expect("x20: item registers into an empty catalog");
    c
}

const UNIFORM: [f64; 8] = [0.125; 8];
/// ~70% of `cust.v` lands below 25 (believed: 25%).
const HOT: [f64; 8] = [0.35, 0.35, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05];

fn join(l: &str, lc: &str, r: &str, rc: &str) -> JoinSpec {
    JoinSpec {
        left_table: l.into(),
        left_column: lc.into(),
        right_table: r.into(),
        right_column: rc.into(),
    }
}

/// The workload's request templates; the filtered one is the drift victim.
fn templates() -> Vec<QueryRequest> {
    vec![
        QueryRequest {
            tables: vec!["cust".into(), "ord".into()],
            joins: vec![join("cust", "ck", "ord", "ok")],
            filters: vec![FilterSpec {
                table: "cust".into(),
                column: "v".into(),
                lo: 0.0,
                hi: 25.0,
                indexed: false,
            }],
            order_by: None,
        },
        QueryRequest {
            tables: vec!["cust".into(), "item".into()],
            joins: vec![join("cust", "ck", "item", "ik")],
            filters: vec![],
            order_by: None,
        },
    ]
}

/// Round-robin over the templates.
fn stream(len: usize) -> Vec<QueryRequest> {
    let ts = templates();
    (0..len).map(|i| ts[i % ts.len()].clone()).collect()
}

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::new(
        vec![
            Distribution::new([(4.0, 0.6), (40.0, 0.4)]).expect("x20: valid two-point support"),
            Distribution::new([(16.0, 0.5), (80.0, 0.5)]).expect("x20: valid two-point support"),
        ],
        Distribution::new([(8.0, 0.5), (48.0, 0.5)]).expect("x20: valid two-point support"),
    );
    cfg.drift = DriftConfig {
        error_threshold: 0.5,
        min_observations: 3,
        blend: 0.8,
    };
    cfg
}

/// Expected cost of `plan` for `request`, priced under `truth` statistics.
fn cost_under_truth(
    truth: &Catalog,
    request: &QueryRequest,
    plan: &lec_plan::Plan,
    observed: &Distribution,
) -> f64 {
    let tables: Vec<&str> = request.tables.iter().map(String::as_str).collect();
    let q = query_from_catalog(truth, &tables, &request.joins, &request.filters, None)
        .expect("truth query");
    let phases = MemoryModel::Static(observed.clone())
        .table(q.n().max(2))
        .expect("phase table");
    expected_cost(&q, &PaperCostModel, plan, &phases)
}

/// The truth-informed oracle: a fresh optimization per request.
fn oracle_cost(truth: &Catalog, request: &QueryRequest, observed: &Distribution) -> f64 {
    let tables: Vec<&str> = request.tables.iter().map(String::as_str).collect();
    let q = query_from_catalog(truth, &tables, &request.joins, &request.filters, None)
        .expect("truth query");
    alg_c::optimize(&q, &PaperCostModel, &MemoryModel::Static(observed.clone()))
        .expect("oracle optimization")
        .0
        .cost
}

struct DriftRun {
    regrets: Vec<f64>,
    recovery_regret: f64,
    optimizer_invocations: u64,
    oracle_invocations: u64,
    recalibrations: u64,
    invalidations: u64,
    hits: u64,
    misses: u64,
}

const STREAM_LEN: usize = 60;
const DRIFT_AT: usize = 10;
/// The recovery window: the stream's last quarter, long after the
/// detector had the observations it needs.
const RECOVERY_FROM: usize = 45;

fn drift_run() -> DriftRun {
    let cfg = config();
    let observed = cfg.observed_memory.clone();
    let mut svc = QueryService::new(PaperCostModel, catalog(&UNIFORM), catalog(&UNIFORM), cfg)
        .expect("x20: drift service constructs from a validated config");
    let mut regrets = Vec::with_capacity(STREAM_LEN);
    for (i, req) in stream(STREAM_LEN).iter().enumerate() {
        if i == DRIFT_AT {
            *svc.truth_mut() = catalog(&HOT);
        }
        let served = svc.serve(req).expect("x20: drift-run request serves");
        let truth_cost = cost_under_truth(svc.truth(), req, &served.plan, &observed);
        let best = oracle_cost(svc.truth(), req, &observed);
        regrets.push((truth_cost - best).max(0.0) / best);
    }
    let recovery = &regrets[RECOVERY_FROM..];
    let stats = svc.stats();
    DriftRun {
        recovery_regret: recovery.iter().sum::<f64>() / recovery.len() as f64,
        regrets,
        optimizer_invocations: svc.optimizer_invocations(),
        // One fresh optimization per request is what the oracle spends.
        oracle_invocations: STREAM_LEN as u64,
        recalibrations: svc.recalibrations(),
        invalidations: stats.cache.invalidations,
        hits: stats.cache.hits,
        misses: stats.cache.misses,
    }
}

/// Runs the experiment, returning a markdown section; also writes
/// `results/BENCH_serve.json`.
pub fn run() -> String {
    // Control: beliefs ≡ truth. Closed form: one miss per template, every
    // other request hits, nothing recalibrates.
    let n_templates = templates().len();
    let mut control = QueryService::new(
        PaperCostModel,
        catalog(&UNIFORM),
        catalog(&UNIFORM),
        config(),
    )
    .expect("x20: control service constructs from a validated config");
    for req in stream(STREAM_LEN) {
        control.serve(&req).expect("x20: control request serves");
    }
    let cstats = control.stats();
    assert_eq!(
        cstats.cache.misses, n_templates as u64,
        "control: one miss per template"
    );
    assert_eq!(
        cstats.cache.hits,
        (STREAM_LEN - n_templates) as u64,
        "control: everything after warm-up must hit"
    );
    assert_eq!(control.recalibrations(), 0, "control: no recalibrations");
    assert_eq!(cstats.cache.invalidations, 0);

    // Drift: the serving loop must recover to near-oracle plans on a
    // fraction of the oracle's optimizer budget.
    let d = drift_run();
    assert!(
        d.recalibrations >= 1,
        "the injected drift must trigger recalibration"
    );
    assert!(
        d.recovery_regret < 0.05,
        "post-recovery regret {:.4} must be below 5%",
        d.recovery_regret
    );
    assert!(
        d.optimizer_invocations * 10 <= d.oracle_invocations,
        "{} optimizer invocations vs oracle's {}: must be ≤ 10%",
        d.optimizer_invocations,
        d.oracle_invocations
    );

    let mut t = Table::new(&[
        "run",
        "hits",
        "misses",
        "recals",
        "invalidations",
        "opt runs",
    ]);
    t.row(vec![
        "control".into(),
        cstats.cache.hits.to_string(),
        cstats.cache.misses.to_string(),
        control.recalibrations().to_string(),
        cstats.cache.invalidations.to_string(),
        control.optimizer_invocations().to_string(),
    ]);
    t.row(vec![
        "drift".into(),
        d.hits.to_string(),
        d.misses.to_string(),
        d.recalibrations.to_string(),
        d.invalidations.to_string(),
        d.optimizer_invocations.to_string(),
    ]);

    let mut rt = Table::new(&["phase", "queries", "mean regret vs truth oracle"]);
    let phase = |name: &str, r: &[f64]| {
        vec![
            name.to_string(),
            r.len().to_string(),
            format!(
                "{:.2}%",
                100.0 * r.iter().sum::<f64>() / r.len().max(1) as f64
            ),
        ]
    };
    rt.row(phase("pre-drift", &d.regrets[..DRIFT_AT]));
    rt.row(phase("transient", &d.regrets[DRIFT_AT..RECOVERY_FROM]));
    rt.row(phase("recovered", &d.regrets[RECOVERY_FROM..]));

    let regret_list = d
        .regrets
        .iter()
        .map(|r| format!("{r:.6}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"experiment\": \"x20_serve\",\n  \
         \"optimized_build\": {OPTIMIZED_BUILD},\n  \"stream_len\": {STREAM_LEN},\n  \
         \"drift_at\": {DRIFT_AT},\n  \"recovery_from\": {RECOVERY_FROM},\n  \
         \"control\": {{\"hits\": {}, \"misses\": {}, \"recalibrations\": {}, \
         \"invalidations\": {}, \"hit_rate\": {:.6}}},\n  \
         \"drift\": {{\"hits\": {}, \"misses\": {}, \"recalibrations\": {}, \
         \"invalidations\": {}, \"optimizer_invocations\": {}, \
         \"oracle_invocations\": {}, \"recovery_regret\": {:.6}}},\n  \
         \"regret_trajectory\": [{regret_list}]\n}}\n",
        cstats.cache.hits,
        cstats.cache.misses,
        control.recalibrations(),
        cstats.cache.invalidations,
        cstats.cache.hit_rate(),
        d.hits,
        d.misses,
        d.recalibrations,
        d.invalidations,
        d.optimizer_invocations,
        d.oracle_invocations,
        d.recovery_regret,
    );
    let path = json_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("results dir");
    }
    std::fs::write(&path, &json).expect("write BENCH_serve.json");

    format!(
        "## X20 — serving loop under drift (lec-serve)\n\n\
         A {STREAM_LEN}-request stream over {n_templates} templates through \
         the `lec-serve` plan cache + recalibration loop. The control run \
         (beliefs ≡ truth) hits the closed forms exactly: one optimizer run \
         per template, 100% cache hits afterwards, zero recalibrations. At \
         request {DRIFT_AT} the drift run shifts the truth histogram hot; \
         execution feedback recalibrates the beliefs and invalidates the \
         poisoned entries. Machine-readable copy written to \
         `results/BENCH_serve.json`.\n\n{}\n\
         Regret of each served plan against the always-re-optimize-from-\
         truth oracle, priced under truth statistics:\n\n{}\n",
        t.render(),
        rt.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_writes_json_and_recovers() {
        let md = run();
        assert!(md.contains("X20"));
        assert!(md.contains("| control |"));
        assert!(md.contains("| recovered |"));
        let json = std::fs::read_to_string(json_path()).unwrap();
        assert!(json.contains("\"experiment\": \"x20_serve\""));
        // The control's closed forms, as JSON.
        assert!(json.contains(
            "\"control\": {\"hits\": 58, \"misses\": 2, \
                               \"recalibrations\": 0, \"invalidations\": 0, \
                               \"hit_rate\": 0.966667}"
        ));
        assert!(json.contains("\"recovery_regret\""));
    }
}
