//! X23 (extension) — selection rules head-to-head: least expected cost
//! vs minmax regret vs penalty-aware vs tail risk (CVaR).
//!
//! Three suites, one artifact (`results/BENCH_rules.json`):
//!
//! * **Skewed beliefs** (core level): seeded environments optimized under
//!   a *uniform* believed memory distribution, then priced under a
//!   Zipf-reweighted truth ([`lec_catalog::synthetic::zipf_masses`]) that
//!   piles probability onto the scarce-memory scenarios beliefs treated
//!   as co-equal. Per rule and environment the suite records the believed
//!   expected cost, the truth-weighted cost, the regret against the
//!   truth-informed frontier oracle, and the **worst-case regret** over
//!   the belief support (against the frontier's per-scenario optima).
//! * **Drift** (serving level): the x20-style miscalibrated stream —
//!   beliefs uniform, truth hot — served end to end under each rule, with
//!   regret and p99 true cost measured against the always-re-optimize
//!   truth oracle.
//! * **Faults** (serving level): the same stream with periodic injected
//!   I/O faults and a calibrated control run, so p99 degradation under
//!   the fallback ladder is attributable to the faults alone.
//!
//! The run **self-asserts** closed-form facts before writing anything:
//!
//! * the LEC rule's fresh-optimization cost is *bit-identical* to
//!   `alg_c` in every environment, and the LEC-rule serve stream is
//!   bit-identical to the default (rule-less) configuration;
//! * no rule ever beats LEC on *believed* expected cost (LEC is by
//!   definition minimal in expectation over the same candidates);
//! * the minmax winner's worst-case regret never exceeds the LEC plan's
//!   (it minimized exactly that objective over the same frontier), and on
//!   at least one environment a robust rule's worst-case regret is
//!   **strictly** lower — the regime where rule choice actually matters;
//! * every rule serves every drift/fault request, and fault-run p99 never
//!   improves on the fault-free control (degraded plans cannot beat the
//!   optimum they degrade from).

use crate::artifacts::{artifact_path, OPTIMIZED_BUILD};
use crate::fixtures::{cost_under_truth, oracle_cost};
use crate::table::Table;
use lec_catalog::synthetic::zipf_masses;
use lec_catalog::{Catalog, ColumnMeta, Histogram, TableMeta};
use lec_core::evaluate::cost_profile;
use lec_core::rules::optimize_with_rule;
use lec_core::{alg_c, pareto, MemoryModel};
use lec_cost::PaperCostModel;
use lec_exec::{FaultKind, PAGE_CAPACITY};
use lec_serve::{
    DriftConfig, FaultInjection, QueryRequest, QueryService, Rule, SelectionRule, ServeConfig,
    ServedQuery,
};
use lec_stats::{Distribution, Utility};
use lec_workload::from_catalog::{FilterSpec, JoinSpec};
use lec_workload::queries::{QueryGen, Topology};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

/// Belief support: four log-spaced memory grants (pages). Beliefs weigh
/// them uniformly; the skewed truth concentrates on the scarce end.
const MEMORY_SUPPORT: [f64; 4] = [20.0, 90.0, 400.0, 1800.0];

/// Zipf exponent of the truth reweighting (mass piles on rank 0, the
/// scarcest grant).
const TRUTH_THETA: f64 = 1.5;

/// Serving-stream length per rule (drift and fault suites).
const STREAM_LEN: usize = 32;

/// Where the machine-readable record lands (workspace `results/`).
/// Debug builds route to the gitignored `_debug` file.
fn json_path() -> PathBuf {
    artifact_path("rules")
}

fn dot(probs: &[f64], profile: &[f64]) -> f64 {
    probs.iter().zip(profile).map(|(p, c)| p * c).sum()
}

// ---------------------------------------------------------------------------
// Suite 1: skewed beliefs, core level.
// ---------------------------------------------------------------------------

struct RuleOutcome {
    rule: String,
    believed_cost: f64,
    true_cost: f64,
    true_regret: f64,
    worst_case_regret: f64,
}

struct SkewEnv {
    label: String,
    rules: Vec<RuleOutcome>,
}

fn skew_environments() -> Vec<(String, lec_plan::JoinQuery)> {
    let mut envs = Vec::new();
    for (t, topology) in [Topology::Chain, Topology::Star, Topology::Clique]
        .into_iter()
        .enumerate()
    {
        for n in 4..=6 {
            for seed in 0..2u64 {
                let q = QueryGen {
                    topology,
                    n,
                    ..QueryGen::default()
                }
                .generate(&mut ChaCha8Rng::seed_from_u64(
                    0x23 ^ (t as u64) << 24 ^ (n as u64) << 16 ^ seed,
                ));
                envs.push((format!("{topology:?} n={n} seed={seed}"), q));
            }
        }
    }
    envs
}

/// Runs every rule over the seeded environments; self-asserts the
/// closed-form dominance facts and returns the per-environment table plus
/// the count of environments where a robust rule strictly beat LEC on
/// worst-case regret.
fn skew_suite() -> (Vec<SkewEnv>, usize) {
    let model = PaperCostModel;
    let belief = Distribution::new(MEMORY_SUPPORT.map(|v| (v, 0.25))).expect("uniform belief");
    let truth_probs = zipf_masses(MEMORY_SUPPORT.len(), TRUTH_THETA);
    let mut out = Vec::new();
    let mut strict_envs = 0usize;
    for (label, q) in skew_environments() {
        let direct = alg_c::optimize(&q, &model, &MemoryModel::Static(belief.clone()))
            .expect("x23: alg_c optimizes the seeded environment")
            .0;
        let frontier = pareto::optimize(&q, &model, &belief, &Utility::Linear)
            .expect("x23: frontier builds")
            .0
            .frontier_profiles;

        let results: Vec<(Rule, lec_core::pareto::UtilityResult)> = Rule::all()
            .into_iter()
            .map(|rule| {
                let r = optimize_with_rule(&q, &model, &belief, &rule)
                    .expect("x23: every shipped rule certifies and optimizes");
                (rule, r)
            })
            .collect();
        let profiles: Vec<Vec<f64>> = results
            .iter()
            .map(|(_, r)| cost_profile(&q, &model, &r.best.plan, belief.values()))
            .collect();

        // Per-scenario optima and the truth oracle, over the frontier
        // plus every rule's winner (the frontier attains both minima for
        // monotone objectives; chaining the winners keeps the yardstick
        // honest even at tolerance boundaries).
        let opt: Vec<f64> = (0..MEMORY_SUPPORT.len())
            .map(|s| {
                frontier
                    .iter()
                    .chain(&profiles)
                    .map(|p| p[s])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let oracle_true = frontier
            .iter()
            .chain(&profiles)
            .map(|p| dot(&truth_probs, p))
            .fold(f64::INFINITY, f64::min);
        let worst_case_regret = |p: &[f64]| {
            p.iter()
                .zip(&opt)
                .map(|(c, o)| c - o)
                .fold(0.0f64, f64::max)
        };

        let lec_believed = results[0].1.best.cost;
        assert_eq!(
            results[0].1.best.cost.to_bits(),
            direct.cost.to_bits(),
            "x23 {label}: LEC rule must be bit-identical to alg_c"
        );
        let lec_wcr = worst_case_regret(&profiles[0]);
        let mm_wcr = worst_case_regret(&profiles[1]);
        assert!(
            mm_wcr <= lec_wcr + 1e-9 * lec_wcr.max(1.0),
            "x23 {label}: minmax regret must not exceed LEC's worst case"
        );
        let rules = results
            .iter()
            .zip(&profiles)
            .map(|((rule, r), profile)| {
                let believed_cost = r.cost_distribution.mean();
                assert!(
                    believed_cost >= lec_believed - 1e-9 * lec_believed.max(1.0),
                    "x23 {label}: {rule} beat LEC on believed expected cost"
                );
                let true_cost = dot(&truth_probs, profile);
                RuleOutcome {
                    rule: rule.name().into(),
                    believed_cost,
                    true_cost,
                    true_regret: (true_cost - oracle_true).max(0.0),
                    worst_case_regret: worst_case_regret(profile),
                }
            })
            .collect::<Vec<_>>();
        if rules[1..]
            .iter()
            .any(|r| r.worst_case_regret < lec_wcr - 1e-9 * lec_wcr.max(1.0))
        {
            strict_envs += 1;
        }
        out.push(SkewEnv { label, rules });
    }
    assert!(
        strict_envs >= 1,
        "x23: no environment where a robust rule strictly reduced worst-case regret — \
         the head-to-head would be vacuous; refusing to write the artifact"
    );
    (out, strict_envs)
}

// ---------------------------------------------------------------------------
// Suites 2 and 3: serving level (drift and faults).
// ---------------------------------------------------------------------------

/// `cust ⋈ ord` on 512 shared keys; `cust.v` over [0, 100] carries the
/// given 8-bucket mass profile (same fixture family as x20).
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
        TableMeta::new("cust", 10 * PAGE_CAPACITY as u64, 10)
            .expect("x23: cust table shape is statically valid")
            .with_column(ColumnMeta::new("ck", 512, 0.0, 511.0))
            .with_column(
                ColumnMeta::new("v", 800, 0.0, 100.0)
                    .with_histogram(Histogram::equi_width(&values, 8).expect("x23: histogram")),
            ),
    )
    .expect("x23: cust registers");
    c.register(
        TableMeta::new("ord", 18 * PAGE_CAPACITY as u64, 18)
            .expect("x23: ord table shape is statically valid")
            .with_column(ColumnMeta::new("ok", 512, 0.0, 511.0)),
    )
    .expect("x23: ord registers");
    c
}

const UNIFORM: [f64; 8] = [0.125; 8];

fn hot() -> [f64; 8] {
    let mut h = [0.03; 8];
    h[0] = 0.79;
    h
}

fn request(lo: f64) -> QueryRequest {
    QueryRequest {
        tables: vec!["cust".into(), "ord".into()],
        joins: vec![JoinSpec {
            left_table: "cust".into(),
            left_column: "ck".into(),
            right_table: "ord".into(),
            right_column: "ok".into(),
        }],
        filters: vec![FilterSpec {
            table: "cust".into(),
            column: "v".into(),
            lo,
            hi: lo + 12.5,
            indexed: false,
        }],
        order_by: None,
    }
}

fn stream() -> Vec<QueryRequest> {
    (0..STREAM_LEN)
        .map(|i| request(12.5 * ((i % 3) as f64) / 4.0))
        .collect()
}

fn config(rule: Option<Rule>, faults: FaultInjection) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        vec![
            Distribution::new([(4.0, 0.6), (40.0, 0.4)]).expect("x23: scenario"),
            Distribution::new([(16.0, 0.5), (80.0, 0.5)]).expect("x23: scenario"),
        ],
        Distribution::new([(8.0, 0.5), (48.0, 0.5)]).expect("x23: observed memory"),
    );
    cfg.drift = DriftConfig {
        error_threshold: 0.5,
        min_observations: 3,
        blend: 0.8,
    };
    cfg.fault_injection = faults;
    if let Some(rule) = rule {
        cfg.selection_rule = rule;
    }
    cfg
}

/// Nearest-rank percentile over an unsorted sample.
fn percentile(sample: &[f64], p: f64) -> f64 {
    let mut s = sample.to_vec();
    s.sort_by(f64::total_cmp);
    s[((p / 100.0) * (s.len() - 1) as f64).round() as usize]
}

fn serve_stream(
    rule: Option<Rule>,
    beliefs: &[f64; 8],
    truth: &[f64; 8],
    faults: FaultInjection,
) -> (Vec<ServedQuery>, QueryService<PaperCostModel>) {
    let mut svc = QueryService::new(
        PaperCostModel,
        catalog(beliefs),
        catalog(truth),
        config(rule, faults),
    )
    .expect("x23: service constructs");
    let served = stream()
        .iter()
        .map(|req| svc.serve(req).expect("x23: every request serves"))
        .collect();
    (served, svc)
}

struct ServeRow {
    rule: String,
    mean_regret: f64,
    p99_true_cost: f64,
    p99_oracle: f64,
    recalibrations: u64,
    faults_injected: u64,
    degraded_serves: u64,
}

/// Drift suite: miscalibrated beliefs, no faults. Regret is against the
/// truth oracle, per request.
fn drift_suite() -> Vec<ServeRow> {
    // Bit-identity gate: the default (rule-less) config and the explicit
    // LEC rule must serve indistinguishable streams.
    let (default_run, _) = serve_stream(None, &UNIFORM, &hot(), FaultInjection::OFF);
    let (lec_run, _) = serve_stream(
        Some(Rule::LeastExpectedCost),
        &UNIFORM,
        &hot(),
        FaultInjection::OFF,
    );
    for (d, l) in default_run.iter().zip(&lec_run) {
        assert_eq!(d.plan, l.plan, "x23: default vs LEC plan");
        assert_eq!(
            d.expected_cost.to_bits(),
            l.expected_cost.to_bits(),
            "x23: default vs LEC cost bits"
        );
    }

    Rule::all()
        .into_iter()
        .map(|rule| {
            let (served, svc) = serve_stream(Some(rule), &UNIFORM, &hot(), FaultInjection::OFF);
            let observed = config(None, FaultInjection::OFF).observed_memory;
            let reqs = stream();
            let true_costs: Vec<f64> = reqs
                .iter()
                .zip(&served)
                .map(|(req, s)| cost_under_truth(svc.truth(), req, &s.plan, &observed))
                .collect();
            let oracle: Vec<f64> = reqs
                .iter()
                .map(|req| oracle_cost(svc.truth(), req, &observed))
                .collect();
            let regrets: Vec<f64> = true_costs
                .iter()
                .zip(&oracle)
                .map(|(c, o)| (c - o).max(0.0) / o)
                .collect();
            let recalibrations = svc.recalibrations();
            assert!(
                recalibrations >= 1,
                "x23 {rule}: sustained miscalibration must recalibrate under any rule"
            );
            ServeRow {
                rule: rule.name().into(),
                mean_regret: regrets.iter().sum::<f64>() / regrets.len() as f64,
                p99_true_cost: percentile(&true_costs, 99.0),
                p99_oracle: percentile(&oracle, 99.0),
                recalibrations,
                faults_injected: 0,
                degraded_serves: 0,
            }
        })
        .collect()
}

/// Fault suite: calibrated beliefs (so the control stream is provably
/// optimal) with periodic injected I/O faults; p99 degradation is the
/// faulted p99 over the fault-free p99, per rule.
fn fault_suite() -> Vec<(ServeRow, f64)> {
    Rule::all()
        .into_iter()
        .map(|rule| {
            let observed = config(None, FaultInjection::OFF).observed_memory;
            let reqs = stream();
            let truth = hot();
            let run = |faults: FaultInjection| {
                let (served, svc) = serve_stream(Some(rule), &truth, &truth, faults);
                let costs: Vec<f64> = reqs
                    .iter()
                    .zip(&served)
                    .map(|(req, s)| cost_under_truth(svc.truth(), req, &s.plan, &observed))
                    .collect();
                (costs, svc)
            };
            let (clean_costs, _) = run(FaultInjection::OFF);
            let (fault_costs, svc) = run(FaultInjection::every(5, FaultKind::IoError));
            let stats = svc.stats();
            assert!(
                stats.resilience.faults_injected >= 1,
                "x23 {rule}: injection must have fired"
            );
            for (f, c) in fault_costs.iter().zip(&clean_costs) {
                assert!(
                    *f >= c - 1e-9 * c.max(1.0),
                    "x23 {rule}: a degraded serve repriced below the calibrated optimum"
                );
            }
            let p99_clean = percentile(&clean_costs, 99.0);
            let p99_faulted = percentile(&fault_costs, 99.0);
            let row = ServeRow {
                rule: rule.name().into(),
                mean_regret: fault_costs
                    .iter()
                    .zip(&clean_costs)
                    .map(|(f, c)| (f - c).max(0.0) / c)
                    .sum::<f64>()
                    / reqs.len() as f64,
                p99_true_cost: p99_faulted,
                p99_oracle: p99_clean,
                recalibrations: svc.recalibrations(),
                faults_injected: stats.resilience.faults_injected,
                degraded_serves: stats.resilience.degraded_serves,
            };
            (row, p99_faulted / p99_clean)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Render + artifact.
// ---------------------------------------------------------------------------

/// Runs the experiment, returning a markdown section; also writes
/// `results/BENCH_rules.json`.
pub fn run() -> String {
    let (skew, strict_envs) = skew_suite();
    let drift = drift_suite();
    let faults = fault_suite();

    // Markdown: aggregate the skew suite per rule (mean over envs), then
    // the serving rows verbatim.
    let nrules = Rule::all().len();
    let mut st = Table::new(&[
        "rule",
        "believed cost (mean)",
        "true cost (mean)",
        "true regret (mean)",
        "worst-case regret (mean)",
    ]);
    for i in 0..nrules {
        let mean = |f: &dyn Fn(&RuleOutcome) -> f64| {
            skew.iter().map(|e| f(&e.rules[i])).sum::<f64>() / skew.len() as f64
        };
        st.row(vec![
            skew[0].rules[i].rule.clone(),
            format!("{:.1}", mean(&|r| r.believed_cost)),
            format!("{:.1}", mean(&|r| r.true_cost)),
            format!("{:.1}", mean(&|r| r.true_regret)),
            format!("{:.1}", mean(&|r| r.worst_case_regret)),
        ]);
    }
    let mut dt = Table::new(&[
        "rule",
        "mean regret",
        "p99 true cost",
        "p99 oracle",
        "recals",
    ]);
    for r in &drift {
        dt.row(vec![
            r.rule.clone(),
            format!("{:.4}", r.mean_regret),
            format!("{:.1}", r.p99_true_cost),
            format!("{:.1}", r.p99_oracle),
            r.recalibrations.to_string(),
        ]);
    }
    let mut ft = Table::new(&[
        "rule",
        "faults",
        "degraded",
        "p99 clean",
        "p99 faulted",
        "p99 ×",
    ]);
    for (r, deg) in &faults {
        ft.row(vec![
            r.rule.clone(),
            r.faults_injected.to_string(),
            r.degraded_serves.to_string(),
            format!("{:.1}", r.p99_oracle),
            format!("{:.1}", r.p99_true_cost),
            format!("{deg:.3}"),
        ]);
    }

    let skew_json: Vec<String> = skew
        .iter()
        .map(|e| {
            let rules: Vec<String> = e
                .rules
                .iter()
                .map(|r| {
                    format!(
                        "{{\"rule\": \"{}\", \"believed_cost\": {:.4}, \"true_cost\": {:.4}, \
                         \"true_regret\": {:.4}, \"worst_case_regret\": {:.4}}}",
                        r.rule, r.believed_cost, r.true_cost, r.true_regret, r.worst_case_regret
                    )
                })
                .collect();
            format!(
                "    {{\"env\": \"{}\", \"rules\": [{}]}}",
                e.label,
                rules.join(", ")
            )
        })
        .collect();
    let drift_json: Vec<String> = drift
        .iter()
        .map(|r| {
            format!(
                "    {{\"rule\": \"{}\", \"mean_regret\": {:.6}, \"p99_true_cost\": {:.4}, \
                 \"p99_oracle\": {:.4}, \"recalibrations\": {}}}",
                r.rule, r.mean_regret, r.p99_true_cost, r.p99_oracle, r.recalibrations
            )
        })
        .collect();
    let fault_json: Vec<String> = faults
        .iter()
        .map(|(r, deg)| {
            format!(
                "    {{\"rule\": \"{}\", \"faults_injected\": {}, \"degraded_serves\": {}, \
                 \"mean_fault_regret\": {:.6}, \"p99_clean\": {:.4}, \"p99_faulted\": {:.4}, \
                 \"p99_degradation\": {deg:.6}}}",
                r.rule,
                r.faults_injected,
                r.degraded_serves,
                r.mean_regret,
                r.p99_oracle,
                r.p99_true_cost
            )
        })
        .collect();
    let rule_names: Vec<String> = Rule::all()
        .iter()
        .map(|r| format!("\"{}\"", r.name()))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"x23_rules\",\n  \"self_asserted\": true,\n  \
         \"optimized_build\": {OPTIMIZED_BUILD},\n  \
         \"rules\": [{}],\n  \
         \"memory_support\": [{}],\n  \"truth_theta\": {TRUTH_THETA},\n  \
         \"stream_len\": {STREAM_LEN},\n  \
         \"strict_regret_win_envs\": {strict_envs},\n  \
         \"skewed_belief\": [\n{}\n  ],\n  \
         \"drift\": [\n{}\n  ],\n  \
         \"faults\": [\n{}\n  ]\n}}\n",
        rule_names.join(", "),
        MEMORY_SUPPORT.map(|v| v.to_string()).join(", "),
        skew_json.join(",\n"),
        drift_json.join(",\n"),
        fault_json.join(",\n"),
    );
    let path = json_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("results dir");
    }
    std::fs::write(&path, &json).expect("write BENCH_rules.json");

    format!(
        "## X23 — selection rules head-to-head (lec-rules)\n\n\
         Four selection rules over three regimes. Skewed beliefs: {} seeded \
         environments optimized under a uniform 4-point memory belief and \
         priced under a Zipf(θ={TRUTH_THETA}) truth; on {strict_envs} of \
         them a robust rule strictly reduced worst-case regret versus LEC \
         (self-asserted, with LEC bit-identical to `alg_c` everywhere). \
         Mean over environments:\n\n{}\n\
         Drift stream ({STREAM_LEN} requests, beliefs uniform / truth hot), \
         regret vs the always-re-optimize truth oracle:\n\n{}\n\
         Fault stream (calibrated beliefs, I/O fault every 5th request): \
         p99 degradation is the fallback ladder's doing alone:\n\n{}\n\
         Machine-readable copy written to `results/BENCH_rules.json`.\n",
        skew.len(),
        st.render(),
        dt.render(),
        ft.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full harness run: every self-assertion fires, the artifact lands.
    #[test]
    fn renders_asserts_and_writes_json() {
        let md = run();
        assert!(md.contains("X23"));
        assert!(md.contains("least-expected-cost"));
        assert!(md.contains("minmax-regret"));
        let json = std::fs::read_to_string(json_path()).unwrap();
        assert!(json.contains("\"experiment\": \"x23_rules\""));
        assert!(json.contains("\"self_asserted\": true"));
        assert!(json.contains("\"worst_case_regret\""));
        assert!(json.contains("\"p99_degradation\""));
        assert!(json.contains("\"penalty-aware\""));
        assert!(json.contains("\"tail-risk\""));
    }

    #[test]
    fn truth_reweighting_is_a_distribution() {
        let p = zipf_masses(MEMORY_SUPPORT.len(), TRUTH_THETA);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > 0.5, "the scarce grant must dominate the truth");
    }
}
