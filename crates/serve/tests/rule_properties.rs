//! Serving-layer properties of the configurable selection rule.
//!
//! 1. **Default ≡ explicit LEC, bit for bit**: `ServeConfig::new` defaults
//!    `selection_rule` to [`Rule::LeastExpectedCost`], which ranks the
//!    stored plans through the same pick and ladder as every rule — a full
//!    drift + fault stream served under the default must be
//!    indistinguishable (plans, cost bits, scenarios, counters, routes)
//!    from one served under the explicit LEC rule.
//! 2. **Every rule serves the full loop**: under belief-miscalibrated
//!    catalogs with fault injection on, every shipped rule serves every
//!    request, fires the drift detector, and recalibrates — robustness
//!    rules change *which* plan runs, never whether the loop completes.
//! 3. **The robustness premium is visible and non-negative**: a robust
//!    rule's served expected cost is never below the LEC-served expected
//!    cost for the same request (LEC is by definition minimal in
//!    expectation over the same stored plans).
//! 4. **A rule is certified once, when the service is built**: every rule
//!    on the parameter grid that validates also certifies, so a pick that
//!    only validates decides as one that certified; a rule that does not
//!    validate is refused by `QueryService::new` and by
//!    `ParametricPlans::pick_with_rule`.

use lec_catalog::{Catalog, ColumnMeta, Histogram, TableMeta};
use lec_core::parametric::ParametricPlans;
use lec_core::CoreError;
use lec_cost::PaperCostModel;
use lec_exec::{FaultKind, PAGE_CAPACITY};
use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
use lec_serve::{
    DriftConfig, FaultInjection, Penalty, QueryRequest, QueryService, Rule, SelectionRule,
    ServeConfig, ServeError, ServedQuery, TailRisk,
};
use lec_stats::Distribution;
use lec_workload::from_catalog::{FilterSpec, JoinSpec};

/// Two tables joined on their first columns, `cust.v` filterable with a
/// controllable 8-bucket histogram (the same fixture family as
/// `properties.rs`).
fn catalog(cust_pages: u64, order_pages: u64, hist: &[f64; 8]) -> Catalog {
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
        TableMeta::new("cust", cust_pages * PAGE_CAPACITY as u64, cust_pages)
            .unwrap()
            .with_column(ColumnMeta::new("ck", 512, 0.0, 511.0))
            .with_column(
                ColumnMeta::new("v", 800, 0.0, 100.0)
                    .with_histogram(Histogram::equi_width(&values, 8).unwrap()),
            ),
    )
    .unwrap();
    c.register(
        TableMeta::new("ord", order_pages * PAGE_CAPACITY as u64, order_pages)
            .unwrap()
            .with_column(ColumnMeta::new("ok", 512, 0.0, 511.0)),
    )
    .unwrap();
    c
}

fn request(lo: f64, hi: f64) -> QueryRequest {
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
            hi,
            indexed: false,
        }],
        order_by: None,
    }
}

fn config(rule: Rule) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        vec![
            Distribution::new([(4.0, 0.6), (40.0, 0.4)]).unwrap(),
            Distribution::new([(16.0, 0.5), (80.0, 0.5)]).unwrap(),
            Distribution::new([(6.0, 0.2), (64.0, 0.8)]).unwrap(),
        ],
        Distribution::new([(8.0, 0.5), (48.0, 0.5)]).unwrap(),
    );
    cfg.drift = DriftConfig {
        error_threshold: 0.5,
        min_observations: 3,
        blend: 0.8,
    };
    cfg.fault_injection = FaultInjection::every(4, FaultKind::IoError);
    cfg.selection_rule = rule;
    cfg
}

/// A drift-guaranteed stream: beliefs are uniform, the truth concentrates
/// mass in bucket 0, and the stream filters over that bucket.
fn run_stream(rule: Rule, len: usize) -> (Vec<ServedQuery>, QueryService<PaperCostModel>) {
    let beliefs = catalog(10, 18, &[0.125; 8]);
    let mut hot = [0.03; 8];
    hot[0] = 0.79;
    let truth = catalog(10, 18, &hot);
    let mut svc = QueryService::new(PaperCostModel, beliefs, truth, config(rule)).unwrap();
    let served: Vec<ServedQuery> = (0..len)
        .map(|i| {
            let lo = 12.5 * ((i % 3) as f64) / 4.0;
            svc.serve(&request(lo, 12.5 + lo))
                .expect("request serves under every rule")
        })
        .collect();
    (served, svc)
}

#[test]
fn default_rule_is_bit_identical_to_explicit_lec() {
    assert_eq!(
        ServeConfig::new(
            vec![Distribution::point(8.0).unwrap()],
            Distribution::point(8.0).unwrap()
        )
        .selection_rule,
        Rule::LeastExpectedCost
    );
    let (default_run, default_svc) = run_stream(Rule::default(), 24);
    let (lec_run, lec_svc) = run_stream(Rule::LeastExpectedCost, 24);
    for (d, l) in default_run.iter().zip(&lec_run) {
        assert_eq!(d.plan, l.plan);
        assert_eq!(d.expected_cost.to_bits(), l.expected_cost.to_bits());
        assert_eq!(d.scenario, l.scenario);
        assert_eq!(d.cache_hit, l.cache_hit);
        assert_eq!(d.resilience.attempts, l.resilience.attempts);
        assert_eq!(d.resilience.route, l.resilience.route);
        assert_eq!(d.recalibrations.len(), l.recalibrations.len());
    }
    assert_eq!(default_svc.stats().cache, lec_svc.stats().cache);
}

#[test]
fn every_rule_serves_drift_and_faults_end_to_end() {
    for rule in Rule::all() {
        let (served, svc) = run_stream(rule, 24);
        assert_eq!(served.len(), 24, "{rule}: every request served");
        let recalibrations: usize = served.iter().map(|s| s.recalibrations.len()).sum();
        assert!(
            recalibrations >= 1,
            "{rule}: sustained belief error must recalibrate under any rule"
        );
        let faulted = served
            .iter()
            .filter(|s| !s.resilience.faults.is_empty())
            .count();
        assert!(faulted >= 1, "{rule}: injection must have fired");
        assert!(
            svc.stats().cache.misses >= 1,
            "{rule}: stream must exercise the optimizer"
        );
    }
}

#[test]
fn robust_rules_never_serve_below_the_lec_expected_cost() {
    let (lec_run, _) = run_stream(Rule::LeastExpectedCost, 12);
    for rule in Rule::all() {
        let (run, _) = run_stream(rule, 12);
        for (r, l) in run.iter().zip(&lec_run) {
            assert!(
                r.expected_cost >= l.expected_cost - 1e-9 * l.expected_cost.max(1.0),
                "{rule}: served expected cost {} below the LEC pick {}",
                r.expected_cost,
                l.expected_cost
            );
        }
    }
}

/// The shipped rules with their defaults (x23's rules) plus every
/// penalty-slope pair on a 0.05 grid and CVaR levels across `[0, 1]`,
/// valid or not.
fn rule_grid() -> Vec<Rule> {
    let steps = |k: u32| (0..=k).map(move |i| f64::from(i) / f64::from(k));
    let mut rules = Rule::all().to_vec();
    for under in steps(20) {
        for over in steps(20) {
            rules.push(Rule::PenaltyAware(Penalty { under, over }));
        }
    }
    for alpha in steps(20).chain([0.99, 0.999, -0.1, f64::NAN]) {
        rules.push(Rule::TailRisk(TailRisk { alpha }));
    }
    rules.push(Rule::PenaltyAware(Penalty {
        under: f64::INFINITY,
        over: 0.0,
    }));
    rules
}

#[test]
fn every_rule_that_validates_also_certifies() {
    let (mut valid, mut invalid) = (0, 0);
    for rule in rule_grid() {
        if rule.validate().is_ok() {
            valid += 1;
            assert!(
                lec_rules::certify(&rule).is_ok(),
                "{rule:?} validates but does not certify"
            );
        } else {
            invalid += 1;
            assert!(lec_rules::certify(&rule).is_err(), "{rule:?}");
        }
    }
    assert!(
        valid > 100 && invalid > 100,
        "{valid} valid, {invalid} invalid"
    );
}

#[test]
fn an_invalid_rule_is_refused_at_construction_and_at_pick() {
    let invalid = [
        Rule::PenaltyAware(Penalty {
            under: 0.2,
            over: 0.6,
        }),
        Rule::PenaltyAware(Penalty {
            under: 0.7,
            over: 0.4,
        }),
        Rule::TailRisk(TailRisk { alpha: 1.0 }),
    ];
    let query = JoinQuery::new(
        vec![
            Relation::new("a", 5_000.0, 2.5e5),
            Relation::new("b", 800.0, 4e4),
        ],
        vec![JoinPred {
            left: 0,
            right: 1,
            selectivity: 1e-4,
            key: KeyId(0),
        }],
        None,
    )
    .unwrap();
    let scenarios = config(Rule::LeastExpectedCost).scenarios;
    let plans = ParametricPlans::precompute(&query, &PaperCostModel, &scenarios).unwrap();
    let observed = Distribution::new([(8.0, 0.5), (48.0, 0.5)]).unwrap();
    for rule in invalid {
        let built = QueryService::new(
            PaperCostModel,
            catalog(10, 18, &[0.125; 8]),
            catalog(10, 18, &[0.125; 8]),
            config(rule),
        );
        assert!(
            matches!(built, Err(ServeError::Config(_))),
            "{rule:?}: built {:?}",
            built.err()
        );
        let picked = plans.pick_with_rule(&query, &PaperCostModel, &observed, &rule);
        assert!(
            matches!(picked, Err(CoreError::BadParameter(_))),
            "{rule:?}: picked {picked:?}"
        );
    }
    for rule in Rule::all() {
        let built = QueryService::new(
            PaperCostModel,
            catalog(10, 18, &[0.125; 8]),
            catalog(10, 18, &[0.125; 8]),
            config(rule),
        );
        assert!(built.is_ok(), "{rule:?}");
        assert!(plans
            .pick_with_rule(&query, &PaperCostModel, &observed, &rule)
            .is_ok());
    }
}
