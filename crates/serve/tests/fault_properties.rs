//! Fault-layer determinism and safety properties for the serving loop.
//!
//! 1. **Off ⇒ bit-identical**: with [`FaultInjection::OFF`] the resilience
//!    layer must be invisible — the served stream (plans, cost bits,
//!    execution reports, feedback, cache counters) matches a service with
//!    default resilience knobs bit for bit, whatever the retry/breaker
//!    policy values are, and every resilience counter stays zero.
//! 2. **Same config ⇒ same trace**: two runs with the same injection
//!    config produce identical fault traces, retry counts, routes, and
//!    counters.
//! 3. **Degraded serves are still sound**: every request served off the
//!    primary route (frontier rung, LSC baseline, breaker reroute) returns
//!    a plan that passes the plan-IR verifier against the request's query.
//! 4. **Non-fatal faults don't reroute**: memory-pressure injection is
//!    recorded in the trace but never aborts, so routes stay primary and
//!    the retry counter stays zero.
//! 5. **No leaked temporaries**: every execution, including one aborted by
//!    a fault, leaves the service's disk holding only the base tables.

use lec_catalog::{Catalog, ColumnMeta, TableMeta};
use lec_cost::PaperCostModel;
use lec_exec::{FaultKind, PAGE_CAPACITY};
use lec_serve::{
    DriftConfig, FaultInjection, QueryRequest, QueryService, ResiliencePolicy, ServeConfig,
    ServeRoute, ServedQuery,
};
use lec_stats::Distribution;
use lec_workload::from_catalog::{query_from_catalog, FilterSpec, JoinSpec};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        TableMeta::new("cust", 10 * PAGE_CAPACITY as u64, 10)
            .unwrap()
            .with_column(ColumnMeta::new("ck", 512, 0.0, 511.0))
            .with_column(ColumnMeta::new("v", 800, 0.0, 100.0)),
    )
    .unwrap();
    c.register(
        TableMeta::new("ord", 20 * PAGE_CAPACITY as u64, 20)
            .unwrap()
            .with_column(ColumnMeta::new("ok", 512, 0.0, 511.0)),
    )
    .unwrap();
    c.register(
        TableMeta::new("item", 14 * PAGE_CAPACITY as u64, 14)
            .unwrap()
            .with_column(ColumnMeta::new("ik", 512, 0.0, 511.0)),
    )
    .unwrap();
    c
}

fn join(l: &str, lc: &str, r: &str, rc: &str) -> JoinSpec {
    JoinSpec {
        left_table: l.into(),
        left_column: lc.into(),
        right_table: r.into(),
        right_column: rc.into(),
    }
}

/// Scenarios far apart so cached entries hold distinct per-scenario plans
/// (giving the fallback ladder real frontier rungs).
fn config(injection: FaultInjection, policy: ResiliencePolicy) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        vec![
            Distribution::new([(3.0, 0.9), (6.0, 0.1)]).unwrap(),
            Distribution::new([(200.0, 1.0)]).unwrap(),
        ],
        Distribution::new([(8.0, 0.5), (48.0, 0.5)]).unwrap(),
    );
    cfg.drift = DriftConfig {
        error_threshold: 0.5,
        min_observations: 3,
        blend: 0.8,
    };
    cfg.fault_injection = injection;
    cfg.resilience = policy;
    cfg
}

/// Two joins plus a three-table star, round-robined.
fn stream(len: usize) -> Vec<QueryRequest> {
    let templates = [
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
        QueryRequest {
            tables: vec!["cust".into(), "ord".into(), "item".into()],
            joins: vec![
                join("cust", "ck", "ord", "ok"),
                join("cust", "ck", "item", "ik"),
            ],
            filters: vec![],
            order_by: None,
        },
    ];
    (0..len)
        .map(|i| templates[i % templates.len()].clone())
        .collect()
}

fn run(
    injection: FaultInjection,
    policy: ResiliencePolicy,
    len: usize,
) -> (Vec<ServedQuery>, QueryService<PaperCostModel>) {
    let mut svc = QueryService::new(
        PaperCostModel,
        catalog(),
        catalog(),
        config(injection, policy),
    )
    .unwrap();
    let served = stream(len)
        .iter()
        .map(|req| svc.serve(req).expect("every request serves"))
        .collect();
    (served, svc)
}

#[test]
fn off_injection_is_bit_identical_whatever_the_policy() {
    let (baseline, base_svc) = run(FaultInjection::OFF, ResiliencePolicy::default(), 24);
    // Aggressive knobs — low breaker threshold, extra retries — must not
    // change a single bit while no fault ever fires.
    let (other, other_svc) = run(
        FaultInjection::OFF,
        ResiliencePolicy {
            max_retries: 5,
            breaker_threshold: 1,
            shard_breaker_threshold: 2,
        },
        24,
    );
    for (a, b) in baseline.iter().zip(&other) {
        assert_eq!(&a.plan, &b.plan);
        assert_eq!(a.expected_cost.to_bits(), b.expected_cost.to_bits());
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.cache_hit, b.cache_hit);
        assert_eq!(a.report, b.report);
        assert_eq!(a.feedback, b.feedback);
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.resilience.route, ServeRoute::Primary);
        assert_eq!(a.resilience.attempts, 1);
        assert!(a.resilience.faults.is_empty());
    }
    assert!(base_svc.resilience_counters().is_zero());
    assert!(other_svc.resilience_counters().is_zero());
    assert_eq!(base_svc.stats().cache, other_svc.stats().cache);
}

#[test]
fn same_injection_config_replays_identically_across_runs() {
    let policy = ResiliencePolicy {
        max_retries: 2,
        breaker_threshold: 3,
        shard_breaker_threshold: 0,
    };
    let injection = FaultInjection::every(3, FaultKind::IoError);
    let (first, first_svc) = run(injection, policy, 27);
    let (second, second_svc) = run(injection, policy, 27);

    assert!(
        first.iter().any(|s| s.resilience.degraded),
        "injection must bite"
    );
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.resilience, b.resilience, "fault trace must replay");
        assert_eq!(&a.plan, &b.plan);
        assert_eq!(a.expected_cost.to_bits(), b.expected_cost.to_bits());
        assert_eq!(a.report, b.report);
    }
    assert_eq!(
        first_svc.resilience_counters(),
        second_svc.resilience_counters()
    );
    assert_eq!(first_svc.stats().cache, second_svc.stats().cache);
}

#[test]
fn degraded_serves_return_plans_the_verifier_accepts() {
    // Breaker threshold 1: the second fault on a fingerprint already
    // reroutes, so the run exercises frontier rungs AND breaker reroutes.
    let policy = ResiliencePolicy {
        max_retries: 2,
        breaker_threshold: 1,
        shard_breaker_threshold: 0,
    };
    let injection = FaultInjection::every(2, FaultKind::IoError);
    let (served, svc) = run(injection, policy, 24);
    let truth = catalog();
    let mut degraded = 0;
    let mut breaker_routed = 0;
    for (req, s) in stream(24).iter().zip(&served) {
        if !s.resilience.degraded {
            continue;
        }
        degraded += 1;
        if s.resilience.breaker_tripped {
            breaker_routed += 1;
        }
        let tables: Vec<&str> = req.tables.iter().map(String::as_str).collect();
        let q = query_from_catalog(&truth, &tables, &req.joins, &req.filters, None).unwrap();
        assert_eq!(
            lec_plan::verify_plan(&s.plan, &q),
            Ok(()),
            "degraded serve (route {:?}) returned an unverifiable plan",
            s.resilience.route
        );
    }
    assert!(degraded > 0, "the run must actually degrade some serves");
    assert!(breaker_routed > 0, "threshold 1 must trip the breaker");
    let c = svc.resilience_counters();
    assert_eq!(c.degraded_serves, degraded);
    assert_eq!(c.breaker_trips, breaker_routed);
    // Bounded retry: never more extra executions than faults × retries.
    assert!(c.retries <= c.faults_injected * u64::from(policy.max_retries));
}

#[test]
fn non_fatal_faults_are_recorded_but_never_reroute() {
    let injection = FaultInjection::every(2, FaultKind::MemoryPressure { divisor: 4 });
    let (served, svc) = run(injection, ResiliencePolicy::default(), 12);
    for s in &served {
        assert_eq!(s.resilience.route, ServeRoute::Primary);
        assert_eq!(s.resilience.attempts, 1);
        assert!(!s.resilience.degraded);
    }
    let c = svc.resilience_counters();
    assert!(
        c.faults_injected > 0,
        "pressure faults must appear in the trace"
    );
    assert_eq!(c.retries, 0);
    assert_eq!(c.degraded_serves, 0);
    assert_eq!(c.breaker_trips, 0);
}

#[test]
fn executions_leave_only_base_tables_on_disk_even_when_aborted() {
    let policy = ResiliencePolicy {
        max_retries: 2,
        breaker_threshold: 3,
        shard_breaker_threshold: 0,
    };
    for injection in [
        FaultInjection::OFF,
        FaultInjection::every(2, FaultKind::IoError),
    ] {
        let mut svc = QueryService::new(
            PaperCostModel,
            catalog(),
            catalog(),
            config(injection, policy),
        )
        .unwrap();
        let tables = svc.stored_relations();
        assert_eq!(tables, catalog().iter().count());
        for req in stream(24) {
            svc.serve(&req).expect("every request serves");
            assert_eq!(svc.stored_relations(), tables);
        }
        if injection != FaultInjection::OFF {
            assert!(svc.resilience_counters().retries > 0, "faults must abort");
        }
    }
}
