//! Serving-loop correctness properties.
//!
//! 1. A cache-hit-served plan is bit-identical — plan *and* expected cost —
//!    to what a fresh optimization under the same catalog state produces,
//!    even when the hitting request is an isomorphic renumbering of the
//!    one that populated the entry.
//! 2. After drift recalibrates the belief catalog, a fresh re-optimization
//!    never returns a plan with higher expected cost than the stale cached
//!    plan evaluated under the updated beliefs (DP optimality, surfaced at
//!    the serving layer).

use lec_catalog::{Catalog, ColumnMeta, Histogram, TableMeta};
use lec_core::{alg_c, expected_cost, MemoryModel};
use lec_cost::PaperCostModel;
use lec_exec::PAGE_CAPACITY;
use lec_serve::{DriftConfig, QueryRequest, QueryService, ServeConfig};
use lec_stats::Distribution;
use lec_workload::from_catalog::{query_from_catalog, FilterSpec, JoinSpec};
use proptest::prelude::*;

/// Two tables joined on their first columns; `v` on `cust` is filterable.
/// `hist` is the per-bucket mass of `cust.v` over [0, 100] (8 buckets).
fn catalog(cust_pages: u64, order_pages: u64, domain: u64, hist: &[f64; 8]) -> Catalog {
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
            .with_column(ColumnMeta::new("ck", domain, 0.0, domain as f64 - 1.0))
            .with_column(
                ColumnMeta::new("v", 800, 0.0, 100.0)
                    .with_histogram(Histogram::equi_width(&values, 8).unwrap()),
            ),
    )
    .unwrap();
    c.register(
        TableMeta::new("ord", order_pages * PAGE_CAPACITY as u64, order_pages)
            .unwrap()
            .with_column(ColumnMeta::new("ok", domain, 0.0, domain as f64 - 1.0)),
    )
    .unwrap();
    c
}

fn join_spec() -> JoinSpec {
    JoinSpec {
        left_table: "cust".into(),
        left_column: "ck".into(),
        right_table: "ord".into(),
        right_column: "ok".into(),
    }
}

fn filter_spec(lo: f64, hi: f64) -> FilterSpec {
    FilterSpec {
        table: "cust".into(),
        column: "v".into(),
        lo,
        hi,
        indexed: false,
    }
}

fn request(lo: f64, hi: f64) -> QueryRequest {
    QueryRequest {
        tables: vec!["cust".into(), "ord".into()],
        joins: vec![join_spec()],
        filters: vec![filter_spec(lo, hi)],
        order_by: None,
    }
}

/// The same query with the two tables swapped in the request numbering.
fn request_swapped(lo: f64, hi: f64) -> QueryRequest {
    QueryRequest {
        tables: vec!["ord".into(), "cust".into()],
        joins: vec![join_spec()],
        filters: vec![filter_spec(lo, hi)],
        order_by: None,
    }
}

fn config() -> ServeConfig {
    ServeConfig::new(
        vec![
            Distribution::new([(4.0, 0.6), (40.0, 0.4)]).unwrap(),
            Distribution::new([(16.0, 0.5), (80.0, 0.5)]).unwrap(),
        ],
        Distribution::new([(8.0, 0.5), (48.0, 0.5)]).unwrap(),
    )
}

const UNIFORM: [f64; 8] = [0.125; 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1: hit-served ≡ fresh-optimized, bit for bit.
    #[test]
    fn cache_hit_matches_fresh_optimization(
        cust_pages in 6u64..14,
        ord_pages in 10u64..24,
        lo_bucket in 0usize..4,
        width in 1usize..4,
    ) {
        let lo = lo_bucket as f64 * 12.5;
        let hi = lo + width as f64 * 12.5;
        let cat = catalog(cust_pages, ord_pages, 512, &UNIFORM);

        // Service A: miss, then hit on an isomorphic renumbering.
        let mut a = QueryService::new(PaperCostModel, cat.clone(), cat.clone(), config()).unwrap();
        let first = a.serve(&request(lo, hi)).unwrap();
        prop_assert!(!first.cache_hit);
        let hit = a.serve(&request_swapped(lo, hi)).unwrap();
        prop_assert!(hit.cache_hit, "isomorphic request must hit");

        // Service B: a fresh service under the same catalog state misses
        // on the swapped request directly.
        let mut b = QueryService::new(PaperCostModel, cat.clone(), cat, config()).unwrap();
        let fresh = b.serve(&request_swapped(lo, hi)).unwrap();
        prop_assert!(!fresh.cache_hit);

        prop_assert_eq!(&hit.plan, &fresh.plan);
        prop_assert_eq!(hit.expected_cost.to_bits(), fresh.expected_cost.to_bits());
        prop_assert_eq!(hit.scenario, fresh.scenario);
    }

    /// Property 2: after recalibration, re-optimizing under the updated
    /// beliefs never costs more than the stale plan does under them.
    #[test]
    fn reoptimized_never_worse_than_stale_plan(
        cust_pages in 6u64..14,
        ord_pages in 10u64..24,
        hot_bucket in 0usize..2,
    ) {
        // Beliefs think `v` is uniform; the truth concentrates most mass in
        // one low bucket, so a filter over it passes ~6x more rows than
        // believed — guaranteed drift. (Kept below 1.0: a selectivity of
        // exactly 1 skips the filter, and with it the feedback record.)
        let lo = hot_bucket as f64 * 12.5;
        let hi = lo + 12.5;
        let beliefs = catalog(cust_pages, ord_pages, 512, &UNIFORM);
        let mut hot = [0.03; 8];
        hot[hot_bucket] = 0.79;
        let truth = catalog(cust_pages, ord_pages, 512, &hot);

        let mut cfg = config();
        cfg.drift = DriftConfig { error_threshold: 0.5, min_observations: 3, blend: 0.8 };
        let mut svc = QueryService::new(PaperCostModel, beliefs, truth, cfg.clone()).unwrap();

        let req = request(lo, hi);
        let stale_plan = svc.serve(&req).unwrap().plan;
        let mut recalibrated = false;
        for _ in 0..8 {
            if !svc.serve(&req).unwrap().recalibrations.is_empty() {
                recalibrated = true;
                break;
            }
        }
        prop_assert!(recalibrated, "sustained 8x error must fire the detector");

        // Evaluate both plans under the *updated* beliefs.
        let updated = query_from_catalog(
            svc.beliefs(),
            &["cust", "ord"],
            &req.joins,
            &req.filters,
            None,
        )
        .unwrap();
        let fresh = alg_c::optimize(&updated, &PaperCostModel, &MemoryModel::Static(cfg.observed_memory.clone()))
        .unwrap().0;
        let phases = MemoryModel::Static(cfg.observed_memory.clone())
            .table(updated.n().max(2))
            .unwrap();
        let stale_cost = expected_cost(&updated, &PaperCostModel, &stale_plan, &phases);
        prop_assert!(
            fresh.cost <= stale_cost + 1e-9 * stale_cost.abs().max(1.0),
            "fresh {} vs stale {}",
            fresh.cost,
            stale_cost
        );
    }
}

/// A no-drift stream: beliefs equal truth, so the detector stays quiet, the
/// cache converges to 100% hits, and the beliefs are never touched.
#[test]
fn accurate_beliefs_never_recalibrate() {
    let cat = catalog(10, 18, 512, &UNIFORM);
    let mut svc = QueryService::new(PaperCostModel, cat.clone(), cat.clone(), config()).unwrap();
    let req = request(12.5, 50.0);
    for i in 0..6 {
        let served = svc.serve(&req).unwrap();
        assert_eq!(served.cache_hit, i > 0);
        assert!(served.recalibrations.is_empty());
    }
    assert_eq!(svc.recalibrations(), 0);
    assert_eq!(svc.optimizer_invocations(), 1);
    let counters = svc.stats().cache;
    assert_eq!((counters.hits, counters.misses), (5, 1));
    assert_eq!(svc.beliefs(), &cat);
}

/// Two filters on one table: the belief-side estimate is the product of
/// both, like the execution's, so exact beliefs still never drift.
#[test]
fn two_filters_on_one_table_never_recalibrate_under_exact_beliefs() {
    let mut cat = catalog(10, 18, 512, &UNIFORM);
    let cust = cat.table_mut("cust").unwrap();
    cust.columns.push(ColumnMeta::new("w", 800, 0.0, 100.0));
    let mut req = request(0.0, 50.0);
    req.filters.push(FilterSpec {
        column: "w".into(),
        ..filter_spec(0.0, 25.0)
    });
    let mut svc = QueryService::new(PaperCostModel, cat.clone(), cat.clone(), config()).unwrap();
    for _ in 0..12 {
        assert!(svc.serve(&req).unwrap().recalibrations.is_empty());
    }
    assert_eq!(svc.recalibrations(), 0);
    assert_eq!(svc.beliefs(), &cat);
}

/// Join formulas that overflow to ∞, as the paper model's do on inputs of
/// 1e200 pages: every plan with a join costs ∞.
struct OverflowingJoins;

impl lec_cost::CostModel for OverflowingJoins {
    fn join_cost(&self, _: lec_cost::JoinMethod, _: f64, _: f64, _: f64) -> f64 {
        f64::INFINITY
    }
    fn sort_cost(&self, _: f64, _: f64) -> f64 {
        0.0
    }
    fn join_breakpoints(&self, _: lec_cost::JoinMethod, _: f64, _: f64) -> Vec<f64> {
        Vec::new()
    }
    fn sort_breakpoints(&self, _: f64) -> Vec<f64> {
        Vec::new()
    }
}

/// A miss whose optimizer winner costs ∞ is a typed optimizer error, in
/// every build and never a panic, and leaves no cache entry behind (plan
/// migration would refuse it later).
#[test]
fn an_infinite_winner_is_a_typed_error_and_is_never_cached() {
    let cat = catalog(10, 18, 512, &UNIFORM);
    let mut svc = QueryService::new(OverflowingJoins, cat.clone(), cat, config()).unwrap();
    for _ in 0..2 {
        match svc.serve(&request(12.5, 50.0)) {
            Err(lec_serve::ServeError::Core(lec_core::CoreError::Plan(
                lec_plan::PlanError::BadCost { value, .. },
            ))) => assert!(value.is_infinite()),
            other => panic!(
                "expected a bad-cost error, got {:?}",
                other.map(|s| s.cache_hit)
            ),
        }
        assert_eq!(svc.cache_len(), 0);
    }
}
