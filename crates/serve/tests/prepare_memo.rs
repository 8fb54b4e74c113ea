//! The prepare stage's memo: a request is prepared once per beliefs
//! version, and nothing else about serving changes.
//!
//! 1. Near-miss requests (one filter bound one ulp apart, a permuted table
//!    list, a different `order_by`, a different column name) never share a
//!    prepared form: each serves exactly what a fresh service serves, plan
//!    and expected-cost bits, on its first request and on memoized repeats.
//! 2. After a drift-driven recalibration, a memoized request is prepared
//!    under the new beliefs: it serves what a fresh service built on the
//!    recalibrated beliefs serves.
//! 3. The memo holds at most `cache_capacity` requests.
//! 4. A NaN filter bound is refused before anything is planned, through
//!    the service and through the concurrent router; infinite bounds serve.

use lec_catalog::{Catalog, ColumnMeta, Histogram, TableMeta};
use lec_cost::PaperCostModel;
use lec_exec::PAGE_CAPACITY;
use lec_serve::{
    ConcurrencyConfig, ConcurrentServer, DriftConfig, QueryRequest, QueryService,
    RecalibrationDecision, ServeConfig, ServeError, ServedQuery,
};
use lec_stats::Distribution;
use lec_workload::from_catalog::{FilterSpec, JoinSpec};

const UNIFORM: [f64; 8] = [0.125; 8];
/// ~70% of `cust.v` below 25 (believed: 25%).
const HOT: [f64; 8] = [0.35, 0.35, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05];

fn histogram(mass: &[f64; 8], width: f64) -> Histogram {
    let bucket = width / 8.0;
    let values: Vec<f64> = mass
        .iter()
        .enumerate()
        .flat_map(|(b, &m)| {
            let n = (m * 800.0).round() as usize;
            (0..n).map(move |i| b as f64 * bucket + bucket * (i as f64 + 0.5) / n as f64)
        })
        .collect();
    Histogram::equi_width(&values, 8).unwrap()
}

/// `cust` (filterable on `v` over [0, 100] and `w` over [0, 50]) plus the
/// chain tables `t1 … t4`, all joinable on 512 shared keys.
fn catalog(v_mass: &[f64; 8]) -> Catalog {
    let mut c = Catalog::new();
    c.register(
        TableMeta::new("cust", 6 * PAGE_CAPACITY as u64, 6)
            .unwrap()
            .with_column(ColumnMeta::new("ck", 512, 0.0, 511.0))
            .with_column(
                ColumnMeta::new("v", 800, 0.0, 100.0).with_histogram(histogram(v_mass, 100.0)),
            )
            .with_column(
                ColumnMeta::new("w", 800, 0.0, 50.0).with_histogram(histogram(&UNIFORM, 50.0)),
            ),
    )
    .unwrap();
    for (i, pages) in [(1, 9), (2, 4), (3, 7), (4, 5)] {
        c.register(
            TableMeta::new(format!("t{i}"), pages * PAGE_CAPACITY as u64, pages)
                .unwrap()
                .with_column(ColumnMeta::new(format!("k{i}"), 512, 0.0, 511.0)),
        )
        .unwrap();
    }
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

/// `cust ⋈ t1 ⋈ t2 ⋈ …` over the first `n` tables, `cust.v ∈ [0, hi]`.
fn chain(n: usize, hi: f64) -> QueryRequest {
    let names = ["cust", "t1", "t2", "t3", "t4"];
    let keys = ["ck", "k1", "k2", "k3", "k4"];
    QueryRequest {
        tables: names[..n].iter().map(|t| t.to_string()).collect(),
        joins: (1..n)
            .map(|j| join(names[j - 1], keys[j - 1], names[j], keys[j]))
            .collect(),
        filters: vec![FilterSpec {
            table: "cust".into(),
            column: "v".into(),
            lo: 0.0,
            hi,
            indexed: false,
        }],
        order_by: None,
    }
}

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::new(
        vec![
            Distribution::new([(4.0, 0.6), (40.0, 0.4)]).unwrap(),
            Distribution::new([(16.0, 0.5), (80.0, 0.5)]).unwrap(),
        ],
        Distribution::new([(8.0, 0.5), (48.0, 0.5)]).unwrap(),
    );
    cfg.drift = DriftConfig {
        error_threshold: 0.5,
        min_observations: 3,
        blend: 0.8,
    };
    cfg
}

/// What a service that has never seen any request serves for `request`
/// under `beliefs`.
fn fresh(beliefs: &Catalog, truth: &Catalog, request: &QueryRequest) -> ServedQuery {
    let mut svc =
        QueryService::new(PaperCostModel, beliefs.clone(), truth.clone(), config()).unwrap();
    svc.serve(request).unwrap()
}

fn assert_same_pick(got: &ServedQuery, want: &ServedQuery, what: &str) {
    assert_eq!(got.plan, want.plan, "{what}: plan");
    assert_eq!(
        got.expected_cost.to_bits(),
        want.expected_cost.to_bits(),
        "{what}: expected cost {} vs fresh {}",
        got.expected_cost,
        want.expected_cost
    );
}

#[test]
fn near_miss_requests_never_share_a_prepared_form() {
    let cat = catalog(&UNIFORM);
    let base = chain(3, 25.0);
    let mut ulp = base.clone();
    ulp.filters[0].hi = f64::from_bits(25.0f64.to_bits() + 1);
    let mut permuted = base.clone();
    permuted.tables.swap(0, 2);
    let mut ordered = base.clone();
    ordered.order_by = Some(1);
    let mut column = base.clone();
    column.filters[0].column = "w".into();
    let requests = [
        ("base", base),
        ("one ulp apart", ulp),
        ("permuted tables", permuted),
        ("order_by", ordered),
        ("column name", column),
    ];

    let mut svc = QueryService::new(PaperCostModel, cat.clone(), cat.clone(), config()).unwrap();
    let want: Vec<ServedQuery> = requests.iter().map(|(_, r)| fresh(&cat, &cat, r)).collect();
    // Two rounds: the first prepares every request, the second serves each
    // from the memo. Every one must serve its own fresh answer both times.
    for round in 0..2 {
        for ((what, request), want) in requests.iter().zip(&want) {
            let served = svc.serve(request).unwrap();
            assert_same_pick(&served, want, &format!("round {round}, {what}"));
        }
        assert_eq!(svc.memo_len(), requests.len(), "one form per request");
    }
    assert_eq!(svc.recalibrations(), 0, "beliefs ≡ truth: nothing drifts");
    // A different plan for the permuted request proves its form was its own
    // (the canonical pick is the same, its numbering is not).
    assert_ne!(want[0].plan, want[2].plan);
    assert_eq!(
        want[0].expected_cost.to_bits(),
        want[2].expected_cost.to_bits()
    );
}

#[test]
fn a_recalibration_re_prepares_memoized_requests_under_the_new_beliefs() {
    // Five relations: the recalibration always decides to re-optimize, so
    // the next serve must match a fresh service on the new beliefs exactly.
    let request = chain(5, 25.0);
    let mut svc =
        QueryService::new(PaperCostModel, catalog(&UNIFORM), catalog(&HOT), config()).unwrap();
    let before = svc.serve(&request).unwrap();
    let mut recalibrated = false;
    for _ in 0..40 {
        let served = svc.serve(&request).unwrap();
        assert!(served.cache_hit);
        if !served.recalibrations.is_empty() {
            assert!(served
                .recalibrations
                .iter()
                .all(|r| r.decision == RecalibrationDecision::Reoptimize));
            recalibrated = true;
            break;
        }
    }
    assert!(recalibrated, "the hot truth must drift the filter");
    assert!(svc.beliefs_version() > 0);

    let served = svc.serve(&request).unwrap();
    assert!(!served.cache_hit, "the drifted entry was dropped");
    let want = fresh(svc.beliefs(), svc.truth(), &request);
    assert_same_pick(&served, &want, "after recalibration");
    assert_ne!(
        served.expected_cost.to_bits(),
        before.expected_cost.to_bits(),
        "the recalibration must move the estimate this test relies on"
    );
    // Memoized again under the new beliefs: the repeat is a hit on the
    // re-optimized entry and serves the same pick.
    let again = svc.serve(&request).unwrap();
    assert!(again.cache_hit);
    assert_same_pick(&again, &want, "repeat after recalibration");
}

#[test]
fn the_memo_holds_at_most_cache_capacity_requests() {
    let cat = catalog(&UNIFORM);
    let mut cfg = config();
    cfg.cache_capacity = 4;
    cfg.cache_shards = 1;
    let capacity = cfg.cache_capacity;
    let mut svc = QueryService::new(PaperCostModel, cat.clone(), cat.clone(), cfg).unwrap();
    let requests: Vec<QueryRequest> = (0..3 * capacity)
        .map(|i| chain(2, 20.0 + i as f64))
        .collect();
    for request in &requests {
        svc.serve(request).unwrap();
        assert!(
            svc.memo_len() <= capacity,
            "memo grew to {}",
            svc.memo_len()
        );
    }
    assert_eq!(svc.memo_len(), capacity);
    // An evicted request is prepared again and still serves its own pick.
    let served = svc.serve(&requests[0]).unwrap();
    assert_same_pick(&served, &fresh(&cat, &cat, &requests[0]), "evicted request");
    assert_eq!(svc.memo_len(), capacity);
}

#[test]
fn nan_filter_bounds_are_refused_and_infinite_bounds_serve() {
    let cat = catalog(&UNIFORM);
    let refused = |what: &str, result: Result<(), ServeError>| match result {
        Err(ServeError::NanFilterBound(filter)) => {
            assert_eq!(
                (filter.table.as_str(), filter.column.as_str()),
                ("cust", "v")
            )
        }
        other => panic!("{what}: a NaN bound must be refused, got {other:?}"),
    };
    for (lo, hi) in [(f64::NAN, 25.0), (0.0, f64::NAN), (f64::NAN, f64::NAN)] {
        let mut request = chain(3, hi);
        request.filters[0].lo = lo;

        let mut svc =
            QueryService::new(PaperCostModel, cat.clone(), cat.clone(), config()).unwrap();
        refused("serve", svc.serve(&request).map(|_| ()));
        assert_eq!(svc.queries_served(), 0);
        assert_eq!(svc.optimizer_invocations(), 0);
        assert_eq!(svc.memo_len(), 0);

        let concurrency = ConcurrencyConfig {
            workers: 2,
            batch_window: 4,
        };
        let mut server = ConcurrentServer::new(
            PaperCostModel,
            cat.clone(),
            cat.clone(),
            config(),
            concurrency,
        )
        .unwrap();
        let stream = [chain(3, 25.0), request];
        refused("serve_stream", server.serve_stream(&stream).map(|_| ()));
        assert_eq!(server.queries_served(), 0, "the router refuses up front");
    }

    // ±∞ stays legal: an unbounded range serves like no filter at all.
    let mut open = chain(3, f64::INFINITY);
    open.filters[0].lo = f64::NEG_INFINITY;
    let mut svc = QueryService::new(PaperCostModel, cat.clone(), cat.clone(), config()).unwrap();
    let served = svc.serve(&open).unwrap();
    assert_same_pick(&served, &fresh(&cat, &cat, &open), "infinite bounds");
    assert!(svc.serve(&open).unwrap().cache_hit);
    assert_eq!(
        svc.memo_len(),
        1,
        "an infinite bound confirms against the memo"
    );
}
