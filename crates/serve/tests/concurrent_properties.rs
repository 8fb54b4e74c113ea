//! Determinism and equivalence properties of the concurrent serving tier.
//!
//! 1. **Replay**: a [`ConcurrentServer`] with one worker and a batch
//!    window of one is bit-identical to calling [`QueryService::serve`] in
//!    a loop — plans, cost bits, reports, feedback, resilience, and every
//!    counter — even on a stream that drifts and recalibrates mid-run
//!    (stale prepared requests must be recomputed, never served).
//! 2. **Scale-out equivalence**: for drift-quiet streams, N workers at any
//!    fixed window produce the same served stream (per global ordinal) and
//!    the same aggregate counters as one worker at that window.
//! 3. **Dedup pinning**: k isomorphic would-miss requests inside one batch
//!    window trigger exactly one optimizer invocation; the other k-1 are
//!    counted as dedup savings.
//! 4. **Shard breaker**: under a seeded fault schedule the per-shard
//!    breaker trips deterministically — identical runs agree, and so do
//!    different worker counts.

use lec_catalog::{Catalog, ColumnMeta, TableMeta};
use lec_cost::PaperCostModel;
use lec_exec::{FaultKind, PAGE_CAPACITY};
use lec_serve::{
    ConcurrencyConfig, ConcurrentServer, DriftConfig, FaultInjection, QueryRequest, QueryService,
    ResiliencePolicy, ServeConfig, ServedQuery, StreamOutcome,
};
use lec_stats::Distribution;
use lec_workload::from_catalog::{FilterSpec, JoinSpec};

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

/// Quiet config: the drift threshold is astronomically high, so every
/// stream is drift-free and the N ≡ 1 equivalences hold exactly.
fn quiet_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(
        vec![
            Distribution::new([(3.0, 0.9), (6.0, 0.1)]).unwrap(),
            Distribution::new([(200.0, 1.0)]).unwrap(),
        ],
        Distribution::new([(8.0, 0.5), (48.0, 0.5)]).unwrap(),
    );
    cfg.drift = DriftConfig {
        error_threshold: 1e9,
        min_observations: 3,
        blend: 0.8,
    };
    cfg
}

/// Three isomorphism classes, round-robined — enough to spread over the
/// default four cache shards.
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

fn concurrent_run(
    beliefs: Catalog,
    cfg: ServeConfig,
    workers: usize,
    window: usize,
    requests: &[QueryRequest],
) -> (
    StreamOutcome,
    Vec<ServedQuery>,
    ConcurrentServer<PaperCostModel>,
) {
    let mut server = ConcurrentServer::new(
        PaperCostModel,
        beliefs,
        catalog(),
        cfg,
        ConcurrencyConfig {
            workers,
            batch_window: window,
        },
    )
    .unwrap();
    let (outcome, served) = server.serve_stream_collect(requests).unwrap();
    (outcome, served, server)
}

fn assert_served_equal(a: &ServedQuery, b: &ServedQuery, context: &str) {
    assert_eq!(a.plan, b.plan, "{context}: plan");
    assert_eq!(
        a.expected_cost.to_bits(),
        b.expected_cost.to_bits(),
        "{context}: cost bits"
    );
    assert_eq!(a.scenario, b.scenario, "{context}: scenario");
    assert_eq!(a.cache_hit, b.cache_hit, "{context}: cache_hit");
    // Every serve reclaims its temporaries, so the output `RelId` a
    // worker's private disk hands out depends on the plan alone, not on
    // how many executions that worker ran before: the full report matches
    // across worker counts.
    assert_eq!(a.report, b.report, "{context}: exec report");
    assert_eq!(a.feedback, b.feedback, "{context}: feedback");
    assert_eq!(a.resilience, b.resilience, "{context}: resilience");
}

#[test]
fn worker1_window1_replays_sequential_serve_bit_identically_under_drift() {
    // Beliefs disagree with truth on the ord join column, so the join
    // observations drift and the stream recalibrates mid-run — the replay
    // must still be exact, which exercises the stale-preparation path (the
    // router prepared everything under version 0).
    let mut beliefs = catalog();
    beliefs.table_mut("ord").unwrap().columns[0].distinct = 4096;
    let mut cfg = quiet_config();
    cfg.drift = DriftConfig {
        error_threshold: 0.5,
        min_observations: 3,
        blend: 0.8,
    };
    let requests = stream(24);

    let mut sequential =
        QueryService::new(PaperCostModel, beliefs.clone(), catalog(), cfg.clone()).unwrap();
    let expected: Vec<ServedQuery> = requests
        .iter()
        .map(|r| sequential.serve(r).unwrap())
        .collect();
    assert!(
        sequential.recalibrations() > 0,
        "fixture must actually drift"
    );

    let (outcome, served, server) = concurrent_run(beliefs, cfg, 1, 1, &requests);
    assert_eq!(served.len(), expected.len());
    for (i, (a, b)) in expected.iter().zip(&served).enumerate() {
        assert_served_equal(a, b, &format!("request {i}"));
    }
    assert_eq!(outcome.dedup_saved, 0, "window 1 cannot dedup");
    assert_eq!(outcome.recalibrations, sequential.recalibrations());
    assert_eq!(server.queries_served(), sequential.queries_served());
    assert_eq!(
        server.optimizer_invocations(),
        sequential.optimizer_invocations()
    );
    assert_eq!(server.primed_consumed(), server.optimizer_invocations());
    assert_eq!(server.stats().cache, sequential.stats().cache);
    assert_eq!(server.stats().counters, sequential.stats().counters);
    assert_eq!(
        server.resilience_counters(),
        sequential.resilience_counters()
    );
    // Per-request outcome records mirror the full results.
    for (o, s) in outcome.outcomes.iter().zip(&served) {
        assert_eq!(o.cache_hit, s.cache_hit);
        assert_eq!(o.expected_cost.to_bits(), s.expected_cost.to_bits());
        assert_eq!(o.route, s.resilience.route);
        assert_eq!(o.attempts, s.resilience.attempts);
        assert_eq!(o.degraded, s.resilience.degraded);
    }
}

#[test]
fn worker_count_is_invisible_to_plans_and_counters() {
    let requests = stream(36);
    for window in [1usize, 8] {
        let (base_outcome, base_served, base_server) =
            concurrent_run(catalog(), quiet_config(), 1, window, &requests);
        assert_eq!(base_outcome.recalibrations, 0, "fixture must stay quiet");
        for workers in [2usize, 4] {
            let (outcome, served, server) =
                concurrent_run(catalog(), quiet_config(), workers, window, &requests);
            let context = format!("workers={workers} window={window}");
            assert_eq!(server.workers(), workers, "{context}");
            assert_eq!(served.len(), base_served.len(), "{context}");
            for (i, (a, b)) in base_served.iter().zip(&served).enumerate() {
                assert_served_equal(a, b, &format!("{context} request {i}"));
            }
            assert_eq!(outcome.dedup_saved, base_outcome.dedup_saved, "{context}");
            assert_eq!(outcome.recalibrations, 0, "{context}");
            assert_eq!(
                server.queries_served(),
                base_server.queries_served(),
                "{context}"
            );
            assert_eq!(
                server.optimizer_invocations(),
                base_server.optimizer_invocations(),
                "{context}"
            );
            assert_eq!(
                server.primed_consumed(),
                base_server.primed_consumed(),
                "{context}"
            );
            assert_eq!(server.stats().cache, base_server.stats().cache, "{context}");
            assert_eq!(
                server.stats().counters,
                base_server.stats().counters,
                "{context}"
            );
            assert_eq!(
                server.resilience_counters(),
                base_server.resilience_counters(),
                "{context}"
            );
            assert_eq!(server.cache_len(), base_server.cache_len(), "{context}");
        }
    }
}

#[test]
fn isomorphic_misses_in_one_window_optimize_exactly_once() {
    // [A, A, A, B, B, B] in a single window: two optimizer runs, four
    // requests deduplicated at prime time, one primed consume per class
    // (the first serve inserts; the repeats are plain cache hits).
    let all = stream(3);
    let requests: Vec<QueryRequest> = vec![
        all[0].clone(),
        all[0].clone(),
        all[0].clone(),
        all[1].clone(),
        all[1].clone(),
        all[1].clone(),
    ];
    let (outcome, served, server) = concurrent_run(catalog(), quiet_config(), 1, 6, &requests);
    assert_eq!(server.optimizer_invocations(), 2);
    assert_eq!(outcome.dedup_saved, 4);
    assert_eq!(server.primed_consumed(), 2);
    assert_eq!(outcome.windows, 1);
    let hits: Vec<bool> = served.iter().map(|s| s.cache_hit).collect();
    assert_eq!(hits, [false, true, true, false, true, true]);
    let cache = server.stats().cache;
    assert_eq!((cache.hits, cache.misses), (4, 2));
}

#[test]
fn shard_breaker_trips_are_deterministic_under_seeded_faults() {
    // Per-fingerprint threshold far out of reach, shard threshold low: the
    // coarse layer is the only breaker in play. Faults every other request
    // accumulate per shard until it trips, flushes, and serves the LSC
    // baseline.
    let mut cfg = quiet_config();
    cfg.resilience = ResiliencePolicy {
        max_retries: 2,
        breaker_threshold: 1_000,
        shard_breaker_threshold: 3,
    };
    cfg.fault_injection = FaultInjection::every(2, FaultKind::IoError);
    let requests = stream(30);

    let (out_a, served_a, server_a) = concurrent_run(catalog(), cfg.clone(), 1, 4, &requests);
    let (out_b, served_b, server_b) = concurrent_run(catalog(), cfg.clone(), 1, 4, &requests);
    let trips = server_a.resilience_counters().shard_breaker_trips;
    assert!(trips > 0, "shard breaker must trip under this schedule");
    assert_eq!(server_a.resilience_counters().breaker_trips, 0);
    assert_eq!(
        server_a.resilience_counters(),
        server_b.resilience_counters()
    );
    assert_eq!(out_a.dedup_saved, out_b.dedup_saved);
    for (i, (a, b)) in served_a.iter().zip(&served_b).enumerate() {
        assert_served_equal(a, b, &format!("rerun request {i}"));
    }
    // Tripped serves are degraded, fault-free LSC fallbacks.
    let tripped: Vec<&ServedQuery> = served_a
        .iter()
        .filter(|s| s.resilience.breaker_tripped)
        .collect();
    assert_eq!(tripped.len() as u64, trips);
    for s in &tripped {
        assert!(s.resilience.degraded);
        assert!(s.resilience.faults.is_empty());
    }

    // Worker count stays invisible even under injection.
    let (_, served_n, server_n) = concurrent_run(catalog(), cfg, 4, 4, &requests);
    for (i, (a, b)) in served_a.iter().zip(&served_n).enumerate() {
        assert_served_equal(a, b, &format!("4-worker request {i}"));
    }
    assert_eq!(
        server_a.resilience_counters(),
        server_n.resilience_counters()
    );
    assert_eq!(server_a.stats().cache, server_n.stats().cache);
}
