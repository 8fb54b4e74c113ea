//! Golden digests of the serving loop.
//!
//! Five setups serve fixed request streams, and each folds what it
//! observes into two order-sensitive FNV-1a digests. The *decision*
//! digest covers everything a serve decides:
//!
//! - per request: the plan, the expected-cost bits, the scenario, the
//!   cache outcome, the execution report and feedback, the resilience
//!   report, every recalibration (target, observed-mean bits, decision,
//!   invalidated and migrated counts) and the certificate's ε/δ bits;
//! - at the end: the cache and resilience counters, the service counters
//!   and the belief catalog.
//!
//! The *search* digest covers only the optimizer's search counters
//! (`OptStats::counters`): how much work the decisions took, not what
//! they were. An optimizer that searches less but decides the same keeps
//! the decision digest and changes only the search digest.
//!
//! The decision digests were captured from the staged serving loop with
//! the unbounded left-deep DP and hold unchanged under the bounded one, so
//! any behavioural drift in a later restructuring shows up here as a
//! changed decision digest. The search digests were re-captured when the
//! DP began pruning subsets and counting them in `masks_pruned`, and again
//! when parametric precompute began pricing all of its scenarios in one
//! sweep, which counts each subset and candidate once instead of once per
//! scenario. The streams carry at most one filter per table.
//!
//! The setups:
//! (a) blending recalibration under selection and join drift;
//! (b) resampling recalibration with certificates on the same drift;
//! (c) fault injection with both the fingerprint and the shard breaker
//!     tripping;
//! (d) the minmax-regret rule under the same faults;
//! (e) a 4-worker, window-8 concurrent server on the drifting stream.

use lec_catalog::{Catalog, ColumnMeta, Histogram, TableMeta};
use lec_cost::PaperCostModel;
use lec_exec::{FaultKind, PAGE_CAPACITY};
use lec_serve::{
    ConcurrencyConfig, ConcurrentServer, DriftConfig, FaultInjection, QueryRequest, QueryService,
    ResampleConfig, ResiliencePolicy, Rule, ServeConfig, ServedQuery,
};
use lec_stats::Distribution;
use lec_workload::from_catalog::{FilterSpec, JoinSpec};
use std::fmt::Debug;

/// Order-sensitive FNV-1a over the `Debug` renderings of its parts.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, part: impl Debug) {
        for byte in format!("{part:?}|").bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn served(&mut self, s: &ServedQuery) {
        self.add(&s.plan);
        self.add((s.expected_cost.to_bits(), s.scenario, s.cache_hit));
        self.add(&s.report);
        self.add(&s.feedback);
        self.add(&s.resilience);
        for r in &s.recalibrations {
            self.add((
                &r.event.target,
                r.event.mean_observed.to_bits(),
                &r.decision,
                r.entries_invalidated,
                r.entries_migrated,
            ));
        }
        self.add(
            s.certificate
                .as_ref()
                .map(|c| (c.epsilon.to_bits(), c.delta.to_bits())),
        );
    }

    fn service(&mut self, svc: &QueryService<PaperCostModel>) {
        let stats = svc.stats();
        self.add((&stats.cache, &stats.resilience));
        self.add((
            svc.optimizer_invocations(),
            svc.recalibrations(),
            svc.decisions(),
            svc.queries_served(),
            svc.resamples(),
            svc.primed_consumed(),
            svc.beliefs_version(),
            svc.cache_len(),
        ));
        self.add(svc.beliefs());
    }
}

/// `cust.v` carries `hist` (per-bucket mass over [0, 100], 8 buckets);
/// every join key has `key_domain` distinct values.
fn catalog(hist: &[f64; 8], key_domain: u64) -> Catalog {
    let values: Vec<f64> = hist
        .iter()
        .enumerate()
        .flat_map(|(b, &mass)| {
            let n = (mass * 800.0).round() as usize;
            (0..n).map(move |i| b as f64 * 12.5 + 12.5 * (i as f64 + 0.5) / n.max(1) as f64)
        })
        .collect();
    let table = |name: &str, pages: u64| TableMeta::new(name, pages * PAGE_CAPACITY as u64, pages);
    let mut c = Catalog::new();
    c.register(
        table("cust", 10)
            .unwrap()
            .with_column(ColumnMeta::new("ck", key_domain, 0.0, 511.0))
            .with_column(
                ColumnMeta::new("v", 800, 0.0, 100.0)
                    .with_histogram(Histogram::equi_width(&values, 8).unwrap()),
            ),
    )
    .unwrap();
    c.register(
        table("ord", 20)
            .unwrap()
            .with_column(ColumnMeta::new("ok", key_domain, 0.0, 511.0))
            .with_column(ColumnMeta::new("w", 400, 0.0, 100.0)),
    )
    .unwrap();
    c.register(
        table("item", 14)
            .unwrap()
            .with_column(ColumnMeta::new("ik", key_domain, 0.0, 511.0)),
    )
    .unwrap();
    c
}

/// Beliefs: `cust.v` uniform, 512 distinct join keys.
fn beliefs() -> Catalog {
    catalog(&[0.125; 8], 512)
}

/// Truth: `cust.v` concentrated in its first bucket and only 64 distinct
/// join keys, so both filter and join estimates drift.
fn truth() -> Catalog {
    let mut hot = [0.03; 8];
    hot[0] = 0.79;
    catalog(&hot, 64)
}

/// Beliefs with the true join-key counts: only `cust.v` drifts, so the
/// fault setups keep their fingerprints long enough for the per-fingerprint
/// breaker to trip.
fn key_exact_beliefs() -> Catalog {
    catalog(&[0.125; 8], 64)
}

fn join(l: &str, lc: &str, r: &str, rc: &str) -> JoinSpec {
    JoinSpec {
        left_table: l.into(),
        left_column: lc.into(),
        right_table: r.into(),
        right_column: rc.into(),
    }
}

fn filter(table: &str, column: &str, lo: f64, hi: f64) -> FilterSpec {
    FilterSpec {
        table: table.into(),
        column: column.into(),
        lo,
        hi,
        indexed: false,
    }
}

/// Five request shapes (two of them renumberings of each other), cycled
/// with a varying filter range so the cache sees hits, misses and
/// several classes.
fn stream(len: usize) -> Vec<QueryRequest> {
    (0..len)
        .map(|i| {
            let lo = 12.5 * ((i / 5) % 2) as f64 / 4.0;
            let v = filter("cust", "v", lo, 12.5 + lo);
            match i % 5 {
                0 => QueryRequest {
                    tables: vec!["cust".into(), "ord".into()],
                    joins: vec![join("cust", "ck", "ord", "ok")],
                    filters: vec![v],
                    order_by: None,
                },
                1 => QueryRequest {
                    tables: vec!["ord".into(), "cust".into()],
                    joins: vec![join("cust", "ck", "ord", "ok")],
                    filters: vec![v],
                    order_by: None,
                },
                2 => QueryRequest {
                    tables: vec!["cust".into(), "item".into()],
                    joins: vec![join("cust", "ck", "item", "ik")],
                    filters: vec![],
                    order_by: Some(0),
                },
                3 => QueryRequest {
                    tables: vec!["cust".into(), "ord".into(), "item".into()],
                    joins: vec![
                        join("cust", "ck", "ord", "ok"),
                        join("cust", "ck", "item", "ik"),
                    ],
                    filters: vec![v, filter("ord", "w", 0.0, 40.0)],
                    order_by: None,
                },
                _ => QueryRequest {
                    tables: vec!["ord".into(), "item".into()],
                    joins: vec![join("ord", "ok", "item", "ik")],
                    filters: vec![filter("ord", "w", 10.0, 60.0)],
                    order_by: None,
                },
            }
        })
        .collect()
}

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::new(
        vec![
            Distribution::new([(3.0, 0.9), (6.0, 0.1)]).unwrap(),
            Distribution::new([(16.0, 0.5), (80.0, 0.5)]).unwrap(),
            Distribution::new([(200.0, 1.0)]).unwrap(),
        ],
        Distribution::new([(8.0, 0.5), (48.0, 0.5)]).unwrap(),
    );
    cfg.cache_capacity = 4;
    cfg.drift = DriftConfig {
        error_threshold: 0.5,
        min_observations: 3,
        blend: 0.8,
    };
    cfg.reoptimize_cost = 10.0;
    cfg
}

fn faulted(rule: Rule) -> ServeConfig {
    let mut cfg = config();
    cfg.fault_injection = FaultInjection::every(2, FaultKind::IoError);
    cfg.resilience = ResiliencePolicy {
        max_retries: 2,
        breaker_threshold: 2,
        shard_breaker_threshold: 3,
    };
    // A wide observed spread, so minmax regret picks and orders the
    // ladder differently from expected cost.
    cfg.observed_memory = Distribution::new([(4.0, 0.3), (200.0, 0.7)]).unwrap();
    cfg.selection_rule = rule;
    cfg
}

/// The decision and search digests of one setup.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    decision: u64,
    search: u64,
}

/// Serves `stream(len)` sequentially and returns the digests and service.
fn sequential(
    beliefs: Catalog,
    cfg: ServeConfig,
    len: usize,
) -> (Golden, QueryService<PaperCostModel>) {
    let mut svc = QueryService::new(PaperCostModel, beliefs, truth(), cfg).unwrap();
    let mut decision = Digest::new();
    for req in stream(len) {
        decision.served(&svc.serve(&req).expect("every request serves"));
    }
    decision.service(&svc);
    let mut search = Digest::new();
    search.add(&svc.stats().counters);
    let golden = Golden {
        decision: decision.0,
        search: search.0,
    };
    (golden, svc)
}

#[test]
fn blend_drift_golden() {
    let (digest, svc) = sequential(beliefs(), config(), 40);
    assert!(svc.decisions().0 > 0 && svc.decisions().1 > 0);
    assert_eq!(
        digest,
        Golden {
            decision: 18_024_448_194_616_763_761,
            search: 16_412_454_453_183_340_010,
        }
    );
}

#[test]
fn resample_drift_with_certificates_golden() {
    let mut cfg = config();
    cfg.resample = Some(ResampleConfig::default());
    let (digest, svc) = sequential(beliefs(), cfg, 40);
    assert!(svc.resamples() > 0, "the stream must resample");
    assert_eq!(
        digest,
        Golden {
            decision: 17_631_924_984_941_643_382,
            search: 11_409_300_180_797_385_584,
        }
    );
}

#[test]
fn faults_with_both_breakers_golden() {
    let (digest, svc) = sequential(key_exact_beliefs(), faulted(Rule::LeastExpectedCost), 40);
    let c = svc.resilience_counters();
    assert!(c.breaker_trips > 0, "the fingerprint breaker must trip");
    assert!(c.shard_breaker_trips > 0, "the shard breaker must trip");
    assert!(
        c.frontier_fallbacks > 0,
        "the ladder must reach a frontier rung"
    );
    assert_eq!(
        digest,
        Golden {
            decision: 7_589_919_011_174_441_643,
            search: 9_022_672_295_908_692_399,
        }
    );
}

#[test]
fn minmax_regret_under_faults_golden() {
    let (digest, svc) = sequential(key_exact_beliefs(), faulted(Rule::MinmaxRegret), 40);
    let c = svc.resilience_counters();
    assert!(c.breaker_trips > 0 && c.shard_breaker_trips > 0);
    assert_eq!(
        digest,
        Golden {
            decision: 14_890_990_045_866_224_749,
            search: 9_022_672_295_908_692_399,
        }
    );
}

#[test]
fn concurrent_four_workers_window_eight_golden() {
    let mut server = ConcurrentServer::new(
        PaperCostModel,
        beliefs(),
        truth(),
        config(),
        ConcurrencyConfig {
            workers: 4,
            batch_window: 8,
        },
    )
    .unwrap();
    let (outcome, served) = server.serve_stream_collect(&stream(48)).unwrap();
    let mut decision = Digest::new();
    for s in &served {
        decision.served(s);
    }
    decision.add((outcome.dedup_saved, outcome.windows, outcome.recalibrations));
    let mut search = Digest::new();
    for svc in server.services() {
        decision.service(svc);
        search.add(&svc.stats().counters);
    }
    assert!(server.workers() > 1);
    let digest = Golden {
        decision: decision.0,
        search: search.0,
    };
    assert_eq!(
        digest,
        Golden {
            decision: 7_487_055_701_443_729_546,
            search: 5_780_937_350_500_009_029,
        }
    );
}
