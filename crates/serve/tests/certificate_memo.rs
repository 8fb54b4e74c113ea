//! The certify stage's memo serves exactly what certifying afresh would.
//!
//! Every certificate a resampling service serves is checked, bit for bit
//! on every field, against a fresh `certify_plan` on the same inputs: the
//! belief query as it stood before the serve, the served plan, and the
//! interval box rebuilt from the statistic intervals the serve certified
//! under (a verbatim copy of the service's interval-box rule). The
//! streams cover every way those inputs move:
//!
//! 1. truth swaps, which drift filters and resample them;
//! 2. forced resamples of small-domain joins, where a resample narrows an
//!    interval while the query and plan stay put;
//! 3. migrations, where drifted entries are carried over and re-cost;
//! 4. fault-injected ladder rungs, which serve another plan under the same
//!    query and intervals (and breaker trips, which certify nothing);
//! 5. isomorphic requests in permuted numberings;
//! 6. ten times `cache_capacity` distinct requests, with the memo never
//!    above `cache_capacity` after any serve.
//!
//! Streams 2 and 4 assert that they really contain a serve whose interval
//! box (resp. plan) moved while everything else repeated, so a memo that
//! ignored that input would serve a stale certificate and fail here.

use lec_catalog::{Catalog, ColumnMeta, Histogram, TableMeta};
use lec_core::certificate::{certify_plan, QueryIntervals};
use lec_core::MemoryModel;
use lec_cost::PaperCostModel;
use lec_exec::{FaultKind, PAGE_CAPACITY};
use lec_plan::{JoinQuery, Plan};
use lec_serve::{
    Certificate, DriftConfig, DriftTarget, FaultInjection, QueryRequest, QueryService,
    RecalibrationDecision, ResampleConfig, ServeConfig, ServedQuery, StatInterval,
};
use lec_stats::Distribution;
use lec_workload::from_catalog::{page_selectivity, query_from_catalog, FilterSpec, JoinSpec};
use std::collections::BTreeMap;

type Profile = [f64; 8];
const UNIFORM: Profile = [0.125; 8];
/// Mass piled below 25, where every filter range starts.
const HOT: Profile = [0.70, 0.10, 0.04, 0.04, 0.03, 0.03, 0.03, 0.03];

fn histogram(profile: &Profile) -> Histogram {
    let values: Vec<f64> = profile
        .iter()
        .enumerate()
        .flat_map(|(b, &mass)| {
            let n = (mass * 800.0).round() as usize;
            (0..n).map(move |i| b as f64 * 12.5 + 12.5 * (i as f64 + 0.5) / n.max(1) as f64)
        })
        .collect();
    Histogram::equi_width(&values, 8).unwrap()
}

fn name(i: usize) -> String {
    format!("t{i}")
}

/// Tables `t0 … t5`: `t{i}` has `pages(i)` pages of `rows_per_page`
/// rows, is joinable on `k` (`domain(i)` distinct keys) and filterable on
/// `v` over [0, 100].
fn catalog(pages: impl Fn(u64) -> u64, rows_per_page: u64, domain: impl Fn(u64) -> u64) -> Catalog {
    let mut c = Catalog::new();
    for i in 0..6 {
        let (pages, distinct) = (pages(i), domain(i));
        let v = ColumnMeta::new("v", 800, 0.0, 100.0).with_histogram(histogram(&UNIFORM));
        c.register(
            TableMeta::new(name(i as usize), pages * rows_per_page, pages)
                .unwrap()
                .with_column(ColumnMeta::new("k", distinct, 0.0, (distinct - 1) as f64))
                .with_column(v),
        )
        .unwrap();
    }
    c
}

/// `t{i}` has `4 + 2i` pages at the simulator's page capacity, its key
/// domain a few keys above its row count: every join's output is near its
/// inputs' size.
fn standard() -> Catalog {
    let rows = PAGE_CAPACITY as u64;
    catalog(|i| 4 + 2 * i, rows, |i| (4 + 2 * i) * rows + i)
}

fn set_profile(c: &mut Catalog, table: usize, profile: &Profile) {
    let meta = c.table_mut(&name(table)).unwrap();
    let v = meta.columns.iter_mut().find(|c| c.name == "v").unwrap();
    v.histogram = Some(histogram(profile));
}

/// The chain `tables[0] ⋈ tables[1] ⋈ …`, with `v ∈ [0, hi]` on each
/// listed `(table, hi)`.
fn chain(tables: &[usize], filters: &[(usize, f64)]) -> QueryRequest {
    QueryRequest {
        tables: tables.iter().map(|&t| name(t)).collect(),
        joins: tables
            .windows(2)
            .map(|w| JoinSpec {
                left_table: name(w[0]),
                left_column: "k".into(),
                right_table: name(w[1]),
                right_column: "k".into(),
            })
            .collect(),
        filters: filters
            .iter()
            .map(|&(t, hi)| FilterSpec {
                table: name(t),
                column: "v".into(),
                lo: 0.0,
                hi,
                indexed: false,
            })
            .collect(),
        order_by: None,
    }
}

/// The same query in another numbering: tables and joins reversed, each
/// join's sides flipped.
fn permuted(r: &QueryRequest) -> QueryRequest {
    let mut p = r.clone();
    p.tables.reverse();
    p.joins.reverse();
    for j in &mut p.joins {
        std::mem::swap(&mut j.left_table, &mut j.right_table);
        std::mem::swap(&mut j.left_column, &mut j.right_column);
    }
    p.filters.reverse();
    p
}

fn config(capacity: usize, error_threshold: f64, min_observations: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        vec![
            Distribution::new([(4.0, 0.6), (40.0, 0.4)]).unwrap(),
            Distribution::new([(16.0, 0.5), (80.0, 0.5)]).unwrap(),
        ],
        Distribution::new([(8.0, 0.5), (48.0, 0.5)]).unwrap(),
    );
    cfg.cache_capacity = capacity;
    cfg.drift = DriftConfig {
        error_threshold,
        min_observations,
        blend: 0.8,
    };
    cfg.resample = Some(ResampleConfig::default());
    cfg
}

/// A tiny LCG: the streams' class picks, reproducible without a crate.
struct Picks(u64);

impl Picks {
    fn next(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// Serves requests through one service and checks every certificate
/// against a fresh one; counts how the certificate's inputs moved between
/// consecutive serves of the same request.
struct Oracle {
    svc: QueryService<PaperCostModel>,
    observed: Distribution,
    initial_draws: u64,
    capacity: usize,
    /// Per request: the inputs and certificate of its last certified
    /// serve.
    last: Vec<(QueryRequest, Inputs)>,
    certified: usize,
    /// Certified serves whose inputs all repeated the request's last ones.
    repeats: usize,
    /// ... whose interval box alone moved, and with it the certificate.
    interval_moves: usize,
    /// ... whose plan alone moved, and with it the certificate.
    plan_moves: usize,
}

/// What one certificate was computed from, and its bits.
struct Inputs {
    query: JoinQuery,
    plan: Plan,
    intervals: Vec<u64>,
    certificate: (u64, u64, u64, u64, usize),
}

fn selection(f: &FilterSpec) -> DriftTarget {
    DriftTarget::Selection {
        table: f.table.clone(),
        column: f.column.clone(),
    }
}

fn join_target(j: &JoinSpec) -> DriftTarget {
    DriftTarget::Join {
        left_table: j.left_table.clone(),
        left_column: j.left_column.clone(),
        right_table: j.right_table.clone(),
        right_column: j.right_column.clone(),
    }
}

fn bits(c: &Certificate) -> (u64, u64, u64, u64, usize) {
    (
        c.epsilon.to_bits(),
        c.delta.to_bits(),
        c.chosen_upper.to_bits(),
        c.optimal_lower.to_bits(),
        c.statistics,
    )
}

fn interval_bits(iv: &QueryIntervals) -> Vec<u64> {
    let pairs = iv
        .relation_selectivity
        .iter()
        .chain(&iv.predicate_selectivity);
    pairs
        .flat_map(|(lo, hi)| [lo.to_bits(), hi.to_bits()])
        .chain([iv.delta.to_bits()])
        .collect()
}

impl Oracle {
    fn new(beliefs: Catalog, truth: Catalog, config: ServeConfig) -> Self {
        Oracle {
            observed: config.observed_memory.clone(),
            initial_draws: config.resample.unwrap().initial_draws,
            capacity: config.cache_capacity,
            svc: QueryService::new(PaperCostModel, beliefs, truth, config).unwrap(),
            last: Vec::new(),
            certified: 0,
            repeats: 0,
            interval_moves: 0,
            plan_moves: 0,
        }
    }

    fn serve(&mut self, request: &QueryRequest) -> ServedQuery {
        let beliefs = self.svc.beliefs().clone();
        let targets = request
            .filters
            .iter()
            .map(selection)
            .chain(request.joins.iter().map(join_target));
        let before: BTreeMap<DriftTarget, Option<StatInterval>> = targets
            .map(|t| {
                let iv = self.svc.stat_interval(&t);
                (t, iv)
            })
            .collect();
        let ordinal = self.svc.queries_served();
        let served = self.svc.serve(request).unwrap();
        let len = self.svc.certificate_memo_len();
        assert!(len <= self.capacity, "memo holds {len} > {}", self.capacity);
        if served.resilience.breaker_tripped {
            assert!(
                served.certificate.is_none(),
                "a breaker reroute claims nothing"
            );
            return served;
        }
        let got = served
            .certificate
            .as_ref()
            .unwrap_or_else(|| panic!("serve {ordinal} was not certified"));

        // The interval each statistic was certified under: the one cached
        // before the serve, or the first-touch draw the serve made.
        let used = |t: &DriftTarget| -> StatInterval {
            if let Some(iv) = before[t] {
                return iv;
            }
            let iv = self.svc.stat_interval(t).unwrap();
            assert_eq!(
                iv.draws, self.initial_draws,
                "serve {ordinal}: {t:?} was first touched and resampled in one serve"
            );
            iv
        };
        let tables: Vec<&str> = request.tables.iter().map(String::as_str).collect();
        let (joins, filters) = (&request.joins, &request.filters);
        let query =
            query_from_catalog(&beliefs, &tables, joins, filters, request.order_by).unwrap();

        // A verbatim copy of the service's interval-box rule.
        let mut delta = 0.0;
        let mut cover = |lo: f64, hi: f64, point: f64, iv: &StatInterval| {
            let (lo, hi) = (lo.min(point), hi.max(point));
            if hi > lo {
                delta += iv.delta;
            }
            (lo, hi)
        };
        let mut relation_selectivity = Vec::new();
        for (idx, table) in request.tables.iter().enumerate() {
            let point = query.relation(idx).local_selectivity;
            let mut on_table = request.filters.iter().filter(|f| f.table == *table);
            match (on_table.next(), on_table.next()) {
                (Some(filter), None) if point < 1.0 => {
                    let iv = used(&selection(filter));
                    relation_selectivity.push(cover(iv.lo, iv.hi, point, &iv));
                }
                _ => relation_selectivity.push((point, point)),
            }
        }
        let mut predicate_selectivity = Vec::new();
        for (spec, pred) in request.joins.iter().zip(query.predicates()) {
            let iv = used(&join_target(spec));
            let lt = beliefs.table(&spec.left_table).unwrap();
            let rt = beliefs.table(&spec.right_table).unwrap();
            predicate_selectivity.push(cover(
                page_selectivity(lt, rt, iv.lo),
                page_selectivity(lt, rt, iv.hi),
                pred.selectivity,
                &iv,
            ));
        }
        let intervals = QueryIntervals {
            relation_selectivity,
            predicate_selectivity,
            delta,
        };
        let memory = MemoryModel::Static(self.observed.clone());
        let want =
            certify_plan(&query, &PaperCostModel, &memory, &served.plan, &intervals).unwrap();
        assert_eq!(
            bits(got),
            bits(&want),
            "serve {ordinal}: served {got:?}, fresh {want:?}"
        );
        self.certified += 1;
        let now = Inputs {
            query,
            plan: served.plan.clone(),
            intervals: interval_bits(&intervals),
            certificate: bits(&want),
        };
        self.record(request, now);
        served
    }

    fn record(&mut self, request: &QueryRequest, now: Inputs) {
        let Some((_, last)) = self.last.iter_mut().find(|(r, _)| r == request) else {
            self.last.push((request.clone(), now));
            return;
        };
        let same_query = last.query == now.query;
        let same_plan = last.plan == now.plan;
        let same_box = last.intervals == now.intervals;
        let moved = last.certificate != now.certificate;
        self.repeats += usize::from(same_query && same_plan && same_box);
        self.interval_moves += usize::from(same_query && same_plan && !same_box && moved);
        self.plan_moves += usize::from(same_query && !same_plan && same_box && moved);
        *last = now;
    }
}

/// Eight classes of 3- and 4-table chains over `t0 … t5`, each filtered
/// on one of `t0 … t3`.
fn classes() -> Vec<QueryRequest> {
    (0..8)
        .map(|c| {
            let n = 3 + c % 2;
            let tables: Vec<usize> = (0..n).map(|i| (c + i) % 6).collect();
            // Every run of three tables mod 6 holds one of t0 … t3.
            let filtered = tables.iter().copied().find(|&t| t < 4).unwrap();
            chain(&tables, &[(filtered, [25.0, 37.5, 50.0][c % 3])])
        })
        .collect()
}

/// Serves `len` requests drawn from `classes`, swapping the truth profile
/// of one of `t0 … t3` (round robin, HOT ↔ UNIFORM) every `swap_every`
/// requests.
fn drifting_stream(oracle: &mut Oracle, classes: &[QueryRequest], len: usize, swap_every: usize) {
    let mut picks = Picks(7);
    let mut hot = [false; 4];
    for i in 0..len {
        if i > 0 && i % swap_every == 0 {
            let t = (i / swap_every) % 4;
            hot[t] = !hot[t];
            let profile = if hot[t] { &HOT } else { &UNIFORM };
            set_profile(oracle.svc.truth_mut(), t, profile);
        }
        let request = &classes[picks.next(classes.len())];
        oracle.serve(request);
    }
}

#[test]
fn truth_swaps_serve_fresh_certificates() {
    let cat = standard();
    let mut oracle = Oracle::new(cat.clone(), cat, config(64, 0.5, 3));
    drifting_stream(&mut oracle, &classes(), 400, 40);
    assert!(
        oracle.svc.resamples() > 0,
        "the swaps must drift the filters"
    );
    assert!(
        oracle.repeats > 100,
        "most serves repeat: {}",
        oracle.repeats
    );
}

#[test]
fn forced_resamples_that_only_move_intervals_serve_fresh_certificates() {
    // Unfiltered 3-table chains over 4–9 join keys, at a drift threshold
    // noise crosses: join windows fire, and a 4096-draw resample mostly
    // implies the same distinct count again, so the query and plan stay
    // while the interval narrows from its first-touch width. The beliefs
    // count one row a page, which keeps page-domain selectivities below
    // their clamp at 1 and makes the first join's output a real input to
    // the second; the truth the simulator generates is one page a table.
    let beliefs = catalog(|i| 4 + 2 * i, 1, |i| 4 + i);
    let truth = catalog(|_| 1, PAGE_CAPACITY as u64, |i| 4 + i);
    let mut oracle = Oracle::new(beliefs, truth, config(64, 0.01, 2));
    let pairs: Vec<QueryRequest> = (0..4).map(|t| chain(&[t, t + 1, t + 2], &[])).collect();
    let mut picks = Picks(3);
    for _ in 0..300 {
        let request = &pairs[picks.next(pairs.len())];
        oracle.serve(request);
    }
    assert!(
        oracle.svc.resamples() > 10,
        "{} resamples",
        oracle.svc.resamples()
    );
    assert!(
        oracle.interval_moves > 0,
        "no serve moved its interval box alone ({} certified)",
        oracle.certified
    );
}

#[test]
fn migrations_serve_fresh_certificates() {
    let cat = standard();
    let mut cfg = config(64, 0.5, 3);
    cfg.reoptimize_cost = f64::INFINITY;
    let mut oracle = Oracle::new(cat.clone(), cat, cfg);
    let classes = classes();
    let mut picks = Picks(11);
    let mut hot = [false; 4];
    let mut migrated = 0;
    for i in 0..400 {
        if i > 0 && i % 40 == 0 {
            let t = (i / 40) % 4;
            hot[t] = !hot[t];
            let profile = if hot[t] { &HOT } else { &UNIFORM };
            set_profile(oracle.svc.truth_mut(), t, profile);
        }
        let served = oracle.serve(&classes[picks.next(classes.len())]);
        for r in &served.recalibrations {
            assert_eq!(r.decision, RecalibrationDecision::RecostOnly);
            migrated += r.entries_migrated;
        }
    }
    assert!(migrated > 0, "the stream must migrate entries");
}

#[test]
fn fault_injected_ladder_rungs_serve_fresh_certificates() {
    let cat = standard();
    let mut cfg = config(64, 0.5, 3);
    cfg.fault_injection = FaultInjection::every(5, FaultKind::IoError);
    let mut oracle = Oracle::new(cat.clone(), cat, cfg);
    let classes = classes();
    let mut picks = Picks(5);
    let (mut degraded, mut tripped) = (0, 0);
    for _ in 0..300 {
        let served = oracle.serve(&classes[picks.next(classes.len())]);
        degraded += usize::from(served.resilience.degraded);
        tripped += usize::from(served.resilience.breaker_tripped);
    }
    assert!(
        degraded > 0 && tripped > 0,
        "{degraded} degraded, {tripped} tripped"
    );
    assert!(
        oracle.plan_moves > 0,
        "no serve moved its plan alone ({} certified)",
        oracle.certified
    );
}

#[test]
fn isomorphic_permuted_requests_serve_fresh_certificates() {
    let cat = standard();
    let mut oracle = Oracle::new(cat.clone(), cat, config(64, 0.5, 3));
    let classes: Vec<QueryRequest> = classes()
        .into_iter()
        .flat_map(|r| {
            let p = permuted(&r);
            assert_ne!(p, r);
            [r, p]
        })
        .collect();
    drifting_stream(&mut oracle, &classes, 400, 50);
    assert!(oracle.svc.resamples() > 0);
}

#[test]
fn ten_times_capacity_distinct_requests_keep_the_memo_bounded() {
    let cat = standard();
    let capacity = 4;
    let mut cfg = config(capacity, 0.5, 3);
    cfg.cache_shards = 1;
    let mut oracle = Oracle::new(cat.clone(), cat, cfg);
    let requests: Vec<QueryRequest> = (0..10 * capacity)
        .map(|i| chain(&[i % 3, i % 3 + 1], &[(i % 3, 20.0 + i as f64)]))
        .collect();
    for request in requests.iter().chain(&requests) {
        oracle.serve(request);
    }
    assert_eq!(oracle.svc.certificate_memo_len(), capacity);
    // The most recent requests are still memoized; the first was evicted
    // long ago and recertifies.
    oracle.serve(&requests[0]);
    assert_eq!(oracle.svc.certificate_memo_len(), capacity);
}
