//! The three workloads, their closed loops, the output checks, and the
//! metrics one run reports.
//!
//! A run is a sequence of **rounds**. Each round builds a fresh service
//! from the seeded catalogs (set-up), serves a warm-up pass, then serves
//! the workload's fixed measured stream. Rounds repeat until the run's time
//! is up, so every round serves identical inputs: the deterministic metrics
//! are taken from the first round and every later round must reproduce
//! them, and memory stays bounded by one round's footprint.
//!
//! **Latency** is caller-side on every path: the time from when the caller
//! hands a request to the library until the caller holds its result. A
//! batch handed to `ConcurrentServer::serve_stream_collect` is handed over
//! and returned as a whole, so each of its requests has the batch's
//! latency.

use crate::measure::{
    host_factor, min_samples, peak_rss_mib, percentile, reference_kernel, Slices,
};
use crate::replay::{summarize, Mirror, Tracer};
use crate::workload::{self, Profile, Shape, Spec};
use lec_catalog::Catalog;
use lec_core::parametric::ParametricPlans;
use lec_cost::PaperCostModel;
use lec_serve::{
    ConcurrencyConfig, ConcurrentServer, QueryRequest, QueryService, ResampleConfig, ServeConfig,
    ServedQuery,
};
use lec_stats::Distribution;
use lec_workload::from_catalog::query_from_catalog;
use std::time::{Duration, Instant};

/// How the client drives the service.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// One client calling `QueryService::serve` and waiting for each reply.
    Sequential,
    /// One client handing `batch` requests at a time to a
    /// `ConcurrentServer` of `workers` workers (batch window = `batch`) and
    /// waiting for the whole batch.
    Batched { workers: usize, batch: usize },
}

/// One workload: inputs, loop and service configuration.
pub struct Workload {
    pub name: &'static str,
    pub spec: Spec,
    pub lp: Loop,
    pub cache_capacity: usize,
    pub cache_shards: usize,
    /// Requests in one round's measured stream.
    pub round_len: usize,
    /// Requests per timed slice of the stream; the reference kernel runs
    /// between slices (a batched loop cuts only between batches).
    pub slice: usize,
    /// Truth swaps every this many measured requests (drifting workloads).
    pub swap_period: Option<usize>,
    /// `ServeConfig::resample` on, with its defaults.
    pub resample: bool,
    /// The working set fits the cache: after warm-up every request must
    /// hit, nothing may recalibrate, and a hit must equal a fresh
    /// optimization.
    pub all_hits: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hot_hits",
        spec: Spec {
            tables: 24,
            classes: 24,
            n: (3, 6),
            shapes: &[Shape::Chain, Shape::Star],
            filter_tables: 24,
            zipf_theta: 1.0,
            balance_shards: 0,
        },
        lp: Loop::Sequential,
        cache_capacity: 64,
        cache_shards: 4,
        round_len: 2000,
        slice: 200,
        swap_period: None,
        resample: false,
        all_hits: true,
    },
    Workload {
        name: "miss_storm",
        spec: Spec {
            tables: 48,
            classes: 512,
            n: (8, 11),
            shapes: &[Shape::Chain, Shape::Star, Shape::Cycle],
            filter_tables: 0,
            zipf_theta: 0.0,
            balance_shards: 4,
        },
        // One worker: the tier's routing, priming, dedup and batch windows
        // all run, on the caller's thread. With two workers each batch
        // spawns two threads that compete with co-tenants for both vCPUs,
        // and no probe run beside the batch tracked that well enough to
        // keep the run-to-run spread of p99_us within its bound.
        lp: Loop::Batched {
            workers: 1,
            batch: 32,
        },
        cache_capacity: 32,
        cache_shards: 4,
        round_len: 1024,
        slice: 32,
        swap_period: None,
        resample: false,
        all_hits: false,
    },
    Workload {
        name: "drift_certify",
        spec: Spec {
            tables: 24,
            classes: 24,
            n: (4, 4),
            shapes: &[Shape::Chain],
            filter_tables: 4,
            zipf_theta: 0.5,
            balance_shards: 0,
        },
        lp: Loop::Sequential,
        cache_capacity: 64,
        cache_shards: 4,
        round_len: 2000,
        slice: 50,
        swap_period: Some(45),
        resample: true,
        all_hits: false,
    },
];

/// Drift threshold of the quiet workloads (mean relative error).
const QUIET_ERROR_THRESHOLD: f64 = 2.0;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The loop with its worker count capped at `nproc`.
    pub fn effective_loop(&self, nproc: usize) -> Loop {
        match self.lp {
            Loop::Batched { workers, batch } => Loop::Batched {
                workers: workers.min(nproc).max(1),
                batch,
            },
            l => l,
        }
    }

    pub fn config(&self) -> ServeConfig {
        let dist = |pts: &[(f64, f64)]| {
            Distribution::new(pts.iter().copied()).expect("memory distributions are valid")
        };
        let mut cfg = ServeConfig::new(
            vec![
                dist(&[(4.0, 0.6), (40.0, 0.4)]),
                dist(&[(16.0, 0.5), (80.0, 0.5)]),
            ],
            dist(&[(8.0, 0.5), (48.0, 0.5)]),
        );
        cfg.cache_capacity = self.cache_capacity;
        cfg.cache_shards = self.cache_shards;
        if self.resample {
            // A window keeps every observation since it last fired, so a
            // long quiet spell dilutes the next shift; a lower threshold
            // keeps each truth swap firing within its period.
            cfg.drift.error_threshold = 0.25;
            cfg.drift.min_observations = 3;
            cfg.resample = Some(ResampleConfig::default());
        } else {
            // Beliefs ≡ truth: any drift event would be the simulator's
            // per-query sampling noise (a small join can realize well over
            // 1.5× its estimated rows). The detector still sees every
            // observation; only estimates off by more than 3× would fire.
            cfg.drift.error_threshold = QUIET_ERROR_THRESHOLD;
        }
        cfg
    }
}

/// The seeded inputs of one run.
struct Inputs {
    catalog: Catalog,
    classes: Vec<QueryRequest>,
    stream: Vec<usize>,
    swaps: Vec<(usize, usize, Profile)>,
}

impl Inputs {
    fn new(w: &Workload, seed: u64) -> Self {
        let catalog = workload::catalog(w.spec.tables, seed);
        let classes = workload::classes(&w.spec, &catalog, seed);
        let stream = workload::stream(&w.spec, w.round_len, seed);
        let swaps = w.swap_period.map_or(Vec::new(), |p| {
            workload::swap_schedule(w.round_len, p, w.spec.filter_tables, seed)
        });
        Inputs {
            catalog,
            classes,
            stream,
            swaps,
        }
    }
}

/// Program counters over one round's measured stream (deltas).
#[derive(Debug, Default, Clone)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    optimizer_invocations: u64,
    candidates_priced: u64,
    masks_expanded: u64,
    dedup_saved: u64,
    primed_consumed: u64,
    windows: u64,
    per_worker: Vec<u64>,
    resamples: u64,
    reoptimize: u64,
    recost: u64,
}

/// What one round measured.
#[derive(Default)]
struct Round {
    /// Set-up time at reference speed.
    setup_ns: u64,
    /// Wall time of the measured stream's slices.
    wall_ns: u64,
    /// The same at reference speed.
    scaled_wall_ns: f64,
    /// Caller-side latencies at reference speed; reduced to `p50_ns` and
    /// `p99_ns` once the round is checked.
    latencies_ns: Vec<u64>,
    p50_ns: u64,
    p99_ns: u64,
    attempted: u64,
    failed: u64,
    /// Served results of the measured stream, in stream order (`None` for
    /// a request that errored); dropped once the round is checked.
    served: Vec<Option<ServedQuery>>,
    figures: Figures,
    counters: Counters,
}

fn counters_of_stats(
    s: &lec_core::OptStats,
    invocations: u64,
    primed: u64,
    per_worker: Vec<u64>,
) -> Counters {
    Counters {
        hits: s.cache.hits,
        misses: s.cache.misses,
        evictions: s.cache.evictions,
        invalidations: s.cache.invalidations,
        optimizer_invocations: invocations,
        candidates_priced: s.counters.candidates_priced,
        masks_expanded: s.counters.masks_expanded,
        primed_consumed: primed,
        per_worker,
        ..Counters::default()
    }
}

fn delta(after: &Counters, before: &Counters) -> Counters {
    Counters {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
        optimizer_invocations: after.optimizer_invocations - before.optimizer_invocations,
        candidates_priced: after.candidates_priced - before.candidates_priced,
        masks_expanded: after.masks_expanded - before.masks_expanded,
        dedup_saved: after.dedup_saved - before.dedup_saved,
        primed_consumed: after.primed_consumed - before.primed_consumed,
        windows: after.windows - before.windows,
        per_worker: after
            .per_worker
            .iter()
            .zip(&before.per_worker)
            .map(|(a, b)| a - b)
            .collect(),
        resamples: after.resamples - before.resamples,
        reoptimize: after.reoptimize - before.reoptimize,
        recost: after.recost - before.recost,
    }
}

fn seq_counters(svc: &QueryService<PaperCostModel>) -> Counters {
    let (reoptimize, recost) = svc.decisions();
    Counters {
        resamples: svc.resamples(),
        reoptimize,
        recost,
        ..counters_of_stats(
            &svc.stats(),
            svc.optimizer_invocations(),
            svc.primed_consumed(),
            vec![svc.queries_served()],
        )
    }
}

fn tier_counters(server: &ConcurrentServer<PaperCostModel>) -> Counters {
    counters_of_stats(
        &server.stats(),
        server.optimizer_invocations(),
        server.primed_consumed(),
        server
            .services()
            .iter()
            .map(QueryService::queries_served)
            .collect(),
    )
}

/// The tracing state of a traced round.
struct Traced<'a> {
    tracer: &'a mut Tracer,
    mirror: Mirror,
}

/// Serves one request and returns it with its caller-side latency in ns.
/// In a traced round the serve is recorded as a `span` span and replayed;
/// a replay that does not reproduce the serve fails the request.
fn serve_one(
    svc: &mut QueryService<PaperCostModel>,
    req: &QueryRequest,
    traced: Option<&mut Traced>,
    span: &'static str,
) -> (Result<ServedQuery, String>, u64) {
    let Some(t) = traced else {
        let clock = Instant::now();
        let served = svc.serve(req).map_err(|e| format!("serve failed: {e}"));
        return (served, clock.elapsed().as_nanos() as u64);
    };
    let before = t.mirror.before(svc, req);
    let ordinal = svc.queries_served();
    let start = t.tracer.now();
    let clock = Instant::now();
    let served = svc.serve(req);
    let latency = clock.elapsed().as_nanos() as u64;
    let served = served
        .map_err(|e| format!("serve failed: {e}"))
        .and_then(|s| {
            let id = t.tracer.record(span, start, t.tracer.now(), ordinal);
            t.mirror
                .replay_serve(t.tracer, id, ordinal, req, &s, &before, svc)
                .map(|()| s)
                .map_err(|e| format!("replay: {e}"))
        });
    (served, latency)
}

fn sequential_round(
    w: &Workload,
    inp: &Inputs,
    mut traced: Option<&mut Traced>,
    problems: &mut Vec<String>,
) -> Round {
    let mut round = Round::default();
    let kernel = reference_kernel();
    let setup = Instant::now();
    let mut svc = QueryService::new(
        PaperCostModel,
        inp.catalog.clone(),
        inp.catalog.clone(),
        w.config(),
    )
    .expect("workload configs are valid");
    // Warm-up: every class once, in class order.
    for req in &inp.classes {
        let (served, _) = serve_one(&mut svc, req, traced.as_deref_mut(), "warmup");
        if let Err(e) = served {
            problems.push(format!("warm-up: {e}"));
        }
    }
    let setup_ns = setup.elapsed().as_nanos() as u64;

    let c0 = seq_counters(&svc);
    let mut swaps = inp.swaps.iter().peekable();
    let mut slices = Slices::start();
    round.setup_ns = scaled(setup_ns, host_factor(kernel, slices.first_kernel()));
    for (i, &class) in inp.stream.iter().enumerate() {
        while let Some(&&(at, table, profile)) = swaps.peek() {
            if at != i {
                break;
            }
            workload::set_profile(svc.truth_mut(), table, &profile);
            swaps.next();
        }
        let (served, latency) = serve_one(
            &mut svc,
            &inp.classes[class],
            traced.as_deref_mut(),
            "serve",
        );
        round.latencies_ns.push(latency);
        round.attempted += 1;
        match served {
            Ok(s) => round.served.push(Some(s)),
            Err(e) => {
                round.failed += 1;
                problems.push(e);
                round.served.push(None);
            }
        }
        cut_slice(
            &mut slices,
            w.slice,
            round.latencies_ns.len(),
            inp.stream.len(),
        );
    }
    (round.wall_ns, round.scaled_wall_ns) = slices.scale(&mut round.latencies_ns);
    round.counters = delta(&seq_counters(&svc), &c0);
    round.failed += check_round(w, inp, svc.beliefs(), &round, problems);
    if w.all_hits {
        check_all_hits(w, inp, &svc, &round, problems);
    }
    if w.resample && (round.counters.resamples == 0 || svc.recalibrations() == 0) {
        problems.push("a drifting round did not both recalibrate and resample".into());
    }
    round
}

fn batched_round(
    w: &Workload,
    inp: &Inputs,
    workers: usize,
    batch: usize,
    mut traced: Option<&mut Traced>,
    problems: &mut Vec<String>,
) -> Round {
    let mut round = Round::default();
    let requests = |chunk: &[usize]| -> Vec<QueryRequest> {
        chunk.iter().map(|&c| inp.classes[c].clone()).collect()
    };
    let kernel = reference_kernel();
    let setup = Instant::now();
    let mut server = ConcurrentServer::new(
        PaperCostModel,
        inp.catalog.clone(),
        inp.catalog.clone(),
        w.config(),
        ConcurrencyConfig {
            workers,
            batch_window: batch,
        },
    )
    .expect("workload configs are valid");
    // Warm-up: the stream's first batch, once.
    let warm = &inp.stream[..batch.min(inp.stream.len())];
    match server.serve_stream_collect(&requests(warm)) {
        Ok((_, served)) => {
            if let Some(t) = traced.as_mut() {
                let now = t.tracer.now();
                let id = t.tracer.record("warmup", now, now, 0);
                let pairs: Vec<(usize, &QueryRequest)> =
                    warm.iter().map(|&c| (c, &inp.classes[c])).collect();
                if let Err(e) = t
                    .mirror
                    .replay_batch(t.tracer, id, &pairs, &served, &inp.catalog)
                {
                    problems.push(format!("warm-up replay: {e}"));
                }
            }
        }
        Err(e) => problems.push(format!("warm-up batch failed: {e}")),
    }
    let setup_ns = setup.elapsed().as_nanos() as u64;

    let c0 = tier_counters(&server);
    let mut slices = Slices::start();
    round.setup_ns = scaled(setup_ns, host_factor(kernel, slices.first_kernel()));
    for chunk in inp.stream.chunks(batch) {
        let reqs = requests(chunk);
        let trace_start = traced.as_ref().map(|t| t.tracer.now());
        let t = Instant::now();
        let result = server.serve_stream_collect(&reqs);
        let latency = t.elapsed().as_nanos() as u64;
        round
            .latencies_ns
            .extend(std::iter::repeat_n(latency, chunk.len()));
        round.attempted += chunk.len() as u64;
        match result {
            Ok((outcome, served)) => {
                round.counters.dedup_saved += outcome.dedup_saved;
                round.counters.windows += outcome.windows;
                if outcome.recalibrations > 0 {
                    problems.push("a quiet batch recalibrated".into());
                }
                if let (Some(t), Some(start)) = (traced.as_mut(), trace_start) {
                    let end = t.tracer.now();
                    let id = t.tracer.record("serve", start, end, 0);
                    let pairs: Vec<(usize, &QueryRequest)> =
                        chunk.iter().map(|&c| (c, &inp.classes[c])).collect();
                    if let Err(e) =
                        t.mirror
                            .replay_batch(t.tracer, id, &pairs, &served, &inp.catalog)
                    {
                        round.failed += chunk.len() as u64;
                        problems.push(format!("replay: {e}"));
                    }
                }
                round.served.extend(served.into_iter().map(Some));
            }
            Err(e) => {
                round.failed += chunk.len() as u64;
                problems.push(format!("batch failed: {e}"));
                round.served.extend(chunk.iter().map(|_| None));
            }
        }
        cut_slice(
            &mut slices,
            w.slice,
            round.latencies_ns.len(),
            inp.stream.len(),
        );
    }
    (round.wall_ns, round.scaled_wall_ns) = slices.scale(&mut round.latencies_ns);
    let (dedup, windows) = (round.counters.dedup_saved, round.counters.windows);
    round.counters = Counters {
        dedup_saved: dedup,
        windows,
        ..delta(&tier_counters(&server), &c0)
    };
    round.failed += check_round(w, inp, &inp.catalog, &round, problems);
    round
}

/// A duration at reference speed.
fn scaled(ns: u64, factor: f64) -> u64 {
    (ns as f64 * factor).round() as u64
}

/// Ends the current slice when `done` of the stream's `len` requests have
/// been served and `done` is a multiple of `slice`, or the last request.
fn cut_slice(slices: &mut Slices, slice: usize, done: usize, len: usize) {
    if done % slice == 0 || done == len {
        slices.cut(done);
    }
}

/// Per-request output checks shared by every workload; returns the number
/// of requests that failed them. Plans are verified against their request's
/// query built from `beliefs` (the verifier checks structure, which no
/// recalibration changes).
fn check_round(
    w: &Workload,
    inp: &Inputs,
    beliefs: &Catalog,
    round: &Round,
    problems: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for (&class, served) in inp.stream.iter().zip(&round.served) {
        let Some(s) = served else { continue };
        let req = &inp.classes[class];
        let tables: Vec<&str> = req.tables.iter().map(String::as_str).collect();
        let verdict = query_from_catalog(beliefs, &tables, &req.joins, &req.filters, req.order_by)
            .map_err(|e| e.to_string())
            .and_then(|q| lec_plan::verify_plan(&s.plan, &q).map_err(|e| e.to_string()))
            .and_then(|()| {
                if s.expected_cost.is_finite() && s.expected_cost > 0.0 {
                    Ok(())
                } else {
                    Err(format!("expected cost {}", s.expected_cost))
                }
            })
            .and_then(|()| {
                if !w.resample {
                    return Ok(());
                }
                match &s.certificate {
                    Some(c) if c.epsilon.is_finite() && c.epsilon >= 0.0 => Ok(()),
                    Some(c) => Err(format!("certificate epsilon {}", c.epsilon)),
                    None => Err("no certificate".into()),
                }
            });
        if let Err(e) = verdict {
            failed += 1;
            problems.push(format!("output check: {e}"));
        }
    }
    failed
}

/// A workload whose working set fits the cache never misses after warm-up
/// and never recalibrates, and a seeded sample of its hits must equal a
/// fresh precompute + pick.
fn check_all_hits(
    w: &Workload,
    inp: &Inputs,
    svc: &QueryService<PaperCostModel>,
    round: &Round,
    problems: &mut Vec<String>,
) {
    if svc.recalibrations() != 0 {
        problems.push("the stream recalibrated".into());
    }
    if round.counters.misses != 0 {
        problems.push("a measured request missed the cache".into());
    }
    let cfg = w.config();
    let stride = (inp.stream.len() / 8).max(1);
    for (i, (&class, served)) in inp.stream.iter().zip(&round.served).enumerate() {
        let Some(s) = served else { continue };
        if i % stride != inp.stream[0] % stride || !s.cache_hit {
            continue;
        }
        let req = &inp.classes[class];
        let tables: Vec<&str> = req.tables.iter().map(String::as_str).collect();
        let fresh = query_from_catalog(svc.beliefs(), &tables, &req.joins, &req.filters, None)
            .map_err(|e| e.to_string())
            .and_then(|q| {
                let canon = lec_plan::canonicalize(&q);
                ParametricPlans::precompute(&canon.query, &PaperCostModel, &cfg.scenarios)
                    .and_then(|p| {
                        p.pick_with_rule(
                            &canon.query,
                            &PaperCostModel,
                            &cfg.observed_memory,
                            &cfg.selection_rule,
                        )
                    })
                    .map(|c| (canon.plan_to_original(&c.plan), c.expected_cost))
                    .map_err(|e| e.to_string())
            });
        match fresh {
            Ok((plan, cost)) if plan == s.plan && cost.to_bits() == s.expected_cost.to_bits() => {}
            Ok(_) => problems.push(format!("hit {i} differs from a fresh optimization")),
            Err(e) => problems.push(format!("fresh optimization failed: {e}")),
        }
    }
}

/// `miss_storm`'s served plans, costs and I/O must match a 1-worker,
/// window-1 tier on a prefix of the stream, batched the same way.
fn check_reference(
    w: &Workload,
    inp: &Inputs,
    batch: usize,
    round: &Round,
    problems: &mut Vec<String>,
) {
    const PREFIX_BATCHES: usize = 2;
    let mut reference = ConcurrentServer::new(
        PaperCostModel,
        inp.catalog.clone(),
        inp.catalog.clone(),
        w.config(),
        ConcurrencyConfig::default(),
    )
    .expect("workload configs are valid");
    for (b, chunk) in inp.stream.chunks(batch).take(PREFIX_BATCHES).enumerate() {
        let reqs: Vec<QueryRequest> = chunk.iter().map(|&c| inp.classes[c].clone()).collect();
        let served = match reference.serve_stream_collect(&reqs) {
            Ok((_, served)) => served,
            Err(e) => {
                problems.push(format!("reference tier failed: {e}"));
                return;
            }
        };
        for (i, r) in served.iter().enumerate() {
            let same = round.served[b * batch + i].as_ref().is_some_and(|s| {
                s.plan == r.plan
                    && s.expected_cost.to_bits() == r.expected_cost.to_bits()
                    && s.report.total == r.report.total
            });
            if !same {
                problems.push(format!(
                    "request {} differs from the 1-worker reference",
                    b * batch + i
                ));
            }
        }
    }
}

/// The deterministic figures of one round's served results.
#[derive(Default, PartialEq)]
struct Figures {
    /// Total realized page I/O.
    io: u64,
    /// Summed expected cost.
    cost: f64,
    /// Certificate epsilons, in stream order.
    eps: Vec<f64>,
    /// Total execution phases.
    phases: u64,
    /// Recalibration rounds triggered.
    events: u64,
}

impl Figures {
    fn of(served: &[Option<ServedQuery>]) -> Self {
        let served = served.iter().flatten();
        Figures {
            io: served.clone().map(|s| s.report.total.total()).sum(),
            cost: served.clone().map(|s| s.expected_cost).sum(),
            eps: served
                .clone()
                .filter_map(|s| s.certificate.as_ref().map(|c| c.epsilon))
                .collect(),
            phases: served.clone().map(|s| s.report.phases.len() as u64).sum(),
            events: served.map(|s| s.recalibrations.len() as u64).sum(),
        }
    }

    /// Nearest-rank median of the certificate epsilons.
    fn eps_p50(&self) -> Option<f64> {
        let mut e = self.eps.clone();
        e.sort_by(f64::total_cmp);
        e.get(crate::measure::rank(e.len(), 50).saturating_sub(1))
            .copied()
    }

    /// Bit-for-bit equality (the summed cost compared by its bits).
    fn same(&self, other: &Figures) -> bool {
        self.io == other.io
            && self.cost.to_bits() == other.cost.to_bits()
            && self
                .eps
                .iter()
                .map(|e| e.to_bits())
                .eq(other.eps.iter().map(|e| e.to_bits()))
            && self.phases == other.phases
            && self.events == other.events
    }
}

/// One metric as reported: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (sample counts, error rate, caveats).
    pub notes: Vec<String>,
}

/// One round, checked; its served results are reduced to [`Figures`] so
/// memory stays bounded by a single round. The first round of a batched
/// workload is also checked against the 1-worker reference.
fn run_round(
    w: &Workload,
    inp: &Inputs,
    lp: Loop,
    first: bool,
    traced: Option<&mut Traced>,
    problems: &mut Vec<String>,
) -> Round {
    let mut round = match lp {
        Loop::Sequential => sequential_round(w, inp, traced, problems),
        Loop::Batched { workers, batch } => {
            let round = batched_round(w, inp, workers, batch, traced, problems);
            if first {
                check_reference(w, inp, batch, &round, problems);
            }
            round
        }
    };
    round.figures = Figures::of(&round.served);
    round.served = Vec::new();
    let mut lat = std::mem::take(&mut round.latencies_ns);
    lat.sort_unstable();
    if lat.len() < min_samples(99) {
        problems.push(format!("only {} latency samples in a round", lat.len()));
    }
    round.p50_ns = percentile(&lat, 50).unwrap_or(0);
    round.p99_ns = percentile(&lat, 99).unwrap_or(0);
    round
}

/// Runs `w` for about `seconds`: untraced rounds when `trace_out` is
/// `None`, otherwise alternating untraced and traced rounds, with the
/// spans written to `trace_out` at the end.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    nproc: usize,
    trace_out: Option<&std::path::Path>,
) -> Report {
    const MIN_ROUNDS: usize = 5;
    const HARD_STOP: Duration = Duration::from_secs(150);
    let inp = Inputs::new(w, seed);
    let lp = w.effective_loop(nproc);
    let mut problems = Vec::new();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut tracer = Tracer::new();
    // Every round serves identical inputs, so every round must reproduce
    // the first one's deterministic figures bit for bit. Only the first
    // untraced round keeps its figures, so memory does not grow with the
    // number of rounds.
    let mut first: Option<Figures> = None;
    let mut reproduced = true;
    let start = Instant::now();
    loop {
        let mut round = run_round(w, &inp, lp, plain.is_empty(), None, &mut problems);
        let figures = std::mem::take(&mut round.figures);
        match &first {
            Some(f) => reproduced &= figures.same(f),
            None => first = Some(figures),
        }
        plain.push(round);
        if trace_out.is_some() {
            let workers = match lp {
                Loop::Batched { workers, .. } => workers,
                Loop::Sequential => 1,
            };
            let mut t = Traced {
                tracer: &mut tracer,
                mirror: Mirror::new(&w.config(), &inp.catalog, &inp.catalog, workers),
            };
            let round = run_round(w, &inp, lp, false, Some(&mut t), &mut problems);
            reproduced &= first.as_ref().is_some_and(|f| round.figures.same(f));
            traced_rounds.push(round);
        }
        let elapsed = start.elapsed();
        if elapsed >= HARD_STOP || (elapsed.as_secs_f64() >= seconds && plain.len() >= MIN_ROUNDS) {
            break;
        }
    }

    if !reproduced {
        problems.push("a round did not reproduce the first round's figures".into());
    }
    let first = first.expect("a run has at least one round");

    let attempted: u64 = plain
        .iter()
        .chain(&traced_rounds)
        .map(|r| r.attempted)
        .sum();
    let failed: u64 = plain.iter().chain(&traced_rounds).map(|r| r.failed).sum();
    let per_req = |x: f64| x / plain[0].attempted.max(1) as f64;
    let mut notes = vec![
        format!(
            "error_rate = {:.6} fraction ({failed} failed / {attempted} attempted)",
            failed as f64 / attempted.max(1) as f64
        ),
        format!(
            "rounds = {} untraced, {} traced; {} measured requests per round",
            plain.len(),
            traced_rounds.len(),
            plain[0].attempted
        ),
    ];
    let metrics = match trace_out {
        None => {
            // Every timing is at reference speed (see `Slices`). Latency
            // percentiles and set-up are each round's, and the run reports
            // their median over its rounds; throughput is the run's
            // requests over its summed slice time.
            let median = |f: &dyn Fn(&Round) -> u64| {
                let mut v: Vec<u64> = plain.iter().map(f).collect();
                v.sort_unstable();
                percentile(&v, 50).unwrap_or(0) as f64
            };
            let requests: u64 = plain.iter().map(|r| r.attempted).sum();
            let raw_s = plain.iter().map(|r| r.wall_ns as f64).sum::<f64>() / 1e9;
            let scaled_s = plain.iter().map(|r| r.scaled_wall_ns).sum::<f64>() / 1e9;
            let per_round = inp.stream.len();
            notes.push(format!(
                "timings: at reference speed, host factor {:.3} over the run \
                 (unscaled throughput {:.1} req/s); p50_us and p99_us are the median \
                 over {} rounds of each round's nearest-rank percentile over \
                 {per_round} samples ({} beyond its p99)",
                scaled_s / raw_s,
                requests as f64 / raw_s,
                plain.len(),
                crate::measure::beyond(per_round, 99)
            ));
            notes.push(match first.eps_p50() {
                Some(e) => format!(
                    "cert_eps_p50 = {e} ratio over {} certificates",
                    first.eps.len()
                ),
                None => "cert_eps_p50: no certificates served on this workload".into(),
            });
            vec![
                ("throughput_rps", requests as f64 / scaled_s, "req/s"),
                ("p50_us", median(&|r| r.p50_ns) / 1e3, "us"),
                ("p99_us", median(&|r| r.p99_ns) / 1e3, "us"),
                ("setup_s", median(&|r| r.setup_ns) / 1e9, "s"),
                ("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB"),
                ("exec_io_per_req", per_req(first.io as f64), "pages"),
                ("expected_cost_per_req", per_req(first.cost), "cost"),
            ]
        }
        Some(path) => {
            if let Err(e) = tracer.write_csv(path) {
                problems.push(format!("writing the trace: {e}"));
            }
            layer_metrics(&tracer, &plain, &traced_rounds, &mut problems)
        }
    };
    Report {
        attempted,
        failed,
        problems,
        metrics,
        notes,
    }
}

/// The per-layer metrics of a traced run: replayed layer time per request,
/// the program's own counters per request, and the trace's own quality.
fn layer_metrics(
    tracer: &Tracer,
    plain: &[Round],
    traced: &[Round],
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let sum = summarize(&tracer.spans);
    let n: u64 = traced.iter().map(|r| r.attempted).sum();
    let per = |x: f64| x / n.max(1) as f64;
    let us = |name: &str| per(sum.layers.get(name).map_or(0, |l| l.0) as f64 / 1e3);
    // Traced rounds serve identical inputs and the program's counters are
    // deterministic, so one round's counters and figures speak for all.
    let (c, f) = (&traced[0].counters, &traced[0].figures);
    let round_per = |x: u64| x as f64 / traced[0].attempted.max(1) as f64;
    // The replay must have redone exactly the optimizer work the program
    // did on the measured streams.
    let program_runs: u64 = traced
        .iter()
        .map(|r| r.counters.optimizer_invocations)
        .sum();
    let replay_measured = sum.layers.get("core.optimize").map_or(0, |l| l.1);
    if replay_measured != program_runs {
        problems.push(format!(
            "replayed {replay_measured} optimizer runs where the program made {program_runs}"
        ));
    }
    let skew = {
        let max = c.per_worker.iter().copied().max().unwrap_or(1);
        let min = c.per_worker.iter().copied().min().unwrap_or(1).max(1);
        max as f64 / min as f64
    };
    let untraced_per_req: f64 = plain.iter().map(|r| r.wall_ns as f64).sum::<f64>()
        / plain.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64;
    let overhead = per(sum.serve_ns as f64) / untraced_per_req;
    let coverage = sum.covered_ns as f64 / sum.serve_ns.max(1) as f64;
    let lookups = (c.hits + c.misses).max(1) as f64;
    vec![
        (
            "workload.build_query.us",
            us("workload.build_query"),
            "us/req",
        ),
        ("plan.canonicalize.us", us("plan.canonicalize"), "us/req"),
        ("plan.verify.us", us("plan.verify"), "us/req"),
        ("core.pick.us", us("core.pick"), "us/req"),
        ("exec.execute.us", us("exec.execute"), "us/req"),
        (
            "serve.drift.observe.us",
            us("serve.drift.observe"),
            "us/req",
        ),
        ("core.optimize.us", us("core.optimize"), "us/req"),
        (
            "core.optimize.calls",
            round_per(c.optimizer_invocations),
            "1/req",
        ),
        (
            "core.optimize.candidates_priced",
            round_per(c.candidates_priced),
            "1/req",
        ),
        (
            "core.optimize.masks_expanded",
            round_per(c.masks_expanded),
            "1/req",
        ),
        ("core.precompute.us", us("core.precompute"), "us/req"),
        ("serve.cache.hit_rate", c.hits as f64 / lookups, "fraction"),
        ("serve.cache.evictions", round_per(c.evictions), "1/req"),
        (
            "serve.cache.invalidations",
            round_per(c.invalidations),
            "1/req",
        ),
        (
            "serve.concurrent.dedup_saved",
            round_per(c.dedup_saved),
            "1/req",
        ),
        (
            "serve.concurrent.primed_consumed",
            round_per(c.primed_consumed),
            "1/req",
        ),
        ("serve.concurrent.windows", round_per(c.windows), "1/req"),
        ("serve.concurrent.worker_skew", skew, "ratio"),
        ("core.certify.us", us("core.certify"), "us/req"),
        ("core.certify.calls", round_per(f.eps.len() as u64), "1/req"),
        ("core.certify.eps_p50", f.eps_p50().unwrap_or(0.0), "ratio"),
        ("catalog.sample.us", us("catalog.sample"), "us/req"),
        ("serve.resamples", round_per(c.resamples), "1/req"),
        ("core.voi.us", us("core.voi"), "us/req"),
        (
            "serve.recalibrate.reoptimize",
            round_per(c.reoptimize),
            "1/req",
        ),
        ("serve.recalibrate.recost", round_per(c.recost), "1/req"),
        ("serve.drift.events", round_per(f.events), "1/req"),
        ("exec.io_pages", round_per(f.io), "pages/req"),
        ("exec.phases", round_per(f.phases), "1/req"),
        (
            "serve.overhead.us",
            per((sum.serve_ns - sum.covered_ns) as f64 / 1e3),
            "us/req",
        ),
        ("trace.coverage", coverage, "ratio"),
        ("trace.overhead", overhead, "ratio"),
    ]
}
