//! The traced run: spans recorded from the benchmark's own code around
//! calls into each layer's public function, on the same inputs the service
//! used.
//!
//! The program is not instrumented. Right after each serve call (the
//! parent span), a [`Mirror`] of the service's public state replays the
//! request layer by layer: a plan cache fed the same lookups, a drift
//! detector fed the same observations, a disk generated from the same seed,
//! and a beliefs snapshot refreshed whenever `beliefs_version()` moves. Each
//! replayed call is a child span of the serve it replays. The replay must
//! reproduce the served plan, the bits of its expected cost, its I/O and,
//! when certification is on, its certificate; any difference fails the
//! request. Sampling seeds are internal to the service, so replayed samples
//! only have to match in draw count.

use crate::measure::{lay_out, self_time};
use lec_catalog::sampling::{SampleConfig, SampleEstimator, StatInterval};
use lec_catalog::{Catalog, Predicate};
use lec_core::alg_d::SizeModel;
use lec_core::certificate::{certify_plan, QueryIntervals};
use lec_core::parametric::ParametricPlans;
use lec_core::{voi, MemoryModel, Optimized, QueryTables};
use lec_cost::PaperCostModel;
use lec_exec::datagen::{generate, DataGenSpec};
use lec_exec::{execute_plan_with_faults, Disk, ExecFeedback, ExecMemoryEnv, FaultSchedule, RelId};
use lec_plan::{canonicalize, Canonical, JoinQuery, Plan};
use lec_serve::cache::shard_of;
use lec_serve::{
    DriftDetector, DriftEvent, DriftTarget, PlanCache, QueryRequest, QueryService,
    RecalibrationDecision, ServeConfig, ServedQuery,
};
use lec_stats::Distribution;
use lec_workload::from_catalog::query_from_catalog;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// One timed interval. `parent` is the serve span a replayed span belongs
/// to; `request` is the request's ordinal in its serve call; `lane` is the
/// thread of control it stands for (0 the caller, `1 + w` worker `w`).
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub lane: usize,
}

/// Where a replayed span hangs in the trace.
#[derive(Clone, Copy)]
pub struct At {
    pub parent: usize,
    pub request: u64,
    pub lane: usize,
}

/// Spans kept in memory for the whole run, written out at its end.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a serve call as a root span; returns its id, the parent of
    /// the spans that replay it.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, request: u64) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: None,
            request,
            lane: 0,
        });
        self.spans.len() - 1
    }

    fn time<T>(&mut self, name: &'static str, at: At, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = black_box(f());
        let end = self.now();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(at.parent),
            request: at.request,
            lane: at.lane,
        });
        out
    }

    /// Writes every span as one CSV line.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span,parent,request,lane,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{i},{parent},{},{},{},{},{}",
                s.request, s.lane, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Per-layer totals over every span named `serve` and its replayed
/// children.
#[derive(Default)]
pub struct Summary {
    /// Replayed nanoseconds and call count, by span name.
    pub layers: BTreeMap<&'static str, (u64, u64)>,
    /// Total duration of the serve spans.
    pub serve_ns: u64,
    /// The part of it the replayed children cover (laid onto each serve
    /// span's clock by [`lay_out`]).
    pub covered_ns: u64,
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut sum = Summary::default();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == "serve") {
        let kids: Vec<(usize, u64)> = children[i]
            .iter()
            .map(|&k| (spans[k].lane, spans[k].end - spans[k].start))
            .collect();
        let own = self_time((s.start, s.end), &lay_out(s.start, &kids));
        sum.serve_ns += s.end - s.start;
        sum.covered_ns += s.end - s.start - own;
        for &k in &children[i] {
            let e = sum.layers.entry(spans[k].name).or_default();
            e.0 += spans[k].end - spans[k].start;
            e.1 += 1;
        }
    }
    sum
}

/// A cache entry as the service keeps one: a representative request, its
/// canonical form, the plans, and the tables it depends on.
#[derive(Clone)]
struct Entry {
    request: QueryRequest,
    canon: Canonical,
    plans: Arc<ParametricPlans>,
    tables: Vec<String>,
}

/// Public service state captured just before a serve.
pub struct Before {
    /// The certification targets of the request and their intervals.
    intervals: Vec<(DriftTarget, Predicate, Option<StatInterval>)>,
    resamples: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn build(beliefs: &Catalog, req: &QueryRequest) -> Result<JoinQuery, String> {
    let tables: Vec<&str> = req.tables.iter().map(String::as_str).collect();
    query_from_catalog(beliefs, &tables, &req.joins, &req.filters, req.order_by).map_err(err)
}

fn join_target(j: &lec_workload::from_catalog::JoinSpec) -> (DriftTarget, Predicate) {
    (
        DriftTarget::Join {
            left_table: j.left_table.clone(),
            left_column: j.left_column.clone(),
            right_table: j.right_table.clone(),
            right_column: j.right_column.clone(),
        },
        Predicate::EquiJoin {
            left_table: j.left_table.clone(),
            left_column: j.left_column.clone(),
            right_table: j.right_table.clone(),
            right_column: j.right_column.clone(),
        },
    )
}

/// The single filter of relation `idx`, if it has exactly one.
fn only_filter(req: &QueryRequest, idx: usize) -> Option<&lec_workload::from_catalog::FilterSpec> {
    let mut it = req.filters.iter().filter(|f| f.table == req.tables[idx]);
    match (it.next(), it.next()) {
        (Some(f), None) => Some(f),
        _ => None,
    }
}

fn range(f: &lec_workload::from_catalog::FilterSpec) -> Predicate {
    Predicate::Range {
        table: f.table.clone(),
        column: f.column.clone(),
        lo: f.lo,
        hi: f.hi,
    }
}

/// Row-domain join selectivity → the page domain the query's predicates
/// live in.
fn to_pages(beliefs: &Catalog, j: &DriftTarget, s: f64) -> Result<f64, String> {
    let DriftTarget::Join {
        left_table,
        right_table,
        ..
    } = j
    else {
        return Err("not a join target".into());
    };
    let (lt, rt) = (
        beliefs.table(left_table).map_err(err)?,
        beliefs.table(right_table).map_err(err)?,
    );
    let tpp_out = lt.tuples_per_page().max(rt.tuples_per_page());
    Ok((s * lt.tuples_per_page() * rt.tuples_per_page() / tpp_out).clamp(1e-12, 1.0))
}

/// The replaying mirror of one service (or of each worker of a concurrent
/// tier: one cache and one drift detector per worker).
pub struct Mirror {
    model: PaperCostModel,
    config: ServeConfig,
    caches: Vec<PlanCache<Entry>>,
    detectors: Vec<DriftDetector>,
    disk: Disk,
    rels: BTreeMap<String, RelId>,
    beliefs: Catalog,
    version: u64,
    sample_seed: u64,
}

impl Mirror {
    pub fn new(config: &ServeConfig, beliefs: &Catalog, truth: &Catalog, workers: usize) -> Self {
        // The data the service generates: one relation per truth table, in
        // name order, keyed on the first column's domain, from `exec_seed`.
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(config.exec_seed);
        let mut rels = BTreeMap::new();
        for meta in truth.iter() {
            let key_domain = meta
                .columns
                .first()
                .map(|c| c.distinct.max(1))
                .unwrap_or(meta.rows.max(1));
            let spec = DataGenSpec {
                pages: meta.pages as usize,
                key_domain,
            };
            rels.insert(meta.name.clone(), generate(&mut disk, &mut rng, &spec));
        }
        Mirror {
            model: PaperCostModel,
            config: config.clone(),
            caches: (0..workers)
                .map(|_| PlanCache::new(config.cache_shards, config.cache_capacity))
                .collect(),
            detectors: (0..workers)
                .map(|_| DriftDetector::new(config.drift))
                .collect(),
            disk,
            rels,
            beliefs: beliefs.clone(),
            version: 0,
            sample_seed: 0,
        }
    }

    /// Captures what a sequential replay needs from before the serve: the
    /// beliefs (re-snapshotted when their version moved) and the intervals
    /// the certificate will be built from.
    pub fn before(&mut self, svc: &QueryService<PaperCostModel>, req: &QueryRequest) -> Before {
        if svc.beliefs_version() != self.version {
            self.beliefs = svc.beliefs().clone();
            self.version = svc.beliefs_version();
        }
        let mut intervals = Vec::new();
        if self.config.resample.is_some() {
            for idx in 0..req.tables.len() {
                if let Some(f) = only_filter(req, idx) {
                    let t = DriftTarget::Selection {
                        table: f.table.clone(),
                        column: f.column.clone(),
                    };
                    let iv = svc.stat_interval(&t);
                    intervals.push((t, range(f), iv));
                }
            }
            for j in &req.joins {
                let (t, p) = join_target(j);
                let iv = svc.stat_interval(&t);
                intervals.push((t, p, iv));
            }
        }
        Before {
            intervals,
            resamples: svc.resamples(),
        }
    }

    fn optimize(
        &mut self,
        tr: &mut Tracer,
        at: At,
        canon: &Canonical,
    ) -> Result<Arc<ParametricPlans>, String> {
        let (plans, _) = tr
            .time("core.optimize", at, || {
                ParametricPlans::precompute_with_stats(
                    &canon.query,
                    &self.model,
                    &self.config.scenarios,
                )
            })
            .map_err(err)?;
        // The DP builds its per-query tables once per scenario.
        for _ in &self.config.scenarios {
            tr.time("core.precompute", at, || QueryTables::new(&canon.query));
        }
        Ok(Arc::new(plans))
    }

    /// Pick, verify and execute one request exactly as the serve path does,
    /// and check the result against what was served.
    #[allow(clippy::too_many_arguments)]
    fn pick_verify_execute(
        &mut self,
        tr: &mut Tracer,
        at: At,
        req: &QueryRequest,
        query: &JoinQuery,
        canon: &Canonical,
        plans: &ParametricPlans,
        ordinal: u64,
        served: &ServedQuery,
        truth: &Catalog,
    ) -> Result<Plan, String> {
        let (model, cfg) = (&self.model, &self.config);
        let (choice, plan) = tr
            .time("core.pick", at, || {
                plans
                    .pick_with_rule(
                        &canon.query,
                        model,
                        &cfg.observed_memory,
                        &cfg.selection_rule,
                    )
                    .map(|c| {
                        let plan = canon.plan_to_original(&c.plan);
                        (c, plan)
                    })
            })
            .map_err(err)?;
        tr.time("plan.verify", at, || {
            lec_plan::verify_plan(&plan, query).and_then(|()| {
                lec_plan::verify_costs("served expected cost", &[choice.expected_cost])
            })
        })
        .map_err(err)?;
        let report = tr.time("exec.execute", at, || {
            self.execute(req, &plan, ordinal, truth)
        })?;
        if plan != served.plan {
            return Err(format!("replayed plan differs at ordinal {ordinal}"));
        }
        if choice.expected_cost.to_bits() != served.expected_cost.to_bits() {
            return Err(format!(
                "replayed expected cost {} differs from served {} at ordinal {ordinal}",
                choice.expected_cost, served.expected_cost
            ));
        }
        if report.total != served.report.total || report.phases != served.report.phases {
            return Err(format!("replayed I/O differs at ordinal {ordinal}"));
        }
        Ok(plan)
    }

    fn execute(
        &mut self,
        req: &QueryRequest,
        plan: &Plan,
        ordinal: u64,
        truth: &Catalog,
    ) -> Result<lec_exec::ExecReport, String> {
        let base = req
            .tables
            .iter()
            .map(|t| {
                self.rels
                    .get(t)
                    .copied()
                    .ok_or(format!("no data for `{t}`"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut selections = vec![1.0; req.tables.len()];
        for f in &req.filters {
            let idx = req
                .tables
                .iter()
                .position(|t| *t == f.table)
                .ok_or("filter outside the table list")?;
            selections[idx] *= range(f).estimate(truth).map_err(err)?.clamp(1e-9, 1.0);
        }
        let mut env = ExecMemoryEnv::draw_once(
            self.config.observed_memory.clone(),
            self.config.exec_seed.wrapping_add(ordinal),
        );
        let (report, _) = execute_plan_with_faults(
            plan,
            &base,
            &selections,
            &mut self.disk,
            &mut env,
            &mut FaultSchedule::empty(),
        )
        .map_err(err)?;
        Ok(report)
    }

    /// Feeds the execution observations to worker `w`'s detector, as the
    /// service's feedback ingestion does; returns the events fired.
    fn observe(
        &mut self,
        w: usize,
        req: &QueryRequest,
        query: &JoinQuery,
        feedback: &ExecFeedback,
    ) -> Result<Vec<DriftEvent>, String> {
        let mut events = Vec::new();
        for obs in &feedback.selections {
            let table = &req.tables[obs.rel];
            let Some(f) = req.filters.iter().find(|f| f.table == *table) else {
                continue;
            };
            let target = DriftTarget::Selection {
                table: table.clone(),
                column: f.column.clone(),
            };
            let estimated = query.relation(obs.rel).local_selectivity;
            events.extend(self.detectors[w].observe(target, estimated, obs.observed_selectivity()));
        }
        for obs in &feedback.joins {
            if obs.rels.len() != 2 {
                continue;
            }
            let m: Vec<usize> = obs.rels.iter().collect();
            let Some(j) = req.joins.iter().find(|j| {
                let l = req.tables.iter().position(|t| *t == j.left_table);
                let r = req.tables.iter().position(|t| *t == j.right_table);
                matches!((l, r), (Some(l), Some(r)) if (l == m[0] && r == m[1]) || (l == m[1] && r == m[0]))
            }) else {
                continue;
            };
            let (target, pred) = join_target(j);
            let estimated = pred.estimate(&self.beliefs).map_err(err)?;
            events.extend(self.detectors[w].observe(target, estimated, obs.observed_selectivity()));
        }
        Ok(events)
    }

    /// Replays one sequential serve: `before` was captured just before it,
    /// `svc` is the service just after it.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_serve(
        &mut self,
        tr: &mut Tracer,
        serve: usize,
        ordinal: u64,
        req: &QueryRequest,
        served: &ServedQuery,
        before: &Before,
        svc: &QueryService<PaperCostModel>,
    ) -> Result<(), String> {
        let at = At {
            parent: serve,
            request: ordinal,
            lane: 0,
        };
        let query = tr.time("workload.build_query", at, || build(&self.beliefs, req))?;
        let canon = tr.time("plan.canonicalize", at, || canonicalize(&query));
        let cached = self.caches[0].get(&canon.fingerprint);
        if cached.is_some() != served.cache_hit {
            return Err(format!(
                "replayed cache lookup differs at ordinal {ordinal}"
            ));
        }
        let plans = match cached {
            Some(e) => e.plans,
            None => {
                let plans = self.optimize(tr, at, &canon)?;
                let entry = Entry {
                    request: req.clone(),
                    canon: canon.clone(),
                    plans: plans.clone(),
                    tables: sorted_tables(req),
                };
                self.caches[0].insert(&canon.fingerprint, entry);
                plans
            }
        };
        let plan = self.pick_verify_execute(
            tr,
            at,
            req,
            &query,
            &canon,
            &plans,
            ordinal,
            served,
            svc.truth(),
        )?;

        if let Some(rc) = self.config.resample {
            self.replay_certification(tr, at, req, &query, &plan, served, before, svc, rc)?;
        }

        let events = tr.time("serve.drift.observe", at, || {
            self.observe(0, req, &query, &served.feedback)
        })?;
        let fired: Vec<&DriftTarget> = events.iter().map(|e| &e.target).collect();
        let served_fired: Vec<&DriftTarget> = served
            .recalibrations
            .iter()
            .map(|r| &r.event.target)
            .collect();
        if fired != served_fired {
            return Err(format!("replayed drift events differ at ordinal {ordinal}"));
        }

        // Recalibrations: the value-of-information decision, then the cache
        // invalidation and migration it implies, under the new beliefs.
        let post = svc.beliefs();
        for rc in &served.recalibrations {
            let decision = self.decide(tr, at, req, &rc.event, post)?;
            if served.recalibrations.len() == 1 && decision != rc.decision {
                return Err(format!(
                    "replayed VOI decision differs at ordinal {ordinal}"
                ));
            }
            let affected = rc.event.target.tables();
            let mut removed = self.caches[0]
                .invalidate_collect(|e| e.tables.iter().any(|t| affected.contains(&t.as_str())));
            removed.sort_by(|a, b| {
                a.canon
                    .fingerprint
                    .encoding()
                    .cmp(b.canon.fingerprint.encoding())
            });
            if removed.len() != rc.entries_invalidated {
                return Err(format!(
                    "replayed invalidations differ at ordinal {ordinal}"
                ));
            }
            if rc.decision == RecalibrationDecision::RecostOnly {
                let mut migrated = 0;
                for e in removed {
                    migrated += self.migrate(e, post)? as usize;
                }
                if migrated != rc.entries_migrated {
                    return Err(format!("replayed migrations differ at ordinal {ordinal}"));
                }
            }
        }
        Ok(())
    }

    /// The certificate and the sampling behind it: first-touch intervals at
    /// the cheap budget, drift-triggered resamples at the full one.
    #[allow(clippy::too_many_arguments)]
    fn replay_certification(
        &mut self,
        tr: &mut Tracer,
        at: At,
        req: &QueryRequest,
        query: &JoinQuery,
        plan: &Plan,
        served: &ServedQuery,
        before: &Before,
        svc: &QueryService<PaperCostModel>,
        rc: lec_serve::ResampleConfig,
    ) -> Result<(), String> {
        let ordinal = at.request;
        // The interval each statistic was certified under: the one cached
        // before the serve, or the first-touch draw it made.
        let used = |t: &DriftTarget| -> Result<StatInterval, String> {
            before
                .intervals
                .iter()
                .find(|(bt, _, _)| bt == t)
                .and_then(|(_, _, iv)| *iv)
                .or_else(|| svc.stat_interval(t))
                .ok_or(format!(
                    "no interval for a certified statistic at ordinal {ordinal}"
                ))
        };
        let mut delta = 0.0;
        let mut relation_selectivity = Vec::with_capacity(query.n());
        for idx in 0..query.n() {
            let point = query.relation(idx).local_selectivity;
            let Some(f) = only_filter(req, idx).filter(|_| point < 1.0) else {
                relation_selectivity.push((point, point));
                continue;
            };
            let iv = used(&DriftTarget::Selection {
                table: f.table.clone(),
                column: f.column.clone(),
            })?;
            let (lo, hi) = (iv.lo.min(point), iv.hi.max(point));
            if hi > lo {
                delta += iv.delta;
            }
            relation_selectivity.push((lo, hi));
        }
        let mut predicate_selectivity = Vec::with_capacity(req.joins.len());
        for (k, j) in req.joins.iter().enumerate() {
            let point = query.predicates()[k].selectivity;
            let (t, _) = join_target(j);
            let iv = used(&t)?;
            let (lo, hi) = (
                to_pages(&self.beliefs, &t, iv.lo)?.min(point),
                to_pages(&self.beliefs, &t, iv.hi)?.max(point),
            );
            if hi > lo {
                delta += iv.delta;
            }
            predicate_selectivity.push((lo, hi));
        }
        let intervals = QueryIntervals {
            relation_selectivity,
            predicate_selectivity,
            delta,
        };
        let memory = MemoryModel::Static(self.config.observed_memory.clone());
        let cert = tr
            .time("core.certify", at, || {
                certify_plan(query, &self.model, &memory, plan, &intervals)
            })
            .map_err(err)?;
        let served_cert = served
            .certificate
            .as_ref()
            .ok_or(format!("no certificate served at ordinal {ordinal}"))?;
        if cert.epsilon.to_bits() != served_cert.epsilon.to_bits() {
            return Err(format!("replayed certificate differs at ordinal {ordinal}"));
        }

        // Sampling: one first-touch draw per statistic the serve saw for the
        // first time, and one full resample per drift event it fired (a
        // filter's resample also rebuilds its belief histogram).
        let truth = svc.truth();
        let cfg = |draws| SampleConfig {
            draws,
            delta: rc.delta,
            bound: rc.bound,
            buckets: rc.buckets,
        };
        let mut expected_draws: BTreeMap<&DriftTarget, u64> = BTreeMap::new();
        for (t, pred, iv) in &before.intervals {
            if iv.is_none() {
                self.sample_seed += 1;
                let mut est = SampleEstimator::new(truth, cfg(rc.initial_draws), self.sample_seed);
                tr.time("catalog.sample", at, || est.sample_selectivity(pred))
                    .map_err(err)?;
                expected_draws.insert(t, rc.initial_draws);
            }
        }
        for r in &served.recalibrations {
            let t = &r.event.target;
            let pred = match t {
                DriftTarget::Selection { table, column } => req
                    .filters
                    .iter()
                    .find(|f| f.table == *table && f.column == *column)
                    .map(range),
                DriftTarget::Join { .. } => before
                    .intervals
                    .iter()
                    .find(|(bt, _, _)| bt == t)
                    .map(|(_, p, _)| p.clone()),
            }
            .ok_or(format!(
                "drift on a statistic outside the request at ordinal {ordinal}"
            ))?;
            self.sample_seed += 1;
            let mut est = SampleEstimator::new(truth, cfg(rc.draws), self.sample_seed);
            tr.time("catalog.sample", at, || est.sample_selectivity(&pred))
                .map_err(err)?;
            if let DriftTarget::Selection { table, column } = t {
                tr.time("catalog.sample", at, || est.sample_histogram(table, column))
                    .map_err(err)?;
            }
            expected_draws.insert(t, rc.draws);
        }
        for (t, draws) in expected_draws {
            if svc.stat_interval(t).map(|iv| iv.draws) != Some(draws) {
                return Err(format!(
                    "replayed sample draw count differs at ordinal {ordinal}"
                ));
            }
        }
        if svc.resamples() - before.resamples != served.recalibrations.len() as u64 {
            return Err(format!("resample count differs at ordinal {ordinal}"));
        }
        Ok(())
    }

    /// The service's EVPI cache policy for one drift event.
    fn decide(
        &self,
        tr: &mut Tracer,
        at: At,
        req: &QueryRequest,
        event: &DriftEvent,
        beliefs: &Catalog,
    ) -> Result<RecalibrationDecision, String> {
        use RecalibrationDecision::{RecostOnly, Reoptimize};
        let query = build(beliefs, req)?;
        if query.n() > 4 {
            return Ok(Reoptimize);
        }
        let mut sizes = SizeModel::certain(&query).map_err(err)?;
        let two_point = |est: f64, obs: f64| -> Option<Distribution> {
            let (a, b) = (est.max(1e-12), obs.max(1e-12));
            if (a - b).abs() <= 1e-9 * a.max(b) {
                return None;
            }
            Distribution::new([(a, 0.5), (b, 0.5)]).ok()
        };
        let uncertain = match &event.target {
            DriftTarget::Selection { table, .. } => {
                let Some(idx) = req.tables.iter().position(|t| t == table) else {
                    return Ok(Reoptimize);
                };
                let pages = query.relation(idx).pages;
                two_point(pages * event.mean_estimated, pages * event.mean_observed)
                    .map(|d| sizes.rel_sizes[idx] = d)
                    .is_some()
            }
            t @ DriftTarget::Join {
                left_table,
                right_table,
                ..
            } => {
                let Some(k) = req
                    .joins
                    .iter()
                    .position(|j| j.left_table == *left_table && j.right_table == *right_table)
                else {
                    return Ok(Reoptimize);
                };
                two_point(
                    to_pages(beliefs, t, event.mean_estimated)?,
                    to_pages(beliefs, t, event.mean_observed)?,
                )
                .map(|d| sizes.selectivities[k] = d)
                .is_some()
            }
        };
        if !uncertain {
            return Ok(RecostOnly);
        }
        let memory = MemoryModel::Static(self.config.observed_memory.clone());
        let report = tr
            .time("core.voi", at, || {
                voi::analyze(&query, &self.model, &memory, &sizes)
            })
            .map_err(err)?;
        Ok(if report.sampling_worthwhile(self.config.reoptimize_cost) {
            Reoptimize
        } else {
            RecostOnly
        })
    }

    /// Carries a pulled entry's plans over to its query under the new
    /// beliefs, as the service's migration does.
    fn migrate(&mut self, entry: Entry, beliefs: &Catalog) -> Result<bool, String> {
        let query = build(beliefs, &entry.request)?;
        let canon = canonicalize(&query);
        let mut scenarios = Vec::with_capacity(entry.plans.scenarios().len());
        for (dist, opt) in entry.plans.scenarios() {
            let plan = canon.plan_to_canonical(&entry.canon.plan_to_original(&opt.plan));
            if lec_plan::verify_plan(&plan, &canon.query).is_err() {
                return Ok(false);
            }
            scenarios.push((
                dist.clone(),
                Optimized {
                    plan,
                    cost: opt.cost,
                },
            ));
        }
        let plans = Arc::new(ParametricPlans::from_parts(scenarios).map_err(err)?);
        let fp = canon.fingerprint.clone();
        let migrated = Entry {
            request: entry.request,
            canon,
            plans,
            tables: entry.tables,
        };
        self.caches[0].insert(&fp, migrated);
        Ok(true)
    }

    /// Replays one `serve_stream_collect` call of a concurrent tier whose
    /// beliefs never move: the router's one canonicalization per distinct
    /// class, each worker's priming (one optimization per distinct
    /// non-resident fingerprint, resident ones pinned), then every serve on
    /// its worker. `batch` pairs each request with its class index; the
    /// call numbers its requests from 0.
    pub fn replay_batch(
        &mut self,
        tr: &mut Tracer,
        serve: usize,
        batch: &[(usize, &QueryRequest)],
        served: &[ServedQuery],
        truth: &Catalog,
    ) -> Result<(), String> {
        let workers = self.caches.len();
        let shards = self.config.cache_shards;
        let mut prepared: BTreeMap<usize, (JoinQuery, Canonical)> = BTreeMap::new();
        for (i, &(class, req)) in batch.iter().enumerate() {
            if prepared.contains_key(&class) {
                continue;
            }
            let at = At {
                parent: serve,
                request: i as u64,
                lane: 0,
            };
            let query = tr.time("workload.build_query", at, || build(&self.beliefs, req))?;
            let canon = tr.time("plan.canonicalize", at, || canonicalize(&query));
            prepared.insert(class, (query, canon));
        }
        let worker_of = |c: &Canonical| shard_of(&c.fingerprint, shards) % workers;

        let mut primed: Vec<BTreeMap<Vec<u8>, Arc<ParametricPlans>>> =
            vec![BTreeMap::new(); workers];
        for (i, &(class, _)) in batch.iter().enumerate() {
            let canon = &prepared[&class].1;
            let w = worker_of(canon);
            let key = canon.fingerprint.encoding().to_vec();
            if primed[w].contains_key(&key) {
                continue;
            }
            let plans = match self.caches[w].peek(&canon.fingerprint) {
                Some(e) => e.plans,
                None => {
                    let at = At {
                        parent: serve,
                        request: i as u64,
                        lane: 1 + w,
                    };
                    self.optimize(tr, at, canon)?
                }
            };
            primed[w].insert(key, plans);
        }

        for (i, (&(class, req), served)) in batch.iter().zip(served).enumerate() {
            let (query, canon) = &prepared[&class];
            let w = worker_of(canon);
            let at = At {
                parent: serve,
                request: i as u64,
                lane: 1 + w,
            };
            let cached = self.caches[w].get(&canon.fingerprint);
            if cached.is_some() != served.cache_hit {
                return Err(format!("replayed cache lookup differs at ordinal {i}"));
            }
            let plans = match cached {
                Some(e) => e.plans,
                None => {
                    let plans = primed[w][canon.fingerprint.encoding()].clone();
                    let entry = Entry {
                        request: req.clone(),
                        canon: canon.clone(),
                        plans: plans.clone(),
                        tables: sorted_tables(req),
                    };
                    self.caches[w].insert(&canon.fingerprint, entry);
                    plans
                }
            };
            self.pick_verify_execute(tr, at, req, query, canon, &plans, i as u64, served, truth)?;
            let events = tr.time("serve.drift.observe", at, || {
                self.observe(w, req, query, &served.feedback)
            })?;
            if !events.is_empty() {
                return Err(format!("drift fired on a quiet stream at ordinal {i}"));
            }
        }
        Ok(())
    }
}

fn sorted_tables(req: &QueryRequest) -> Vec<String> {
    let mut t = req.tables.clone();
    t.sort();
    t.dedup();
    t
}
