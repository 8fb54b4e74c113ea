//! The query service: one request runs one straight-line sequence of
//! stages.
//!
//! A [`QueryService`] owns two catalogs. The **belief** catalog is what the
//! optimizer sees; the **truth** catalog describes the data actually on the
//! simulated disk. [`serve`](QueryService::serve) runs each request through
//! the same private stages, in this order, one call each:
//!
//! 1. **prepare** — the belief-side query and its canonicalization, so
//!    isomorphic queries share one cache entry, memoized per request and
//!    beliefs version (`prepare.rs`);
//! 2. **plan** — the cached parametric plan set, or on a miss the batch
//!    window's primed plans or one optimizer run (`plan.rs`);
//! 3. **pick** — the distinct stored plans re-cost under the observed
//!    memory distribution and ranked by the configured selection rule;
//! 4. **verify** — the plan-IR verifier on the pick, in the request's
//!    numbering (always on);
//! 5. **execute** — the fallback ladder on `lec-exec`: the pick, its other
//!    candidates, the LSC baseline; a tripped circuit breaker starts at the
//!    LSC rung (`execute.rs` holds pick, verify and execute);
//! 6. **certify** — with a sampler, an (ε, δ) certificate over the
//!    intervals the plan was served under, before feedback can resample
//!    them;
//! 7. **feedback** — observed cardinalities into the
//!    [`DriftDetector`](crate::DriftDetector);
//! 8. **recalibrate** — per fired drift event, the belief update, the
//!    affected cache entries pulled, and a value-of-information analysis
//!    ([`lec_core::voi`]) deciding whether they re-optimize or migrate
//!    (`recalibrate.rs` holds certify, feedback and recalibrate).
//!
//! Every piece of state a request leaves behind has one owner, a stage type
//! whose fields are private to its module and which [`QueryService::new`]
//! builds once. The service itself keeps the model, the catalogs, the
//! config, the plan cache, and the stream ordinal
//! [`queries_served`](QueryService::queries_served). Shared state is lent
//! to each stage call as an explicit borrow: the plan stage fills the
//! cache, the ladder's breakers read it and pull tripped entries, and
//! drift handling borrows the prepare stage, the cache and the beliefs.
//!
//! [`ServeConfig::resample`] decides whether the recalibrate stage holds a
//! sampler. Without one, recalibration folds the drift window's observed
//! mean into the belief statistic and no serve is certified. With one,
//! recalibration replaces the statistic with a fresh row sample from the
//! truth catalog, keeps a confidence interval per sampled statistic, and
//! every serve the breaker did not reroute is certified.
//!
//! ### Determinism contract
//!
//! One service processes its request stream sequentially, so every counter
//! — cache hits/misses/evictions/invalidations, optimizer invocations,
//! recalibrations — is a pure function of the stream and the initial
//! catalogs. The optimizer is a serial dynamic program, so one service has
//! no internal concurrency at all.
//!
//! The concurrent driver ([`crate::concurrent`]) reaches the same stages
//! through a crate-private batch-window protocol: it serves each request at
//! its *global* stream position, reproducing the sequential loop's memory
//! draws and fault schedules exactly, and runs the prepare and optimize
//! stages ahead of each window without perturbing any counter.

use crate::cache::PlanCache;
use crate::drift::{DriftConfig, DriftEvent, DriftTarget};
use crate::error::ServeError;
use crate::execute::{pick, verify, ExecuteStage};
use crate::plan::{BatchPrimer, CacheEntry, PlanStage};
use crate::prepare::{PrepareStage, PreparedRequest};
use crate::recalibrate::RecalibrateStage;
use crate::resilience::{FaultInjection, ResiliencePolicy, ResilienceReport};
use lec_catalog::sampling::{BoundKind, StatInterval};
use lec_catalog::Catalog;
use lec_core::certificate::Certificate;
use lec_core::{OptStats, ResilienceCounters};
use lec_cost::CostModel;
use lec_exec::{ExecFeedback, ExecReport};
use lec_plan::Plan;
use lec_rules::{Rule, SelectionRule};
use lec_stats::Distribution;
use lec_workload::from_catalog::{FilterSpec, JoinSpec};
use std::sync::Arc;

/// Configuration for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Compile-time memory scenarios: one LEC plan is precomputed per
    /// scenario on every cache miss.
    pub scenarios: Vec<Distribution>,
    /// The start-up-time observed memory distribution: stored plans are
    /// re-cost under it at every serve, and execution draws its actual
    /// grant from it (draw-once, §3.4).
    pub observed_memory: Distribution,
    /// Total plan-cache capacity in entries.
    pub cache_capacity: usize,
    /// Number of cache shards.
    pub cache_shards: usize,
    /// Drift-detection thresholds.
    pub drift: DriftConfig,
    /// Cost (in the cost model's units) of a full re-optimization; drift
    /// triggers one only when the EVPI of the drifted statistic exceeds it.
    /// `+∞` never re-optimizes; NaN is refused.
    pub reoptimize_cost: f64,
    /// Base seed for data generation and per-execution memory draws.
    pub exec_seed: u64,
    /// Bounded-retry and circuit-breaker behavior on faulted executions.
    pub resilience: ResiliencePolicy,
    /// Deterministic fault injection, keyed on request ordinal and attempt
    /// number. [`FaultInjection::OFF`] (the default) gives every execution
    /// an empty fault schedule.
    pub fault_injection: FaultInjection,
    /// How the start-up pick and the fallback-ladder ordering choose
    /// among the cached per-scenario plans: every rule ranks the plans'
    /// cost profiles under the observed memory distribution. The default,
    /// [`Rule::LeastExpectedCost`], ranks by the profile mean; robust
    /// rules (minmax regret, penalty-aware, CVaR) trade expected cost for
    /// degradation guarantees when the observed beliefs are wrong. Drift
    /// detection, recalibration, and the resilience ladder all run under
    /// whichever rule is configured.
    pub selection_rule: Rule,
    /// How drift recalibrates the beliefs. `None` (the default) *blends*
    /// each drift window's observed mean into the belief statistic and
    /// attaches no certificate. `Some` *resamples* instead — a fired drift
    /// event draws a fresh row sample from the truth catalog, replaces the
    /// drifted belief statistic, and refreshes its confidence interval —
    /// and attaches an (ε, δ) suboptimality certificate to every serve the
    /// circuit breaker did not reroute.
    pub resample: Option<ResampleConfig>,
}

/// Configuration of the sample-backed certification path
/// ([`ServeConfig::resample`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResampleConfig {
    /// Row draws per drift-triggered resample (the expensive, tight pass).
    pub draws: u64,
    /// Row draws for the lazy first-touch interval of a statistic that has
    /// never drifted (cheap, wide — certificates start honest, not tight).
    pub initial_draws: u64,
    /// Per-statistic interval failure probability; a query's certificate
    /// carries the union bound over its interval-backed statistics.
    pub delta: f64,
    /// Concentration bound for the intervals.
    pub bound: BoundKind,
    /// Bucket count for sample-backed belief histograms.
    pub buckets: usize,
    /// Seed for the resampling RNG (independent of `exec_seed`).
    pub seed: u64,
}

impl Default for ResampleConfig {
    fn default() -> Self {
        ResampleConfig {
            draws: 4096,
            initial_draws: 256,
            delta: 0.05,
            bound: BoundKind::Hoeffding,
            buckets: 8,
            seed: 0x5A17,
        }
    }
}

impl ServeConfig {
    /// A config with the given scenarios and observed memory distribution
    /// and serviceable defaults everywhere else.
    pub fn new(scenarios: Vec<Distribution>, observed_memory: Distribution) -> Self {
        ServeConfig {
            scenarios,
            observed_memory,
            cache_capacity: 64,
            cache_shards: 4,
            drift: DriftConfig::default(),
            reoptimize_cost: 0.0,
            exec_seed: 0x5EC5,
            resilience: ResiliencePolicy::default(),
            fault_injection: FaultInjection::OFF,
            selection_rule: Rule::LeastExpectedCost,
            resample: None,
        }
    }
}

/// One incoming query, phrased against catalog names (the serving-layer
/// analogue of SQL): which tables, which equi-joins, which range filters,
/// and an optional interesting order.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Tables joined, in the request's own numbering.
    pub tables: Vec<String>,
    /// Equi-join predicates between the tables.
    pub joins: Vec<JoinSpec>,
    /// Local range filters.
    pub filters: Vec<FilterSpec>,
    /// Required output order, as an index into `joins`.
    pub order_by: Option<usize>,
}

/// FNV-1a over bytes; strings are length-prefixed so adjacent fields
/// cannot run into each other.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

impl QueryRequest {
    /// A 64-bit digest over every field, floats by bit pattern: the key of
    /// the service's prepare memo and of the concurrent router. Equal
    /// requests get equal keys (bar a zero bound's sign, which is hashed: a
    /// false miss), and a shared key is confirmed with `==` before anything
    /// keyed by it is used. Every struct is destructured, so a new field
    /// does not compile until it is hashed.
    pub(crate) fn key(&self) -> u64 {
        let QueryRequest {
            tables,
            joins,
            filters,
            order_by,
        } = self;
        let mut d = Digest(0xcbf29ce484222325);
        d.word(tables.len() as u64);
        for table in tables {
            d.str(table);
        }
        d.word(joins.len() as u64);
        for JoinSpec {
            left_table,
            left_column,
            right_table,
            right_column,
        } in joins
        {
            for s in [left_table, left_column, right_table, right_column] {
                d.str(s);
            }
        }
        d.word(filters.len() as u64);
        for FilterSpec {
            table,
            column,
            lo,
            hi,
            indexed,
        } in filters
        {
            d.str(table);
            d.str(column);
            d.word(lo.to_bits());
            d.word(hi.to_bits());
            d.word(u64::from(*indexed));
        }
        match order_by {
            None => d.word(0),
            Some(k) => {
                d.word(1);
                d.word(*k as u64);
            }
        }
        d.0
    }
}

/// What drift did to the service's state during one serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecalibrationDecision {
    /// EVPI exceeded the re-optimization cost: affected entries were
    /// dropped, so their next request re-optimizes under the new beliefs.
    Reoptimize,
    /// EVPI was below the re-optimization cost: affected entries were
    /// migrated — stored plans carried over and re-keyed under the new
    /// beliefs, to be merely re-cost at their next pick.
    RecostOnly,
}

/// One recalibration round: the drift event that triggered it and what the
/// service decided to do about the cache.
#[derive(Debug, Clone)]
pub struct Recalibration {
    /// The fired drift window.
    pub event: DriftEvent,
    /// Cache policy chosen by the value-of-information analysis.
    pub decision: RecalibrationDecision,
    /// Entries pulled from the cache because they depended on the drifted
    /// statistic.
    pub entries_invalidated: usize,
    /// Of those, how many were migrated back (always zero under
    /// [`RecalibrationDecision::Reoptimize`]).
    pub entries_migrated: usize,
}

/// The result of serving one request.
#[derive(Debug, Clone)]
pub struct ServedQuery {
    /// The plan that ran, in the request's own numbering.
    pub plan: Plan,
    /// Its expected cost under the observed memory distribution, computed
    /// against the *canonical* query (so hits and misses agree bit-for-bit).
    pub expected_cost: f64,
    /// Which precomputed scenario's plan won the pick.
    pub scenario: usize,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Execution report (realized I/O, per-phase memory). The service
    /// does not retain the result: `report.output` names a relation that
    /// was dropped when the serve finished, and its id is reused by later
    /// executions.
    pub report: ExecReport,
    /// Observed cardinalities harvested from the execution.
    pub feedback: ExecFeedback,
    /// Recalibrations triggered by this serve's feedback.
    pub recalibrations: Vec<Recalibration>,
    /// What the resilience layer did (attempts, faults, serving route).
    pub resilience: ResilienceReport,
    /// The (ε, δ) suboptimality certificate of the served plan, computed
    /// from the current sampled statistic intervals. `None` when
    /// [`ServeConfig::resample`] is off or the circuit breaker rerouted
    /// the serve.
    pub certificate: Option<Certificate>,
}

/// The serving loop. See the module docs for the stage sequence.
pub struct QueryService<M: CostModel + Sync> {
    model: M,
    beliefs: Catalog,
    truth: Catalog,
    config: ServeConfig,
    /// The plan cache: filled by the plan stage, lent to the execute
    /// stage's breakers and the recalibrate stage's invalidations.
    cache: PlanCache<Arc<CacheEntry>>,
    prepare: PrepareStage,
    plan: PlanStage,
    execute: ExecuteStage,
    recalibrate: RecalibrateStage,
    /// Requests served so far: the stream ordinal of the next
    /// [`serve`](QueryService::serve).
    queries_served: u64,
}

impl<M: CostModel + Sync> QueryService<M> {
    /// Builds a service: generates the simulated data from `truth` and
    /// starts with an empty cache and quiet drift windows. A configuration
    /// that cannot serve — no scenario, an empty cache, a blend outside
    /// `(0, 1]`, a NaN drift threshold or re-optimization cost, a
    /// selection rule [`lec_rules::certify`] rejects, or a resample config
    /// without draws, buckets or a `delta` in `(0, 1)` — is
    /// [`ServeError::Config`].
    pub fn new(
        model: M,
        beliefs: Catalog,
        truth: Catalog,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        if config.scenarios.is_empty() {
            return Err(ServeError::Config(
                "need at least one compile-time memory scenario".into(),
            ));
        }
        if config.cache_capacity == 0 || config.cache_shards == 0 {
            return Err(ServeError::Config(
                "cache capacity and shard count must be positive".into(),
            ));
        }
        if !(config.drift.blend > 0.0 && config.drift.blend <= 1.0) {
            return Err(ServeError::Config(format!(
                "drift blend {} outside (0, 1]",
                config.drift.blend
            )));
        }
        // NaN fails every comparison: each window would fire, no EVPI re-optimize.
        if config.drift.error_threshold.is_nan() || config.reoptimize_cost.is_nan() {
            return Err(ServeError::Config(
                "drift error threshold and re-optimization cost must not be NaN".into(),
            ));
        }
        // The rule is fixed for the service's lifetime, so it is certified
        // once here; every pick then only validates it.
        lec_rules::certify(&config.selection_rule).map_err(|e| {
            ServeError::Config(format!(
                "selection rule {}: {e}",
                config.selection_rule.name()
            ))
        })?;
        Ok(QueryService {
            recalibrate: RecalibrateStage::new(&config)?,
            execute: ExecuteStage::new(&truth, config.exec_seed),
            prepare: PrepareStage::new(config.cache_capacity),
            cache: PlanCache::new(config.cache_shards, config.cache_capacity),
            plan: PlanStage::new(),
            model,
            beliefs,
            truth,
            config,
            queries_served: 0,
        })
    }

    /// Serves one request end to end: plan (cache or optimizer), execute,
    /// harvest feedback, recalibrate on drift.
    pub fn serve(&mut self, request: &QueryRequest) -> Result<ServedQuery, ServeError> {
        self.serve_at(self.queries_served, request, None, None)
    }

    /// Primes `window` ahead of serving it (see [`BatchPrimer`]) through
    /// the serve path's own prepare and optimize stages, so a window of one
    /// request leaves every counter exactly where plain [`serve`] would: a
    /// resident request's pin is never consulted (its serve hits the cache
    /// first), and a non-resident one is optimized exactly once either way.
    /// Each `window` element pairs a request with its prepared form, if the
    /// caller has one.
    ///
    /// [`serve`]: QueryService::serve
    pub(crate) fn prime_window(
        &mut self,
        window: &[(&QueryRequest, Option<&Arc<PreparedRequest>>)],
    ) -> Result<BatchPrimer, ServeError> {
        let mut primer = BatchPrimer::new(self.prepare.version());
        for (request, supplied) in window {
            let prepared = self.prepare.form(&self.beliefs, request, *supplied)?;
            let scenarios = &self.config.scenarios;
            let (cache, model) = (&self.cache, &self.model);
            self.plan
                .prime(cache, &mut primer, &prepared.canon, model, scenarios)?;
        }
        Ok(primer)
    }

    /// [`serve`](QueryService::serve) with the stream position made
    /// explicit. `ordinal` keys everything ordinal-dependent — the
    /// per-execution memory draw and the fault-injection schedule — so a
    /// concurrent driver that partitions one logical stream across several
    /// services can hand each request its *global* position and reproduce
    /// the sequential loop's draws exactly. `prepared`, if given, must have
    /// been built from this same `request`; `primer` lets cache misses
    /// consume plans optimized ahead of the batch window. Both are ignored
    /// when their beliefs version is stale: the request is then prepared
    /// through the memo, and a miss optimizes fresh.
    pub(crate) fn serve_at(
        &mut self,
        ordinal: u64,
        request: &QueryRequest,
        prepared: Option<&Arc<PreparedRequest>>,
        primer: Option<&BatchPrimer>,
    ) -> Result<ServedQuery, ServeError> {
        let (model, config, truth) = (&self.model, &self.config, &self.truth);
        let prepared = self.prepare.form(&self.beliefs, request, prepared)?;
        let scenarios = &config.scenarios;
        let cache = &mut self.cache;
        let (entry, cache_hit) = self
            .plan
            .lookup(cache, &prepared, primer, model, scenarios)?;
        let (primary, rest) = pick(&entry, &prepared, model, config)?;
        verify(&primary, &prepared.query, "served expected cost")?;
        let executed = self.execute.ladder(
            cache, model, config, truth, ordinal, &prepared, primary, rest,
        )?;
        let (beliefs, observed) = (&self.beliefs, &config.observed_memory);
        let certificate = self
            .recalibrate
            .certify(model, observed, beliefs, truth, &prepared, &executed)?;
        let feedback = &executed.feedback;
        let events = self
            .recalibrate
            .observe(beliefs, request, &prepared.query, feedback)?;
        let recalibrations = events
            .into_iter()
            .map(|event| {
                let (prepare, cache, beliefs) =
                    (&mut self.prepare, &mut self.cache, &mut self.beliefs);
                let recalibrate = &mut self.recalibrate;
                recalibrate.on_drift(
                    prepare, cache, beliefs, truth, model, config, request, event,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.queries_served += 1;
        Ok(ServedQuery {
            plan: executed.rung.plan,
            expected_cost: executed.rung.expected_cost,
            scenario: executed.rung.scenario,
            cache_hit,
            report: executed.report,
            feedback: executed.feedback,
            recalibrations,
            resilience: executed.resilience,
            certificate,
        })
    }

    /// Aggregate optimizer statistics with the live cache counters folded
    /// in.
    pub fn stats(&self) -> OptStats {
        let mut s = self.plan.stats().clone();
        s.cache = self.cache.counters();
        s.resilience = self.execute.counters();
        s
    }

    /// Live fault/retry/degradation counters.
    pub fn resilience_counters(&self) -> ResilienceCounters {
        self.execute.counters()
    }

    /// The belief catalog (what the optimizer currently assumes).
    pub fn beliefs(&self) -> &Catalog {
        &self.beliefs
    }

    /// The truth catalog (what the simulated data realizes).
    pub fn truth(&self) -> &Catalog {
        &self.truth
    }

    /// Mutable truth catalog — experiments inject drift here. The
    /// generated data is *not* regenerated; only filter selectivities
    /// realized at execution time change.
    pub fn truth_mut(&mut self) -> &mut Catalog {
        &mut self.truth
    }

    /// Number of full optimizer invocations (cache misses) so far.
    pub fn optimizer_invocations(&self) -> u64 {
        self.plan.counters().invocations
    }

    /// Number of recalibration rounds performed so far.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrate.counters().recalibrations
    }

    /// `(reoptimize, recost-only)` decision counts so far.
    pub fn decisions(&self) -> (u64, u64) {
        let c = self.recalibrate.counters();
        (c.reoptimize_decisions, c.recost_decisions)
    }

    /// Requests served so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Current beliefs version (bumped once per recalibration). Prepared
    /// requests and batch primers tagged with an older version are ignored.
    pub fn beliefs_version(&self) -> u64 {
        self.prepare.version()
    }

    /// Cache misses answered from a batch primer instead of a fresh
    /// optimizer run.
    pub fn primed_consumed(&self) -> u64 {
        self.plan.counters().primed_consumed
    }

    /// Relations on the service's simulated disk. Executions reclaim their
    /// temporaries, so between serves this is the number of generated base
    /// tables.
    pub fn stored_relations(&self) -> usize {
        self.execute.stored_relations()
    }

    /// Live cache size in entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Requests whose prepared form is memoized under the current beliefs
    /// (at most [`ServeConfig::cache_capacity`]).
    pub fn memo_len(&self) -> usize {
        self.prepare.memo_len()
    }

    /// Requests whose certificate is memoized (at most
    /// [`ServeConfig::cache_capacity`]; always zero with
    /// [`ServeConfig::resample`] off).
    pub fn certificate_memo_len(&self) -> usize {
        self.recalibrate.certificate_memo_len()
    }

    /// Drift-triggered resampling rounds performed so far (always zero
    /// with [`ServeConfig::resample`] off or on a drift-quiet stream).
    /// The recalibrate stage samples exactly when `resample` is set, and
    /// then every recalibration is a resample.
    pub fn resamples(&self) -> u64 {
        let recalibrations = self.recalibrate.counters().recalibrations;
        self.config.resample.map_or(0, |_| recalibrations)
    }

    /// The cached confidence interval for one statistic, if it has been
    /// sampled (row-domain for joins).
    pub fn stat_interval(&self, target: &DriftTarget) -> Option<StatInterval> {
        self.recalibrate.stat_interval(target)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lec_catalog::{ColumnMeta, TableMeta};
    use lec_cost::PaperCostModel;
    use lec_exec::PAGE_CAPACITY;

    pub(crate) fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, key, pages) in [("cust", "ck", 8), ("ord", "ok", 12)] {
            c.register(
                TableMeta::new(name, pages * PAGE_CAPACITY as u64, pages)
                    .unwrap()
                    .with_column(ColumnMeta::new(key, 512, 0.0, 511.0))
                    .with_column(ColumnMeta::new("v", 800, 0.0, 100.0)),
            )
            .unwrap();
        }
        c
    }

    pub(crate) fn request(hi: f64) -> QueryRequest {
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
                lo: 0.0,
                hi,
                indexed: false,
            }],
            order_by: None,
        }
    }

    pub(crate) fn service_config() -> ServeConfig {
        ServeConfig::new(
            vec![Distribution::new([(4.0, 0.5), (40.0, 0.5)]).unwrap()],
            Distribution::new([(8.0, 0.5), (48.0, 0.5)]).unwrap(),
        )
    }

    fn service() -> QueryService<PaperCostModel> {
        QueryService::new(PaperCostModel, catalog(), catalog(), service_config()).unwrap()
    }

    #[test]
    fn construction_refuses_every_config_that_cannot_serve() {
        fn resample(edit: fn(&mut ResampleConfig)) -> Option<ResampleConfig> {
            let mut rc = ResampleConfig::default();
            edit(&mut rc);
            Some(rc)
        }
        type Edit = fn(&mut ServeConfig);
        let refusals: [(&str, Edit); 15] = [
            ("no scenario", |c| c.scenarios.clear()),
            ("no cache capacity", |c| c.cache_capacity = 0),
            ("no cache shards", |c| c.cache_shards = 0),
            ("zero blend", |c| c.drift.blend = 0.0),
            ("blend above 1", |c| c.drift.blend = 1.5),
            ("NaN blend", |c| c.drift.blend = f64::NAN),
            ("NaN drift threshold", |c| {
                c.drift.error_threshold = f64::NAN
            }),
            ("NaN re-optimization cost", |c| c.reoptimize_cost = f64::NAN),
            ("invalid rule", |c| {
                c.selection_rule = Rule::TailRisk(lec_rules::TailRisk { alpha: 1.5 })
            }),
            ("no draws", |c| c.resample = resample(|r| r.draws = 0)),
            ("no initial draws", |c| {
                c.resample = resample(|r| r.initial_draws = 0)
            }),
            ("no buckets", |c| c.resample = resample(|r| r.buckets = 0)),
            ("zero delta", |c| c.resample = resample(|r| r.delta = 0.0)),
            ("delta of 1", |c| c.resample = resample(|r| r.delta = 1.0)),
            ("NaN delta", |c| {
                c.resample = resample(|r| r.delta = f64::NAN)
            }),
        ];
        let build = |edit: Edit| {
            let mut config = service_config();
            edit(&mut config);
            QueryService::new(PaperCostModel, catalog(), catalog(), config)
        };
        for (what, edit) in refusals {
            assert!(
                matches!(build(edit), Err(ServeError::Config(_))),
                "{what} was not refused"
            );
        }
        // Infinite thresholds mean "never" and stay legal.
        let never: Edit = |c| {
            c.drift.error_threshold = f64::INFINITY;
            c.reoptimize_cost = f64::INFINITY;
            c.resample = Some(ResampleConfig::default());
        };
        assert!(build(never).is_ok());
    }

    #[test]
    fn repeated_hits_reuse_one_prepared_form() {
        let mut svc = service();
        let req = request(25.0);
        assert!(!svc.serve(&req).unwrap().cache_hit);
        assert!(svc.serve(&req).unwrap().cache_hit);
        assert!(svc.serve(&req).unwrap().cache_hit);
        let first = svc.prepare.form(&svc.beliefs, &req, None).unwrap();
        let again = svc.prepare.form(&svc.beliefs, &req, None).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        // The cache entry the miss populated shares that same form.
        let entry = svc.cache.peek(&first.canon.fingerprint).unwrap();
        assert!(Arc::ptr_eq(&entry.prepared, &first));
        assert_eq!(svc.memo_len(), 1);
    }

    #[test]
    fn a_recalibration_keeps_the_certificates_it_does_not_touch() {
        use lec_catalog::Histogram;
        // `cust.v` is believed uniform but truly piled below 25, so `a`
        // drifts; `b` reads none of `a`'s tables.
        let catalog = |cust_hot: bool| {
            let mut c = Catalog::new();
            for (name, key, pages) in [("cust", "ck", 8), ("ord", "ok", 12), ("item", "ik", 6)] {
                let mass = if cust_hot && name == "cust" {
                    [0.7, 0.1, 0.04, 0.04, 0.03, 0.03, 0.03, 0.03]
                } else {
                    [0.125; 8]
                };
                let values: Vec<f64> = (0..8)
                    .flat_map(|b| {
                        let n = (mass[b] * 800.0f64).round() as usize;
                        (0..n).map(move |i| b as f64 * 12.5 + 12.5 * (i as f64 + 0.5) / n as f64)
                    })
                    .collect();
                let v = ColumnMeta::new("v", 800, 0.0, 100.0)
                    .with_histogram(Histogram::equi_width(&values, 8).unwrap());
                c.register(
                    TableMeta::new(name, pages * PAGE_CAPACITY as u64, pages)
                        .unwrap()
                        .with_column(ColumnMeta::new(key, 512, 0.0, 511.0))
                        .with_column(v),
                )
                .unwrap();
            }
            c.register(
                TableMeta::new("part", 10 * PAGE_CAPACITY as u64, 10)
                    .unwrap()
                    .with_column(ColumnMeta::new("pk", 512, 0.0, 511.0)),
            )
            .unwrap();
            c
        };
        let pair = |left: &str, lk: &str, right: &str, rk: &str| {
            let mut r = request(25.0);
            r.tables = vec![left.into(), right.into()];
            r.joins[0] = JoinSpec {
                left_table: left.into(),
                left_column: lk.into(),
                right_table: right.into(),
                right_column: rk.into(),
            };
            r.filters[0].table = left.into();
            r
        };
        let (a, b) = (
            pair("cust", "ck", "ord", "ok"),
            pair("item", "ik", "part", "pk"),
        );
        let mut config = service_config();
        config.resample = Some(ResampleConfig::default());
        config.drift.error_threshold = 0.5;
        config.drift.min_observations = 3;
        let mut svc =
            QueryService::new(PaperCostModel, catalog(false), catalog(true), config).unwrap();

        let first = svc.serve(&b).unwrap().certificate.unwrap();
        assert_eq!(
            svc.recalibrate.counters().certificate_hits,
            0,
            "a first serve certifies"
        );
        assert_eq!(svc.serve(&b).unwrap().certificate.unwrap(), first);
        assert_eq!(
            svc.recalibrate.counters().certificate_hits,
            1,
            "a repeat is a memo hit"
        );
        let drifted = (0..40).any(|_| !svc.serve(&a).unwrap().recalibrations.is_empty());
        assert!(drifted, "the hot truth must drift `cust.v`");
        assert!(
            svc.recalibrate.counters().certificate_hits > 1,
            "`a`'s repeats hit too"
        );

        // The recalibration moved `cust` only: `b`'s certificate is still
        // memoized and confirmed, while `a`'s query moved and recertifies.
        let hits = svc.recalibrate.counters().certificate_hits;
        assert_eq!(svc.serve(&b).unwrap().certificate.unwrap(), first);
        assert_eq!(svc.recalibrate.counters().certificate_hits, hits + 1);
        svc.serve(&a).unwrap();
        assert_eq!(svc.recalibrate.counters().certificate_hits, hits + 1);
        assert_eq!(svc.certificate_memo_len(), 2);
    }

    #[test]
    fn request_identity_covers_every_field() {
        let base = request(25.0);
        let mut variants = vec![base.clone(); 7];
        variants[0].tables.reverse();
        variants[1].joins[0].right_column = "v".into();
        variants[2].filters[0].hi = f64::from_bits(25.0f64.to_bits() + 1);
        variants[3].filters[0].indexed = true;
        variants[4].order_by = Some(0);
        variants[5].filters.clear();
        variants[6].filters[0].column = "ck".into();
        assert_eq!(base.key(), base.clone().key());
        let mut signed_zero = base.clone();
        signed_zero.filters[0].lo = -0.0;
        assert_ne!(base.key(), signed_zero.key(), "floats are hashed by bits");
        for v in &variants {
            assert_ne!(base, *v);
            assert_ne!(base.key(), v.key(), "{v:?}");
        }
    }
}
