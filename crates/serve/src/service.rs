//! The query service: fingerprint → cache → optimize → execute →
//! feedback → recalibrate.
//!
//! A [`QueryService`] owns two catalogs. The **belief** catalog is what the
//! optimizer sees; the **truth** catalog describes the data actually on the
//! simulated disk. Requests are canonicalized (so isomorphic queries share
//! one cache entry), served from a sharded [`PlanCache`] of parametric plan
//! sets when possible, and executed for real through `lec-exec`. Execution
//! feedback (observed selection and join cardinalities) feeds a
//! [`DriftDetector`]; when a statistic has drifted, the belief catalog is
//! recalibrated from the observations, affected cache entries are pulled,
//! and a value-of-information analysis ([`lec_core::voi`]) decides whether
//! the pulled entries are re-optimized from scratch on their next request
//! or migrated (plans carried over, re-cost at pick time).
//!
//! ### Determinism contract
//!
//! One service processes its request stream sequentially, so every counter
//! — cache hits/misses/evictions/invalidations, optimizer invocations,
//! recalibrations — is a pure function of the stream and the initial
//! catalogs. The optimizer is a serial dynamic program, so one service has
//! no internal concurrency at all.
//!
//! [`serve_at`](QueryService::serve_at) exposes the same loop with the
//! stream position made explicit, so the concurrent driver
//! ([`crate::concurrent`]) can partition one logical stream across several
//! services while reproducing the sequential loop's memory draws and fault
//! schedules exactly; [`prepare`](QueryService::prepare) and
//! [`prime_window`](QueryService::prime_window) move canonicalization and
//! miss optimization off the serve path without perturbing any counter.

use crate::cache::{shard_of, PlanCache};
use crate::drift::{DriftConfig, DriftDetector, DriftEvent, DriftTarget};
use crate::error::ServeError;
use crate::resilience::{
    CircuitBreaker, FaultInjection, ResiliencePolicy, ResilienceReport, ServeRoute, ShardBreaker,
};
use lec_catalog::sampling::{BoundKind, SampleConfig, SampleEstimator, StatInterval};
use lec_catalog::{Catalog, Histogram, Predicate};
use lec_core::alg_d::SizeModel;
use lec_core::certificate::{certify_plan, Certificate, QueryIntervals};
use lec_core::parametric::ParametricPlans;
use lec_core::{expected_cost, lsc, voi, MemoryModel, OptStats, ResilienceCounters};
use lec_cost::CostModel;
use lec_exec::datagen::{generate, DataGenSpec};
use lec_exec::{
    execute_plan_with_faults, Disk, ExecError, ExecFeedback, ExecMemoryEnv, ExecReport,
    FaultRecord, FaultSchedule, RelId,
};
use lec_plan::Plan;
use lec_plan::{canonicalize, JoinQuery};
use lec_rules::{Rule, SelectionRule};
use lec_stats::Distribution;
use lec_workload::from_catalog::{query_from_catalog, FilterSpec, JoinSpec};
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

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
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Drift-detection thresholds.
    pub drift: DriftConfig,
    /// Cost (in the cost model's units) of a full re-optimization; drift
    /// triggers one only when the EVPI of the drifted statistic exceeds it.
    pub reoptimize_cost: f64,
    /// Base seed for data generation and per-execution memory draws.
    pub exec_seed: u64,
    /// Run every served plan through the plan-IR verifier
    /// (`lec_plan::verify_plan`) before execution, failing the request with
    /// [`ServeError::Verification`] on a bad plan. On by default — unlike
    /// the optimizers' debug-only hooks this guards the cache-migration
    /// path too, and its cost (a tree walk over a handful of nodes) is
    /// noise next to plan execution.
    pub verify_plans: bool,
    /// Bounded-retry and circuit-breaker behavior on faulted executions.
    pub resilience: ResiliencePolicy,
    /// Deterministic fault injection, keyed on request ordinal and attempt
    /// number. [`FaultInjection::OFF`] (the default) keeps every execution
    /// on the exact pre-resilience code path.
    pub fault_injection: FaultInjection,
    /// How the start-up pick and the fallback-ladder ordering choose
    /// among the cached per-scenario plans. The default,
    /// [`Rule::LeastExpectedCost`], dispatches to the pre-rules code
    /// path and is bit-identical to it; robust rules (minmax regret,
    /// penalty-aware, CVaR) trade expected cost for degradation
    /// guarantees when the observed beliefs are wrong. Drift detection,
    /// recalibration, and the resilience ladder all run under whichever
    /// rule is configured.
    pub selection_rule: Rule,
    /// Sample-backed certification. `None` (the default) keeps the
    /// legacy blending recalibration path bit-for-bit: no sampler is
    /// seeded, no interval state is kept, and served queries carry no
    /// certificate. `Some` switches drift handling from blending to
    /// *resampling* — a fired drift event draws a fresh row sample from
    /// the truth catalog, replaces the drifted belief statistic, and
    /// refreshes its confidence interval — and attaches an (ε, δ)
    /// suboptimality certificate to every successfully served plan.
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
            verify_plans: true,
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
#[derive(Debug, Clone)]
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

/// A cached parametric entry plus the provenance the service needs to
/// migrate or invalidate it.
#[derive(Clone)]
pub struct CacheEntry {
    /// A representative request for this equivalence class (used to
    /// rebuild the query after a recalibration).
    request: QueryRequest,
    /// Plans are stored in this canonical numbering.
    plans: ParametricPlans,
    /// Canonicalization of the representative request's query.
    canon: lec_plan::Canonical,
    /// Tables the entry's estimates depend on (sorted, deduplicated).
    tables: Vec<String>,
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
    /// [`ServeConfig::resample`] is off or the serve took a degraded
    /// breaker route.
    pub certificate: Option<Certificate>,
}

/// A request pre-processed off the serving path: its belief-side query and
/// canonicalization, tagged with the beliefs version they were computed
/// under. The concurrent driver builds one per distinct request shape so
/// routing (fingerprint → shard → worker) happens before any worker is
/// involved. [`QueryService::serve_at`] and
/// [`QueryService::prime_window`] trust a prepared request only while the
/// service's beliefs version still matches — a recalibration in between
/// invalidates it, and it is silently recomputed rather than served stale.
///
/// A `PreparedRequest` must only ever be paired with the request it was
/// built from (same tables, joins, filters, order).
#[derive(Debug, Clone)]
pub struct PreparedRequest {
    pub(crate) query: JoinQuery,
    pub(crate) canon: lec_plan::Canonical,
    pub(crate) version: u64,
}

impl PreparedRequest {
    /// The cache shard the prepared fingerprint maps to under `shards`-way
    /// splitting — the concurrent driver's routing key.
    pub fn shard(&self, shards: usize) -> usize {
        shard_of(&self.canon.fingerprint, shards)
    }
}

/// Parametric plan sets optimized ahead of one batch window, keyed by
/// canonical fingerprint encoding.
///
/// [`QueryService::prime_window`] walks a window of requests and optimizes
/// each *distinct would-miss* fingerprint exactly once; isomorphic
/// requests later in the window find the entry already primed and are
/// counted in [`dedup_saved`](BatchPrimer::dedup_saved). Primed entries
/// are **not** consume-once: under unchanged beliefs re-reading one is
/// semantically identical to re-optimizing, so a window whose entries get
/// evicted between serves (capacity thrash) still pays one optimization
/// per class per window instead of one per request.
///
/// Like a prepared request, a primer is version-tagged: a recalibration
/// mid-window bumps the service's beliefs version and the remaining
/// serves fall back to fresh optimization instead of consuming plans
/// priced under the old beliefs.
pub struct BatchPrimer {
    version: u64,
    plans: BTreeMap<Vec<u8>, ParametricPlans>,
    /// Fingerprints whose primer entry is a *pin* — a pure clone of an
    /// entry resident in the cache at prime time. Pins cost no optimizer
    /// run, so their in-window repeats do not count as `dedup_saved`.
    pinned: BTreeSet<Vec<u8>>,
    /// Window requests whose optimization was skipped because an
    /// isomorphic request earlier in the same window had already primed
    /// their fingerprint.
    pub dedup_saved: u64,
}

impl BatchPrimer {
    /// Number of distinct fingerprints primed.
    pub fn primed(&self) -> usize {
        self.plans.len()
    }
}

/// One rung of the fallback ladder, ready to execute in the request's
/// numbering.
struct LadderRung {
    plan: Plan,
    expected_cost: f64,
    scenario: usize,
    route: ServeRoute,
}

/// Generated base data: one simulated relation per catalog table.
struct TableStore {
    disk: Disk,
    rels: BTreeMap<String, RelId>,
}

impl TableStore {
    /// Generates data for every table in `truth`, in name order. The
    /// simulator joins on the single shared key attribute; its domain is
    /// taken from each table's *first* column (the store's join-key
    /// convention).
    fn generate(truth: &Catalog, seed: u64) -> Self {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rels = BTreeMap::new();
        for meta in truth.iter() {
            let key_domain = meta
                .columns
                .first()
                .map(|c| c.distinct.max(1))
                .unwrap_or(meta.rows.max(1));
            let rel = generate(
                &mut disk,
                &mut rng,
                &DataGenSpec {
                    pages: meta.pages as usize,
                    key_domain,
                },
            );
            rels.insert(meta.name.clone(), rel);
        }
        TableStore { disk, rels }
    }
}

/// The serving loop. See the module docs for the data flow.
pub struct QueryService<M: CostModel + Sync> {
    model: M,
    beliefs: Catalog,
    truth: Catalog,
    store: TableStore,
    cache: PlanCache<CacheEntry>,
    drift: DriftDetector,
    config: ServeConfig,
    stats: OptStats,
    breaker: CircuitBreaker,
    shard_breaker: ShardBreaker,
    resilience: ResilienceCounters,
    optimizer_invocations: u64,
    recalibrations: u64,
    reoptimize_decisions: u64,
    recost_decisions: u64,
    queries_served: u64,
    /// Bumped on every recalibration; prepared requests and batch primers
    /// carry the version they were computed under and are ignored once it
    /// goes stale.
    beliefs_version: u64,
    /// Cache misses answered from a batch primer instead of a fresh
    /// optimizer run.
    primed_consumed: u64,
    /// Sampled confidence intervals per drifted/certified statistic
    /// (row-domain for joins). Empty unless `config.resample` is on.
    intervals: BTreeMap<DriftTarget, StatInterval>,
    /// RNG behind the sample draws; `None` unless `config.resample` is on,
    /// so the legacy path consumes no randomness.
    resample_rng: Option<ChaCha8Rng>,
    /// Drift-triggered resampling rounds performed so far.
    resamples: u64,
}

impl<M: CostModel + Sync> QueryService<M> {
    /// Builds a service: generates the simulated data from `truth` and
    /// starts with an empty cache and quiet drift windows.
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
        if !(config.drift.blend.is_finite()
            && config.drift.blend > 0.0
            && config.drift.blend <= 1.0)
        {
            return Err(ServeError::Config(format!(
                "drift blend {} outside (0, 1]",
                config.drift.blend
            )));
        }
        if let Some(rc) = &config.resample {
            if rc.draws == 0 || rc.initial_draws == 0 {
                return Err(ServeError::Config(
                    "resample draw counts must be positive".into(),
                ));
            }
            if !(rc.delta.is_finite() && rc.delta > 0.0 && rc.delta < 1.0) {
                return Err(ServeError::Config(format!(
                    "resample delta {} outside (0, 1)",
                    rc.delta
                )));
            }
        }
        let store = TableStore::generate(&truth, config.exec_seed);
        let cache = PlanCache::new(config.cache_shards, config.cache_capacity);
        let drift = DriftDetector::new(config.drift);
        let resample_rng = config
            .resample
            .as_ref()
            .map(|rc| ChaCha8Rng::seed_from_u64(rc.seed));
        Ok(QueryService {
            model,
            beliefs,
            truth,
            store,
            cache,
            drift,
            config,
            stats: OptStats::new("serve", 0),
            breaker: CircuitBreaker::new(),
            shard_breaker: ShardBreaker::new(),
            resilience: ResilienceCounters::default(),
            optimizer_invocations: 0,
            recalibrations: 0,
            reoptimize_decisions: 0,
            recost_decisions: 0,
            queries_served: 0,
            beliefs_version: 0,
            primed_consumed: 0,
            intervals: BTreeMap::new(),
            resample_rng,
            resamples: 0,
        })
    }

    /// Serves one request end to end: plan (cache or optimizer), execute,
    /// harvest feedback, recalibrate on drift.
    pub fn serve(&mut self, request: &QueryRequest) -> Result<ServedQuery, ServeError> {
        self.serve_at(self.queries_served, request, None, None)
    }

    /// Pre-processes a request off the serving path: builds its belief-side
    /// query and canonicalization, tagged with the current beliefs version.
    /// Pure with respect to service state (no counters move).
    pub fn prepare(&self, request: &QueryRequest) -> Result<PreparedRequest, ServeError> {
        let query = self.build_query(request)?;
        let canon = canonicalize(&query);
        Ok(PreparedRequest {
            query,
            canon,
            version: self.beliefs_version,
        })
    }

    /// Optimizes every *distinct would-miss* fingerprint in `window` exactly
    /// once, ahead of serving. Requests resident in the cache at prime time
    /// are *pinned*: their entry is cloned into the primer by a pure read
    /// ([`PlanCache::peek`] — no counters, no recency refresh), so that if
    /// within-window inserts evict them, later occurrences serve from the
    /// primer instead of re-optimizing. Isomorphic repeats of an optimized
    /// prime within the window are deduplicated (counted in the primer's
    /// `dedup_saved`). Optimizer work done here is indistinguishable from
    /// the same work done on the miss path: the same stats are absorbed and
    /// the same invocation counter moves, so a window of one request leaves
    /// every counter exactly where plain [`serve`] would — a resident
    /// request's pin is never consulted (its serve hits the cache first),
    /// and a non-resident one is optimized exactly once either way.
    ///
    /// Each `window` element pairs a request with its prepared form, if the
    /// caller has one; stale or absent preparations are recomputed here.
    ///
    /// [`serve`]: QueryService::serve
    pub fn prime_window(
        &mut self,
        window: &[(&QueryRequest, Option<&PreparedRequest>)],
    ) -> Result<BatchPrimer, ServeError> {
        let mut primer = BatchPrimer {
            version: self.beliefs_version,
            plans: BTreeMap::new(),
            pinned: BTreeSet::new(),
            dedup_saved: 0,
        };
        for (request, prepared) in window {
            let canon = match prepared.filter(|p| p.version == self.beliefs_version) {
                Some(p) => p.canon.clone(),
                None => canonicalize(&self.build_query(request)?),
            };
            let key = canon.fingerprint.encoding();
            if primer.plans.contains_key(key) {
                if !primer.pinned.contains(key) {
                    primer.dedup_saved += 1;
                }
                continue;
            }
            if let Some(entry) = self.cache.peek(&canon.fingerprint) {
                primer.pinned.insert(key.to_vec());
                primer.plans.insert(key.to_vec(), entry.plans);
                continue;
            }
            let plans = self.optimize_canonical(&canon)?;
            primer.plans.insert(key.to_vec(), plans);
        }
        Ok(primer)
    }

    /// One full optimizer run against a canonical query, with stats
    /// absorbed and the invocation counter moved — the single chokepoint
    /// both the miss path and the batch primer go through.
    fn optimize_canonical(
        &mut self,
        canon: &lec_plan::Canonical,
    ) -> Result<ParametricPlans, ServeError> {
        let (plans, pstats) = ParametricPlans::precompute_with_stats(
            &canon.query,
            &self.model,
            &self.config.scenarios,
        )?;
        self.stats.absorb(&pstats);
        self.optimizer_invocations += 1;
        Ok(plans)
    }

    /// [`serve`](QueryService::serve) with the stream position made
    /// explicit. `ordinal` keys everything ordinal-dependent — the
    /// per-execution memory draw and the fault-injection schedule — so a
    /// concurrent driver that partitions one logical stream across several
    /// services can hand each request its *global* position and reproduce
    /// the sequential loop's draws exactly. `prepared`, if given, must have
    /// been built from this same `request`; `primer` lets cache misses
    /// consume plans optimized ahead of the batch window. Both are ignored
    /// (and recomputed fresh) when their beliefs version is stale.
    pub fn serve_at(
        &mut self,
        ordinal: u64,
        request: &QueryRequest,
        prepared: Option<&PreparedRequest>,
        primer: Option<&BatchPrimer>,
    ) -> Result<ServedQuery, ServeError> {
        let (query, canon) = match prepared.filter(|p| p.version == self.beliefs_version) {
            Some(p) => (p.query.clone(), p.canon.clone()),
            None => {
                let query = self.build_query(request)?;
                let canon = canonicalize(&query);
                (query, canon)
            }
        };

        // Both the hit and the miss path optimize *and* cost against the
        // canonical query, so a hit's expected cost is bit-identical to the
        // miss that populated it; only the served plan is remapped into the
        // request's numbering.
        let (entry, cache_hit) = match self.cache.get(&canon.fingerprint) {
            Some(entry) => (entry, true),
            None => {
                let primed = primer
                    .filter(|p| p.version == self.beliefs_version)
                    .and_then(|p| p.plans.get(canon.fingerprint.encoding()));
                let plans = match primed {
                    Some(plans) => {
                        self.primed_consumed += 1;
                        plans.clone()
                    }
                    None => self.optimize_canonical(&canon)?,
                };
                let entry = CacheEntry {
                    request: request.clone(),
                    plans,
                    canon: canon.clone(),
                    tables: sorted_tables(request),
                };
                self.cache.insert(&canon.fingerprint, entry.clone());
                (entry, false)
            }
        };

        let choice = entry.plans.pick_with_rule(
            &canon.query,
            &self.model,
            &self.config.observed_memory,
            &self.config.selection_rule,
        )?;
        let plan = canon.plan_to_original(&choice.plan);

        // Always-on verification (`--verify` mode): the plan about to run
        // is checked in the *request's* numbering, so the canonical↔request
        // remapping is inside the verified surface.
        if self.config.verify_plans {
            lec_plan::verify_plan(&plan, &query).map_err(ServeError::Verification)?;
            lec_plan::verify_costs("served expected cost", &[choice.expected_cost])
                .map_err(ServeError::Verification)?;
        }

        let policy = self.config.resilience;
        let fp_key: Vec<u8> = canon.fingerprint.encoding().to_vec();
        let shard = self.cache.shard_index(&canon.fingerprint);

        // Shard breaker first — the coarse layer: a shard whose
        // fingerprints have *collectively* accumulated enough faults is
        // flushed wholesale and this request serves the LSC baseline
        // fault-free. Checked before the per-fingerprint breaker because a
        // tripping shard invalidates strictly more state.
        if self
            .shard_breaker
            .is_open(shard, policy.shard_breaker_threshold)
        {
            return self.serve_shard_reroute(
                ordinal,
                request,
                &query,
                &canon,
                choice.scenario,
                cache_hit,
                shard,
            );
        }

        // Circuit breaker: a fingerprint with enough accumulated faults
        // skips the ladder, serves the robust LSC baseline fault-free, and
        // has its entry dropped so the next request reoptimizes.
        if self.breaker.is_open(&fp_key, policy.breaker_threshold) {
            return self.serve_breaker_reroute(
                ordinal,
                request,
                &query,
                &canon,
                choice.scenario,
                cache_hit,
                &fp_key,
            );
        }

        // The fallback ladder: attempt 0 is the primary pick; attempt k
        // runs rung k-1 (next-best frontier plans by re-cost order, then
        // the LSC baseline, clamped at the last rung). The final allowed
        // attempt always executes with an empty schedule, so under
        // injection every request is served — degraded or retried, never
        // errored out. Rungs are built lazily: a fault-free serve (the
        // common case, and the whole PR-3 path) never prices or verifies
        // them at all.
        let max_attempts = policy.max_retries.saturating_add(1);
        let mut ladder: Option<Vec<LadderRung>> = None;
        let mut attempted: Vec<ServeRoute> = Vec::new();
        let mut fault_records: Vec<FaultRecord> = Vec::new();

        for attempt in 0..max_attempts {
            let (att_plan, att_cost, att_scenario, route) = if attempt == 0 {
                (
                    plan.clone(),
                    choice.expected_cost,
                    choice.scenario,
                    ServeRoute::Primary,
                )
            } else {
                if ladder.is_none() {
                    ladder = Some(self.build_ladder(
                        &query,
                        &canon,
                        &entry,
                        &choice.plan,
                        choice.scenario,
                    )?);
                }
                let rungs = ladder.as_ref().ok_or_else(|| {
                    ServeError::Config("fallback ladder missing after build".into())
                })?;
                let rung = &rungs[(attempt as usize - 1).min(rungs.len() - 1)];
                (
                    rung.plan.clone(),
                    rung.expected_cost,
                    rung.scenario,
                    rung.route,
                )
            };
            attempted.push(route);

            let final_attempt = attempt + 1 == max_attempts;
            let mut faults = if final_attempt {
                FaultSchedule::empty()
            } else {
                self.config.fault_injection.schedule_for(ordinal, attempt)
            };

            match self.execute(ordinal, request, &att_plan, &mut faults) {
                Ok((report, feedback)) => {
                    self.resilience.faults_injected += faults.trace().len() as u64;
                    fault_records.extend_from_slice(faults.trace());
                    match route {
                        ServeRoute::Primary => {}
                        ServeRoute::Frontier { .. } => {
                            self.resilience.degraded_serves += 1;
                            self.resilience.frontier_fallbacks += 1;
                        }
                        ServeRoute::LscBaseline => {
                            self.resilience.degraded_serves += 1;
                            self.resilience.lsc_fallbacks += 1;
                        }
                    }
                    // Certify against the intervals the plan was served
                    // under — before this serve's own feedback can trigger
                    // a resample and refresh them.
                    let certificate = self.certify_served(request, &query, &att_plan)?;
                    let recalibrations = self.ingest_feedback(request, &query, &feedback)?;
                    self.queries_served += 1;
                    return Ok(ServedQuery {
                        plan: att_plan,
                        expected_cost: att_cost,
                        scenario: att_scenario,
                        cache_hit,
                        report,
                        feedback,
                        recalibrations,
                        resilience: ResilienceReport {
                            attempts: attempt + 1,
                            faults: fault_records,
                            attempted,
                            route,
                            degraded: route != ServeRoute::Primary,
                            breaker_tripped: false,
                        },
                        certificate,
                    });
                }
                Err(ServeError::Exec(ExecError::InjectedFault { .. })) => {
                    self.resilience.faults_injected += faults.trace().len() as u64;
                    fault_records.extend_from_slice(faults.trace());
                    self.breaker.record_fault(&fp_key);
                    self.shard_breaker.record_fault(shard);
                    self.resilience.retries += 1;
                }
                Err(other) => return Err(other),
            }
        }
        // Unreachable: the final attempt runs fault-free, so the loop
        // either served above or propagated a real error.
        Err(ServeError::Config(
            "resilience ladder exhausted without serving".into(),
        ))
    }

    /// The circuit breaker's direct route: reset the strikes, drop the
    /// offending cache entry (its next request reoptimizes), and serve the
    /// LSC baseline without injection.
    #[allow(clippy::too_many_arguments)]
    fn serve_breaker_reroute(
        &mut self,
        ordinal: u64,
        request: &QueryRequest,
        query: &JoinQuery,
        canon: &lec_plan::Canonical,
        scenario: usize,
        cache_hit: bool,
        fp_key: &[u8],
    ) -> Result<ServedQuery, ServeError> {
        self.breaker.reset(fp_key);
        self.resilience.breaker_trips += 1;
        self.cache
            .invalidate_collect(|e| e.canon.fingerprint.encoding() == fp_key);
        self.serve_lsc_fallback(ordinal, request, query, canon, scenario, cache_hit)
    }

    /// The shard breaker's direct route: reset the shard's strikes, flush
    /// *every* entry in the shard (correlated faults taint them all — each
    /// reoptimizes on its next request), and serve the LSC baseline without
    /// injection.
    #[allow(clippy::too_many_arguments)]
    fn serve_shard_reroute(
        &mut self,
        ordinal: u64,
        request: &QueryRequest,
        query: &JoinQuery,
        canon: &lec_plan::Canonical,
        scenario: usize,
        cache_hit: bool,
        shard: usize,
    ) -> Result<ServedQuery, ServeError> {
        self.shard_breaker.reset(shard);
        self.resilience.shard_breaker_trips += 1;
        let shards = self.cache.shard_count();
        self.cache
            .invalidate_collect(|e| shard_of(&e.canon.fingerprint, shards) == shard);
        self.serve_lsc_fallback(ordinal, request, query, canon, scenario, cache_hit)
    }

    /// Shared tail of both breaker reroutes: execute the LSC baseline
    /// fault-free and report a degraded, breaker-tripped serve.
    fn serve_lsc_fallback(
        &mut self,
        ordinal: u64,
        request: &QueryRequest,
        query: &JoinQuery,
        canon: &lec_plan::Canonical,
        scenario: usize,
        cache_hit: bool,
    ) -> Result<ServedQuery, ServeError> {
        let (plan, expected) = self.lsc_baseline(query, canon)?;
        let mut faults = FaultSchedule::empty();
        let (report, feedback) = self.execute(ordinal, request, &plan, &mut faults)?;
        self.resilience.degraded_serves += 1;
        self.resilience.lsc_fallbacks += 1;
        let recalibrations = self.ingest_feedback(request, query, &feedback)?;
        self.queries_served += 1;
        Ok(ServedQuery {
            plan,
            expected_cost: expected,
            scenario,
            cache_hit,
            report,
            feedback,
            recalibrations,
            resilience: ResilienceReport {
                attempts: 1,
                faults: Vec::new(),
                attempted: vec![ServeRoute::LscBaseline],
                route: ServeRoute::LscBaseline,
                degraded: true,
                breaker_tripped: true,
            },
            // Breaker routes are already degraded; no certificate claim.
            certificate: None,
        })
    }

    /// Prices the fallback rungs for one request: the entry's remaining
    /// distinct scenario plans re-cost under the observed memory
    /// distribution, ordered by the configured selection rule (for the
    /// default LEC rule, expected cost ascending — bit-identical to the
    /// pre-rules ladder; for robust rules, their joint rule score — ties
    /// broken by scenario index either way), followed by the LSC
    /// baseline as the last resort. The LSC rung reports the primary's
    /// scenario (it belongs to none).
    fn build_ladder(
        &self,
        query: &JoinQuery,
        canon: &lec_plan::Canonical,
        entry: &CacheEntry,
        primary_canonical: &Plan,
        primary_scenario: usize,
    ) -> Result<Vec<LadderRung>, ServeError> {
        let phases = MemoryModel::Static(self.config.observed_memory.clone())
            .table(canon.query.n().max(2))
            .map_err(ServeError::Core)?;
        let mut priced: Vec<(Plan, f64, usize)> = Vec::new();
        for (idx, (_, opt)) in entry.plans.scenarios().iter().enumerate() {
            if opt.plan == *primary_canonical || priced.iter().any(|(p, _, _)| *p == opt.plan) {
                continue;
            }
            let cost = expected_cost(&canon.query, &self.model, &opt.plan, &phases);
            priced.push((opt.plan.clone(), cost, idx));
        }
        if matches!(self.config.selection_rule, Rule::LeastExpectedCost) {
            priced.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)));
        } else {
            // Robust rules order the rungs by their own (joint) score, so
            // a fallback under minmax regret walks the *regret* frontier,
            // not the expected-cost one. Rung expected costs still report
            // expected cost — the comparable currency across routes.
            let observed = &self.config.observed_memory;
            let profiles: Vec<Vec<f64>> = priced
                .iter()
                .map(|(p, _, _)| {
                    lec_core::evaluate::cost_profile(
                        &canon.query,
                        &self.model,
                        p,
                        observed.values(),
                    )
                })
                .collect();
            let scores = self
                .config
                .selection_rule
                .scores(&profiles, observed.probs());
            let mut order: Vec<usize> = (0..priced.len()).collect();
            order.sort_by(|&a, &b| {
                scores[a]
                    .total_cmp(&scores[b])
                    .then(priced[a].2.cmp(&priced[b].2))
            });
            priced = order.into_iter().map(|i| priced[i].clone()).collect();
        }
        let mut rungs = Vec::with_capacity(priced.len() + 1);
        for (rank, (cplan, cost, scenario)) in priced.into_iter().enumerate() {
            let plan = canon.plan_to_original(&cplan);
            if self.config.verify_plans {
                lec_plan::verify_plan(&plan, query).map_err(ServeError::Verification)?;
                lec_plan::verify_costs("fallback expected cost", &[cost])
                    .map_err(ServeError::Verification)?;
            }
            rungs.push(LadderRung {
                plan,
                expected_cost: cost,
                scenario,
                route: ServeRoute::Frontier { rank },
            });
        }
        let (lsc_plan, lsc_cost) = self.lsc_baseline(query, canon)?;
        rungs.push(LadderRung {
            plan: lsc_plan,
            expected_cost: lsc_cost,
            scenario: primary_scenario,
            route: ServeRoute::LscBaseline,
        });
        Ok(rungs)
    }

    /// The robust last resort: System R (LSC) at the mean observed grant,
    /// re-priced as an expected cost under the observed distribution so its
    /// rung is comparable to the frontier rungs.
    fn lsc_baseline(
        &self,
        query: &JoinQuery,
        canon: &lec_plan::Canonical,
    ) -> Result<(Plan, f64), ServeError> {
        let optimized = lsc::optimize_at(
            &canon.query,
            &self.model,
            self.config.observed_memory.mean(),
        )?
        .0;
        let phases = MemoryModel::Static(self.config.observed_memory.clone())
            .table(canon.query.n().max(2))
            .map_err(ServeError::Core)?;
        let cost = expected_cost(&canon.query, &self.model, &optimized.plan, &phases);
        let plan = canon.plan_to_original(&optimized.plan);
        if self.config.verify_plans {
            lec_plan::verify_plan(&plan, query).map_err(ServeError::Verification)?;
            lec_plan::verify_costs("lsc baseline expected cost", &[cost])
                .map_err(ServeError::Verification)?;
        }
        Ok((plan, cost))
    }

    /// Builds the optimizer query for `request` from the belief catalog.
    fn build_query(&self, request: &QueryRequest) -> Result<JoinQuery, ServeError> {
        let tables: Vec<&str> = request.tables.iter().map(String::as_str).collect();
        Ok(query_from_catalog(
            &self.beliefs,
            &tables,
            &request.joins,
            &request.filters,
            request.order_by,
        )?)
    }

    /// Executes `plan` over the generated data, realizing the *truth*
    /// catalog's filter selectivities. `ordinal` is the request's position
    /// in the logical stream: it seeds the memory draw, so concurrent
    /// drivers replaying a partition of the stream draw what the
    /// sequential loop would.
    fn execute(
        &mut self,
        ordinal: u64,
        request: &QueryRequest,
        plan: &Plan,
        faults: &mut FaultSchedule,
    ) -> Result<(ExecReport, ExecFeedback), ServeError> {
        let mut base = Vec::with_capacity(request.tables.len());
        for t in &request.tables {
            base.push(
                *self.store.rels.get(t).ok_or_else(|| {
                    ServeError::Config(format!("table `{t}` has no generated data"))
                })?,
            );
        }
        let mut selections = vec![1.0; request.tables.len()];
        for f in &request.filters {
            let idx = request
                .tables
                .iter()
                .position(|t| *t == f.table)
                .ok_or_else(|| {
                    ServeError::Config(format!("filter on `{}` not in table list", f.table))
                })?;
            let true_sel = Predicate::Range {
                table: f.table.clone(),
                column: f.column.clone(),
                lo: f.lo,
                hi: f.hi,
            }
            .estimate(&self.truth)?
            .clamp(1e-9, 1.0);
            selections[idx] *= true_sel;
        }
        // Seeded by the request ordinal, not the attempt: every rung of the
        // ladder faces the same memory draw, so a retry is a pure plan
        // switch.
        let mut env = ExecMemoryEnv::draw_once(
            self.config.observed_memory.clone(),
            self.config.exec_seed.wrapping_add(ordinal),
        );
        // Everything the execution writes (filtered scans, sort runs,
        // partitions, the result) is dropped again, on success and on
        // error, so a long-lived service holds only its base data.
        let mark = self.store.disk.relation_count();
        let executed = execute_plan_with_faults(
            plan,
            &base,
            &selections,
            &mut self.store.disk,
            &mut env,
            faults,
        );
        self.store.disk.drop_from(mark);
        Ok(executed?)
    }

    /// Feeds execution observations to the drift detector and handles any
    /// events it fires. `query` is the belief-side query the request was
    /// planned under (its estimates are what the observations refute).
    fn ingest_feedback(
        &mut self,
        request: &QueryRequest,
        query: &JoinQuery,
        feedback: &ExecFeedback,
    ) -> Result<Vec<Recalibration>, ServeError> {
        let mut events = Vec::new();

        for obs in &feedback.selections {
            let table = &request.tables[obs.rel];
            // Attribute the relation's observed shrinkage to its first
            // filter (a relation with several filters gets one composite
            // window; the recalibration re-spreads mass over all of them).
            let Some(filter) = request.filters.iter().find(|f| f.table == *table) else {
                continue;
            };
            let target = DriftTarget::Selection {
                table: table.clone(),
                column: filter.column.clone(),
            };
            let estimated = query.relation(obs.rel).local_selectivity;
            if let Some(e) = self
                .drift
                .observe(target, estimated, obs.observed_selectivity())
            {
                events.push(e);
            }
        }

        for obs in &feedback.joins {
            // Only leaf joins (output covering exactly two base relations)
            // isolate a single predicate's selectivity.
            if obs.rels.len() != 2 {
                continue;
            }
            let members: Vec<usize> = obs.rels.iter().collect();
            let Some(spec) = request.joins.iter().find(|j| {
                let l = request.tables.iter().position(|t| *t == j.left_table);
                let r = request.tables.iter().position(|t| *t == j.right_table);
                matches!((l, r), (Some(l), Some(r))
                    if (l == members[0] && r == members[1]) || (l == members[1] && r == members[0]))
            }) else {
                continue;
            };
            let estimated = Predicate::EquiJoin {
                left_table: spec.left_table.clone(),
                left_column: spec.left_column.clone(),
                right_table: spec.right_table.clone(),
                right_column: spec.right_column.clone(),
            }
            .estimate(&self.beliefs)?;
            let target = DriftTarget::Join {
                left_table: spec.left_table.clone(),
                left_column: spec.left_column.clone(),
                right_table: spec.right_table.clone(),
                right_column: spec.right_column.clone(),
            };
            if let Some(e) = self
                .drift
                .observe(target, estimated, obs.observed_selectivity())
            {
                events.push(e);
            }
        }

        let mut rounds = Vec::with_capacity(events.len());
        for event in events {
            rounds.push(self.recalibrate(request, event)?);
        }
        Ok(rounds)
    }

    /// Recalibrates the belief catalog from one drift event, pulls the
    /// affected cache entries, and decides (via EVPI) whether they are
    /// dropped for re-optimization or migrated for re-costing.
    fn recalibrate(
        &mut self,
        request: &QueryRequest,
        event: DriftEvent,
    ) -> Result<Recalibration, ServeError> {
        if self.config.resample.is_some() {
            // Resampling mode: instead of blending observations into the
            // beliefs, draw a fresh row sample from truth — fresh point
            // estimate, fresh confidence interval, fresh certificate for
            // every subsequent serve.
            self.resample_statistic(request, &event.target)?;
        } else {
            match &event.target {
                DriftTarget::Selection { table, column } => {
                    let filter = request
                        .filters
                        .iter()
                        .find(|f| f.table == *table && f.column == *column)
                        .ok_or_else(|| {
                            ServeError::Config(format!(
                                "drift on `{table}.{column}` without a matching filter"
                            ))
                        })?;
                    self.recalibrate_selection(filter, event.mean_observed)?;
                }
                DriftTarget::Join {
                    left_table,
                    left_column,
                    right_table,
                    right_column,
                } => {
                    self.recalibrate_join(
                        left_table,
                        left_column,
                        right_table,
                        right_column,
                        event.mean_observed,
                    )?;
                }
            }
        }
        self.recalibrations += 1;
        // Anything prepared or primed under the old beliefs is now stale.
        self.beliefs_version += 1;

        // Every cached entry optimized under the stale statistic is pulled.
        let affected: Vec<&str> = event.target.tables();
        let mut removed = self
            .cache
            .invalidate_collect(|e| e.tables.iter().any(|t| affected.contains(&t.as_str())));
        // invalidate_collect's order follows shard/map layout; sort by the
        // entries' canonical encodings so migration re-inserts (and thus
        // future LRU ticks) are deterministic.
        removed.sort_by(|a, b| {
            a.canon
                .fingerprint
                .encoding()
                .cmp(b.canon.fingerprint.encoding())
        });
        let entries_invalidated = removed.len();

        let decision = self.decide(request, &event)?;
        let mut entries_migrated = 0;
        match decision {
            RecalibrationDecision::Reoptimize => {
                self.reoptimize_decisions += 1;
            }
            RecalibrationDecision::RecostOnly => {
                self.recost_decisions += 1;
                for entry in removed {
                    entries_migrated += self.migrate(entry)? as usize;
                }
            }
        }

        Ok(Recalibration {
            event,
            decision,
            entries_invalidated,
            entries_migrated,
        })
    }

    /// Folds an observed filter selectivity into the belief column's
    /// histogram (installing a uniform one first if the column had none).
    fn recalibrate_selection(
        &mut self,
        filter: &FilterSpec,
        observed_sel: f64,
    ) -> Result<(), ServeError> {
        let blend = self.config.drift.blend;
        let meta = self.beliefs.table_mut(&filter.table)?;
        let col = meta
            .columns
            .iter_mut()
            .find(|c| c.name == filter.column)
            .ok_or_else(|| {
                ServeError::Config(format!(
                    "filtered column `{}.{}` missing from beliefs",
                    filter.table, filter.column
                ))
            })?;
        let (col_min, col_max) = (col.min, col.max);
        let h = match &mut col.histogram {
            Some(h) => h,
            slot => {
                // Seed a uniform prior over the column's span so there is
                // something to blend the observations into.
                let span: Vec<f64> = (0..=16)
                    .map(|i| col_min + (col_max - col_min) * i as f64 / 16.0)
                    .collect();
                slot.insert(Histogram::equi_width(&span, 8)?)
            }
        };

        // Synthesize a sample realizing the observed in-range fraction:
        // spread the in-range mass over points inside [lo, hi] and the
        // remainder over the rest of the histogram's domain, both evenly.
        const SAMPLE: u64 = 10_000;
        const POINTS: u64 = 8;
        let in_total = ((observed_sel.clamp(0.0, 1.0) * SAMPLE as f64).round() as u64).min(SAMPLE);
        let out_total = SAMPLE - in_total;
        let mut obs: Vec<(f64, u64)> = Vec::new();
        spread(&mut obs, filter.lo, filter.hi, in_total, POINTS);
        let bounds = h.boundaries();
        let (dom_lo, dom_hi) = (
            bounds.first().copied().unwrap_or(filter.lo).min(filter.lo),
            bounds.last().copied().unwrap_or(filter.hi).max(filter.hi),
        );
        let left_w = (filter.lo - dom_lo).max(0.0);
        let right_w = (dom_hi - filter.hi).max(0.0);
        let total_w = left_w + right_w;
        if out_total > 0 && total_w > 0.0 {
            let left_share = ((out_total as f64) * left_w / total_w).round() as u64;
            spread(
                &mut obs,
                dom_lo,
                filter.lo,
                left_share.min(out_total),
                POINTS,
            );
            spread(
                &mut obs,
                filter.hi,
                dom_hi,
                out_total - left_share.min(out_total),
                POINTS,
            );
        }
        if obs.iter().map(|&(_, c)| c).sum::<u64>() > 0 {
            h.merge_observations(&obs, blend)?;
        }
        Ok(())
    }

    /// Nudges the binding distinct count of an equi-join toward the value
    /// implied by the observed row selectivity (System R containment:
    /// `sel = 1 / max(d_left, d_right)`).
    fn recalibrate_join(
        &mut self,
        left_table: &str,
        left_column: &str,
        right_table: &str,
        right_column: &str,
        observed_sel: f64,
    ) -> Result<(), ServeError> {
        let blend = self.config.drift.blend;
        let implied = (1.0 / observed_sel.max(1e-12)).round().max(1.0);
        let d_left = self
            .beliefs
            .table(left_table)?
            .column(left_column)?
            .distinct;
        let d_right = self
            .beliefs
            .table(right_table)?
            .column(right_column)?
            .distinct;
        // The containment estimate only reads the larger side; blend it
        // toward the implied value.
        let (table, column, old) = if d_left >= d_right {
            (left_table, left_column, d_left)
        } else {
            (right_table, right_column, d_right)
        };
        let new = ((1.0 - blend) * old as f64 + blend * implied)
            .round()
            .max(1.0) as u64;
        let meta = self.beliefs.table_mut(table)?;
        let col = meta
            .columns
            .iter_mut()
            .find(|c| c.name == column)
            .ok_or_else(|| {
                ServeError::Config(format!(
                    "join column `{table}.{column}` missing from beliefs"
                ))
            })?;
        col.distinct = new;
        Ok(())
    }

    /// The per-statistic sampling configuration in force, or an error when
    /// resampling is off (the callers below are all gated on it).
    fn sample_config(&self, draws: u64) -> Result<SampleConfig, ServeError> {
        let rc =
            self.config.resample.as_ref().ok_or_else(|| {
                ServeError::Config("sampling requested with resampling off".into())
            })?;
        Ok(SampleConfig {
            draws,
            delta: rc.delta,
            bound: rc.bound,
            buckets: rc.buckets,
        })
    }

    /// One fresh draw-seed from the resampling RNG (deterministic in the
    /// request stream).
    fn next_sample_seed(&mut self) -> Result<u64, ServeError> {
        self.resample_rng
            .as_mut()
            .map(RngCore::next_u64)
            .ok_or_else(|| ServeError::Config("sampling requested with resampling off".into()))
    }

    /// Samples `pred` against the truth catalog at the given draw count and
    /// caches the resulting interval under `target`.
    fn sample_interval_for(
        &mut self,
        target: &DriftTarget,
        pred: &Predicate,
        draws: u64,
    ) -> Result<StatInterval, ServeError> {
        let cfg = self.sample_config(draws)?;
        let seed = self.next_sample_seed()?;
        let interval = SampleEstimator::new(&self.truth, cfg, seed).sample_selectivity(pred)?;
        self.intervals.insert(target.clone(), interval);
        Ok(interval)
    }

    /// Drift-triggered resampling: replaces the drifted belief statistic
    /// with a fresh sample-backed estimate (full `draws` budget) and
    /// refreshes its cached confidence interval. The alternative to the
    /// blending recalibrations, selected by [`ServeConfig::resample`].
    fn resample_statistic(
        &mut self,
        request: &QueryRequest,
        target: &DriftTarget,
    ) -> Result<(), ServeError> {
        let rc = *self.config.resample.as_ref().ok_or_else(|| {
            ServeError::Config("resample_statistic called with resampling off".into())
        })?;
        match target {
            DriftTarget::Selection { table, column } => {
                let filter = request
                    .filters
                    .iter()
                    .find(|f| f.table == *table && f.column == *column)
                    .ok_or_else(|| {
                        ServeError::Config(format!(
                            "drift on `{table}.{column}` without a matching filter"
                        ))
                    })?
                    .clone();
                let pred = Predicate::Range {
                    table: table.clone(),
                    column: column.clone(),
                    lo: filter.lo,
                    hi: filter.hi,
                };
                self.sample_interval_for(target, &pred, rc.draws)?;
                // The belief column's histogram is rebuilt from the same
                // fresh sample budget, so subsequent estimates track truth
                // instead of blending toward it.
                let cfg = self.sample_config(rc.draws)?;
                let seed = self.next_sample_seed()?;
                let hist =
                    SampleEstimator::new(&self.truth, cfg, seed).sample_histogram(table, column)?;
                let meta = self.beliefs.table_mut(table)?;
                let col = meta
                    .columns
                    .iter_mut()
                    .find(|c| c.name == *column)
                    .ok_or_else(|| {
                        ServeError::Config(format!(
                            "filtered column `{table}.{column}` missing from beliefs"
                        ))
                    })?;
                col.histogram = Some(hist);
            }
            DriftTarget::Join {
                left_table,
                left_column,
                right_table,
                right_column,
            } => {
                let pred = Predicate::EquiJoin {
                    left_table: left_table.clone(),
                    left_column: left_column.clone(),
                    right_table: right_table.clone(),
                    right_column: right_column.clone(),
                };
                let interval = self.sample_interval_for(target, &pred, rc.draws)?;
                // The containment estimate reads the larger side's distinct
                // count; replace it with the count the sampled selectivity
                // implies (`sel = 1 / max(d_left, d_right)`).
                let implied = (1.0 / interval.point.max(1e-12)).round().max(1.0) as u64;
                let d_left = self
                    .beliefs
                    .table(left_table)?
                    .column(left_column)?
                    .distinct;
                let d_right = self
                    .beliefs
                    .table(right_table)?
                    .column(right_column)?
                    .distinct;
                let (table, column) = if d_left >= d_right {
                    (left_table, left_column)
                } else {
                    (right_table, right_column)
                };
                let meta = self.beliefs.table_mut(table)?;
                let col = meta
                    .columns
                    .iter_mut()
                    .find(|c| c.name == *column)
                    .ok_or_else(|| {
                        ServeError::Config(format!(
                            "join column `{table}.{column}` missing from beliefs"
                        ))
                    })?;
                col.distinct = implied;
            }
        }
        self.resamples += 1;
        Ok(())
    }

    /// Builds the interval box for `query` from the cached per-statistic
    /// intervals (lazily sampling any first-touch statistic at the cheap
    /// `initial_draws` budget) and certifies the served plan against it.
    /// Returns `None` when resampling is off — the legacy path computes
    /// nothing.
    ///
    /// Statistics without a drift-target representation (unfiltered
    /// relations, relations with several filters, non-leaf joins' absent
    /// observations) are treated as exactly known, like every other
    /// statistic the paper's model takes as given; each sampled interval is
    /// widened to include the belief catalog's own point estimate (coverage
    /// only grows), and join intervals are mapped from the row domain to
    /// the page domain the query's predicates live in.
    fn certify_served(
        &mut self,
        request: &QueryRequest,
        query: &JoinQuery,
        plan: &Plan,
    ) -> Result<Option<Certificate>, ServeError> {
        let Some(rc) = self.config.resample else {
            return Ok(None);
        };
        let mut delta_total = 0.0;

        let mut relation_selectivity = Vec::with_capacity(query.n());
        for (idx, table) in request.tables.iter().enumerate() {
            let point = query.relation(idx).local_selectivity;
            let filters: Vec<&FilterSpec> = request
                .filters
                .iter()
                .filter(|f| f.table == *table)
                .collect();
            if point >= 1.0 || filters.len() != 1 {
                relation_selectivity.push((point, point));
                continue;
            }
            let filter = filters[0].clone();
            let target = DriftTarget::Selection {
                table: table.clone(),
                column: filter.column.clone(),
            };
            let interval = match self.intervals.get(&target) {
                Some(iv) => *iv,
                None => {
                    let pred = Predicate::Range {
                        table: table.clone(),
                        column: filter.column.clone(),
                        lo: filter.lo,
                        hi: filter.hi,
                    };
                    self.sample_interval_for(&target, &pred, rc.initial_draws)?
                }
            };
            let (lo, hi) = (interval.lo.min(point), interval.hi.max(point));
            if hi > lo {
                delta_total += interval.delta;
            }
            relation_selectivity.push((lo, hi));
        }

        let mut predicate_selectivity = Vec::with_capacity(query.predicates().len());
        for (k, spec) in request.joins.iter().enumerate() {
            let point = query
                .predicates()
                .get(k)
                .map(|p| p.selectivity)
                .ok_or_else(|| {
                    ServeError::Config(format!("join {k} missing from the built query"))
                })?;
            let target = DriftTarget::Join {
                left_table: spec.left_table.clone(),
                left_column: spec.left_column.clone(),
                right_table: spec.right_table.clone(),
                right_column: spec.right_column.clone(),
            };
            let interval = match self.intervals.get(&target) {
                Some(iv) => *iv,
                None => {
                    let pred = Predicate::EquiJoin {
                        left_table: spec.left_table.clone(),
                        left_column: spec.left_column.clone(),
                        right_table: spec.right_table.clone(),
                        right_column: spec.right_column.clone(),
                    };
                    self.sample_interval_for(&target, &pred, rc.initial_draws)?
                }
            };
            // Row-domain interval endpoints → the page domain, through the
            // same monotone conversion `query_from_catalog` applies to the
            // point estimate.
            let (lt, rt) = (
                self.beliefs.table(&spec.left_table)?,
                self.beliefs.table(&spec.right_table)?,
            );
            let tpp_out = lt.tuples_per_page().max(rt.tuples_per_page());
            let to_pages = |s: f64| {
                (s * lt.tuples_per_page() * rt.tuples_per_page() / tpp_out).clamp(1e-12, 1.0)
            };
            let (lo, hi) = (
                to_pages(interval.lo).min(point),
                to_pages(interval.hi).max(point),
            );
            if hi > lo {
                delta_total += interval.delta;
            }
            predicate_selectivity.push((lo, hi));
        }

        let intervals = QueryIntervals {
            relation_selectivity,
            predicate_selectivity,
            delta: delta_total,
        };
        let memory = MemoryModel::Static(self.config.observed_memory.clone());
        let cert = certify_plan(query, &self.model, &memory, plan, &intervals)?;
        self.stats.certificate = Some(cert.clone());
        Ok(Some(cert))
    }

    /// EVPI-based cache policy: is re-planning under the (now sharper)
    /// statistic worth a full optimizer run?
    fn decide(
        &self,
        request: &QueryRequest,
        event: &DriftEvent,
    ) -> Result<RecalibrationDecision, ServeError> {
        // The exact joint analysis is exponential; beyond 4 relations the
        // conservative answer is to re-optimize.
        let query = self.build_query(request)?;
        if query.n() > 4 {
            return Ok(RecalibrationDecision::Reoptimize);
        }
        let mut sizes = SizeModel::certain(&query)?;
        let two_point = |est: f64, obs: f64| -> Option<Distribution> {
            let (a, b) = (est.max(1e-12), obs.max(1e-12));
            if (a - b).abs() <= 1e-9 * a.max(b) {
                return None;
            }
            Distribution::new([(a, 0.5), (b, 0.5)]).ok()
        };
        let uncertain = match &event.target {
            DriftTarget::Selection { table, .. } => {
                let Some(idx) = request.tables.iter().position(|t| t == table) else {
                    return Ok(RecalibrationDecision::Reoptimize);
                };
                let pages = query.relation(idx).pages;
                match two_point(pages * event.mean_estimated, pages * event.mean_observed) {
                    Some(d) => {
                        sizes.rel_sizes[idx] = d;
                        true
                    }
                    None => false,
                }
            }
            DriftTarget::Join {
                left_table,
                right_table,
                ..
            } => {
                let Some(k) = request
                    .joins
                    .iter()
                    .position(|j| j.left_table == *left_table && j.right_table == *right_table)
                else {
                    return Ok(RecalibrationDecision::Reoptimize);
                };
                // Convert the row-domain means to the page domain the
                // query's predicate selectivities live in.
                let (lt, rt) = (
                    self.beliefs.table(left_table)?,
                    self.beliefs.table(right_table)?,
                );
                let tpp_out = lt.tuples_per_page().max(rt.tuples_per_page());
                let to_pages = |s: f64| {
                    (s * lt.tuples_per_page() * rt.tuples_per_page() / tpp_out).clamp(1e-12, 1.0)
                };
                match two_point(
                    to_pages(event.mean_estimated),
                    to_pages(event.mean_observed),
                ) {
                    Some(d) => {
                        sizes.selectivities[k] = d;
                        true
                    }
                    None => false,
                }
            }
        };
        if !uncertain {
            // The statistic barely moved: nothing an optimizer run could
            // exploit.
            return Ok(RecalibrationDecision::RecostOnly);
        }
        let memory = MemoryModel::Static(self.config.observed_memory.clone());
        let report = voi::analyze(&query, &self.model, &memory, &sizes)?;
        if report.sampling_worthwhile(self.config.reoptimize_cost) {
            Ok(RecalibrationDecision::Reoptimize)
        } else {
            Ok(RecalibrationDecision::RecostOnly)
        }
    }

    /// Migrates one pulled entry under the updated beliefs: rebuilds its
    /// query, re-canonicalizes, carries the stored plans across the two
    /// numberings, and re-inserts. Returns `false` when a carried plan
    /// fails the plan-IR verifier against the rebuilt query (the entry is
    /// then dropped and will be re-optimized on its next request) — the
    /// full verifier, not the weaker `Plan::validate`, so a migration can
    /// never park a plan the serve path would refuse to run.
    fn migrate(&mut self, entry: CacheEntry) -> Result<bool, ServeError> {
        let query = self.build_query(&entry.request)?;
        let canon = canonicalize(&query);
        let mut scenarios = Vec::with_capacity(entry.plans.scenarios().len());
        for (dist, opt) in entry.plans.scenarios() {
            // Old canonical → the entry's request numbering → new canonical.
            let in_request = entry.canon.plan_to_original(&opt.plan);
            let plan = canon.plan_to_canonical(&in_request);
            if lec_plan::verify_plan(&plan, &canon.query).is_err() {
                return Ok(false);
            }
            scenarios.push((
                dist.clone(),
                lec_core::Optimized {
                    plan,
                    // Stale by design: `pick` re-costs, never reads this.
                    cost: opt.cost,
                },
            ));
        }
        let plans = ParametricPlans::from_parts(scenarios)?;
        let migrated = CacheEntry {
            request: entry.request,
            plans,
            canon: canon.clone(),
            tables: entry.tables,
        };
        self.cache.insert(&canon.fingerprint, migrated);
        Ok(true)
    }

    /// Aggregate optimizer statistics with the live cache counters folded
    /// in.
    pub fn stats(&self) -> OptStats {
        let mut s = self.stats.clone();
        s.cache = self.cache.counters();
        s.resilience = self.resilience;
        s
    }

    /// Live fault/retry/degradation counters.
    pub fn resilience_counters(&self) -> ResilienceCounters {
        self.resilience
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
        self.optimizer_invocations
    }

    /// Number of recalibration rounds performed so far.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations
    }

    /// `(reoptimize, recost-only)` decision counts so far.
    pub fn decisions(&self) -> (u64, u64) {
        (self.reoptimize_decisions, self.recost_decisions)
    }

    /// Requests served so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Current beliefs version (bumped once per recalibration). Prepared
    /// requests and batch primers tagged with an older version are ignored.
    pub fn beliefs_version(&self) -> u64 {
        self.beliefs_version
    }

    /// Cache misses answered from a batch primer instead of a fresh
    /// optimizer run.
    pub fn primed_consumed(&self) -> u64 {
        self.primed_consumed
    }

    /// Relations on the service's simulated disk. Executions reclaim their
    /// temporaries, so between serves this is the number of generated base
    /// tables.
    pub fn stored_relations(&self) -> usize {
        self.store.disk.relation_count()
    }

    /// Live cache size in entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Drift-triggered resampling rounds performed so far (always zero
    /// with [`ServeConfig::resample`] off or on a drift-quiet stream).
    pub fn resamples(&self) -> u64 {
        self.resamples
    }

    /// The cached confidence interval for one statistic, if it has been
    /// sampled (row-domain for joins).
    pub fn stat_interval(&self, target: &DriftTarget) -> Option<StatInterval> {
        self.intervals.get(target).copied()
    }
}

/// The request's tables, sorted and deduplicated (invalidation keys).
fn sorted_tables(request: &QueryRequest) -> Vec<String> {
    let mut tables = request.tables.clone();
    tables.sort();
    tables.dedup();
    tables
}

/// Appends `points` evenly spaced observation sites across `[lo, hi]`
/// carrying `count` rows in total (remainder goes to the first site).
fn spread(obs: &mut Vec<(f64, u64)>, lo: f64, hi: f64, count: u64, points: u64) {
    if count == 0 || hi < lo {
        return;
    }
    let points = points.max(1);
    let per = count / points;
    let mut rem = count % points;
    for i in 0..points {
        let frac = (i as f64 + 0.5) / points as f64;
        let v = lo + (hi - lo) * frac;
        let c = per + if rem > 0 { 1 } else { 0 };
        rem = rem.saturating_sub(1);
        if c > 0 {
            obs.push((v, c));
        }
    }
}
