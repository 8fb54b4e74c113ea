//! The query service: one request runs one straight-line sequence of
//! stages.
//!
//! A [`QueryService`] owns two catalogs. The **belief** catalog is what the
//! optimizer sees; the **truth** catalog describes the data actually on the
//! simulated disk. [`serve_at`](QueryService::serve_at) runs each request
//! through the same private stages, in this order:
//!
//! 1. **prepare** — build the belief-side query and canonicalize it (so
//!    isomorphic queries share one cache entry). The result depends only on
//!    the request and the beliefs, so it is built once per request and
//!    beliefs version: a private memo of up to `cache_capacity` prepared
//!    forms, keyed by a 64-bit digest of the request and confirmed field by
//!    field (a digest collision costs a rebuild, never another request's
//!    form), answers every later prepare until a recalibration clears it. A
//!    prepared form the caller supplies is used instead while its beliefs
//!    version is current;
//! 2. **plan** — look the fingerprint up in the sharded [`PlanCache`] of
//!    parametric plan sets; on a miss take a batch primer's plans or run
//!    the optimizer. Entries and plan sets are shared (`Arc`), so a hit
//!    clones a pointer, not the plans;
//! 3. **pick** — re-cost the distinct stored plans under the observed
//!    memory distribution and rank them by the configured selection rule
//!    ([`ParametricPlans::ranked`]); the first is served;
//! 4. **verify** — run the pick through the plan-IR verifier in the
//!    request's numbering (always on);
//! 5. **execute** — walk the fallback ladder (primary pick, the pick's
//!    other candidates ranked among themselves, LSC baseline) on
//!    `lec-exec`. A tripped circuit breaker starts the ladder at its LSC
//!    rung, fault-free;
//! 6. **certify** — when the service resamples, attach an (ε, δ)
//!    certificate computed from the intervals the plan was served under.
//!    This runs before feedback, which may resample and refresh those
//!    intervals;
//! 7. **feedback** — feed observed selection and join cardinalities to the
//!    [`DriftDetector`];
//! 8. **recalibrate** — for each fired drift event, update the belief
//!    statistic (blend or resample, see below), pull the affected cache
//!    entries, and let a value-of-information analysis
//!    ([`lec_core::voi`]) decide whether they are re-optimized from
//!    scratch on their next request or migrated (plans carried over,
//!    re-cost at pick time).
//!
//! [`ServeConfig::resample`] decides whether the service holds a private
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
//! [`serve_at`](QueryService::serve_at) takes the stream position
//! explicitly, so the concurrent driver ([`crate::concurrent`]) can
//! partition one logical stream across several services while reproducing
//! the sequential loop's memory draws and fault schedules exactly;
//! [`prime_window`](QueryService::prime_window) runs the prepare and
//! optimize stages ahead of a window without perturbing any counter.

use crate::cache::{shard_of, PlanCache};
use crate::drift::{DriftConfig, DriftDetector, DriftEvent, DriftTarget};
use crate::error::ServeError;
use crate::recalibrate::{filter_stat, join_stat, update_beliefs, Sampler};
use crate::resilience::{Breaker, FaultInjection, ResiliencePolicy, ResilienceReport, ServeRoute};
use lec_catalog::sampling::{BoundKind, StatInterval};
use lec_catalog::Catalog;
use lec_core::alg_d::SizeModel;
use lec_core::certificate::{certify_plan, Certificate};
use lec_core::evaluate::profile_and_expected_cost;
use lec_core::parametric::{rank, Candidate, ParametricPlans};
use lec_core::{lsc, voi, CoreError, MemoryModel, OptStats, ResilienceCounters};
use lec_cost::CostModel;
use lec_exec::datagen::{generate, DataGenSpec};
use lec_exec::{
    execute_plan_with_faults, Disk, ExecError, ExecFeedback, ExecMemoryEnv, ExecReport,
    FaultSchedule, RelId,
};
use lec_plan::{canonicalize, Canonical, JoinQuery, Plan, RelSet};
use lec_rules::{Rule, SelectionRule};
use lec_stats::Distribution;
use lec_workload::from_catalog::{page_selectivity, query_from_catalog, FilterSpec, JoinSpec};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
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
    /// Number of independently locked cache shards.
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

/// A cached parametric entry plus the provenance the service needs to
/// migrate or invalidate it. Both halves are shared: a hit, a primer pin
/// and a primed miss each clone pointers, never plans.
pub struct CacheEntry {
    /// The prepared form of a representative request for this equivalence
    /// class: its request rebuilds the query after a recalibration, and
    /// the plans are stored in its canonical numbering.
    prepared: Arc<PreparedRequest>,
    /// The per-scenario plans.
    plans: Arc<ParametricPlans>,
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

/// A request together with its belief-side query and canonicalization,
/// tagged with the beliefs version they were computed under. The service
/// builds one per request and beliefs version and memoizes it (see the
/// module docs, stage 1); cache entries share the form of the request that
/// populated them. The concurrent driver builds one per distinct request
/// shape so routing (fingerprint → shard → worker) happens before any
/// worker is involved. [`QueryService::serve_at`] and
/// [`QueryService::prime_window`] trust a caller's prepared request only
/// while the service's beliefs version still matches — a recalibration in
/// between invalidates it, and it is prepared afresh rather than served
/// stale.
///
/// A `PreparedRequest` must only ever be paired with the request it was
/// built from (same tables, joins, filters, order).
#[derive(Debug, Clone)]
pub struct PreparedRequest {
    pub(crate) request: QueryRequest,
    pub(crate) query: JoinQuery,
    pub(crate) canon: Canonical,
    pub(crate) version: u64,
}

impl PreparedRequest {
    /// Builds `request`'s query from `beliefs` and canonicalizes it,
    /// tagged with the beliefs `version`.
    pub(crate) fn build(
        beliefs: &Catalog,
        request: &QueryRequest,
        version: u64,
    ) -> Result<Self, ServeError> {
        let query = build_query(beliefs, request)?;
        Ok(PreparedRequest {
            request: request.clone(),
            canon: canonicalize(&query),
            query,
            version,
        })
    }

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
    plans: BTreeMap<Vec<u8>, Arc<ParametricPlans>>,
    /// Fingerprints whose primer entry is a *pin* — the shared plans of an
    /// entry resident in the cache at prime time. Pins cost no optimizer
    /// run, so their in-window repeats do not count as `dedup_saved`.
    pinned: BTreeSet<Vec<u8>>,
    /// Window requests whose optimization was skipped because an
    /// isomorphic request earlier in the same window had already primed
    /// their fingerprint.
    pub dedup_saved: u64,
}

/// The prepare stage's memo: the prepared forms of up to `capacity`
/// requests under the current beliefs, keyed by [`QueryRequest::key`],
/// least recently used evicted first. A key match is confirmed field by
/// field, so a digest collision costs a rebuild and never serves another
/// request's form — the plan cache's own "false miss, never false hit"
/// rule. A recalibration clears it.
struct PrepareMemo {
    capacity: usize,
    tick: u64,
    /// `key → (prepared form, last use)`.
    slots: BTreeMap<u64, (Arc<PreparedRequest>, u64)>,
}

impl PrepareMemo {
    fn new(capacity: usize) -> Self {
        PrepareMemo {
            capacity,
            tick: 0,
            slots: BTreeMap::new(),
        }
    }

    /// `request`'s memoized form, if the slot under `key` holds exactly
    /// this request; refreshes its recency.
    fn get(&mut self, key: u64, request: &QueryRequest) -> Option<Arc<PreparedRequest>> {
        self.tick += 1;
        let (prepared, last_used) = self.slots.get_mut(&key)?;
        if prepared.request != *request {
            return None;
        }
        *last_used = self.tick;
        Some(Arc::clone(prepared))
    }

    /// Stores `prepared` under `key`, replacing whatever held the key (a
    /// colliding request) or else evicting the least recently used slot
    /// when full.
    fn insert(&mut self, key: u64, prepared: Arc<PreparedRequest>) {
        if !self.slots.contains_key(&key) && self.slots.len() >= self.capacity {
            let victim = self
                .slots
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                self.slots.remove(&victim);
            }
        }
        self.tick += 1;
        self.slots.insert(key, (prepared, self.tick));
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

/// What the execute stage hands on: the rung that served, its execution,
/// and what the resilience layer did to get there.
struct Executed {
    rung: LadderRung,
    report: ExecReport,
    feedback: ExecFeedback,
    resilience: ResilienceReport,
}

/// Generates the simulated base data: one relation per table in `truth`,
/// in name order. The simulator joins on the single shared key attribute;
/// its domain is taken from each table's *first* column (the store's
/// join-key convention).
fn generate_tables(truth: &Catalog, seed: u64) -> (Disk, BTreeMap<String, RelId>) {
    let mut disk = Disk::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
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
    (disk, rels)
}

/// The serving loop. See the module docs for the stage sequence.
pub struct QueryService<M: CostModel + Sync> {
    model: M,
    beliefs: Catalog,
    truth: Catalog,
    /// The simulated disk, holding the generated base tables between
    /// serves.
    disk: Disk,
    /// Each table's generated relation on `disk`.
    rels: BTreeMap<String, RelId>,
    /// Prepared forms under the current beliefs (stage 1).
    memo: PrepareMemo,
    cache: PlanCache<Arc<CacheEntry>>,
    drift: DriftDetector,
    config: ServeConfig,
    /// Present when the service resamples (see the module docs).
    sampler: Option<Sampler>,
    stats: OptStats,
    /// Fault strikes per fingerprint encoding.
    breaker: Breaker<Vec<u8>>,
    /// Fault strikes per cache shard.
    shard_breaker: Breaker<usize>,
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
        let sampler = config.resample.map(Sampler::new).transpose()?;
        let (disk, rels) = generate_tables(&truth, config.exec_seed);
        Ok(QueryService {
            disk,
            rels,
            memo: PrepareMemo::new(config.cache_capacity),
            cache: PlanCache::new(config.cache_shards, config.cache_capacity),
            drift: DriftDetector::new(config.drift),
            model,
            beliefs,
            truth,
            config,
            sampler,
            stats: OptStats::new("serve", 0),
            breaker: Breaker::default(),
            shard_breaker: Breaker::default(),
            resilience: ResilienceCounters::default(),
            optimizer_invocations: 0,
            recalibrations: 0,
            reoptimize_decisions: 0,
            recost_decisions: 0,
            queries_served: 0,
            beliefs_version: 0,
            primed_consumed: 0,
        })
    }

    /// Serves one request end to end: plan (cache or optimizer), execute,
    /// harvest feedback, recalibrate on drift.
    pub fn serve(&mut self, request: &QueryRequest) -> Result<ServedQuery, ServeError> {
        self.serve_at(self.queries_served, request, None, None)
    }

    /// Optimizes every *distinct would-miss* fingerprint in `window` exactly
    /// once, ahead of serving. Requests resident in the cache at prime time
    /// are *pinned*: their entry's plans are shared into the primer by a
    /// pure read ([`PlanCache::peek`] — no counters, no recency refresh),
    /// so that if within-window inserts evict them, later occurrences serve
    /// from the primer instead of re-optimizing. Isomorphic repeats of an optimized
    /// prime within the window are deduplicated (counted in the primer's
    /// `dedup_saved`). Priming runs the serve path's own prepare and
    /// optimize stages, so a window of one request leaves every counter
    /// exactly where plain [`serve`] would — a resident request's pin is
    /// never consulted (its serve hits the cache first), and a non-resident
    /// one is optimized exactly once either way.
    ///
    /// Each `window` element pairs a request with its prepared form, if the
    /// caller has one; stale or absent preparations go through the prepare
    /// stage's memo.
    ///
    /// [`serve`]: QueryService::serve
    pub fn prime_window(
        &mut self,
        window: &[(&QueryRequest, Option<&Arc<PreparedRequest>>)],
    ) -> Result<BatchPrimer, ServeError> {
        let mut primer = BatchPrimer {
            version: self.beliefs_version,
            plans: BTreeMap::new(),
            pinned: BTreeSet::new(),
            dedup_saved: 0,
        };
        for (request, prepared) in window {
            let prepared = self.prepare(request, *prepared)?;
            let fingerprint = &prepared.canon.fingerprint;
            let key = fingerprint.encoding();
            if primer.plans.contains_key(key) {
                if !primer.pinned.contains(key) {
                    primer.dedup_saved += 1;
                }
                continue;
            }
            let plans = match self.cache.peek(fingerprint) {
                Some(entry) => {
                    primer.pinned.insert(key.to_vec());
                    Arc::clone(&entry.plans)
                }
                None => Arc::new(self.optimize(&prepared.canon)?),
            };
            primer.plans.insert(key.to_vec(), plans);
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
    pub fn serve_at(
        &mut self,
        ordinal: u64,
        request: &QueryRequest,
        prepared: Option<&Arc<PreparedRequest>>,
        primer: Option<&BatchPrimer>,
    ) -> Result<ServedQuery, ServeError> {
        let prepared = self.prepare(request, prepared)?;
        let (query, canon) = (&prepared.query, &prepared.canon);
        let (entry, cache_hit) = self.plan(&prepared, primer)?;
        let mut ranked = entry
            .plans
            .ranked(
                &canon.query,
                &self.model,
                &self.config.observed_memory,
                &self.config.selection_rule,
            )?
            .into_iter();
        let best = ranked.next().ok_or(CoreError::NoPlanFound)?;
        let primary = LadderRung {
            plan: canon.plan_to_original(best.plan),
            expected_cost: best.expected_cost,
            scenario: best.scenario,
            route: ServeRoute::Primary,
        };
        verify(&primary, query, "served expected cost")?;
        let executed = self.execute_ladder(ordinal, request, &prepared, primary, ranked)?;
        // Certify against the intervals the plan was served under, before
        // this serve's own feedback can resample them. A breaker reroute
        // is already degraded and makes no certificate claim.
        let certificate = match &mut self.sampler {
            Some(s) if !executed.resilience.breaker_tripped => {
                let intervals = s.interval_box(&self.beliefs, &self.truth, request, query)?;
                let memory = MemoryModel::Static(self.config.observed_memory.clone());
                let plan = &executed.rung.plan;
                let cert = certify_plan(query, &self.model, &memory, plan, &intervals)?;
                self.stats.certificate = Some(cert.clone());
                Some(cert)
            }
            _ => None,
        };
        let recalibrations = self.ingest_feedback(request, query, &executed.feedback)?;
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

    /// The prepare stage, the one path every stage that needs a request's
    /// query goes through: the caller's prepared request while its beliefs
    /// version is current, else the memoized form, else one built from the
    /// live beliefs and memoized.
    fn prepare(
        &mut self,
        request: &QueryRequest,
        prepared: Option<&Arc<PreparedRequest>>,
    ) -> Result<Arc<PreparedRequest>, ServeError> {
        if let Some(p) = prepared.filter(|p| p.version == self.beliefs_version) {
            return Ok(Arc::clone(p));
        }
        let key = request.key();
        if let Some(p) = self.memo.get(key, request) {
            return Ok(p);
        }
        let built = PreparedRequest::build(&self.beliefs, request, self.beliefs_version)?;
        let built = Arc::new(built);
        self.memo.insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// The plan stage: the cached entry on a hit; on a miss, the primer's
    /// plans or a fresh optimizer run, inserted into the cache. Both paths
    /// store and cost plans against the canonical query, so a hit's
    /// expected cost is bit-identical to the miss that populated it.
    fn plan(
        &mut self,
        prepared: &Arc<PreparedRequest>,
        primer: Option<&BatchPrimer>,
    ) -> Result<(Arc<CacheEntry>, bool), ServeError> {
        let canon = &prepared.canon;
        if let Some(entry) = self.cache.get(&canon.fingerprint) {
            return Ok((entry, true));
        }
        let primed = primer
            .filter(|p| p.version == self.beliefs_version)
            .and_then(|p| p.plans.get(canon.fingerprint.encoding()));
        let plans = match primed {
            Some(plans) => {
                self.primed_consumed += 1;
                Arc::clone(plans)
            }
            None => Arc::new(self.optimize(canon)?),
        };
        let entry = Arc::new(CacheEntry {
            prepared: Arc::clone(prepared),
            plans,
        });
        self.cache.insert(&canon.fingerprint, Arc::clone(&entry));
        Ok((entry, false))
    }

    /// One full optimizer run against a canonical query, with stats
    /// absorbed and the invocation counter moved — the single chokepoint
    /// both the miss path and the batch primer go through.
    fn optimize(&mut self, canon: &Canonical) -> Result<ParametricPlans, ServeError> {
        let (plans, pstats) = ParametricPlans::precompute_with_stats(
            &canon.query,
            &self.model,
            &self.config.scenarios,
        )?;
        self.stats.absorb(&pstats);
        self.optimizer_invocations += 1;
        Ok(plans)
    }

    /// The circuit breakers. The shard breaker is checked first — a shard
    /// whose fingerprints have *collectively* accumulated enough faults is
    /// flushed wholesale, which invalidates strictly more state; otherwise a
    /// fingerprint with enough faults has its own entry dropped. Either way
    /// the tripped breaker's strikes are reset, the dropped entries
    /// reoptimize on their next request, and `true` tells the execute stage
    /// to start at the LSC rung.
    fn trip_breakers(&mut self, fp: &[u8], shard: usize) -> bool {
        let policy = self.config.resilience;
        let (fp_limit, shard_limit) = (policy.breaker_threshold, policy.shard_breaker_threshold);
        if self.shard_breaker.is_open(&shard, shard_limit) {
            self.shard_breaker.reset(&shard);
            self.resilience.shard_breaker_trips += 1;
            let shards = self.cache.shard_count();
            self.cache
                .invalidate_collect(|e| shard_of(&e.prepared.canon.fingerprint, shards) == shard);
        } else if self.breaker.is_open(fp, fp_limit) {
            self.breaker.reset(fp);
            self.resilience.breaker_trips += 1;
            self.cache
                .invalidate_collect(|e| e.prepared.canon.fingerprint.encoding() == fp);
        } else {
            return false;
        }
        true
    }

    /// The execute stage: the fallback ladder. Attempt 0 runs `first` (the
    /// primary pick, or the LSC rung after a breaker trip); attempt k runs
    /// fallback rung k-1 (the pick's `rest` of candidates in rule order,
    /// then the LSC baseline, clamped at the last rung). The final allowed
    /// attempt always executes with an empty schedule, so under injection
    /// every request is served — degraded or retried, never errored out. A
    /// tripped serve gets exactly one attempt. Fallback rungs are built
    /// lazily: a fault-free serve never ranks, remaps or verifies them.
    fn execute_ladder(
        &mut self,
        ordinal: u64,
        request: &QueryRequest,
        prepared: &PreparedRequest,
        primary: LadderRung,
        mut rest: std::vec::IntoIter<Candidate<'_>>,
    ) -> Result<Executed, ServeError> {
        let canon = &prepared.canon;
        let fp_key = canon.fingerprint.encoding();
        let shard = self.cache.shard_index(&canon.fingerprint);
        let tripped = self.trip_breakers(fp_key, shard);
        let (first, max_attempts) = if tripped {
            (self.lsc_rung(prepared, primary.scenario)?, 1)
        } else {
            let retries = self.config.resilience.max_retries;
            (primary, retries.saturating_add(1))
        };
        let primary_scenario = first.scenario;
        let mut rungs = vec![first];
        let mut attempted = Vec::new();
        let mut faults_seen = Vec::new();
        for attempt in 0..max_attempts {
            if attempt == 1 {
                let fallbacks = self.fallback_rungs(prepared, rest.by_ref(), primary_scenario)?;
                rungs.extend(fallbacks);
            }
            let idx = (attempt as usize).min(rungs.len() - 1);
            let route = rungs[idx].route;
            attempted.push(route);
            let mut faults = if attempt + 1 == max_attempts {
                FaultSchedule::empty()
            } else {
                self.config.fault_injection.schedule_for(ordinal, attempt)
            };
            let executed = match self.execute(ordinal, request, &rungs[idx].plan, &mut faults) {
                Err(e) if !matches!(e, ServeError::Exec(ExecError::InjectedFault { .. })) => {
                    return Err(e)
                }
                executed => executed,
            };
            self.resilience.faults_injected += faults.trace().len() as u64;
            faults_seen.extend_from_slice(faults.trace());
            let Ok((report, feedback)) = executed else {
                self.breaker.record_fault(fp_key.to_vec());
                self.shard_breaker.record_fault(shard);
                self.resilience.retries += 1;
                continue;
            };
            let degraded = route != ServeRoute::Primary;
            let counters = &mut self.resilience;
            counters.degraded_serves += u64::from(degraded);
            counters.frontier_fallbacks += u64::from(matches!(route, ServeRoute::Frontier { .. }));
            counters.lsc_fallbacks += u64::from(route == ServeRoute::LscBaseline);
            return Ok(Executed {
                rung: rungs.swap_remove(idx),
                report,
                feedback,
                resilience: ResilienceReport {
                    attempts: attempt + 1,
                    faults: faults_seen,
                    attempted,
                    route,
                    degraded,
                    breaker_tripped: tripped,
                },
            });
        }
        // Unreachable: the final attempt runs fault-free, so the loop
        // either served above or propagated a real error.
        Err(ServeError::Config(
            "resilience ladder exhausted without serving".into(),
        ))
    }

    /// The fallback rungs: the pick's other candidates, ranked among
    /// themselves by the configured rule (minmax regret scores them against
    /// each other, not the primary), then the LSC baseline as the last
    /// resort, which reports the primary's scenario (it belongs to none).
    fn fallback_rungs<'a>(
        &self,
        prepared: &PreparedRequest,
        rest: impl Iterator<Item = Candidate<'a>>,
        primary_scenario: usize,
    ) -> Result<Vec<LadderRung>, ServeError> {
        let probs = self.config.observed_memory.probs();
        let ranked = rank(rest.collect(), &self.config.selection_rule, probs);
        let mut rungs = Vec::with_capacity(ranked.len() + 1);
        for (rank, candidate) in ranked.into_iter().enumerate() {
            let rung = LadderRung {
                plan: prepared.canon.plan_to_original(candidate.plan),
                expected_cost: candidate.expected_cost,
                scenario: candidate.scenario,
                route: ServeRoute::Frontier { rank },
            };
            verify(&rung, &prepared.query, "fallback expected cost")?;
            rungs.push(rung);
        }
        rungs.push(self.lsc_rung(prepared, primary_scenario)?);
        Ok(rungs)
    }

    /// The robust last resort: System R (LSC) at the mean observed grant,
    /// re-priced as an expected cost under the observed distribution so its
    /// rung is comparable to the frontier rungs.
    fn lsc_rung(
        &self,
        prepared: &PreparedRequest,
        scenario: usize,
    ) -> Result<LadderRung, ServeError> {
        let canon = &prepared.canon;
        let mean = self.config.observed_memory.mean();
        let (optimized, _) = lsc::optimize_at(&canon.query, &self.model, mean)?;
        let observed = &self.config.observed_memory;
        let (_, expected_cost) =
            profile_and_expected_cost(&canon.query, &self.model, &optimized.plan, observed);
        let rung = LadderRung {
            expected_cost,
            plan: canon.plan_to_original(&optimized.plan),
            scenario,
            route: ServeRoute::LscBaseline,
        };
        verify(&rung, &prepared.query, "lsc baseline expected cost")?;
        Ok(rung)
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
        let base = request
            .tables
            .iter()
            .map(|t| {
                self.rels
                    .get(t)
                    .copied()
                    .ok_or_else(|| ServeError::Config(format!("table `{t}` has no generated data")))
            })
            .collect::<Result<Vec<RelId>, ServeError>>()?;
        let mut selections = vec![1.0; request.tables.len()];
        for f in &request.filters {
            let idx = request
                .tables
                .iter()
                .position(|t| *t == f.table)
                .ok_or_else(|| {
                    ServeError::Config(format!("filter on `{}` not in table list", f.table))
                })?;
            selections[idx] *= filter_stat(f).1.estimate(&self.truth)?.clamp(1e-9, 1.0);
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
        let mark = self.disk.relation_count();
        let executed =
            execute_plan_with_faults(plan, &base, &selections, &mut self.disk, &mut env, faults);
        self.disk.drop_from(mark);
        Ok(executed?)
    }

    /// The feedback stage: feeds execution observations to the drift
    /// detector and recalibrates on every event it fires. `query` is the
    /// belief-side query the request was planned under (its estimates are
    /// what the observations refute).
    fn ingest_feedback(
        &mut self,
        request: &QueryRequest,
        query: &JoinQuery,
        feedback: &ExecFeedback,
    ) -> Result<Vec<Recalibration>, ServeError> {
        // (statistic, estimated, observed) for every attributable
        // observation, selections first.
        let mut observed = Vec::new();
        for obs in &feedback.selections {
            // Attribute the relation's observed shrinkage to its first
            // filter (a relation with several filters gets one composite
            // window; the recalibration re-spreads mass over all of them).
            let table = &request.tables[obs.rel];
            if let Some(filter) = request.filters.iter().find(|f| f.table == *table) {
                let estimated = query.relation(obs.rel).local_selectivity;
                observed.push((filter_stat(filter).0, estimated, obs.observed_selectivity()));
            }
        }
        let position = |t: &String| request.tables.iter().position(|x| x == t);
        for obs in &feedback.joins {
            // Only leaf joins (output covering exactly two base relations)
            // isolate a single predicate's selectivity.
            let leaf = request.joins.iter().find(|j| {
                matches!((position(&j.left_table), position(&j.right_table)),
                    (Some(l), Some(r)) if RelSet::single(l).insert(r) == obs.rels)
            });
            if let Some(spec) = leaf {
                let (target, pred) = join_stat(spec);
                observed.push((
                    target,
                    pred.estimate(&self.beliefs)?,
                    obs.observed_selectivity(),
                ));
            }
        }
        let events: Vec<DriftEvent> = observed
            .into_iter()
            .filter_map(|(target, estimated, obs)| self.drift.observe(target, estimated, obs))
            .collect();
        events
            .into_iter()
            .map(|event| self.recalibrate(request, event))
            .collect()
    }

    /// The recalibrate stage for one drift event: updates the belief
    /// statistic, pulls the affected cache entries, and decides (via EVPI)
    /// whether they are dropped for re-optimization or migrated for
    /// re-costing.
    fn recalibrate(
        &mut self,
        request: &QueryRequest,
        event: DriftEvent,
    ) -> Result<Recalibration, ServeError> {
        // Anything prepared or primed under the old beliefs is stale from
        // here on — also if the update below fails halfway.
        self.beliefs_version += 1;
        self.memo.slots.clear();
        let blend = self.config.drift.blend;
        let (beliefs, truth) = (&mut self.beliefs, &self.truth);
        update_beliefs(&mut self.sampler, blend, beliefs, truth, request, &event)?;
        self.recalibrations += 1;

        // Every cached entry optimized under the stale statistic is pulled.
        let affected: Vec<&str> = event.target.tables();
        let mut removed = self.cache.invalidate_collect(|e| {
            e.prepared
                .request
                .tables
                .iter()
                .any(|t| affected.contains(&t.as_str()))
        });
        // invalidate_collect's order follows shard/map layout; sort by the
        // entries' canonical encodings so migration re-inserts (and thus
        // future LRU ticks) are deterministic.
        removed.sort_by_cached_key(|e| e.prepared.canon.fingerprint.encoding().to_vec());
        let entries_invalidated = removed.len();

        let decision = self.decide(request, &event)?;
        let mut entries_migrated = 0;
        match decision {
            RecalibrationDecision::Reoptimize => self.reoptimize_decisions += 1,
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

    /// EVPI-based cache policy: is re-planning under the (now sharper)
    /// statistic worth a full optimizer run?
    fn decide(
        &mut self,
        request: &QueryRequest,
        event: &DriftEvent,
    ) -> Result<RecalibrationDecision, ServeError> {
        // The exact joint analysis is exponential; beyond 4 relations the
        // conservative answer is to re-optimize.
        let prepared = self.prepare(request, None)?;
        let query = &prepared.query;
        if query.n() > 4 {
            return Ok(RecalibrationDecision::Reoptimize);
        }
        let mut sizes = SizeModel::certain(query)?;
        // The drifted statistic's slot in the size model, and its estimated
        // and observed means in the query's units (pages for a relation,
        // page-domain selectivity for a join).
        let (slot, est, obs) = match &event.target {
            DriftTarget::Selection { table, .. } => {
                let Some(idx) = request.tables.iter().position(|t| t == table) else {
                    return Ok(RecalibrationDecision::Reoptimize);
                };
                let pages = query.relation(idx).pages;
                (
                    &mut sizes.rel_sizes[idx],
                    pages * event.mean_estimated,
                    pages * event.mean_observed,
                )
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
                let (lt, rt) = (
                    self.beliefs.table(left_table)?,
                    self.beliefs.table(right_table)?,
                );
                (
                    &mut sizes.selectivities[k],
                    page_selectivity(lt, rt, event.mean_estimated),
                    page_selectivity(lt, rt, event.mean_observed),
                )
            }
        };
        let (a, b) = (est.max(1e-12), obs.max(1e-12));
        match Distribution::new([(a, 0.5), (b, 0.5)]) {
            Ok(two_point) if (a - b).abs() > 1e-9 * a.max(b) => *slot = two_point,
            // The statistic barely moved: nothing an optimizer run could
            // exploit.
            _ => return Ok(RecalibrationDecision::RecostOnly),
        }
        let memory = MemoryModel::Static(self.config.observed_memory.clone());
        let report = voi::analyze(query, &self.model, &memory, &sizes)?;
        if report.sampling_worthwhile(self.config.reoptimize_cost) {
            Ok(RecalibrationDecision::Reoptimize)
        } else {
            Ok(RecalibrationDecision::RecostOnly)
        }
    }

    /// Migrates one pulled entry under the updated beliefs: prepares its
    /// request afresh (seeding the memo), carries the stored plans across
    /// the two canonical numberings, and re-inserts. Returns `false` when a
    /// carried plan fails the plan-IR verifier against the rebuilt query
    /// (the entry is then dropped and will be re-optimized on its next
    /// request) — the full verifier, not the weaker `Plan::validate`, so a
    /// migration can never park a plan the serve path would refuse to run.
    fn migrate(&mut self, entry: Arc<CacheEntry>) -> Result<bool, ServeError> {
        let prepared = self.prepare(&entry.prepared.request, None)?;
        let canon = &prepared.canon;
        let mut scenarios = Vec::with_capacity(entry.plans.scenarios().len());
        for (dist, opt) in entry.plans.scenarios() {
            // Old canonical → the entry's request numbering → new canonical.
            let in_request = entry.prepared.canon.plan_to_original(&opt.plan);
            let plan = canon.plan_to_canonical(&in_request);
            if lec_plan::verify_plan(&plan, &canon.query).is_err() {
                return Ok(false);
            }
            // The carried cost is stale by design: the pick re-costs, never
            // reads it.
            let cost = opt.cost;
            scenarios.push((dist.clone(), lec_core::Optimized { plan, cost }));
        }
        let migrated = CacheEntry {
            plans: Arc::new(ParametricPlans::from_parts(scenarios)?),
            prepared: Arc::clone(&prepared),
        };
        self.cache.insert(&canon.fingerprint, Arc::new(migrated));
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
        self.disk.relation_count()
    }

    /// Live cache size in entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Requests whose prepared form is memoized under the current beliefs
    /// (at most [`ServeConfig::cache_capacity`]).
    pub fn memo_len(&self) -> usize {
        self.memo.slots.len()
    }

    /// Drift-triggered resampling rounds performed so far (always zero
    /// with [`ServeConfig::resample`] off or on a drift-quiet stream).
    pub fn resamples(&self) -> u64 {
        self.sampler.as_ref().map_or(0, |s| s.resamples)
    }

    /// The cached confidence interval for one statistic, if it has been
    /// sampled (row-domain for joins).
    pub fn stat_interval(&self, target: &DriftTarget) -> Option<StatInterval> {
        self.sampler.as_ref()?.intervals.get(target).copied()
    }
}

/// Builds the optimizer query for `request` from `beliefs`.
fn build_query(beliefs: &Catalog, request: &QueryRequest) -> Result<JoinQuery, ServeError> {
    let tables: Vec<&str> = request.tables.iter().map(String::as_str).collect();
    Ok(query_from_catalog(
        beliefs,
        &tables,
        &request.joins,
        &request.filters,
        request.order_by,
    )?)
}

/// The verify stage for one ladder rung: the plan-IR verifier in the
/// request's numbering (so the canonical↔request remapping is inside the
/// verified surface), and a finite non-negative expected cost.
fn verify(rung: &LadderRung, query: &JoinQuery, what: &str) -> Result<(), ServeError> {
    lec_plan::verify_plan(&rung.plan, query).map_err(ServeError::Verification)?;
    lec_plan::verify_costs(what, &[rung.expected_cost]).map_err(ServeError::Verification)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_catalog::{ColumnMeta, TableMeta};
    use lec_cost::PaperCostModel;
    use lec_exec::PAGE_CAPACITY;

    fn catalog() -> Catalog {
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

    fn request(hi: f64) -> QueryRequest {
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

    fn service() -> QueryService<PaperCostModel> {
        let config = ServeConfig::new(
            vec![Distribution::new([(4.0, 0.5), (40.0, 0.5)]).unwrap()],
            Distribution::new([(8.0, 0.5), (48.0, 0.5)]).unwrap(),
        );
        QueryService::new(PaperCostModel, catalog(), catalog(), config).unwrap()
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
            let mut config = service().config;
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
    fn the_ladder_reranks_the_remaining_candidates_among_themselves() {
        let mut svc = service();
        svc.config.selection_rule = Rule::MinmaxRegret;
        let prepared = svc.prepare(&request(25.0), None).unwrap();
        let key = prepared.canon.query.predicates()[0].key;
        let plans: Vec<Plan> = lec_cost::JoinMethod::ALL
            .iter()
            .map(|&m| Plan::join(Plan::scan(0), Plan::scan(1), m, Some(key)))
            .collect();
        // Among all three, regrets against the per-scenario optimum (0, 0)
        // rank C (2), A (4), B (5); C held the optimum in the second
        // scenario, so among A and B alone the optimum is (0, 4) and B
        // (regret 1) beats A (regret 3).
        let candidate = |scenario: usize, profile: [f64; 2]| Candidate {
            scenario,
            plan: &plans[scenario],
            profile: profile.to_vec(),
            expected_cost: 10.0,
            score: f64::NAN,
        };
        let all = vec![
            candidate(0, [3.0, 4.0]),
            candidate(1, [0.0, 5.0]),
            candidate(2, [2.0, 0.0]),
        ];
        let probs = svc.config.observed_memory.probs();
        let ranked = rank(all, &svc.config.selection_rule, probs);
        let order: Vec<usize> = ranked.iter().map(|c| c.scenario).collect();
        assert_eq!(order, [2, 0, 1]);
        let rungs = svc
            .fallback_rungs(&prepared, ranked.into_iter().skip(1), 2)
            .unwrap();
        let routes: Vec<(usize, ServeRoute)> =
            rungs.iter().map(|r| (r.scenario, r.route)).collect();
        assert_eq!(
            routes,
            [
                (1, ServeRoute::Frontier { rank: 0 }),
                (0, ServeRoute::Frontier { rank: 1 }),
                (2, ServeRoute::LscBaseline),
            ]
        );
    }

    #[test]
    fn repeated_hits_reuse_one_prepared_form() {
        let mut svc = service();
        let req = request(25.0);
        assert!(!svc.serve(&req).unwrap().cache_hit);
        assert!(svc.serve(&req).unwrap().cache_hit);
        assert!(svc.serve(&req).unwrap().cache_hit);
        let first = svc.prepare(&req, None).unwrap();
        let again = svc.prepare(&req, None).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        // The cache entry the miss populated shares that same form.
        let entry = svc.cache.peek(&first.canon.fingerprint).unwrap();
        assert!(Arc::ptr_eq(&entry.prepared, &first));
        assert_eq!(svc.memo_len(), 1);
    }

    #[test]
    fn a_digest_collision_rebuilds_instead_of_serving_another_form() {
        let mut svc = service();
        let (a, b) = (request(25.0), request(50.0));
        assert_ne!(a.key(), b.key());
        // Park `a`'s form under `b`'s key, as a digest collision would.
        let form_a = svc.prepare(&a, None).unwrap();
        svc.memo.insert(b.key(), Arc::clone(&form_a));
        assert!(svc.memo.get(b.key(), &b).is_none());
        let form_b = svc.prepare(&b, None).unwrap();
        assert!(!Arc::ptr_eq(&form_a, &form_b));
        assert_eq!(form_b.request, b);
        let fresh = PreparedRequest::build(svc.beliefs(), &b, 0).unwrap();
        assert_eq!(form_b.canon.fingerprint, fresh.canon.fingerprint);
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
