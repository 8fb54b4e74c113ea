//! The query service: one request runs one straight-line sequence of
//! stages.
//!
//! A [`QueryService`] owns two catalogs. The **belief** catalog is what the
//! optimizer sees; the **truth** catalog describes the data actually on the
//! simulated disk. [`serve`](QueryService::serve) runs each request
//! through the same private stages, in this order:
//!
//! 1. **prepare** — build the belief-side query and canonicalize it (so
//!    isomorphic queries share one cache entry). The result depends only on
//!    the request and the beliefs, so it is built once per request and
//!    beliefs version: a private memo of up to `cache_capacity` prepared
//!    forms, keyed by a 64-bit digest of the request and confirmed field by
//!    field (a digest collision costs a rebuild, never another request's
//!    form), answers every later prepare until a recalibration clears it. A
//!    NaN filter bound is refused here ([`ServeError::NanFilterBound`]);
//! 2. **plan** — look the fingerprint up in the sharded [`PlanCache`] of
//!    parametric plan sets; on a miss take the batch window's primed plans
//!    or run the optimizer. Entries and plan sets are shared (`Arc`), so a
//!    hit clones a pointer, not the plans;
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
//!    intervals. Certificates are memoized: up to `cache_capacity` of
//!    them, keyed by the request digest, each hit confirmed against every
//!    input the certificate is a function of (request, belief query,
//!    served plan, and the interval box by bit pattern), so the bushy DP
//!    behind the bound runs only when one of them moved. A recalibration
//!    leaves the memo alone: entries whose statistics it changed fail
//!    their confirmation, and the rest stay valid;
//! 7. **feedback** — feed observed selection and join cardinalities to the
//!    [`DriftDetector`];
//! 8. **recalibrate** — for each fired drift event, update the belief
//!    statistic (blend or resample, see below), pull the affected cache
//!    entries, and let a value-of-information analysis
//!    ([`lec_core::voi`]) decide whether they are re-optimized from
//!    scratch on their next request or migrated (plans carried over,
//!    re-cost at pick time).
//!
//! Every piece of state a request leaves behind has one owner, a private
//! stage type that [`QueryService::new`] builds once: prepare owns the
//! memo and the beliefs version; plan owns the cache, the optimizer
//! statistics and the invocation and primed-miss counters; execute owns
//! the simulated disk, both circuit breakers and the resilience counters;
//! recalibrate owns the drift detector, the sampler, the certificate memo
//! and the recalibration and decision counters (certify is one of its
//! methods, since it reads the sampler). Pick and verify keep nothing
//! between requests. The service itself keeps the model, the catalogs,
//! the config, and the stream ordinal
//! [`queries_served`](QueryService::queries_served).
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

use crate::cache::{shard_of, PlanCache};
use crate::drift::{DriftConfig, DriftDetector, DriftEvent, DriftTarget};
use crate::error::ServeError;
use crate::lru::Lru;
use crate::recalibrate::{filter_stat, RecalibrateStage, Sampler};
use crate::resilience::{Breaker, FaultInjection, ResiliencePolicy, ResilienceReport, ServeRoute};
use lec_catalog::sampling::{BoundKind, StatInterval};
use lec_catalog::Catalog;
use lec_core::alg_d::SizeModel;
use lec_core::certificate::Certificate;
use lec_core::evaluate::profile_and_expected_cost;
use lec_core::parametric::{rank, Candidate, ParametricPlans};
use lec_core::{lsc, voi, CoreError, MemoryModel, OptStats, ResilienceCounters};
use lec_cost::CostModel;
use lec_exec::datagen::{generate, DataGenSpec};
use lec_exec::{
    execute_plan_with_faults, Disk, ExecError, ExecFeedback, ExecMemoryEnv, ExecReport,
    FaultSchedule, RelId,
};
use lec_plan::{canonicalize, Canonical, JoinQuery, Plan};
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

/// A cached parametric entry plus the provenance the service needs to
/// migrate or invalidate it. Both halves are shared: a hit, a primer pin
/// and a primed miss each clone pointers, never plans.
pub(crate) struct CacheEntry {
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
/// tagged with the beliefs version they were computed under. The prepare
/// stage builds one per request and beliefs version and memoizes it; cache
/// entries share the form of the request that populated them. The
/// concurrent driver builds one per distinct request shape so routing
/// (fingerprint → shard → worker) happens before any worker is involved.
/// A caller's prepared request is trusted only while the service's beliefs
/// version still matches — a recalibration in between invalidates it, and
/// it is prepared afresh rather than served stale.
///
/// A `PreparedRequest` must only ever be paired with the request it was
/// built from (same tables, joins, filters, order).
#[derive(Debug, Clone)]
pub(crate) struct PreparedRequest {
    pub(crate) request: QueryRequest,
    pub(crate) query: JoinQuery,
    pub(crate) canon: Canonical,
    pub(crate) version: u64,
}

impl PreparedRequest {
    /// Builds `request`'s query from `beliefs` and canonicalizes it,
    /// tagged with the beliefs `version`. A NaN filter bound is refused:
    /// the range estimators would drop it and plan an unbounded range, and
    /// the request would never equal itself, so no memo could confirm it.
    pub(crate) fn build(
        beliefs: &Catalog,
        request: &QueryRequest,
        version: u64,
    ) -> Result<Self, ServeError> {
        let nan_bound = request
            .filters
            .iter()
            .find(|f| f.lo.is_nan() || f.hi.is_nan());
        if let Some(filter) = nan_bound {
            return Err(ServeError::NanFilterBound(Box::new(filter.clone())));
        }
        let tables: Vec<&str> = request.tables.iter().map(String::as_str).collect();
        let (joins, filters) = (&request.joins, &request.filters);
        let query = query_from_catalog(beliefs, &tables, joins, filters, request.order_by)?;
        Ok(PreparedRequest {
            request: request.clone(),
            canon: canonicalize(&query),
            query,
            version,
        })
    }
}

/// Parametric plan sets optimized ahead of one batch window, keyed by
/// canonical fingerprint encoding.
///
/// [`QueryService::prime_window`] walks a window of requests and optimizes
/// each *distinct would-miss* fingerprint exactly once; isomorphic
/// requests later in the window find the entry already primed and are
/// counted in [`dedup_saved`](BatchPrimer::dedup_saved). A fingerprint
/// resident in the cache at prime time is *pinned* instead: its entry's
/// plans are shared in by a pure [`PlanCache::peek`] (no counters, no
/// recency refresh), so if within-window inserts evict it, later
/// occurrences serve from the primer rather than re-optimizing. Primed
/// entries are **not** consume-once: under unchanged beliefs re-reading
/// one is semantically identical to re-optimizing, so a window whose
/// entries get evicted between serves (capacity thrash) still pays one
/// optimization per class per window instead of one per request.
///
/// Like a prepared request, a primer is version-tagged: a recalibration
/// mid-window bumps the service's beliefs version and the remaining
/// serves fall back to fresh optimization instead of consuming plans
/// priced under the old beliefs.
pub(crate) struct BatchPrimer {
    version: u64,
    plans: BTreeMap<Vec<u8>, Arc<ParametricPlans>>,
    /// Fingerprints whose primer entry is a *pin* — the shared plans of an
    /// entry resident in the cache at prime time. Pins cost no optimizer
    /// run, so their in-window repeats do not count as `dedup_saved`.
    pinned: BTreeSet<Vec<u8>>,
    /// Window requests whose optimization was skipped because an
    /// isomorphic request earlier in the same window had already primed
    /// their fingerprint.
    pub(crate) dedup_saved: u64,
}

/// The prepare stage: the prepared forms of up to `cache_capacity`
/// requests under the current beliefs, in an [`Lru`] keyed by
/// [`QueryRequest::key`], and the beliefs version they were built under. A
/// key match is confirmed with `==` on the request, so a digest collision
/// costs a rebuild and never serves another request's form — the plan
/// cache's own "false miss, never false hit" rule. A recalibration bumps
/// the version and clears the memo.
struct PrepareStage {
    /// Bumped on every recalibration; prepared requests and batch primers
    /// carry the version they were computed under and are ignored once it
    /// goes stale.
    version: u64,
    memo: Lru<Arc<PreparedRequest>>,
}

impl PrepareStage {
    /// The one path every stage that needs a request's query goes through:
    /// the caller's prepared request while its beliefs version is current,
    /// else the memoized form, else one built from `beliefs` and memoized.
    fn form(
        &mut self,
        beliefs: &Catalog,
        request: &QueryRequest,
        supplied: Option<&Arc<PreparedRequest>>,
    ) -> Result<Arc<PreparedRequest>, ServeError> {
        if let Some(p) = supplied.filter(|p| p.version == self.version) {
            return Ok(Arc::clone(p));
        }
        let key = request.key();
        if let Some(p) = self.memo.get(key, |p| p.request == *request) {
            return Ok(Arc::clone(p));
        }
        let built = Arc::new(PreparedRequest::build(beliefs, request, self.version)?);
        self.memo.insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// Makes everything prepared or primed so far stale.
    fn invalidate(&mut self) {
        self.version += 1;
        self.memo.clear();
    }
}

/// The plan stage: the plan cache, the optimizer statistics every run is
/// absorbed into, and its two counters.
struct PlanStage {
    cache: PlanCache<Arc<CacheEntry>>,
    stats: OptStats,
    /// Full optimizer runs (misses and primes).
    invocations: u64,
    /// Cache misses answered from a batch primer instead of a fresh
    /// optimizer run.
    primed_consumed: u64,
}

impl PlanStage {
    /// The cached entry on a hit; on a miss, the primer's plans or a fresh
    /// optimizer run, inserted into the cache. Both paths store and cost
    /// plans against the canonical query, so a hit's expected cost is
    /// bit-identical to the miss that populated it.
    fn lookup<M: CostModel + Sync>(
        &mut self,
        prepared: &Arc<PreparedRequest>,
        primer: Option<&BatchPrimer>,
        model: &M,
        scenarios: &[Distribution],
    ) -> Result<(Arc<CacheEntry>, bool), ServeError> {
        let canon = &prepared.canon;
        if let Some(entry) = self.cache.get(&canon.fingerprint) {
            return Ok((entry, true));
        }
        let primed = primer.and_then(|p| p.plans.get(canon.fingerprint.encoding()));
        let plans = match primed {
            Some(plans) => {
                self.primed_consumed += 1;
                Arc::clone(plans)
            }
            None => Arc::new(self.optimize(canon, model, scenarios)?),
        };
        let entry = Arc::new(CacheEntry {
            prepared: Arc::clone(prepared),
            plans,
        });
        self.cache.insert(&canon.fingerprint, Arc::clone(&entry));
        Ok((entry, false))
    }

    /// Primes one window request: a fingerprint already in `primer` is an
    /// isomorphic repeat (`dedup_saved` unless it is a pin); one resident
    /// in the cache is pinned by a pure [`PlanCache::peek`]; any other is
    /// optimized.
    fn prime<M: CostModel + Sync>(
        &mut self,
        primer: &mut BatchPrimer,
        canon: &Canonical,
        model: &M,
        scenarios: &[Distribution],
    ) -> Result<(), ServeError> {
        let key = canon.fingerprint.encoding();
        if primer.plans.contains_key(key) {
            primer.dedup_saved += u64::from(!primer.pinned.contains(key));
            return Ok(());
        }
        let plans = match self.cache.peek(&canon.fingerprint) {
            Some(entry) => {
                primer.pinned.insert(key.to_vec());
                Arc::clone(&entry.plans)
            }
            None => Arc::new(self.optimize(canon, model, scenarios)?),
        };
        primer.plans.insert(key.to_vec(), plans);
        Ok(())
    }

    /// One full optimizer run against a canonical query, with stats
    /// absorbed and the invocation counter moved — the single chokepoint
    /// both the miss path and the batch primer go through.
    fn optimize<M: CostModel + Sync>(
        &mut self,
        canon: &Canonical,
        model: &M,
        scenarios: &[Distribution],
    ) -> Result<ParametricPlans, ServeError> {
        let (plans, pstats) =
            ParametricPlans::precompute_with_stats(&canon.query, model, scenarios)?;
        self.stats.absorb(&pstats);
        self.invocations += 1;
        Ok(plans)
    }
}

/// The execute stage: the simulated disk holding the generated base
/// tables, the two circuit breakers, and the resilience counters.
struct ExecuteStage {
    disk: Disk,
    /// Each table's generated relation on `disk`.
    rels: BTreeMap<String, RelId>,
    /// Fault strikes per fingerprint encoding.
    breaker: Breaker<Vec<u8>>,
    /// Fault strikes per cache shard.
    shard_breaker: Breaker<usize>,
    counters: ResilienceCounters,
}

impl ExecuteStage {
    /// Generates the simulated base data: one relation per table in
    /// `truth`, in name order. The simulator joins on the single shared key
    /// attribute; its domain is taken from each table's *first* column (the
    /// store's join-key convention).
    fn new(truth: &Catalog, seed: u64) -> Self {
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
        ExecuteStage {
            disk,
            rels,
            breaker: Breaker::default(),
            shard_breaker: Breaker::default(),
            counters: ResilienceCounters::default(),
        }
    }

    /// The circuit breakers. The shard breaker is checked first — a shard
    /// whose fingerprints have *collectively* accumulated enough faults is
    /// flushed wholesale, which invalidates strictly more state; otherwise
    /// a fingerprint with enough faults has its own entry dropped. Either
    /// way the tripped breaker's strikes are reset, the dropped entries
    /// reoptimize on their next request, and `true` tells the ladder to
    /// start at the LSC rung.
    fn trip_breakers(
        &mut self,
        config: &ServeConfig,
        cache: &mut PlanCache<Arc<CacheEntry>>,
        fp: &[u8],
        shard: usize,
    ) -> bool {
        let policy = config.resilience;
        let (fp_limit, shard_limit) = (policy.breaker_threshold, policy.shard_breaker_threshold);
        if self.shard_breaker.is_open(&shard, shard_limit) {
            self.shard_breaker.reset(&shard);
            self.counters.shard_breaker_trips += 1;
            let shards = config.cache_shards;
            cache.invalidate_collect(|e| shard_of(&e.prepared.canon.fingerprint, shards) == shard);
        } else if self.breaker.is_open(fp, fp_limit) {
            self.breaker.reset(fp);
            self.counters.breaker_trips += 1;
            cache.invalidate_collect(|e| e.prepared.canon.fingerprint.encoding() == fp);
        } else {
            return false;
        }
        true
    }

    /// Executes `plan` over the generated data, realizing the *truth*
    /// catalog's filter selectivities. `ordinal` is the request's position
    /// in the logical stream: it seeds the memory draw, so concurrent
    /// drivers replaying a partition of the stream draw what the
    /// sequential loop would.
    fn run(
        &mut self,
        config: &ServeConfig,
        truth: &Catalog,
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
            selections[idx] *= filter_stat(f).1.estimate(truth)?.clamp(1e-9, 1.0);
        }
        // Seeded by the request ordinal, not the attempt: every rung of the
        // ladder faces the same memory draw, so a retry is a pure plan
        // switch.
        let mut env = ExecMemoryEnv::draw_once(
            config.observed_memory.clone(),
            config.exec_seed.wrapping_add(ordinal),
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

/// The serving loop. See the module docs for the stage sequence.
pub struct QueryService<M: CostModel + Sync> {
    model: M,
    beliefs: Catalog,
    truth: Catalog,
    config: ServeConfig,
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
            recalibrate: RecalibrateStage {
                sampler: config.resample.map(Sampler::new).transpose()?,
                drift: DriftDetector::new(config.drift),
                certificates: Lru::new(config.cache_capacity),
                certificate_hits: 0,
                recalibrations: 0,
                reoptimize_decisions: 0,
                recost_decisions: 0,
            },
            execute: ExecuteStage::new(&truth, config.exec_seed),
            prepare: PrepareStage {
                version: 0,
                memo: Lru::new(config.cache_capacity),
            },
            plan: PlanStage {
                cache: PlanCache::new(config.cache_shards, config.cache_capacity),
                stats: OptStats::new("serve", 0),
                invocations: 0,
                primed_consumed: 0,
            },
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
        let mut primer = BatchPrimer {
            version: self.prepare.version,
            plans: BTreeMap::new(),
            pinned: BTreeSet::new(),
            dedup_saved: 0,
        };
        for (request, supplied) in window {
            let prepared = self.prepare.form(&self.beliefs, request, *supplied)?;
            let scenarios = &self.config.scenarios;
            self.plan
                .prime(&mut primer, &prepared.canon, &self.model, scenarios)?;
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
        let prepared = self.prepare.form(&self.beliefs, request, prepared)?;
        let (query, canon) = (&prepared.query, &prepared.canon);
        let (plan, scenarios) = (&mut self.plan, &self.config.scenarios);
        let primer = primer.filter(|p| p.version == self.prepare.version);
        let (entry, cache_hit) = plan.lookup(&prepared, primer, &self.model, scenarios)?;
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
        let certificate = if executed.resilience.breaker_tripped {
            None
        } else {
            self.recalibrate.certify(
                &self.model,
                &self.config.observed_memory,
                &self.beliefs,
                &self.truth,
                &prepared,
                &executed.rung.plan,
            )?
        };
        if let Some(cert) = &certificate {
            self.plan.stats.certificate = Some(cert.clone());
        }
        let events = self
            .recalibrate
            .observe(&self.beliefs, request, query, &executed.feedback)?;
        let recalibrations = events
            .into_iter()
            .map(|event| self.on_drift(request, event))
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

    /// The execute stage's fallback ladder. Attempt 0 runs `first` (the
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
        let (model, config) = (&self.model, &self.config);
        let fingerprint = &prepared.canon.fingerprint;
        let fp_key = fingerprint.encoding();
        let shard = shard_of(fingerprint, config.cache_shards);
        let stage = &mut self.execute;
        let tripped = stage.trip_breakers(config, &mut self.plan.cache, fp_key, shard);
        let (first, max_attempts) = if tripped {
            (lsc_rung(model, config, prepared, primary.scenario)?, 1)
        } else {
            (primary, config.resilience.max_retries.saturating_add(1))
        };
        let primary_scenario = first.scenario;
        let mut rungs = vec![first];
        let mut attempted = Vec::new();
        let mut faults_seen = Vec::new();
        for attempt in 0..max_attempts {
            if attempt == 1 {
                let fallbacks =
                    fallback_rungs(model, config, prepared, rest.by_ref(), primary_scenario)?;
                rungs.extend(fallbacks);
            }
            let idx = (attempt as usize).min(rungs.len() - 1);
            let route = rungs[idx].route;
            attempted.push(route);
            let mut faults = if attempt + 1 == max_attempts {
                FaultSchedule::empty()
            } else {
                config.fault_injection.schedule_for(ordinal, attempt)
            };
            let plan = &rungs[idx].plan;
            let executed = match stage.run(config, &self.truth, ordinal, request, plan, &mut faults)
            {
                Err(e) if !matches!(e, ServeError::Exec(ExecError::InjectedFault { .. })) => {
                    return Err(e)
                }
                executed => executed,
            };
            stage.counters.faults_injected += faults.trace().len() as u64;
            faults_seen.extend_from_slice(faults.trace());
            let Ok((report, feedback)) = executed else {
                stage.breaker.record_fault(fp_key.to_vec());
                stage.shard_breaker.record_fault(shard);
                stage.counters.retries += 1;
                continue;
            };
            let degraded = route != ServeRoute::Primary;
            let counters = &mut stage.counters;
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

    /// The recalibrate stage for one drift event: updates the belief
    /// statistic, pulls the affected cache entries, and decides (via EVPI)
    /// whether they are dropped for re-optimization or migrated for
    /// re-costing.
    fn on_drift(
        &mut self,
        request: &QueryRequest,
        event: DriftEvent,
    ) -> Result<Recalibration, ServeError> {
        // Anything prepared or primed under the old beliefs is stale from
        // here on — also if the update below fails halfway.
        self.prepare.invalidate();
        let blend = self.config.drift.blend;
        self.recalibrate
            .update_beliefs(blend, &mut self.beliefs, &self.truth, request, &event)?;

        // Every cached entry optimized under the stale statistic is pulled.
        let affected: Vec<&str> = event.target.tables();
        let mut removed = self.plan.cache.invalidate_collect(|e| {
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
            RecalibrationDecision::Reoptimize => self.recalibrate.reoptimize_decisions += 1,
            RecalibrationDecision::RecostOnly => {
                self.recalibrate.recost_decisions += 1;
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
        let prepared = self.prepare.form(&self.beliefs, request, None)?;
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
        let prepared = self
            .prepare
            .form(&self.beliefs, &entry.prepared.request, None)?;
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
        self.plan
            .cache
            .insert(&canon.fingerprint, Arc::new(migrated));
        Ok(true)
    }

    /// Aggregate optimizer statistics with the live cache counters folded
    /// in.
    pub fn stats(&self) -> OptStats {
        let mut s = self.plan.stats.clone();
        s.cache = self.plan.cache.counters();
        s.resilience = self.execute.counters;
        s
    }

    /// Live fault/retry/degradation counters.
    pub fn resilience_counters(&self) -> ResilienceCounters {
        self.execute.counters
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
        self.plan.invocations
    }

    /// Number of recalibration rounds performed so far.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrate.recalibrations
    }

    /// `(reoptimize, recost-only)` decision counts so far.
    pub fn decisions(&self) -> (u64, u64) {
        (
            self.recalibrate.reoptimize_decisions,
            self.recalibrate.recost_decisions,
        )
    }

    /// Requests served so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Current beliefs version (bumped once per recalibration). Prepared
    /// requests and batch primers tagged with an older version are ignored.
    pub fn beliefs_version(&self) -> u64 {
        self.prepare.version
    }

    /// Cache misses answered from a batch primer instead of a fresh
    /// optimizer run.
    pub fn primed_consumed(&self) -> u64 {
        self.plan.primed_consumed
    }

    /// Relations on the service's simulated disk. Executions reclaim their
    /// temporaries, so between serves this is the number of generated base
    /// tables.
    pub fn stored_relations(&self) -> usize {
        self.execute.disk.relation_count()
    }

    /// Live cache size in entries.
    pub fn cache_len(&self) -> usize {
        self.plan.cache.len()
    }

    /// Requests whose prepared form is memoized under the current beliefs
    /// (at most [`ServeConfig::cache_capacity`]).
    pub fn memo_len(&self) -> usize {
        self.prepare.memo.len()
    }

    /// Requests whose certificate is memoized (at most
    /// [`ServeConfig::cache_capacity`]; always zero with
    /// [`ServeConfig::resample`] off).
    pub fn certificate_memo_len(&self) -> usize {
        self.recalibrate.certificates.len()
    }

    /// Drift-triggered resampling rounds performed so far (always zero
    /// with [`ServeConfig::resample`] off or on a drift-quiet stream).
    pub fn resamples(&self) -> u64 {
        self.recalibrate.sampler.as_ref().map_or(0, |s| s.resamples)
    }

    /// The cached confidence interval for one statistic, if it has been
    /// sampled (row-domain for joins).
    pub fn stat_interval(&self, target: &DriftTarget) -> Option<StatInterval> {
        self.recalibrate
            .sampler
            .as_ref()?
            .intervals
            .get(target)
            .copied()
    }
}

/// The fallback rungs: the pick's other candidates, ranked among
/// themselves by the configured rule (minmax regret scores them against
/// each other, not the primary), then the LSC baseline as the last resort,
/// which reports the primary's scenario (it belongs to none).
fn fallback_rungs<'a, M: CostModel>(
    model: &M,
    config: &ServeConfig,
    prepared: &PreparedRequest,
    rest: impl Iterator<Item = Candidate<'a>>,
    primary_scenario: usize,
) -> Result<Vec<LadderRung>, ServeError> {
    let probs = config.observed_memory.probs();
    let ranked = rank(rest.collect(), &config.selection_rule, probs);
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
    rungs.push(lsc_rung(model, config, prepared, primary_scenario)?);
    Ok(rungs)
}

/// The robust last resort: System R (LSC) at the mean observed grant,
/// re-priced as an expected cost under the observed distribution so its
/// rung is comparable to the frontier rungs.
fn lsc_rung<M: CostModel>(
    model: &M,
    config: &ServeConfig,
    prepared: &PreparedRequest,
    scenario: usize,
) -> Result<LadderRung, ServeError> {
    let canon = &prepared.canon;
    let observed = &config.observed_memory;
    let (optimized, _) = lsc::optimize_at(&canon.query, model, observed.mean())?;
    let (_, expected_cost) =
        profile_and_expected_cost(&canon.query, model, &optimized.plan, observed);
    let rung = LadderRung {
        expected_cost,
        plan: canon.plan_to_original(&optimized.plan),
        scenario,
        route: ServeRoute::LscBaseline,
    };
    verify(&rung, &prepared.query, "lsc baseline expected cost")?;
    Ok(rung)
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
        let prepared = svc
            .prepare
            .form(&svc.beliefs, &request(25.0), None)
            .unwrap();
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
        let rest = ranked.into_iter().skip(1);
        let rungs = fallback_rungs(&svc.model, &svc.config, &prepared, rest, 2).unwrap();
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
        let first = svc.prepare.form(&svc.beliefs, &req, None).unwrap();
        let again = svc.prepare.form(&svc.beliefs, &req, None).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        // The cache entry the miss populated shares that same form.
        let entry = svc.plan.cache.peek(&first.canon.fingerprint).unwrap();
        assert!(Arc::ptr_eq(&entry.prepared, &first));
        assert_eq!(svc.memo_len(), 1);
    }

    #[test]
    fn a_digest_collision_rebuilds_instead_of_serving_another_form() {
        let mut svc = service();
        let (a, b) = (request(25.0), request(50.0));
        assert_ne!(a.key(), b.key());
        // Park `a`'s form under `b`'s key, as a digest collision would.
        let form_a = svc.prepare.form(&svc.beliefs, &a, None).unwrap();
        svc.prepare.memo.insert(b.key(), Arc::clone(&form_a));
        assert!(svc.prepare.memo.get(b.key(), |p| p.request == b).is_none());
        let form_b = svc.prepare.form(&svc.beliefs, &b, None).unwrap();
        assert!(!Arc::ptr_eq(&form_a, &form_b));
        assert_eq!(form_b.request, b);
        let fresh = PreparedRequest::build(svc.beliefs(), &b, 0).unwrap();
        assert_eq!(form_b.canon.fingerprint, fresh.canon.fingerprint);
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
        let mut config = service().config;
        config.resample = Some(ResampleConfig::default());
        config.drift.error_threshold = 0.5;
        config.drift.min_observations = 3;
        let mut svc =
            QueryService::new(PaperCostModel, catalog(false), catalog(true), config).unwrap();

        let first = svc.serve(&b).unwrap().certificate.unwrap();
        assert_eq!(
            svc.recalibrate.certificate_hits, 0,
            "a first serve certifies"
        );
        assert_eq!(svc.serve(&b).unwrap().certificate.unwrap(), first);
        assert_eq!(
            svc.recalibrate.certificate_hits, 1,
            "a repeat is a memo hit"
        );
        let drifted = (0..40).any(|_| !svc.serve(&a).unwrap().recalibrations.is_empty());
        assert!(drifted, "the hot truth must drift `cust.v`");
        assert!(
            svc.recalibrate.certificate_hits > 1,
            "`a`'s repeats hit too"
        );

        // The recalibration moved `cust` only: `b`'s certificate is still
        // memoized and confirmed, while `a`'s query moved and recertifies.
        let hits = svc.recalibrate.certificate_hits;
        assert_eq!(svc.serve(&b).unwrap().certificate.unwrap(), first);
        assert_eq!(svc.recalibrate.certificate_hits, hits + 1);
        svc.serve(&a).unwrap();
        assert_eq!(svc.recalibrate.certificate_hits, hits + 1);
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
