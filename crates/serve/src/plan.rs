//! The plan stage: lookups in the plan cache of parametric plan sets, the
//! optimizer runs behind its misses, and the batch primer that runs them
//! ahead of a concurrent window.

use crate::cache::PlanCache;
use crate::error::ServeError;
use crate::prepare::PreparedRequest;
use lec_core::parametric::ParametricPlans;
use lec_core::OptStats;
use lec_cost::CostModel;
use lec_plan::Canonical;
use lec_stats::Distribution;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A cached parametric entry plus the provenance the service needs to
/// migrate or invalidate it. Both halves are shared: a hit, a primer pin
/// and a primed miss each clone pointers, never plans.
pub(crate) struct CacheEntry {
    /// The prepared form of a representative request for this equivalence
    /// class: its request rebuilds the query after a recalibration, and
    /// the plans are stored in its canonical numbering.
    pub(crate) prepared: Arc<PreparedRequest>,
    /// The per-scenario plans.
    pub(crate) plans: Arc<ParametricPlans>,
}

/// Parametric plan sets optimized ahead of one batch window, keyed by
/// canonical fingerprint encoding.
///
/// [`QueryService::prime_window`] walks a window of requests and optimizes
/// each *distinct would-miss* fingerprint exactly once; isomorphic requests
/// later in the window find the entry already primed and are counted in
/// [`dedup_saved`](BatchPrimer::dedup_saved). A fingerprint resident in the
/// cache at prime time is *pinned* instead: its entry's plans are shared in
/// by a pure [`PlanCache::peek`] (no counters, no recency refresh), so if
/// within-window inserts evict it, later occurrences serve from the primer
/// rather than re-optimizing. Primed entries are **not** consume-once:
/// under unchanged beliefs re-reading one is semantically identical to
/// re-optimizing, so a window whose entries get evicted between serves
/// (capacity thrash) still pays one optimization per class per window
/// instead of one per request.
///
/// Like a prepared request, a primer is version-tagged: a recalibration
/// mid-window bumps the service's beliefs version and the remaining
/// serves fall back to fresh optimization instead of consuming plans
/// priced under the old beliefs.
///
/// [`QueryService::prime_window`]: crate::service::QueryService::prime_window
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

impl BatchPrimer {
    /// An empty primer for beliefs `version`.
    pub(crate) fn new(version: u64) -> Self {
        BatchPrimer {
            version,
            plans: BTreeMap::new(),
            pinned: BTreeSet::new(),
            dedup_saved: 0,
        }
    }
}

/// The plan stage's counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PlanCounters {
    /// Full optimizer runs (misses and primes).
    pub(crate) invocations: u64,
    /// Cache misses answered from a batch primer instead of a fresh
    /// optimizer run.
    pub(crate) primed_consumed: u64,
}

/// The plan stage's state: the optimizer statistics every run is absorbed
/// into, and its counters. The plan cache it reads and fills is the
/// service's, lent to each call like it is to the execute stage's breakers
/// and the recalibrate stage's invalidations.
pub(crate) struct PlanStage {
    stats: OptStats,
    counters: PlanCounters,
}

impl PlanStage {
    pub(crate) fn new() -> Self {
        PlanStage {
            stats: OptStats::new("serve", 0),
            counters: PlanCounters::default(),
        }
    }

    /// The cached entry on a hit; on a miss, the primer's plans (when the
    /// primer was built under `prepared`'s beliefs version) or a fresh
    /// optimizer run, inserted into `cache`. Both paths store and cost
    /// plans against the canonical query, so a hit's expected cost is
    /// bit-identical to the miss that populated it.
    pub(crate) fn lookup<M: CostModel + Sync>(
        &mut self,
        cache: &mut PlanCache<Arc<CacheEntry>>,
        prepared: &Arc<PreparedRequest>,
        primer: Option<&BatchPrimer>,
        model: &M,
        scenarios: &[Distribution],
    ) -> Result<(Arc<CacheEntry>, bool), ServeError> {
        let canon = &prepared.canon;
        if let Some(entry) = cache.get(&canon.fingerprint) {
            return Ok((entry, true));
        }
        let primer = primer.filter(|p| p.version == prepared.version);
        let primed = primer.and_then(|p| p.plans.get(canon.fingerprint.encoding()));
        let plans = match primed {
            Some(plans) => {
                self.counters.primed_consumed += 1;
                Arc::clone(plans)
            }
            None => Arc::new(self.optimize(canon, model, scenarios)?),
        };
        let entry = Arc::new(CacheEntry {
            prepared: Arc::clone(prepared),
            plans,
        });
        cache.insert(&canon.fingerprint, Arc::clone(&entry));
        Ok((entry, false))
    }

    /// Primes one window request: a fingerprint already in `primer` is an
    /// isomorphic repeat (`dedup_saved` unless it is a pin); one resident
    /// in `cache` is pinned by a pure [`PlanCache::peek`]; any other is
    /// optimized.
    pub(crate) fn prime<M: CostModel + Sync>(
        &mut self,
        cache: &PlanCache<Arc<CacheEntry>>,
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
        let plans = match cache.peek(&canon.fingerprint) {
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
        self.counters.invocations += 1;
        Ok(plans)
    }

    /// The optimizer statistics of every run so far (the cache counters
    /// are the service's to fold in).
    pub(crate) fn stats(&self) -> &OptStats {
        &self.stats
    }

    pub(crate) fn counters(&self) -> PlanCounters {
        self.counters
    }
}
