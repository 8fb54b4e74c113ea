//! Search-space observability for the optimizer family.
//!
//! Robust-plan work lives or dies by *observable* plan-space behavior, yet
//! until this module only top-`c` reported anything about its search (the
//! combination counters X4 measures). [`OptStats`] generalizes that: every
//! enumerator (`dp`/`alg_c`, `alg_d`, `topc`, `bushy`, `exhaustive`) and the
//! Pareto utility DP can report how many masks it expanded, how many
//! candidate (subplan × access × join-method) combinations it priced, how
//! many DP entries it wrote, how big the precomputed [`QueryTables`] were,
//! the Pareto frontier sizes per DP rank, and coarse wall time per rank.
//!
//! ### Determinism contract
//!
//! The counters in [`SearchCounters`] are accumulated **in mask order** —
//! the sweeps iterate the subset lattice rank by rank — so two runs of the
//! same enumerator on the same query produce *identical* counters. Wall
//! time ([`OptStats::rank_wall_ns`]) is the one deliberately
//! non-deterministic field and is excluded from every equality comparison.
//!
//! [`QueryTables`]: crate::precompute::QueryTables

/// Deterministic search counters, identical between runs of the same
/// enumerator on the same query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Subset-lattice masks (cardinality ≥ 2) whose entry was computed and
    /// kept. Zero for the exhaustive enumerators, which do not walk the
    /// lattice.
    pub masks_expanded: u64,
    /// Subset-lattice masks (cardinality ≥ 2) the bounded left-deep DP
    /// pruned: their lower bound exceeded the incumbent's cost, so no entry
    /// was kept. For that DP `masks_expanded + masks_pruned = 2ⁿ − n − 1`;
    /// zero for every other enumerator.
    pub masks_pruned: u64,
    /// Candidate (subplan × access × join-method) combinations priced.
    /// For the bounded left-deep DP this includes the incumbent plan's
    /// steps, each counted once even when the sweep reuses it. For `topc`
    /// this is the frontier-merge `combos_examined`; for the exhaustive
    /// enumerators it is the number of complete plans scored.
    pub candidates_priced: u64,
    /// Entries written into the DP table: the depth-1 seeds plus one per
    /// expanded mask (for `topc` and the Pareto DP, the *list/frontier
    /// lengths* actually kept).
    pub entries_written: u64,
    /// Largest Pareto frontier encountered at any mask of each rank
    /// (rank `k` holds subsets of cardinality `k + 2`). Empty for every
    /// scalar enumerator; populated by `pareto::optimize`.
    pub frontier_per_rank: Vec<usize>,
}

/// Plan-cache behavior counters, folded into [`OptStats`] by the
/// `lec-serve` query service.
///
/// Deterministic under the same determinism contract as
/// [`SearchCounters`]: the serving loop processes its request stream
/// sequentially, so hits/misses/evictions/invalidations depend only on the
/// stream — never on the optimizer backend's thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Requests answered from a cached parametric entry.
    pub hits: u64,
    /// Requests that fell through to the optimizer.
    pub misses: u64,
    /// Entries displaced by the capacity bound (LRU order).
    pub evictions: u64,
    /// Entries dropped or migrated because drift recalibrated a statistic
    /// they were optimized under.
    pub invalidations: u64,
}

impl CacheCounters {
    /// Hit fraction over all lookups (zero when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// True when every field is zero (render elides the cache line then).
    pub fn is_zero(&self) -> bool {
        *self == CacheCounters::default()
    }
}

/// Fault/retry/degradation counters, folded into [`OptStats`] by the
/// `lec-serve` resilience layer.
///
/// Deterministic under the same contract as [`CacheCounters`]: faults come
/// from a seedable [`FaultSchedule`] keyed on simulated coordinates, so the
/// counters depend only on the request stream and the injection config —
/// never on wall clock or thread count.
///
/// [`FaultSchedule`]: https://docs.rs/lec-exec
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Faults the schedule actually fired during serving.
    pub faults_injected: u64,
    /// Execution attempts beyond the first (a retry switches plans down the
    /// fallback ladder before re-executing).
    pub retries: u64,
    /// Requests served by something other than the primary plan (a
    /// frontier fallback, the LSC baseline, or a breaker reroute).
    pub degraded_serves: u64,
    /// Circuit-breaker trips: fingerprints routed straight to the robust
    /// fallback after repeated faults, flagged for reoptimization.
    pub breaker_trips: u64,
    /// Shard-breaker trips: whole cache shards routed to the robust
    /// fallback (and flushed) after accumulating faults across their
    /// fingerprints — the coarse layer above per-fingerprint trips.
    pub shard_breaker_trips: u64,
    /// Degraded serves answered by a next-best Pareto-frontier plan.
    pub frontier_fallbacks: u64,
    /// Degraded serves answered by the LSC baseline (last resort).
    pub lsc_fallbacks: u64,
}

impl ResilienceCounters {
    /// True when every field is zero (render elides the line then).
    pub fn is_zero(&self) -> bool {
        *self == ResilienceCounters::default()
    }
}

/// Sizes of the precomputed per-query tables
/// ([`QueryTables`](crate::precompute::QueryTables), or the enumerator's
/// equivalent memoization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrecomputeSizes {
    /// Best-access entries (one per relation).
    pub access_entries: usize,
    /// Result-size entries (one per subset, `2^n` including the unused
    /// empty-set slot).
    pub pages_entries: usize,
    /// Predicate-adjacency entries (two per join predicate).
    pub adjacency_entries: usize,
}

/// Observability record for one optimizer invocation.
///
/// Everything except [`rank_wall_ns`](Self::rank_wall_ns) is deterministic;
/// compare [`counters`](Self::counters) and
/// [`precompute`](Self::precompute) across runs, never the wall times.
#[derive(Debug, Clone, Default)]
pub struct OptStats {
    /// Which enumerator produced this record (`"alg_c"`, `"alg_d"`,
    /// `"topc"`, `"bushy"`, `"exhaustive"`, `"pareto"`, `"lsc"`, ...).
    pub algorithm: &'static str,
    /// Number of relations in the query.
    pub relations: usize,
    /// The deterministic search counters.
    pub counters: SearchCounters,
    /// Sizes of the precomputed tables the run consumed, once per call.
    /// `ParametricPlans::precompute_with_stats` prices all of its memory
    /// scenarios in one sweep over one set of tables, so it reports them
    /// once, like a single-scenario run.
    pub precompute: PrecomputeSizes,
    /// Plan-cache behavior, when the record comes from a caching layer
    /// (all zeros for a bare optimizer run).
    pub cache: CacheCounters,
    /// Fault-injection and degradation behavior, when the record comes from
    /// the serving layer's resilience path (all zeros otherwise).
    pub resilience: ResilienceCounters,
    /// Coarse wall-clock nanoseconds per DP rank (rank `k` covers subsets
    /// of cardinality `k + 2`; a single entry for non-lattice enumerators).
    /// Scheduling-dependent: excluded from all determinism comparisons.
    pub rank_wall_ns: Vec<u64>,
}

impl OptStats {
    /// An empty record for `algorithm` on an `n`-relation query.
    pub fn new(algorithm: &'static str, relations: usize) -> Self {
        OptStats {
            algorithm,
            relations,
            ..Self::default()
        }
    }

    /// Total wall time across all ranks, in nanoseconds.
    pub fn total_wall_ns(&self) -> u64 {
        self.rank_wall_ns.iter().sum()
    }

    /// Folds another record into this one (the serving layer's running
    /// totals): counters and precompute sizes add, `frontier_per_rank` and
    /// `rank_wall_ns` add elementwise (shorter vectors are zero-extended),
    /// `relations` keeps the maximum. Summation in input order keeps the
    /// aggregate deterministic when the inputs are.
    pub fn absorb(&mut self, other: &OptStats) {
        self.relations = self.relations.max(other.relations);
        self.counters.masks_expanded += other.counters.masks_expanded;
        self.counters.masks_pruned += other.counters.masks_pruned;
        self.counters.candidates_priced += other.counters.candidates_priced;
        self.counters.entries_written += other.counters.entries_written;
        extend_max(
            &mut self.counters.frontier_per_rank,
            &other.counters.frontier_per_rank,
        );
        self.precompute.access_entries += other.precompute.access_entries;
        self.precompute.pages_entries += other.precompute.pages_entries;
        self.precompute.adjacency_entries += other.precompute.adjacency_entries;
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        self.cache.evictions += other.cache.evictions;
        self.cache.invalidations += other.cache.invalidations;
        self.resilience.faults_injected += other.resilience.faults_injected;
        self.resilience.retries += other.resilience.retries;
        self.resilience.degraded_serves += other.resilience.degraded_serves;
        self.resilience.breaker_trips += other.resilience.breaker_trips;
        self.resilience.shard_breaker_trips += other.resilience.shard_breaker_trips;
        self.resilience.frontier_fallbacks += other.resilience.frontier_fallbacks;
        self.resilience.lsc_fallbacks += other.resilience.lsc_fallbacks;
        extend_add(&mut self.rank_wall_ns, &other.rank_wall_ns);
    }

    /// Renders the record as a multi-line footer for an EXPLAIN: callers
    /// append it below [`explain_with_costs`](crate::evaluate::explain_with_costs).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "-- optimizer stats ({}, n={}) --",
            self.algorithm, self.relations
        );
        let _ = writeln!(out, "masks expanded:    {}", self.counters.masks_expanded);
        let _ = writeln!(out, "masks pruned:      {}", self.counters.masks_pruned);
        let _ = writeln!(
            out,
            "candidates priced: {}",
            self.counters.candidates_priced
        );
        let _ = writeln!(out, "entries written:   {}", self.counters.entries_written);
        let _ = writeln!(
            out,
            "precompute:        {} access, {} pages, {} adjacency",
            self.precompute.access_entries,
            self.precompute.pages_entries,
            self.precompute.adjacency_entries
        );
        if !self.cache.is_zero() {
            let _ = writeln!(
                out,
                "plan cache:        {} hit / {} miss / {} evict / {} invalidate ({:.1}% hit rate)",
                self.cache.hits,
                self.cache.misses,
                self.cache.evictions,
                self.cache.invalidations,
                100.0 * self.cache.hit_rate()
            );
        }
        if !self.resilience.is_zero() {
            let _ = writeln!(
                out,
                "resilience:        {} fault / {} retry / {} degraded / {} breaker / {} shard-breaker ({} frontier, {} lsc)",
                self.resilience.faults_injected,
                self.resilience.retries,
                self.resilience.degraded_serves,
                self.resilience.breaker_trips,
                self.resilience.shard_breaker_trips,
                self.resilience.frontier_fallbacks,
                self.resilience.lsc_fallbacks
            );
        }
        if !self.counters.frontier_per_rank.is_empty() {
            let _ = writeln!(
                out,
                "frontier per rank: {:?}",
                self.counters.frontier_per_rank
            );
        }
        let _ = writeln!(
            out,
            "wall time:         {:.3} ms over {} rank(s)",
            self.total_wall_ns() as f64 / 1e6,
            self.rank_wall_ns.len()
        );
        out
    }
}

fn extend_add(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

fn extend_max(dst: &mut Vec<usize>, src: &[usize]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters_and_extends_vectors() {
        let mut a = OptStats::new("alg_c", 4);
        a.counters.masks_expanded = 11;
        a.counters.masks_pruned = 2;
        a.counters.candidates_priced = 100;
        a.counters.entries_written = 15;
        a.precompute.access_entries = 4;
        a.rank_wall_ns = vec![5, 7];

        let mut b = OptStats::new("alg_c", 6);
        b.counters.masks_expanded = 57;
        b.counters.masks_pruned = 3;
        b.counters.candidates_priced = 500;
        b.counters.entries_written = 63;
        b.counters.frontier_per_rank = vec![2, 3, 1];
        b.precompute.access_entries = 6;
        b.rank_wall_ns = vec![1, 2, 3];

        a.absorb(&b);
        assert_eq!(a.relations, 6);
        assert_eq!(a.counters.masks_expanded, 68);
        assert_eq!(a.counters.masks_pruned, 5);
        assert_eq!(a.counters.candidates_priced, 600);
        assert_eq!(a.counters.entries_written, 78);
        assert_eq!(a.counters.frontier_per_rank, vec![2, 3, 1]);
        assert_eq!(a.precompute.access_entries, 10);
        assert_eq!(a.rank_wall_ns, vec![6, 9, 3]);
        assert_eq!(a.total_wall_ns(), 18);
    }

    #[test]
    fn render_mentions_every_counter() {
        let mut s = OptStats::new("pareto", 5);
        s.counters.masks_expanded = 26;
        s.counters.masks_pruned = 4;
        s.counters.frontier_per_rank = vec![3, 4];
        s.rank_wall_ns = vec![1000];
        let text = s.render();
        assert!(text.contains("optimizer stats (pareto, n=5)"));
        assert!(text.contains("masks expanded:    26"));
        assert!(text.contains("masks pruned:      4"));
        assert!(text.contains("frontier per rank: [3, 4]"));
        assert!(text.contains("rank(s)"));
    }

    #[test]
    fn cache_counters_absorb_and_render() {
        let mut a = OptStats::new("serve", 3);
        a.cache = CacheCounters {
            hits: 7,
            misses: 3,
            evictions: 1,
            invalidations: 2,
        };
        let mut b = OptStats::new("serve", 3);
        b.cache.hits = 3;
        a.absorb(&b);
        assert_eq!(a.cache.hits, 10);
        assert_eq!(a.cache.misses, 3);
        assert!((a.cache.hit_rate() - 10.0 / 13.0).abs() < 1e-12);
        let text = a.render();
        assert!(text.contains("plan cache:        10 hit / 3 miss / 1 evict / 2 invalidate"));
        // A bare optimizer record says nothing about caching.
        assert!(CacheCounters::default().is_zero());
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
        assert!(!OptStats::new("alg_c", 3).render().contains("plan cache"));
    }

    #[test]
    fn resilience_counters_absorb_and_render() {
        let mut a = OptStats::new("serve", 3);
        a.resilience = ResilienceCounters {
            faults_injected: 4,
            retries: 3,
            degraded_serves: 2,
            breaker_trips: 1,
            shard_breaker_trips: 1,
            frontier_fallbacks: 2,
            lsc_fallbacks: 1,
        };
        let mut b = OptStats::new("serve", 3);
        b.resilience.faults_injected = 6;
        b.resilience.retries = 5;
        a.absorb(&b);
        assert_eq!(a.resilience.faults_injected, 10);
        assert_eq!(a.resilience.retries, 8);
        assert_eq!(a.resilience.degraded_serves, 2);
        let text = a.render();
        assert!(
            text.contains(
                "resilience:        10 fault / 8 retry / 2 degraded / 1 breaker / 1 shard-breaker"
            ),
            "{text}"
        );
        // A record with no faults says nothing about resilience.
        assert!(ResilienceCounters::default().is_zero());
        assert!(!OptStats::new("alg_c", 3).render().contains("resilience"));
    }

    #[test]
    fn counters_equality_ignores_nothing_but_wall_time() {
        // SearchCounters derives Eq: two runs with identical search
        // behavior compare equal regardless of their wall times, because
        // wall time lives on OptStats (which has no PartialEq) instead.
        let a = SearchCounters {
            masks_expanded: 1,
            masks_pruned: 5,
            candidates_priced: 2,
            entries_written: 3,
            frontier_per_rank: vec![4],
        };
        let b = a.clone();
        assert_eq!(a, b);
    }
}
