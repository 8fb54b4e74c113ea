//! The sharded, capacity-bounded plan cache.
//!
//! Entries are keyed by the *full canonical encoding* of a query's
//! [`Fingerprint`] — the 64-bit hash only selects the shard, so a hash
//! collision (or a WL-refinement tie resolved differently) can produce a
//! false miss but never a false hit. Each shard is an independently locked
//! LRU map; recency is a global monotone tick, so eviction order is
//! deterministic for a deterministic request stream regardless of how the
//! stream maps onto shards.
//!
//! Counters ([`CacheCounters`]) use relaxed atomics: they are monotone
//! sums, and the serving loop's determinism contract only requires the
//! *stream* to be sequential — concurrent readers would still agree on the
//! totals at quiescence.
//!
//! Shards store their entries in a [`BTreeMap`] keyed by encoding bytes:
//! every iteration a shard ever performs (eviction scan, invalidation
//! collection) is therefore in lexicographic key order, independent of
//! insertion history and hasher seed. `lec-lint`'s `no-unordered-iteration`
//! rule keeps it that way.

use lec_core::CacheCounters;
use lec_plan::Fingerprint;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The shard a fingerprint maps to under `shards`-way splitting — the one
/// routing formula shared by the cache and the concurrent dispatcher, so
/// "same shard" always means "same cache lock".
pub fn shard_of(fp: &Fingerprint, shards: usize) -> usize {
    (fp.hash() % shards.max(1) as u64) as usize
}

struct Slot<V> {
    value: V,
    last_used: u64,
}

struct Shard<V> {
    entries: BTreeMap<Vec<u8>, Slot<V>>,
}

/// A sharded LRU plan cache. `V` is the cached entry type (the service
/// stores parametric plan sets plus their provenance).
pub struct PlanCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    capacity_per_shard: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl<V: Clone> PlanCache<V> {
    /// A cache with `shards` independently locked shards and room for
    /// `capacity` entries in total (rounded up to a multiple of the shard
    /// count; both arguments are floored at 1).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.max(1).div_ceil(shards);
        PlanCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: BTreeMap::new(),
                    })
                })
                .collect(),
            capacity_per_shard,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    // Every shard lock below recovers from poisoning via
    // `PoisonError::into_inner` instead of panicking: a poisoned shard means
    // some worker panicked elsewhere, and each critical section here leaves
    // the map structurally valid between statements, so serving from the
    // surviving entries is strictly better than cascading that panic into
    // every later request on the shard.
    fn shard(&self, fp: &Fingerprint) -> &Mutex<Shard<V>> {
        &self.shards[shard_of(fp, self.shards.len())]
    }

    /// Which shard `fp` maps to — the affinity key the concurrent driver
    /// partitions request streams by.
    pub fn shard_index(&self, fp: &Fingerprint) -> usize {
        shard_of(fp, self.shards.len())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Pure membership probe: no hit/miss counting, no recency refresh.
    /// Batch priming uses this to ask "would this request miss?" without
    /// perturbing the counters or the LRU order the serve itself will see.
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        let shard = self
            .shard(fp)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.entries.contains_key(fp.encoding())
    }

    /// Pure read of an entry: no hit/miss counting, no recency refresh.
    /// Batch priming uses this to *pin* a resident entry into the window's
    /// primer — within-window inserts may evict it from the cache, and the
    /// pinned clone keeps later occurrences from re-optimizing — without
    /// perturbing anything the serve itself will observe.
    pub fn peek(&self, fp: &Fingerprint) -> Option<V> {
        let shard = self
            .shard(fp)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.entries.get(fp.encoding()).map(|s| s.value.clone())
    }

    // lec-lint: allow(concurrency-determinism) — fetch_add is an exact RMW; ticks only order LRU recency within a shard, and each shard is owned by one worker per window
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up an entry, refreshing its recency. Counts a hit or a miss.
    // lec-lint: allow(concurrency-determinism) — hit/miss counters are observability-only totals; fetch_add RMWs are exact and addition is order-independent
    pub fn get(&self, fp: &Fingerprint) -> Option<V> {
        let tick = self.next_tick();
        let mut shard = self
            .shard(fp)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match shard.entries.get_mut(fp.encoding()) {
            Some(slot) => {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) an entry, evicting the shard's least recently
    /// used entry when the shard is at capacity.
    pub fn insert(&self, fp: &Fingerprint, value: V) {
        let tick = self.next_tick();
        let mut shard = self
            .shard(fp)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !shard.entries.contains_key(fp.encoding())
            && shard.entries.len() >= self.capacity_per_shard
        {
            // Oldest tick; ties broken by key bytes so eviction stays
            // deterministic even if two inserts shared a tick.
            if let Some(victim) = shard
                .entries
                .iter()
                .min_by(|(ka, a), (kb, b)| {
                    (a.last_used, ka.as_slice()).cmp(&(b.last_used, kb.as_slice()))
                })
                .map(|(key, _)| key.clone())
            {
                shard.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed); // lec-lint: allow(concurrency-determinism) — observability counter; exact RMW, total is order-independent
            }
        }
        shard.entries.insert(
            fp.encoding().to_vec(),
            Slot {
                value,
                last_used: tick,
            },
        );
    }

    /// Removes every entry matching `pred`, returning the removed values in
    /// shard order, then lexicographic encoding order within a shard — a
    /// deterministic order, independent of insertion history. (The service
    /// still sorts by its own keys, but no longer has to for correctness.)
    /// Each removal counts as an invalidation.
    pub fn invalidate_collect(&self, pred: impl Fn(&V) -> bool) -> Vec<V> {
        let mut removed = Vec::new();
        for shard in &self.shards {
            let mut shard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let keys: Vec<Vec<u8>> = shard
                .entries
                .iter()
                .filter(|(_, slot)| pred(&slot.value))
                .map(|(k, _)| k.clone())
                .collect();
            for k in keys {
                if let Some(slot) = shard.entries.remove(&k) {
                    removed.push(slot.value);
                }
            }
        }
        self.invalidations
            .fetch_add(removed.len() as u64, Ordering::Relaxed); // lec-lint: allow(concurrency-determinism) — observability counter; exact RMW, total is order-independent
        removed
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry capacity (per-shard capacity times shard count).
    pub fn capacity(&self) -> usize {
        self.capacity_per_shard * self.shards.len()
    }

    /// Snapshot of the hit/miss/evict/invalidate counters.
    // lec-lint: allow(concurrency-determinism) — counters are read after the serving scope joins (scope exit is a happens-before edge) and are order-independent totals
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_plan::fingerprint::fingerprint;
    use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};

    fn fp(pages: f64) -> Fingerprint {
        let q = JoinQuery::new(
            vec![
                Relation::new("a", pages, 1e4),
                Relation::new("b", 50.0, 1e3),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 0.01,
                key: KeyId(0),
            }],
            None,
        )
        .unwrap();
        fingerprint(&q)
    }

    #[test]
    fn get_insert_hit_miss() {
        let cache: PlanCache<u32> = PlanCache::new(4, 8);
        let a = fp(10.0);
        assert_eq!(cache.get(&a), None);
        cache.insert(&a, 7);
        assert_eq!(cache.get(&a), Some(7));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions), (1, 1, 0));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        // One shard so the LRU order is fully observable.
        let cache: PlanCache<u32> = PlanCache::new(1, 2);
        let (a, b, c) = (fp(10.0), fp(20.0), fp(30.0));
        cache.insert(&a, 1);
        cache.insert(&b, 2);
        // Touch `a` so `b` becomes the LRU victim.
        assert_eq!(cache.get(&a), Some(1));
        cache.insert(&c, 3);
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.get(&a), Some(1));
        assert_eq!(cache.get(&b), None);
        assert_eq!(cache.get(&c), Some(3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.capacity(), 2);

        // Three entries: a `get` refreshes recency, so the victim is the
        // least recently *used* entry, not the oldest insert.
        let cache: PlanCache<u32> = PlanCache::new(1, 3);
        let d = fp(40.0);
        cache.insert(&a, 1);
        cache.insert(&b, 2);
        cache.insert(&c, 3);
        assert_eq!(cache.get(&a), Some(1));
        cache.insert(&d, 4);
        assert_eq!(cache.get(&b), None, "b was least recently used");
        assert_eq!(cache.get(&c), Some(3));
        cache.insert(&b, 2);
        assert_eq!(cache.get(&a), None, "a went stale after c was read");
        assert_eq!(cache.get(&c), Some(3));
        assert_eq!(cache.get(&d), Some(4));
        assert_eq!(cache.get(&b), Some(2));
        assert_eq!(cache.counters().evictions, 2);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let cache: PlanCache<u32> = PlanCache::new(1, 2);
        let a = fp(10.0);
        cache.insert(&a, 1);
        cache.insert(&a, 9);
        assert_eq!(cache.counters().evictions, 0);
        assert_eq!(cache.get(&a), Some(9));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shard_iteration_order_is_insertion_independent() {
        // Regression test for the unordered-iteration hazard: two caches
        // holding the same entries must drain them in the same order even
        // though the entries arrived in different orders. With the old
        // HashMap-backed shards this only held by accident of hasher state.
        let pages = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0];
        let forward: PlanCache<u64> = PlanCache::new(2, 16);
        for p in pages {
            forward.insert(&fp(p), p as u64);
        }
        let backward: PlanCache<u64> = PlanCache::new(2, 16);
        for p in pages.iter().rev() {
            backward.insert(&fp(*p), *p as u64);
        }
        let drained_fwd = forward.invalidate_collect(|_| true);
        let drained_bwd = backward.invalidate_collect(|_| true);
        assert_eq!(drained_fwd, drained_bwd);
        assert_eq!(drained_fwd.len(), pages.len());
    }

    #[test]
    fn invalidation_removes_matching_entries() {
        let cache: PlanCache<u32> = PlanCache::new(2, 8);
        for (i, pages) in [10.0, 20.0, 30.0].iter().enumerate() {
            cache.insert(&fp(*pages), i as u32);
        }
        let mut removed = cache.invalidate_collect(|v| *v != 1);
        removed.sort_unstable();
        assert_eq!(removed, vec![0, 2]);
        assert_eq!(cache.counters().invalidations, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&fp(20.0)), Some(1));
    }
}
