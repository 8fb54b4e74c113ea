//! The sharded, capacity-bounded plan cache.
//!
//! Entries are keyed by the *full canonical encoding* of a query's
//! [`Fingerprint`] — the 64-bit hash only selects the shard, so a hash
//! collision (or a WL-refinement tie resolved differently) can produce a
//! false miss but never a false hit. Each shard is an LRU map; recency is
//! one cache-wide monotone tick, so eviction order is deterministic for a
//! deterministic request stream regardless of how the stream maps onto
//! shards.
//!
//! A cache is plain data with one owner: every operation that moves a
//! counter or a recency tick takes `&mut self`, so the hit, miss,
//! eviction and invalidation counts ([`CacheCounters`]) are ordinary
//! fields and a pure function of the operation sequence. The concurrent
//! driver gives each worker its own service, and with it its own cache.
//!
//! Shards store their entries in a [`BTreeMap`] keyed by encoding bytes:
//! every iteration a shard ever performs (eviction scan, invalidation
//! collection) is therefore in lexicographic key order, independent of
//! insertion history and hasher seed. `lec-lint`'s `no-unordered-iteration`
//! rule keeps it that way.

use lec_core::CacheCounters;
use lec_plan::Fingerprint;
use std::collections::BTreeMap;

/// The shard a fingerprint maps to under `shards`-way splitting — the one
/// routing formula shared by the cache and the concurrent dispatcher, so
/// "same shard" always means "same worker".
pub fn shard_of(fp: &Fingerprint, shards: usize) -> usize {
    (fp.hash() % shards.max(1) as u64) as usize
}

struct Slot<V> {
    value: V,
    last_used: u64,
}

/// A sharded LRU plan cache. `V` is the cached entry type (the service
/// stores parametric plan sets plus their provenance).
pub struct PlanCache<V> {
    shards: Vec<BTreeMap<Vec<u8>, Slot<V>>>,
    capacity_per_shard: usize,
    /// The next recency tick.
    tick: u64,
    counters: CacheCounters,
}

impl<V: Clone> PlanCache<V> {
    /// A cache with `shards` shards and room for `capacity` entries in
    /// total (rounded up to a multiple of the shard count; both arguments
    /// are floored at 1).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        PlanCache {
            shards: (0..shards).map(|_| BTreeMap::new()).collect(),
            capacity_per_shard: capacity.max(1).div_ceil(shards),
            tick: 0,
            counters: CacheCounters::default(),
        }
    }

    fn shard(&self, fp: &Fingerprint) -> usize {
        shard_of(fp, self.shards.len())
    }

    /// Pure read of an entry: no hit/miss counting, no recency refresh.
    /// Batch priming uses this to *pin* a resident entry into the window's
    /// primer — within-window inserts may evict it from the cache, and the
    /// pinned clone keeps later occurrences from re-optimizing — without
    /// perturbing anything the serve itself will observe.
    pub fn peek(&self, fp: &Fingerprint) -> Option<V> {
        let shard = &self.shards[self.shard(fp)];
        shard.get(fp.encoding()).map(|s| s.value.clone())
    }

    fn next_tick(&mut self) -> u64 {
        let tick = self.tick;
        self.tick += 1;
        tick
    }

    /// Looks up an entry, refreshing its recency. Counts a hit or a miss.
    pub fn get(&mut self, fp: &Fingerprint) -> Option<V> {
        let tick = self.next_tick();
        let shard = self.shard(fp);
        match self.shards[shard].get_mut(fp.encoding()) {
            Some(slot) => {
                slot.last_used = tick;
                self.counters.hits += 1;
                Some(slot.value.clone())
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) an entry, evicting the shard's least recently
    /// used entry when the shard is at capacity.
    pub fn insert(&mut self, fp: &Fingerprint, value: V) {
        let tick = self.next_tick();
        let index = self.shard(fp);
        let shard = &mut self.shards[index];
        if !shard.contains_key(fp.encoding()) && shard.len() >= self.capacity_per_shard {
            // Oldest tick; ties broken by key bytes so eviction stays
            // deterministic even if two inserts shared a tick.
            if let Some(victim) = shard
                .iter()
                .min_by(|(ka, a), (kb, b)| {
                    (a.last_used, ka.as_slice()).cmp(&(b.last_used, kb.as_slice()))
                })
                .map(|(key, _)| key.clone())
            {
                shard.remove(&victim);
                self.counters.evictions += 1;
            }
        }
        let slot = Slot {
            value,
            last_used: tick,
        };
        shard.insert(fp.encoding().to_vec(), slot);
    }

    /// Removes every entry matching `pred`, returning the removed values in
    /// shard order, then lexicographic encoding order within a shard — a
    /// deterministic order, independent of insertion history. (The service
    /// still sorts by its own keys, but no longer has to for correctness.)
    /// Each removal counts as an invalidation.
    pub fn invalidate_collect(&mut self, pred: impl Fn(&V) -> bool) -> Vec<V> {
        let mut removed = Vec::new();
        for shard in &mut self.shards {
            let keys: Vec<Vec<u8>> = shard
                .iter()
                .filter(|(_, slot)| pred(&slot.value))
                .map(|(k, _)| k.clone())
                .collect();
            for k in keys {
                if let Some(slot) = shard.remove(&k) {
                    removed.push(slot.value);
                }
            }
        }
        self.counters.invalidations += removed.len() as u64;
        removed
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(BTreeMap::len).sum()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hit/miss/evict/invalidate counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
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
        let mut cache: PlanCache<u32> = PlanCache::new(4, 8);
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
        let mut cache: PlanCache<u32> = PlanCache::new(1, 2);
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

        // Three entries: a `get` refreshes recency, so the victim is the
        // least recently *used* entry, not the oldest insert.
        let mut cache: PlanCache<u32> = PlanCache::new(1, 3);
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
        let mut cache: PlanCache<u32> = PlanCache::new(1, 2);
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
        let mut forward: PlanCache<u64> = PlanCache::new(2, 16);
        for p in pages {
            forward.insert(&fp(p), p as u64);
        }
        let mut backward: PlanCache<u64> = PlanCache::new(2, 16);
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
        let mut cache: PlanCache<u32> = PlanCache::new(2, 8);
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
