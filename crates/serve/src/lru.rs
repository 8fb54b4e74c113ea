//! The bounded, least-recently-used memo behind the service's per-request
//! memos (the prepare stage's prepared forms, the certify stage's
//! certificates).
//!
//! Slots are keyed by a 64-bit request digest (`QueryRequest::key`),
//! which two different requests may share. So a lookup hands the caller's
//! confirmation the stored value and answers only if it accepts: a digest
//! collision costs a recomputation, never another request's value. An
//! insert replaces whatever held its key, or else evicts the least
//! recently used slot once the memo is full.

use std::collections::BTreeMap;

pub(crate) struct Lru<V> {
    capacity: usize,
    tick: u64,
    /// `key → (value, last use)`.
    slots: BTreeMap<u64, (V, u64)>,
}

impl<V> Lru<V> {
    /// An empty memo of at most `capacity` slots.
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            tick: 0,
            slots: BTreeMap::new(),
        }
    }

    /// The value under `key`, if `confirm` accepts it; refreshes its
    /// recency.
    pub(crate) fn get(&mut self, key: u64, confirm: impl FnOnce(&V) -> bool) -> Option<&mut V> {
        self.tick += 1;
        let (value, last_used) = self.slots.get_mut(&key)?;
        if !confirm(value) {
            return None;
        }
        *last_used = self.tick;
        Some(value)
    }

    /// Stores `value` under `key`, replacing whatever held the key (a
    /// colliding request, or a stale value of the same one) or else
    /// evicting the least recently used slot when full.
    // Inlined: out of line it moved `lec-exec`'s code layout enough to
    // slow the executor (EXPERIMENTS.md, "Certificate memo").
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, value: V) {
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
        self.slots.insert(key, (value, self.tick));
    }

    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_used_and_confirms_every_hit() {
        let mut lru = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        // Touching 1 makes 2 the eviction victim.
        assert_eq!(lru.get(1, |_| true), Some(&mut "a"));
        lru.insert(3, "c");
        assert_eq!(lru.len(), 2);
        assert!(lru.get(2, |_| true).is_none());
        // A refused confirmation is a miss and does not refresh recency.
        assert!(lru.get(1, |v| *v == "other").is_none());
        assert_eq!(lru.get(3, |_| true), Some(&mut "c"));
        lru.insert(4, "d");
        assert!(lru.get(1, |_| true).is_none());
        // Re-inserting a held key replaces it in place.
        lru.insert(4, "e");
        assert_eq!(lru.get(4, |_| true), Some(&mut "e"));
        assert_eq!(lru.len(), 2);
        lru.clear();
        assert_eq!(lru.len(), 0);
    }
}
