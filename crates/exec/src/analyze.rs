//! ANALYZE: statistics collection over stored relations.
//!
//! The paper's premise is that "the DBMS in practice is constantly
//! gathering statistical information". This module is that gatherer for
//! the simulator: scan a relation (through the buffer pool, so the cost of
//! gathering statistics is itself accounted) and produce the raw numbers a
//! catalog entry needs — closing the loop
//! *generate data → analyze → estimate → optimize → execute*.

use crate::bufferpool::BufferPool;
use crate::disk::{Disk, RelId};
use crate::error::ExecError;
use std::collections::BTreeSet;

/// Raw statistics from one relation scan.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationStats {
    /// Pages scanned.
    pub pages: usize,
    /// Tuples seen.
    pub rows: usize,
    /// Exact distinct join-key count.
    pub distinct_keys: usize,
    /// Smallest key (None when empty).
    pub min_key: Option<u64>,
    /// Largest key (None when empty).
    pub max_key: Option<u64>,
    /// A reservoir-free systematic sample of key values (every `stride`-th
    /// tuple), for histogram construction.
    pub key_sample: Vec<f64>,
}

/// Scans `rel` and gathers statistics; `sample_target` bounds the key
/// sample's size (a systematic 1-in-`stride` sample).
pub fn analyze(
    disk: &Disk,
    pool: &mut BufferPool,
    rel: RelId,
    sample_target: usize,
) -> Result<RelationStats, ExecError> {
    let pages = disk.pages(rel)?;
    let rows = disk.tuples(rel)?;
    let stride = (rows / sample_target.max(1)).max(1);
    let mut distinct = BTreeSet::new();
    let mut sample = Vec::with_capacity(sample_target.min(rows));
    let (mut min_key, mut max_key) = (None::<u64>, None::<u64>);
    let mut seen = 0usize;
    for p in 0..pages {
        for &t in pool.read(disk, rel, p)?.tuples() {
            distinct.insert(t.key);
            min_key = Some(min_key.map_or(t.key, |m| m.min(t.key)));
            max_key = Some(max_key.map_or(t.key, |m| m.max(t.key)));
            if seen.is_multiple_of(stride) {
                sample.push(t.key as f64);
            }
            seen += 1;
        }
    }
    Ok(RelationStats {
        pages,
        rows,
        distinct_keys: distinct.len(),
        min_key,
        max_key,
        key_sample: sample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DataGenSpec};
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn analyze_counts_match_the_data() {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let rel = generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: 20,
                key_domain: 300,
            },
        );
        let mut pool = BufferPool::with_capacity(4);
        let stats = analyze(&disk, &mut pool, rel, 256).unwrap();
        assert_eq!(stats.pages, 20);
        assert_eq!(stats.rows, 20 * crate::tuple::PAGE_CAPACITY);
        assert!(stats.distinct_keys <= 300);
        assert!(stats.distinct_keys > 250, "{}", stats.distinct_keys);
        assert!(stats.max_key.unwrap() < 300);
        assert!(stats.key_sample.len() >= 200 && stats.key_sample.len() <= 300);
        // Gathering statistics costs a full scan.
        assert_eq!(pool.counters().reads, 20);
    }

    #[test]
    fn analyze_empty_relation() {
        let mut disk = Disk::new();
        let rel = disk.create();
        let mut pool = BufferPool::with_capacity(4);
        let stats = analyze(&disk, &mut pool, rel, 64).unwrap();
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.distinct_keys, 0);
        assert!(stats.min_key.is_none());
        assert!(stats.key_sample.is_empty());
    }

    #[test]
    fn sample_is_bounded() {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let rel = generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: 50,
                key_domain: 1000,
            },
        );
        let mut pool = BufferPool::with_capacity(4);
        let stats = analyze(&disk, &mut pool, rel, 100).unwrap();
        assert!(stats.key_sample.len() <= 110, "{}", stats.key_sample.len());
    }
}
