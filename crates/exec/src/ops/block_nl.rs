//! Block nested-loop join: the outer is consumed in pinned blocks of
//! `m - 2` pages; the inner is re-scanned once per block. The pins enforce
//! the memory grant through the buffer pool — an overcommitted operator
//! fails with `OutOfFrames` rather than silently cheating.

use crate::bufferpool::BufferPool;
use crate::disk::{Disk, RelId};
use crate::error::ExecError;
use crate::ops::{join_tuple, KeyIndex, PageWriter, MIN_MEMORY};
use crate::tuple::Tuple;

/// Joins `outer` and `inner` on key; `outer` plays the left/A role in the
/// emitted tuples. Output order: block by block, inner tuples in scan
/// order, each inner tuple's matches in outer order.
pub fn block_nested_loop_join(
    disk: &mut Disk,
    pool: &mut BufferPool,
    outer: RelId,
    inner: RelId,
    m: usize,
) -> Result<RelId, ExecError> {
    if m < MIN_MEMORY {
        return Err(ExecError::InsufficientMemory {
            granted: m,
            required: MIN_MEMORY,
        });
    }
    let block = (m - 2).max(1);
    let outer_pages = disk.pages(outer)?;
    let inner_pages = disk.pages(inner)?;
    let out = disk.create();
    let mut writer = PageWriter::new(out);
    let mut index = KeyIndex::new();
    let mut probe: Vec<Tuple> = Vec::new();

    let mut start = 0;
    while start < outer_pages {
        let end = (start + block).min(outer_pages);
        // Pin the block and index it by key (CPU-side structure over the
        // pinned pages; no extra I/O).
        index.clear();
        for p in start..end {
            index.extend(pool.read_pinned(disk, outer, p)?.tuples());
        }
        index.build();
        // Re-scan the inner per block.
        for ip in 0..inner_pages {
            probe.clear();
            probe.extend_from_slice(pool.read(disk, inner, ip)?.tuples());
            for &t in &probe {
                index.for_each_match(t.key, |ot| writer.push(disk, pool, join_tuple(ot, t)))?;
            }
        }
        for p in start..end {
            pool.unpin(outer, p);
        }
        start = end;
    }
    writer.finish(disk, pool)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DataGenSpec};
    use crate::ops::oracle::{multisets_equal, oracle_join};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(pa: usize, pb: usize, domain: u64, seed: u64) -> (Disk, RelId, RelId) {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: pa,
                key_domain: domain,
            },
        );
        let b = generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: pb,
                key_domain: domain,
            },
        );
        (disk, a, b)
    }

    #[test]
    fn joins_correctly_across_memory_levels() {
        for m in [3, 5, 12, 40] {
            let (mut disk, a, b) = setup(18, 9, 500, 21);
            let expect = oracle_join(&disk, a, b).unwrap();
            let mut pool = BufferPool::with_capacity(m);
            let out = block_nested_loop_join(&mut disk, &mut pool, a, b, m).unwrap();
            let got = disk.all_tuples(out).unwrap();
            assert!(multisets_equal(got, expect), "m = {m}");
        }
    }

    #[test]
    fn io_matches_block_structure() {
        // 18-page outer, 9-page inner, m = 8: blocks of 6 -> 3 inner scans.
        // Reads: 18 + 3·9 = 45 (plus nothing cached across phases).
        let (mut disk, a, b) = setup(18, 9, 1_000_000_000_000, 22);
        let mut pool = BufferPool::with_capacity(8);
        block_nested_loop_join(&mut disk, &mut pool, a, b, 8).unwrap();
        // Key domain is huge: no matches, so no output writes.
        let io = pool.counters();
        assert_eq!(io.reads, 45);
        assert_eq!(io.writes, 0);
    }

    #[test]
    fn one_block_when_outer_fits() {
        let (mut disk, a, b) = setup(5, 30, 1_000_000_000_000, 23);
        let mut pool = BufferPool::with_capacity(7);
        block_nested_loop_join(&mut disk, &mut pool, a, b, 7).unwrap();
        assert_eq!(pool.counters().reads, 35);
    }

    #[test]
    fn outer_role_is_left() {
        let (mut disk, a, b) = setup(6, 6, 200, 24);
        let expect = oracle_join(&disk, a, b).unwrap();
        let mut pool = BufferPool::with_capacity(10);
        let out = block_nested_loop_join(&mut disk, &mut pool, a, b, 10).unwrap();
        assert!(multisets_equal(
            disk.all_tuples(out).unwrap(),
            expect.clone()
        ));
        // Swapping roles changes payloads (join_tuple is asymmetric).
        let mut pool2 = BufferPool::with_capacity(10);
        let out2 = block_nested_loop_join(&mut disk, &mut pool2, b, a, 10).unwrap();
        assert!(!multisets_equal(disk.all_tuples(out2).unwrap(), expect));
    }
}
