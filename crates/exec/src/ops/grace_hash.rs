//! Grace hash join: when the smaller input does not fit the memory grant,
//! partition both inputs by a hash of the key and join partition pairs,
//! recursing with a fresh hash salt when a partition is still too big.

use crate::bufferpool::BufferPool;
use crate::disk::{Disk, RelId};
use crate::error::ExecError;
use crate::ops::{join_tuple, KeyIndex, PageWriter, MIN_MEMORY};
use crate::tuple::Tuple;

/// Maximum recursive partitioning depth before falling back to an
/// in-memory join (guards against degenerate all-one-key inputs).
const MAX_DEPTH: u32 = 8;

/// Joins `a` and `b` on key with the Grace hash algorithm under an
/// `m`-page grant. Output order: partition pair by partition pair; within
/// an in-memory join, probe tuples in scan order, each one's matches in
/// build order.
pub fn grace_hash_join(
    disk: &mut Disk,
    pool: &mut BufferPool,
    a: RelId,
    b: RelId,
    m: usize,
) -> Result<RelId, ExecError> {
    if m < MIN_MEMORY {
        return Err(ExecError::InsufficientMemory {
            granted: m,
            required: MIN_MEMORY,
        });
    }
    recurse(disk, pool, a, b, m, 0)
}

fn recurse(
    disk: &mut Disk,
    pool: &mut BufferPool,
    a: RelId,
    b: RelId,
    m: usize,
    depth: u32,
) -> Result<RelId, ExecError> {
    let (pa, pb) = (disk.pages(a)?, disk.pages(b)?);
    // Build table for the smaller side plus an input page and an output
    // page must fit.
    if pa.min(pb) + 2 <= m || depth >= MAX_DEPTH {
        return in_memory_join(disk, pool, a, b);
    }
    // Partition both sides with the same hash; one page of output buffer
    // per partition bounds the fan-out by the grant, and using just enough
    // partitions for the build side to fit memory next round avoids
    // fragmenting tiny partitions into half-empty pages (which would make
    // I/O *grow* with memory).
    let needed = pa.min(pb).div_ceil((m - 2).max(1)) + 1;
    let fanout = needed.clamp(2, (m - 1).min(64));
    let parts_a = partition(disk, pool, a, fanout, depth)?;
    let parts_b = partition(disk, pool, b, fanout, depth)?;
    let out = disk.create();
    for (pa_i, pb_i) in parts_a.iter().zip(&parts_b) {
        if disk.pages(*pa_i)? == 0 || disk.pages(*pb_i)? == 0 {
            continue;
        }
        let sub = recurse(disk, pool, *pa_i, *pb_i, m, depth + 1)?;
        disk.move_pages(out, sub)?;
    }
    for p in parts_a.into_iter().chain(parts_b) {
        disk.truncate(p)?;
    }
    Ok(out)
}

/// Splits a relation into `fanout` partitions by `hash(key, salt)`.
fn partition(
    disk: &mut Disk,
    pool: &mut BufferPool,
    input: RelId,
    fanout: usize,
    salt: u32,
) -> Result<Vec<RelId>, ExecError> {
    let rels: Vec<RelId> = (0..fanout).map(|_| disk.create()).collect();
    let mut writers: Vec<PageWriter> = rels.iter().map(|&r| PageWriter::new(r)).collect();
    let mut scratch: Vec<Tuple> = Vec::new();
    for p in 0..disk.pages(input)? {
        scratch.clear();
        scratch.extend_from_slice(pool.read(disk, input, p)?.tuples());
        for &t in &scratch {
            writers[bucket_of(t.key, salt, fanout)].push(disk, pool, t)?;
        }
    }
    for w in writers {
        w.finish(disk, pool)?;
    }
    Ok(rels)
}

/// Salted multiplicative hash, so recursion levels re-shuffle keys.
fn bucket_of(key: u64, salt: u32, fanout: usize) -> usize {
    let mixed = key
        .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(u64::from(salt) + 1))
        .wrapping_mul(0xBF58476D1CE4E5B9);
    (mixed >> 17) as usize % fanout
}

/// Builds a [`KeyIndex`] over the smaller side and probes it with the
/// larger. Emits `join_tuple(a_side, b_side)` regardless of which side
/// built.
fn in_memory_join(
    disk: &mut Disk,
    pool: &mut BufferPool,
    a: RelId,
    b: RelId,
) -> Result<RelId, ExecError> {
    let (pa, pb) = (disk.pages(a)?, disk.pages(b)?);
    let (build, probe, build_is_a) = if pa <= pb {
        (a, b, true)
    } else {
        (b, a, false)
    };
    let mut index = KeyIndex::new();
    for p in 0..disk.pages(build)? {
        index.extend(pool.read(disk, build, p)?.tuples());
    }
    index.build();
    let out = disk.create();
    let mut writer = PageWriter::new(out);
    let mut scratch: Vec<Tuple> = Vec::new();
    for p in 0..disk.pages(probe)? {
        scratch.clear();
        scratch.extend_from_slice(pool.read(disk, probe, p)?.tuples());
        for &t in &scratch {
            index.for_each_match(t.key, |mt| {
                let joined = if build_is_a {
                    join_tuple(mt, t)
                } else {
                    join_tuple(t, mt)
                };
                writer.push(disk, pool, joined)
            })?;
        }
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
        for m in [4, 6, 16, 64] {
            let (mut disk, a, b) = setup(24, 10, 700, 11);
            let expect = oracle_join(&disk, a, b).unwrap();
            let mut pool = BufferPool::with_capacity(m);
            let out = grace_hash_join(&mut disk, &mut pool, a, b, m).unwrap();
            let got = disk.all_tuples(out).unwrap();
            assert!(multisets_equal(got, expect), "m = {m}");
        }
    }

    #[test]
    fn in_memory_path_is_single_pass() {
        // Smaller side (5 pages) + 2 fits m = 16: reads = a + b, writes =
        // output only.
        let (mut disk, a, b) = setup(20, 5, 50_000, 12);
        let out_pages_expected = {
            let oracle = oracle_join(&disk, a, b).unwrap();
            oracle.len().div_ceil(crate::tuple::PAGE_CAPACITY)
        };
        let mut pool = BufferPool::with_capacity(16);
        grace_hash_join(&mut disk, &mut pool, a, b, 16).unwrap();
        let io = pool.counters();
        assert_eq!(io.reads, 25);
        assert!(io.writes as usize <= out_pages_expected + 1);
    }

    #[test]
    fn partitioned_path_pays_extra_pass() {
        // m = 6 cannot hold the 10-page build side: one partition level
        // reads both inputs once and rewrites them once.
        let (mut disk, a, b) = setup(24, 10, 700, 13);
        let mut pool = BufferPool::with_capacity(6);
        grace_hash_join(&mut disk, &mut pool, a, b, 6).unwrap();
        let io = pool.counters();
        // Reads: 34 (partition) + ~34 (sub-joins); writes: ~34 + output.
        assert!(io.reads >= 64, "reads = {}", io.reads);
        assert!(io.writes >= 34, "writes = {}", io.writes);
    }

    #[test]
    fn skewed_single_key_does_not_loop_forever() {
        // All tuples share one key: partitioning can never shrink the
        // build side, so the depth cap must kick in.
        let (mut disk, a, b) = setup(6, 6, 1, 14);
        let expect = oracle_join(&disk, a, b).unwrap();
        let mut pool = BufferPool::with_capacity(4);
        let out = grace_hash_join(&mut disk, &mut pool, a, b, 4).unwrap();
        let got = disk.all_tuples(out).unwrap();
        assert!(multisets_equal(got, expect));
    }

    #[test]
    fn asymmetric_sides_preserve_roles() {
        // With pa > pb the build side is b; the emitted payloads must still
        // treat a as the left side (checked via the oracle, which always
        // joins (a, b)).
        let (mut disk, a, b) = setup(4, 18, 300, 15);
        let expect = oracle_join(&disk, a, b).unwrap();
        let mut pool = BufferPool::with_capacity(32);
        let out = grace_hash_join(&mut disk, &mut pool, a, b, 32).unwrap();
        assert!(multisets_equal(disk.all_tuples(out).unwrap(), expect));
    }
}
