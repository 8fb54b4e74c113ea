//! Sort-merge join: externally sort whichever inputs are not already
//! sorted, then merge the two sorted streams, cross-joining duplicate-key
//! groups. The already-sorted shortcut is the interesting-orders effect the
//! optimizer exploits.

use crate::bufferpool::BufferPool;
use crate::disk::{Disk, RelId};
use crate::error::ExecError;
use crate::ops::sort::external_sort;
use crate::ops::{join_tuple, PageWriter, MIN_MEMORY};
use crate::tuple::Tuple;

/// Joins `a` and `b` on `key`; `a_sorted` / `b_sorted` declare inputs that
/// are already physically sorted (their sort is skipped). Output is sorted
/// by key.
pub fn sort_merge_join(
    disk: &mut Disk,
    pool: &mut BufferPool,
    a: RelId,
    b: RelId,
    m: usize,
    a_sorted: bool,
    b_sorted: bool,
) -> Result<RelId, ExecError> {
    if m < MIN_MEMORY {
        return Err(ExecError::InsufficientMemory {
            granted: m,
            required: MIN_MEMORY,
        });
    }
    let sa = if a_sorted {
        a
    } else {
        external_sort(disk, pool, a, m)?
    };
    let sb = if b_sorted {
        b
    } else {
        external_sort(disk, pool, b, m)?
    };

    let out = disk.create();
    let mut writer = PageWriter::new(out);
    // Duplicate-key groups, reused across keys.
    let (mut ga, mut gb) = (Vec::new(), Vec::new());

    let mut ca = Stream::open(disk, pool, sa)?;
    let mut cb = Stream::open(disk, pool, sb)?;
    while let (Some(ta), Some(tb)) = (ca.head(), cb.head()) {
        if ta.key < tb.key {
            ca.advance(disk, pool)?;
        } else if ta.key > tb.key {
            cb.advance(disk, pool)?;
        } else {
            let key = ta.key;
            // Collect both duplicate groups, then cross join them.
            ga.clear();
            while let Some(t) = ca.head() {
                if t.key != key {
                    break;
                }
                ga.push(t);
                ca.advance(disk, pool)?;
            }
            gb.clear();
            while let Some(t) = cb.head() {
                if t.key != key {
                    break;
                }
                gb.push(t);
                cb.advance(disk, pool)?;
            }
            for &x in &ga {
                for &y in &gb {
                    writer.push(disk, pool, join_tuple(x, y))?;
                }
            }
        }
    }
    writer.finish(disk, pool)?;
    // Drop sort temporaries we created.
    if !a_sorted {
        disk.truncate(sa)?;
    }
    if !b_sorted {
        disk.truncate(sb)?;
    }
    Ok(out)
}

/// Page-at-a-time stream over a relation.
struct Stream {
    rel: RelId,
    page: usize,
    offset: usize,
    buf: Vec<Tuple>,
    pages: usize,
}

impl Stream {
    fn open(disk: &Disk, pool: &mut BufferPool, rel: RelId) -> Result<Self, ExecError> {
        let pages = disk.pages(rel)?;
        let mut s = Stream {
            rel,
            page: 0,
            offset: 0,
            buf: Vec::new(),
            pages,
        };
        s.fill(disk, pool)?;
        Ok(s)
    }

    fn fill(&mut self, disk: &Disk, pool: &mut BufferPool) -> Result<(), ExecError> {
        self.buf.clear();
        self.offset = 0;
        if self.page < self.pages {
            self.buf
                .extend_from_slice(pool.read(disk, self.rel, self.page)?.tuples());
            self.page += 1;
        }
        Ok(())
    }

    fn head(&self) -> Option<Tuple> {
        self.buf.get(self.offset).copied()
    }

    fn advance(&mut self, disk: &Disk, pool: &mut BufferPool) -> Result<(), ExecError> {
        self.offset += 1;
        if self.offset >= self.buf.len() {
            self.fill(disk, pool)?;
        }
        Ok(())
    }
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
        for m in [4, 8, 32] {
            let (mut disk, a, b) = setup(20, 12, 800, 3);
            let expect = oracle_join(&disk, a, b).unwrap();
            let mut pool = BufferPool::with_capacity(m);
            let out = sort_merge_join(&mut disk, &mut pool, a, b, m, false, false).unwrap();
            let got = disk.all_tuples(out).unwrap();
            assert!(multisets_equal(got, expect), "m = {m}");
        }
    }

    #[test]
    fn output_is_sorted() {
        let (mut disk, a, b) = setup(10, 10, 400, 4);
        let mut pool = BufferPool::with_capacity(8);
        let out = sort_merge_join(&mut disk, &mut pool, a, b, 8, false, false).unwrap();
        let tuples = disk.all_tuples(out).unwrap();
        assert!(tuples.windows(2).all(|w| w[0].key <= w[1].key));
        assert!(!tuples.is_empty());
    }

    #[test]
    fn duplicate_heavy_keys_cross_join() {
        // A tiny domain forces large duplicate groups.
        let (mut disk, a, b) = setup(3, 3, 4, 5);
        let expect = oracle_join(&disk, a, b).unwrap();
        let mut pool = BufferPool::with_capacity(6);
        let out = sort_merge_join(&mut disk, &mut pool, a, b, 6, false, false).unwrap();
        let got = disk.all_tuples(out).unwrap();
        assert!(multisets_equal(got, expect));
    }

    #[test]
    fn presorted_inputs_skip_their_sorts() {
        let (mut disk, a, b) = setup(16, 16, 600, 6);
        // Pre-sort both, unaccounted, to simulate sorted base tables.
        let mut prep = BufferPool::with_capacity(32);
        let sa = external_sort(&mut disk, &mut prep, a, 32).unwrap();
        let sb = external_sort(&mut disk, &mut prep, b, 32).unwrap();

        let mut pool_sorted = BufferPool::with_capacity(8);
        let out1 = sort_merge_join(&mut disk, &mut pool_sorted, sa, sb, 8, true, true).unwrap();
        let io_sorted = pool_sorted.counters();

        let mut pool_unsorted = BufferPool::with_capacity(8);
        let out2 = sort_merge_join(&mut disk, &mut pool_unsorted, sa, sb, 8, false, false).unwrap();
        let io_unsorted = pool_unsorted.counters();

        assert!(multisets_equal(
            disk.all_tuples(out1).unwrap(),
            disk.all_tuples(out2).unwrap()
        ));
        assert!(
            io_sorted.total() < io_unsorted.total(),
            "{:?} vs {:?}",
            io_sorted,
            io_unsorted
        );
    }
}
