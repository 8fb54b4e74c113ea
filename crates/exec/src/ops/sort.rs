//! External merge sort: run generation with an `m`-page workspace, then
//! `m-1`-way merge passes. The pass count realizes exactly the ladder the
//! cost formulas model (more memory ⇒ fewer, wider merges).

use crate::bufferpool::BufferPool;
use crate::disk::{Disk, RelId};
use crate::error::ExecError;
use crate::ops::{PageWriter, MIN_MEMORY};
use crate::tuple::{pack_pages, Tuple};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sorts `input` by key into a new materialized relation.
pub fn external_sort(
    disk: &mut Disk,
    pool: &mut BufferPool,
    input: RelId,
    m: usize,
) -> Result<RelId, ExecError> {
    if m < MIN_MEMORY {
        return Err(ExecError::InsufficientMemory {
            granted: m,
            required: MIN_MEMORY,
        });
    }
    let npages = disk.pages(input)?;
    if npages == 0 {
        return Ok(disk.create());
    }

    // Run generation: sort m-page chunks in the workspace.
    let mut runs: Vec<RelId> = Vec::new();
    let mut idx = 0;
    while idx < npages {
        let end = (idx + m).min(npages);
        let mut workspace: Vec<Tuple> =
            Vec::with_capacity((end - idx) * crate::tuple::PAGE_CAPACITY);
        for p in idx..end {
            workspace.extend_from_slice(pool.read(disk, input, p)?.tuples());
        }
        workspace.sort_unstable();
        let run = disk.create();
        for page in pack_pages(workspace) {
            pool.append(disk, run, page)?;
        }
        runs.push(run);
        idx = end;
    }

    // Merge passes with fan-in m - 1.
    let fanin = (m - 1).max(2);
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(fanin));
        for group in runs.chunks(fanin) {
            if group.len() == 1 {
                // A lone run carries over without being rewritten.
                next.push(group[0]);
            } else {
                let merged = merge_runs(disk, pool, group)?;
                for &r in group {
                    disk.truncate(r)?;
                }
                next.push(merged);
            }
        }
        runs = next;
    }
    Ok(runs[0])
}

/// Streaming cursor over one sorted run: holds one page worth of tuples.
struct Cursor {
    rel: RelId,
    page: usize,
    offset: usize,
    buf: Vec<Tuple>,
    pages: usize,
}

impl Cursor {
    fn open(disk: &Disk, pool: &mut BufferPool, rel: RelId) -> Result<Self, ExecError> {
        let pages = disk.pages(rel)?;
        let mut c = Cursor {
            rel,
            page: 0,
            offset: 0,
            buf: Vec::new(),
            pages,
        };
        c.fill(disk, pool)?;
        Ok(c)
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

/// K-way merges sorted runs into a new relation.
fn merge_runs(disk: &mut Disk, pool: &mut BufferPool, runs: &[RelId]) -> Result<RelId, ExecError> {
    let out = disk.create();
    let mut cursors: Vec<Cursor> = runs
        .iter()
        .map(|&r| Cursor::open(disk, pool, r))
        .collect::<Result<_, _>>()?;
    let mut heap: BinaryHeap<Reverse<(Tuple, usize)>> = BinaryHeap::new();
    for (i, c) in cursors.iter().enumerate() {
        if let Some(t) = c.head() {
            heap.push(Reverse((t, i)));
        }
    }
    let mut writer = PageWriter::new(out);
    while let Some(Reverse((t, i))) = heap.pop() {
        writer.push(disk, pool, t)?;
        cursors[i].advance(disk, pool)?;
        if let Some(next) = cursors[i].head() {
            heap.push(Reverse((next, i)));
        }
    }
    writer.finish(disk, pool)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DataGenSpec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sorted_oracle(disk: &Disk, rel: RelId) -> Vec<Tuple> {
        let mut v = disk.all_tuples(rel).unwrap();
        v.sort_unstable();
        v
    }

    fn run_case(pages: usize, m: usize) -> (u64, u64) {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let input = generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages,
                key_domain: 1000,
            },
        );
        let expect = sorted_oracle(&disk, input);
        let mut pool = BufferPool::with_capacity(m);
        let before = pool.counters();
        let out = external_sort(&mut disk, &mut pool, input, m).unwrap();
        let got = disk.all_tuples(out).unwrap();
        assert_eq!(got, expect, "pages={pages} m={m}");
        let io = pool.counters() - before;
        (io.reads, io.writes)
    }

    #[test]
    fn sorts_correctly_across_memory_levels() {
        for (pages, m) in [(5, 10), (20, 5), (50, 4), (100, 12), (64, 3)] {
            run_case(pages, m);
        }
    }

    #[test]
    fn io_counts_match_pass_structure() {
        // 100 pages, m = 12: 9 runs, 11-way merge -> single merge pass.
        // Reads: 100 (run gen) + 100 (merge). Writes: 100 (runs) + 100 (out).
        let (reads, writes) = run_case(100, 12);
        assert_eq!(reads, 200);
        assert_eq!(writes, 200);
    }

    #[test]
    fn extra_pass_when_memory_is_tight() {
        // 100 pages, m = 4: 25 runs, 3-way merges: 25 -> 9 -> 3 -> 1,
        // i.e. three merge passes over (almost) all data.
        let (reads, _) = run_case(100, 4);
        assert!(
            reads > 350,
            "expected multiple merge passes, reads = {reads}"
        );
    }

    #[test]
    fn in_workspace_sort_is_two_passes() {
        // Input fits the workspace: read once, write once.
        let (reads, writes) = run_case(8, 10);
        assert_eq!(reads, 8);
        assert_eq!(writes, 8);
    }

    #[test]
    fn empty_input() {
        let mut disk = Disk::new();
        let input = disk.create();
        let mut pool = BufferPool::with_capacity(4);
        let out = external_sort(&mut disk, &mut pool, input, 4).unwrap();
        assert_eq!(disk.pages(out).unwrap(), 0);
        assert_eq!(pool.counters().total(), 0);
    }

    #[test]
    fn rejects_tiny_memory() {
        let mut disk = Disk::new();
        let input = disk.create();
        let mut pool = BufferPool::with_capacity(2);
        assert!(matches!(
            external_sort(&mut disk, &mut pool, input, 2),
            Err(ExecError::InsufficientMemory { .. })
        ));
    }
}
