//! Physical operators: honest page-at-a-time implementations whose I/O
//! behavior tracks their memory grant.

pub mod block_nl;
pub mod grace_hash;
pub mod oracle;
pub mod select;
pub mod sort;
pub mod sort_merge;

pub use block_nl::block_nested_loop_join;
pub use grace_hash::grace_hash_join;
pub use select::filtered_scan;
pub use sort::external_sort;
pub use sort_merge::sort_merge_join;

use crate::bufferpool::BufferPool;
use crate::disk::{Disk, RelId};
use crate::error::ExecError;
use crate::tuple::{Page, Tuple};

/// The tuple a join emits for a matching pair. The payload mixes both
/// provenances asymmetrically so that multiset comparison against the
/// oracle catches wrong, missing and duplicated matches — and even swapped
/// join sides.
pub fn join_tuple(a: Tuple, b: Tuple) -> Tuple {
    Tuple {
        key: a.key,
        payload: a
            .payload
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(b.payload.rotate_left(17)),
    }
}

/// Minimum memory grant any operator runs with.
pub const MIN_MEMORY: usize = 3;

/// An operator's output cursor into one relation: tuples fill an
/// in-memory page, and each full page is written through the pool (one
/// write I/O per page, as the cost formulas charge).
pub(crate) struct PageWriter {
    rel: RelId,
    page: Page,
}

impl PageWriter {
    /// A writer appending to `rel`.
    pub(crate) fn new(rel: RelId) -> Self {
        Self {
            rel,
            page: Page::new(),
        }
    }

    /// Adds one tuple, writing the current page first if it is full.
    pub(crate) fn push(
        &mut self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        t: Tuple,
    ) -> Result<(), ExecError> {
        if !self.page.push(t) {
            let full = std::mem::replace(&mut self.page, Page::new());
            pool.append(disk, self.rel, full)?;
            self.page.push(t);
        }
        Ok(())
    }

    /// Writes the last, partly filled page, if any.
    pub(crate) fn finish(self, disk: &mut Disk, pool: &mut BufferPool) -> Result<(), ExecError> {
        if !self.page.is_empty() {
            pool.append(disk, self.rel, self.page)?;
        }
        Ok(())
    }
}

/// Chain terminator in [`KeyIndex`].
const NIL: u32 = u32::MAX;

/// The in-memory match structure of the hash-based joins: a flat chained
/// hash index over one build side's tuples.
///
/// `head` holds one chain start per bucket (a power of two, at least one
/// bucket per tuple) and `next` one link per tuple, both indices into the
/// owned tuple buffer. Chains are threaded so that every chain, and hence
/// every key's matches, runs in build insertion order. All three vectors
/// are reused across [`clear`](KeyIndex::clear), so a warm index builds
/// and probes without allocating.
#[derive(Debug, Default)]
pub struct KeyIndex {
    tuples: Vec<Tuple>,
    head: Vec<u32>,
    next: Vec<u32>,
    /// `64 - log2(head.len())`: the multiplicative hash keeps the top bits.
    shift: u32,
}

impl KeyIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every build tuple, keeping the allocations.
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.head.clear();
        self.next.clear();
    }

    /// Appends build tuples. They become visible to
    /// [`for_each_match`](KeyIndex::for_each_match) at the next
    /// [`build`](KeyIndex::build).
    pub fn extend(&mut self, tuples: &[Tuple]) {
        self.tuples.extend_from_slice(tuples);
    }

    /// Indexes every tuple appended since the last [`clear`](KeyIndex::clear).
    pub fn build(&mut self) {
        let n = self.tuples.len();
        let bits = n.max(2).next_power_of_two().trailing_zeros();
        self.shift = 64 - bits;
        self.head.clear();
        self.head.resize(1 << bits, NIL);
        self.next.clear();
        self.next.resize(n, NIL);
        // Threading in reverse leaves each chain in ascending tuple order.
        for (i, t) in self.tuples.iter().enumerate().rev() {
            let b = bucket(t.key, self.shift);
            self.next[i] = self.head[b];
            self.head[b] = i as u32;
        }
    }

    /// Calls `f` on every build tuple whose key is `key`, in build
    /// insertion order, stopping at the first error.
    pub fn for_each_match<E>(
        &self,
        key: u64,
        mut f: impl FnMut(Tuple) -> Result<(), E>,
    ) -> Result<(), E> {
        let Some(&first) = self.head.get(bucket(key, self.shift)) else {
            return Ok(());
        };
        let mut i = first;
        while let Some(&t) = self.tuples.get(i as usize) {
            if t.key == key {
                f(t)?;
            }
            i = self.next[i as usize];
        }
        Ok(())
    }
}

/// Fibonacci hashing: the top `64 - shift` bits of `key · 2⁶⁴/φ`.
fn bucket(key: u64, shift: u32) -> usize {
    (key.wrapping_mul(0x9E3779B97F4A7C15) >> shift) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_tuple_is_asymmetric() {
        let a = Tuple {
            key: 5,
            payload: 100,
        };
        let b = Tuple {
            key: 5,
            payload: 200,
        };
        assert_ne!(join_tuple(a, b), join_tuple(b, a));
        assert_eq!(join_tuple(a, b).key, 5);
    }
}
