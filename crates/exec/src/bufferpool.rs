//! A pin-capable LRU buffer pool with I/O accounting.
//!
//! Every accounted page movement goes through here: a read is free on a
//! cache hit and costs one I/O on a miss; a write always costs one I/O
//! (write-through, uncached — freshly written runs and partitions are read
//! back later through the normal miss path, which is exactly what the cost
//! formulas charge for). Pinned frames cannot be evicted; operators pin the
//! working set the cost model says they hold (e.g. a block nested-loop
//! join's outer block) and the pool errors out if an operator overcommits
//! its memory grant — the enforcement that keeps operators honest.
//!
//! Frames track residency only: which pages the pool holds, their pins
//! and their recency. The page data stays on the [`Disk`], and a read
//! returns a reference into it, so a hit copies nothing and can never
//! serve a page the disk has since dropped. A pool lives for one
//! execution; the serving loop reclaims each execution's temporaries from
//! the disk afterwards (see [`Disk::drop_from`]).

use crate::disk::{Disk, RelId};
use crate::error::ExecError;
use crate::tuple::Page;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Read/write counters, in pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Pages read from disk (buffer misses).
    pub reads: u64,
    /// Pages written to disk.
    pub writes: u64,
}

impl IoCounters {
    /// Total page I/Os.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl std::ops::Sub for IoCounters {
    type Output = IoCounters;
    fn sub(self, rhs: IoCounters) -> IoCounters {
        IoCounters {
            reads: self.reads - rhs.reads,
            writes: self.writes - rhs.writes,
        }
    }
}

type PageKey = (RelId, usize);

/// Multiplicative hashing for page keys: two small integers, hashed on
/// every page access, need none of SipHash's flooding resistance.
#[derive(Default)]
struct PageKeyHasher(u64);

impl Hasher for PageKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// End-of-list marker for the recency links.
const NIL: u32 = u32::MAX;

/// One resident page: its identity, pin count and place in the recency
/// list (a doubly linked list over frame slots, oldest first).
#[derive(Debug, Clone, Copy)]
struct Frame {
    key: PageKey,
    pins: u32,
    older: u32,
    newer: u32,
}

/// The buffer pool.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// Resident page → its slot in `frames`.
    slots: HashMap<PageKey, u32, BuildHasherDefault<PageKeyHasher>>,
    frames: Vec<Frame>,
    /// Least and most recently used slots.
    oldest: u32,
    newest: u32,
    io: IoCounters,
    /// Armed fault-injection point: the first charged I/O at or past this
    /// total-I/O tick fails with [`ExecError::InjectedFault`]. Survives
    /// `regrant` (the schedule spans the whole execution), disarms on fire.
    fault_at: Option<u64>,
}

impl BufferPool {
    /// A pool with `capacity` frames (pages).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            slots: HashMap::default(),
            frames: Vec::new(),
            oldest: NIL,
            newest: NIL,
            io: IoCounters::default(),
            fault_at: None,
        }
    }

    /// Arms a deterministic I/O fault: the first charged I/O once the total
    /// I/O count reaches `at` fails. At most one fault is armed at a time.
    pub fn arm_io_fault(&mut self, at: u64) {
        self.fault_at = Some(at);
    }

    /// Fires the armed fault if the counters have reached it.
    fn check_io_fault(&mut self) -> Result<(), ExecError> {
        if let Some(t) = self.fault_at {
            if self.io.total() >= t {
                self.fault_at = None;
                return Err(ExecError::InjectedFault {
                    site: format!("io tick {t}"),
                });
            }
        }
        Ok(())
    }

    /// Current capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames currently cached.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// I/O counters so far.
    pub fn counters(&self) -> IoCounters {
        self.io
    }

    /// Empties the cache and sets a new capacity (a fresh memory grant at a
    /// phase boundary). Counters are preserved, and so are the frame
    /// tables' allocations.
    pub fn regrant(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        self.slots.clear();
        self.frames.clear();
        self.oldest = NIL;
        self.newest = NIL;
    }

    /// Reads a page through the pool: free on hit, one read I/O on miss.
    /// The page is borrowed from `disk`, not copied.
    pub fn read<'d>(
        &mut self,
        disk: &'d Disk,
        rel: RelId,
        idx: usize,
    ) -> Result<&'d Page, ExecError> {
        let page = disk.page(rel, idx)?;
        self.touch((rel, idx))?;
        Ok(page)
    }

    /// Reads and pins a page: it will not be evicted until unpinned.
    pub fn read_pinned<'d>(
        &mut self,
        disk: &'d Disk,
        rel: RelId,
        idx: usize,
    ) -> Result<&'d Page, ExecError> {
        let page = disk.page(rel, idx)?;
        let slot = self.touch((rel, idx))?;
        if let Some(frame) = self.frames.get_mut(slot) {
            frame.pins += 1;
        }
        Ok(page)
    }

    /// Releases one pin on a page.
    pub fn unpin(&mut self, rel: RelId, idx: usize) {
        if let Some(&slot) = self.slots.get(&(rel, idx)) {
            if let Some(frame) = self.frames.get_mut(slot as usize) {
                frame.pins = frame.pins.saturating_sub(1);
            }
        }
    }

    /// Appends a page to a relation: one write I/O, write-through,
    /// uncached. Returns the page index.
    pub fn append(&mut self, disk: &mut Disk, rel: RelId, page: Page) -> Result<usize, ExecError> {
        self.io.writes += 1;
        self.check_io_fault()?;
        disk.append(rel, page)
    }

    /// Makes `key` the most recently used resident page, charging one read
    /// on a miss. Returns its slot.
    fn touch(&mut self, key: PageKey) -> Result<usize, ExecError> {
        if let Some(&slot) = self.slots.get(&key) {
            self.unlink(slot);
            self.link_newest(slot);
            return Ok(slot as usize);
        }
        self.io.reads += 1;
        self.check_io_fault()?;
        let frame = Frame {
            key,
            pins: 0,
            older: NIL,
            newer: NIL,
        };
        let slot = if self.frames.len() < self.capacity {
            self.frames.push(frame);
            self.frames.len() - 1
        } else {
            // Evict the least recently used unpinned frame; its slot takes
            // the new page.
            let victim = self.lru_unpinned().ok_or(ExecError::OutOfFrames {
                capacity: self.capacity,
            })?;
            self.unlink(victim);
            let old = std::mem::replace(&mut self.frames[victim as usize], frame);
            self.slots.remove(&old.key);
            victim as usize
        };
        let slot32 = slot as u32;
        self.slots.insert(key, slot32);
        self.link_newest(slot32);
        Ok(slot)
    }

    /// The least recently used frame with no pins.
    fn lru_unpinned(&self) -> Option<u32> {
        let mut at = self.oldest;
        while let Some(frame) = self.frames.get(at as usize) {
            if frame.pins == 0 {
                return Some(at);
            }
            at = frame.newer;
        }
        None
    }

    /// Detaches a slot from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Frame { older, newer, .. } = self.frames[slot as usize];
        match self.frames.get_mut(older as usize) {
            Some(f) => f.newer = newer,
            None => self.oldest = newer,
        }
        match self.frames.get_mut(newer as usize) {
            Some(f) => f.older = older,
            None => self.newest = older,
        }
    }

    /// Appends a detached slot at the most recently used end.
    fn link_newest(&mut self, slot: u32) {
        let prev = self.newest;
        if let Some(f) = self.frames.get_mut(prev as usize) {
            f.newer = slot;
        } else {
            self.oldest = slot;
        }
        let frame = &mut self.frames[slot as usize];
        frame.older = prev;
        frame.newer = NIL;
        self.newest = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn disk_with(pages: usize) -> (Disk, RelId) {
        let mut d = Disk::new();
        let n = pages * crate::tuple::PAGE_CAPACITY;
        let r = d.load((0..n as u64).map(|k| Tuple { key: k, payload: 0 }));
        (d, r)
    }

    #[test]
    fn hits_are_free_misses_cost_one() {
        let (disk, r) = disk_with(4);
        let mut pool = BufferPool::with_capacity(8);
        pool.read(&disk, r, 0).unwrap();
        pool.read(&disk, r, 1).unwrap();
        assert_eq!(pool.counters().reads, 2);
        pool.read(&disk, r, 0).unwrap(); // hit
        assert_eq!(pool.counters().reads, 2);
    }

    #[test]
    fn lru_evicts_oldest_unpinned() {
        let (disk, r) = disk_with(4);
        let mut pool = BufferPool::with_capacity(2);
        pool.read(&disk, r, 0).unwrap();
        pool.read(&disk, r, 1).unwrap();
        pool.read(&disk, r, 2).unwrap(); // evicts page 0
        assert_eq!(pool.resident(), 2);
        pool.read(&disk, r, 1).unwrap(); // still cached: hit
        assert_eq!(pool.counters().reads, 3);
        pool.read(&disk, r, 0).unwrap(); // was evicted: miss
        assert_eq!(pool.counters().reads, 4);
    }

    #[test]
    fn pinned_frames_survive_and_exhaust() {
        let (disk, r) = disk_with(4);
        let mut pool = BufferPool::with_capacity(2);
        pool.read_pinned(&disk, r, 0).unwrap();
        pool.read_pinned(&disk, r, 1).unwrap();
        // Every frame pinned: next miss cannot make room.
        assert!(matches!(
            pool.read(&disk, r, 2),
            Err(ExecError::OutOfFrames { capacity: 2 })
        ));
        pool.unpin(r, 0);
        pool.read(&disk, r, 2).unwrap(); // now page 0 can go
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn writes_always_count_and_bypass_cache() {
        let (mut disk, _) = disk_with(1);
        let out = disk.create();
        let mut pool = BufferPool::with_capacity(2);
        let mut p = Page::new();
        p.push(Tuple { key: 7, payload: 7 });
        pool.append(&mut disk, out, p).unwrap();
        assert_eq!(pool.counters().writes, 1);
        assert_eq!(pool.resident(), 0);
        // Reading it back is a miss.
        pool.read(&disk, out, 0).unwrap();
        assert_eq!(pool.counters().reads, 1);
    }

    #[test]
    fn regrant_clears_cache_but_keeps_counters() {
        let (disk, r) = disk_with(2);
        let mut pool = BufferPool::with_capacity(4);
        pool.read(&disk, r, 0).unwrap();
        pool.regrant(8);
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.capacity(), 8);
        assert_eq!(pool.counters().reads, 1);
        pool.read(&disk, r, 0).unwrap(); // cold again
        assert_eq!(pool.counters().reads, 2);
    }

    #[test]
    fn armed_io_fault_fires_once_at_tick() {
        let (disk, r) = disk_with(4);
        let mut pool = BufferPool::with_capacity(8);
        pool.arm_io_fault(2);
        pool.read(&disk, r, 0).unwrap(); // total = 1 < 2
        pool.regrant(8); // arming survives a phase boundary
        let err = pool.read(&disk, r, 1).unwrap_err(); // total = 2: fires
        assert!(matches!(err, ExecError::InjectedFault { .. }));
        // Disarmed: I/O proceeds normally afterwards.
        pool.read(&disk, r, 2).unwrap();
        assert_eq!(pool.counters().reads, 3);
    }

    #[test]
    fn truncated_page_is_never_a_stale_hit() {
        let (mut disk, r) = disk_with(2);
        let mut pool = BufferPool::with_capacity(4);
        pool.read(&disk, r, 0).unwrap();
        assert_eq!(pool.resident(), 1);
        disk.truncate(r).unwrap();
        // The frame is still resident, but the pool reads through to the
        // disk, which no longer has the page.
        assert!(matches!(
            pool.read(&disk, r, 0),
            Err(ExecError::PageOutOfRange {
                page: 0,
                len: 0,
                ..
            })
        ));
        assert_eq!(pool.counters().reads, 1);
    }

    #[test]
    fn hits_borrow_the_disk_page() {
        let (disk, r) = disk_with(1);
        let mut pool = BufferPool::with_capacity(2);
        let miss: *const Page = pool.read(&disk, r, 0).unwrap();
        let hit: *const Page = pool.read(&disk, r, 0).unwrap();
        assert!(std::ptr::eq(miss, hit));
        assert!(std::ptr::eq(hit, disk.page(r, 0).unwrap()));
    }

    #[test]
    fn eviction_skips_pinned_frames_in_lru_order() {
        let (disk, r) = disk_with(5);
        let mut pool = BufferPool::with_capacity(3);
        pool.read_pinned(&disk, r, 0).unwrap(); // oldest, but pinned
        pool.read(&disk, r, 1).unwrap();
        pool.read(&disk, r, 2).unwrap();
        pool.read(&disk, r, 1).unwrap(); // hit: 2 is now the LRU unpinned
        pool.read(&disk, r, 3).unwrap(); // evicts 2
        assert_eq!(pool.counters().reads, 4);
        pool.read(&disk, r, 1).unwrap(); // hit
        pool.read(&disk, r, 0).unwrap(); // pinned survivor: hit
        assert_eq!(pool.counters().reads, 4);
        pool.read(&disk, r, 2).unwrap(); // was evicted: miss, evicts 3
        assert_eq!(pool.counters().reads, 5);
        pool.unpin(r, 0);
        pool.read(&disk, r, 4).unwrap(); // evicts 1 (LRU unpinned)
        pool.read(&disk, r, 0).unwrap(); // hit
        pool.read(&disk, r, 2).unwrap(); // hit
        assert_eq!(pool.counters().reads, 6);
        pool.read(&disk, r, 1).unwrap(); // miss
        assert_eq!(pool.counters().reads, 7);
    }

    #[test]
    fn resident_never_exceeds_capacity() {
        let (disk, r) = disk_with(16);
        let mut pool = BufferPool::with_capacity(3);
        for i in 0..16 {
            pool.read(&disk, r, i).unwrap();
            assert!(pool.resident() <= 3);
        }
    }
}
