// The one place this crate needs `unsafe`: implementing a counting
// `GlobalAlloc` shim. It delegates every call to `System` verbatim.
#![allow(unsafe_code)]

//! Pins the allocation budget of the hash-based joins with a counting
//! allocator: a block nested-loop join and an in-memory grace hash join
//! over a build side with many distinct keys may allocate a small constant
//! (the key index, the probe buffer, the buffer pool's frame tables, the
//! output relation) plus one page buffer per output page. A per-key
//! allocation in the match structure, or a per-page copy of the input,
//! exceeds it.

use lec_exec::ops::{block_nested_loop_join, grace_hash_join};
use lec_exec::{BufferPool, Disk, RelId, Tuple, PAGE_CAPACITY};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

/// Passes through to the system allocator, counting allocation events
/// while `TRACKING` is set.
struct CountingAlloc;

// Both cells are per thread: the test harness runs sibling tests on other
// threads, and their allocations must not land in this thread's count.
// Const-initialized `Cell`s need no destructor registration, so touching
// them from inside the allocator never allocates.
thread_local! {
    static ALLOC_EVENTS: Cell<usize> = const { Cell::new(0) };
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation event if the calling thread is tracking.
fn record() {
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOC_EVENTS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting enabled on the calling thread and
/// returns its result and how many allocation events it performed.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOC_EVENTS.with(|n| n.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, ALLOC_EVENTS.with(Cell::get))
}

/// Allocations a join may make besides one per output page.
const FIXED_BUDGET: usize = 24;

/// A 3-page build side over 128 distinct keys and a `probe_pages` probe
/// side over twice that key range, half of which matches.
fn setup(probe_pages: usize) -> (Disk, RelId, RelId) {
    let mut disk = Disk::new();
    let build_rows = 3 * PAGE_CAPACITY as u64;
    let probe_rows = (probe_pages * PAGE_CAPACITY) as u64;
    let build = disk.load((0..build_rows).map(|i| Tuple {
        key: i % 128,
        payload: i,
    }));
    let probe = disk.load((0..probe_rows).map(|i| Tuple {
        key: i % 256,
        payload: i,
    }));
    let distinct: BTreeSet<u64> = disk
        .all_tuples(build)
        .unwrap()
        .iter()
        .map(|t| t.key)
        .collect();
    assert!(distinct.len() >= 100, "the build side needs many keys");
    (disk, build, probe)
}

fn assert_within_budget(join: &str, disk: &Disk, out: RelId, allocs: usize) {
    let out_pages = disk.pages(out).unwrap();
    assert!(out_pages >= 4, "{join}: the case must write several pages");
    assert!(
        allocs <= FIXED_BUDGET + out_pages,
        "{join}: {allocs} allocations for {out_pages} output pages (budget {FIXED_BUDGET} + 1/page)"
    );
}

#[test]
fn block_nested_loop_join_allocates_per_output_page_not_per_key() {
    for probe_pages in [6, 24] {
        let (mut disk, outer, inner) = setup(probe_pages);
        // m = 48: the whole outer is one pinned block.
        let mut pool = BufferPool::with_capacity(48);
        let (out, allocs) =
            count_allocs(|| block_nested_loop_join(&mut disk, &mut pool, outer, inner, 48));
        assert_within_budget("block-NL", &disk, out.unwrap(), allocs);
    }
}

#[test]
fn in_memory_grace_join_allocates_per_output_page_not_per_key() {
    for probe_pages in [6, 24] {
        let (mut disk, build, probe) = setup(probe_pages);
        // m = 48: the 3-page build side fits, so there is no partitioning.
        let mut pool = BufferPool::with_capacity(48);
        let (out, allocs) =
            count_allocs(|| grace_hash_join(&mut disk, &mut pool, build, probe, 48));
        assert_within_budget("grace", &disk, out.unwrap(), allocs);
    }
}
