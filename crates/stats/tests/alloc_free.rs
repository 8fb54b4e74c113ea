// The one place the workspace genuinely needs `unsafe`: implementing a
// counting `GlobalAlloc` shim. It delegates every call to `System` verbatim.
#![allow(unsafe_code)]

//! Pins the inline small-support storage with a counting allocator: a
//! distribution of at most 8 points (`alg_d`'s default rebucketed size)
//! keeps its support and probabilities inline, so cloning one performs
//! **zero** heap allocations.

use lec_stats::Distribution;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Counts one allocation event if the calling thread is tracking. A thread
/// past its TLS teardown is, by construction, not inside `count_allocs`.
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
/// returns how many allocation events (alloc / alloc_zeroed / realloc) it
/// performed.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOC_EVENTS.with(|n| n.set(0));
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    ALLOC_EVENTS.with(Cell::get)
}

#[test]
fn small_distribution_construction_is_allocation_free() {
    // Constructing a <= 8-point distribution from a pre-collected slice
    // must stay inline: lec_core clones these on every DP seed row.
    let pts: Vec<(f64, f64)> = (0..8).map(|i| (1.0 + i as f64, 0.125)).collect();
    let d = Distribution::new(pts.clone()).unwrap();
    let events = count_allocs(|| {
        for _ in 0..50 {
            let c = d.clone();
            assert_eq!(c.len(), 8);
        }
    });
    assert_eq!(
        events, 0,
        "cloning an inline distribution allocated {events} times"
    );
}
