//! Deterministic data-parallel helpers.
//!
//! Every optimizer in this crate is a serial dynamic program: a subset's
//! entry depends only on *strictly smaller* subsets, so the drivers walk
//! the subset lattice rank by rank ([`ranks`]) and time each rank
//! ([`timed`]). Parallelism lives one level up, across *independent*
//! queries: [`map_indexed`] fans a batch out over scoped worker threads
//! that claim fixed chunks off a shared atomic counter (work stealing) and
//! gathers the results back **in input order**.
//!
//! Determinism: the per-item function is pure, chunk boundaries are a
//! function of `len` and the worker count alone (never of timing), and
//! each chunk's results carry their start index, so the gather step
//! reassembles exactly the serial output no matter which worker computed
//! what.
//!
//! No external thread-pool crate is used — `std::thread::scope` is the
//! fallback-free baseline available everywhere the workspace builds.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Target number of chunks a worker should get to claim, on average.
/// More chunks → better load balance under skew; fewer → less claim
/// traffic. Chunk boundaries depend only on `len`, never on this ratio
/// interacting with timing, so the constant is a pure tuning knob.
const CHUNKS_PER_WORKER: usize = 8;

/// Smallest chunk worth a `fetch_add` round-trip.
const MIN_CHUNK: usize = 16;

/// How many worker threads a batch may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Parallelism {
    /// Worker count; `0` means auto-detect via
    /// [`std::thread::available_parallelism`].
    pub threads: usize,
}

impl Parallelism {
    /// Auto-detected worker count.
    pub fn auto() -> Self {
        Self::default()
    }

    /// Strictly serial execution (also the reference for equivalence tests).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// Exactly `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Parallelism { threads }
    }

    /// The concrete worker count this configuration resolves to.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// Maps `f` over `0..len`, preserving index order in the output.
///
/// With one effective worker (or a tiny range) this is a plain serial map;
/// otherwise workers claim fixed chunks off an atomic counter (work
/// stealing) and the chunks are gathered by index. `f` must be pure with
/// respect to the index for the output to equal the serial map.
// lec-lint: allow(panic-reachability, concurrency-determinism) — the chunk cursor is an exact fetch_add RMW handing out disjoint ranges (result order is fixed by index, not schedule), and join re-raising a worker panic is the correct double fault
pub fn map_indexed<R, F>(par: &Parallelism, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = par.effective_threads().min(len.max(1));
    if workers <= 1 || len < 2 {
        return (0..len).map(f).collect();
    }

    // Fixed chunk size from `len` and `workers` only — the schedule
    // (which worker runs which chunk) is timing-dependent, the chunk
    // *boundaries* are not.
    let chunk = (len / (workers * CHUNKS_PER_WORKER)).max(MIN_CHUNK);
    let next = AtomicUsize::new(0);
    let run_worker = || {
        let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let lo = next.fetch_add(chunk, Ordering::Relaxed);
            if lo >= len {
                break;
            }
            let hi = (lo + chunk).min(len);
            mine.push((lo, (lo..hi).map(&f).collect()));
        }
        mine
    };

    let mut parts: Vec<(usize, Vec<R>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(run_worker)).collect();
        // The calling thread participates as worker 0.
        parts.extend(run_worker());
        for handle in handles {
            parts.extend(handle.join().expect("worker panicked"));
        }
    });
    // Deterministic gather: chunk start indices are unique, so sorting by
    // them reassembles the serial order regardless of claim order.
    parts.sort_by_key(|&(lo, _)| lo);
    let mut out = Vec::with_capacity(len);
    for (_, chunk) in parts {
        out.extend(chunk);
    }
    out
}

/// Runs `f` and returns its result together with the coarse wall-clock
/// nanoseconds it took — the per-rank timing primitive behind
/// [`OptStats::rank_wall_ns`](crate::stats::OptStats::rank_wall_ns).
/// Timing is the *only* non-deterministic quantity the stats layer
/// records; everything else is accumulated in mask order.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    // lec-lint: allow(no-wallclock-or-ambient-rng) — observability-only wall time; feeds OptStats::rank_wall_ns, never a plan choice
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// The subset lattice of `{0..n}` grouped by cardinality: `ranks()[k]`
/// holds every mask of popcount `k + 1` in increasing numeric order.
///
/// Concatenated rank by rank this is a valid DP order (subsets before
/// supersets), and within a rank all masks are mutually independent.
pub fn ranks(n: usize) -> Vec<Vec<lec_plan::RelSet>> {
    let mut by_rank: Vec<Vec<lec_plan::RelSet>> = vec![Vec::new(); n];
    for set in lec_plan::RelSet::all_subsets(n) {
        by_rank[set.len() - 1].push(set); // lec-lint: allow(panic-reachability) — all_subsets yields only non-empty sets, so len - 1 is in bounds
    }
    by_rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_order() {
        for threads in [1, 2, 3, 7] {
            let par = Parallelism::with_threads(threads);
            let out = map_indexed(&par, 23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_indexed_balances_skewed_work() {
        // Heavily skewed per-item cost: the last items are far slower. The
        // claim queue must still reassemble the serial order exactly.
        let par = Parallelism::with_threads(4);
        let len = 4 * MIN_CHUNK + 3;
        let out = map_indexed(&par, len, |i| {
            let mut acc = i as u64;
            for _ in 0..(i * i % 977) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        let serial = map_indexed(&Parallelism::serial(), len, |i| {
            let mut acc = i as u64;
            for _ in 0..(i * i % 977) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        assert_eq!(out, serial);
    }

    #[test]
    fn map_indexed_handles_edge_lengths() {
        let par = Parallelism::with_threads(4);
        assert_eq!(map_indexed(&par, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(&par, 1, |i| i + 10), vec![10]);
        assert_eq!(map_indexed(&par, 2, |i| i), vec![0, 1]);
    }

    #[test]
    fn serial_never_parallelizes() {
        let par = Parallelism::serial();
        assert_eq!(par.effective_threads(), 1);
    }

    #[test]
    fn ranks_partition_the_lattice() {
        let n = 6;
        let by_rank = ranks(n);
        assert_eq!(by_rank.len(), n);
        let total: usize = by_rank.iter().map(Vec::len).sum();
        assert_eq!(total, (1 << n) - 1);
        for (k, rank) in by_rank.iter().enumerate() {
            assert!(rank.iter().all(|s| s.len() == k + 1));
            assert!(rank.windows(2).all(|w| w[0].bits() < w[1].bits()));
        }
    }
}
