//! Lattice-rank and timing helpers for the serial dynamic programs.
//!
//! Every optimizer in this crate is a serial dynamic program: a subset's
//! entry depends only on *strictly smaller* subsets, so the drivers walk
//! the subset lattice rank by rank ([`ranks`]) and time each rank
//! ([`timed`]). The crate spawns no threads; the only parallelism in the
//! workspace is across requests, in the serving layer's concurrent server.

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
