//! X19 (extension) — the machine-readable search-space trajectory of the
//! observability layer.
//!
//! Drives `alg_c::optimize` over growing chain queries and
//! records the deterministic [`lec_core::OptStats`] counters: masks
//! expanded, candidate combinations priced, DP entries written, and the
//! precompute table sizes. The counters have closed forms on a chain of
//! `n` relations (`2^n - n - 1` masks, `3(n·2^{n-1} - n)` candidates), so
//! the JSON doubles as a regression oracle for the enumeration itself —
//! any change to the search space shows up as a diff in
//! `results/BENCH_stats.json` before it shows up as a plan change.
//! Small-`n` rows also run the Pareto utility DP and record its
//! per-rank frontier sizes, the quantity that decides whether the exact
//! profile DP is affordable.

use crate::artifacts::{artifact_path, OPTIMIZED_BUILD};
use crate::fixtures::{chain_query, spread_memory, static_mem, SEED};
use crate::table::Table;
use lec_core::dp::DpOptions;
use lec_core::{alg_c, pareto};
use lec_cost::PaperCostModel;
use lec_stats::Utility;
use std::path::PathBuf;

/// Where the machine-readable trajectory lands (workspace `results/`).
/// Debug builds route to the gitignored `_debug` file — the counters are
/// build-independent, but the wall times are not.
fn json_path() -> PathBuf {
    artifact_path("stats")
}

/// Runs the experiment, returning a markdown section; also writes
/// `results/BENCH_stats.json`.
pub fn run() -> String {
    let mut t = Table::new(&["n", "masks", "candidates", "entries", "pages tbl", "wall"]);
    let mut json_rows = Vec::new();
    for n in 4usize..=12 {
        let q = chain_query(n, SEED + n as u64);
        let mem = static_mem(spread_memory(4));
        let (_, stats) = alg_c::optimize(&q, &PaperCostModel, &mem, DpOptions::default())
            .expect("alg_c with stats");
        let c = &stats.counters;
        t.row(vec![
            n.to_string(),
            c.masks_expanded.to_string(),
            c.candidates_priced.to_string(),
            c.entries_written.to_string(),
            stats.precompute.pages_entries.to_string(),
            format!("{:.3} ms", stats.total_wall_ns() as f64 / 1e6),
        ]);
        json_rows.push(format!(
            "    {{\"n\": {n}, \"masks_expanded\": {}, \"candidates_priced\": {}, \
             \"entries_written\": {}, \"pages_entries\": {}, \"wall_ns\": {}}}",
            c.masks_expanded,
            c.candidates_priced,
            c.entries_written,
            stats.precompute.pages_entries,
            stats.total_wall_ns()
        ));
    }

    let mut pt = Table::new(&["n", "max frontier", "frontier per rank"]);
    let mut pareto_rows = Vec::new();
    for n in 4usize..=6 {
        let q = chain_query(n, SEED + n as u64);
        let mem = spread_memory(4);
        let (res, stats) = pareto::optimize(
            &q,
            &PaperCostModel,
            &mem,
            Utility::Exponential { gamma: 1e-5 },
        )
        .expect("pareto with stats");
        let ranks = &stats.counters.frontier_per_rank;
        pt.row(vec![
            n.to_string(),
            res.max_frontier.to_string(),
            format!("{ranks:?}"),
        ]);
        let rank_list = ranks
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        pareto_rows.push(format!(
            "    {{\"n\": {n}, \"max_frontier\": {}, \"frontier_per_rank\": [{rank_list}]}}",
            res.max_frontier
        ));
    }

    let json = format!(
        "{{\n  \"experiment\": \"x19_stats\",\n  \"algorithm\": \"alg_c\",\n  \
         \"optimized_build\": {OPTIMIZED_BUILD},\n  \
         \"memory_buckets\": 4,\n  \"rows\": [\n{}\n  ],\n  \"pareto\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
        pareto_rows.join(",\n")
    );
    let path = json_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("results dir");
    }
    std::fs::write(&path, &json).expect("write BENCH_stats.json");

    format!(
        "## X19 — optimizer search-space statistics\n\n\
         `alg_c::optimize` on chain queries with 4 memory \
         buckets. The counters are deterministic and follow \
         the chain-query closed forms, so this table is an enumeration \
         regression oracle. Machine-readable copy written to \
         `results/BENCH_stats.json`.\n\n{}\n\
         Pareto utility DP (exponential utility) on the same queries: the \
         per-rank frontier sizes measure what exactness over profiles \
         costs.\n\n{}\n",
        t.render(),
        pt.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_writes_json_and_matches_closed_forms() {
        let md = run();
        assert!(md.contains("X19"));
        assert!(md.contains("| 12 |"));
        let json = std::fs::read_to_string(json_path()).unwrap();
        assert!(json.contains("\"experiment\": \"x19_stats\""));
        // Chain closed forms at n = 4: 2^4 - 4 - 1 masks and
        // 3 (4·2^3 - 4) candidate combinations.
        assert!(json.contains("\"n\": 4, \"masks_expanded\": 11, \"candidates_priced\": 84"));
        assert!(json.contains("\"n\": 12, \"masks_expanded\": 4083"));
        assert!(json.contains("\"max_frontier\""));
        assert!(json.contains("\"frontier_per_rank\""));
    }
}
