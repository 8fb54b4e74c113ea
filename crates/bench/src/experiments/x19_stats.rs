//! X19 (extension) — the machine-readable search-space trajectory of the
//! observability layer.
//!
//! Drives `alg_c::optimize` over growing chain queries and
//! records the deterministic [`lec_core::OptStats`] counters: masks
//! expanded and pruned, candidate combinations priced, DP entries written,
//! and the precompute table sizes. The bounded DP accounts for every mask
//! of the lattice (`masks_expanded + masks_pruned = 2^n - n - 1`) and
//! writes one entry per relation and per expanded mask, so the JSON
//! doubles as a regression oracle for the enumeration itself — any change
//! to the search space shows up as a diff in `results/BENCH_stats.json`
//! before it shows up as a plan change.
//! Small-`n` rows also run the Pareto utility DP and record its
//! per-rank frontier sizes, the quantity that decides whether the exact
//! profile DP is affordable.

use crate::artifacts::{artifact_path, OPTIMIZED_BUILD};
use crate::fixtures::{chain_query, spread_memory, static_mem, SEED};
use crate::table::Table;
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
    let mut t = Table::new(&[
        "n",
        "masks",
        "pruned",
        "candidates",
        "entries",
        "pages tbl",
        "wall",
    ]);
    let mut json_rows = Vec::new();
    for n in 4usize..=12 {
        let q = chain_query(n, SEED + n as u64);
        let mem = static_mem(spread_memory(4));
        let (_, stats) = alg_c::optimize(&q, &PaperCostModel, &mem).expect("alg_c with stats");
        let c = &stats.counters;
        t.row(vec![
            n.to_string(),
            c.masks_expanded.to_string(),
            c.masks_pruned.to_string(),
            c.candidates_priced.to_string(),
            c.entries_written.to_string(),
            stats.precompute.pages_entries.to_string(),
            format!("{:.3} ms", stats.total_wall_ns() as f64 / 1e6),
        ]);
        json_rows.push(format!(
            "    {{\"n\": {n}, \"masks_expanded\": {}, \"masks_pruned\": {}, \
             \"candidates_priced\": {}, \"entries_written\": {}, \"pages_entries\": {}, \
             \"wall_ns\": {}}}",
            c.masks_expanded,
            c.masks_pruned,
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
            &Utility::Exponential { gamma: 1e-5 },
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
         buckets. The counters are deterministic, and every mask of the \
         lattice is either expanded or pruned by the incumbent's bound, so \
         this table is an enumeration regression oracle. Machine-readable copy written to \
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
        // Each row accounts for the whole lattice: expanded + pruned =
        // 2^n - n - 1, and one entry per relation and per expanded mask.
        let field = |row: &str, name: &str| -> u64 {
            let at = row.find(&format!("\"{name}\": ")).expect(name) + name.len() + 4;
            let digits: String = row[at..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect(name)
        };
        let rows: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"masks_pruned\""))
            .collect();
        assert_eq!(rows.len(), 9);
        for row in rows {
            let n = field(row, "n");
            let (expanded, pruned) = (field(row, "masks_expanded"), field(row, "masks_pruned"));
            assert_eq!(expanded + pruned, (1 << n) - n - 1, "{row}");
            assert_eq!(field(row, "entries_written"), n + expanded, "{row}");
            // Bounding pays on a chain: fewer candidates than the unbounded
            // sweep's 3 (n·2^{n-1} - n).
            assert!(pruned > 0, "{row}");
            assert!(
                field(row, "candidates_priced") < 3 * (n * (1 << (n - 1)) - n),
                "{row}"
            );
        }
        assert!(json.contains("\"max_frontier\""));
        assert!(json.contains("\"frontier_per_rank\""));
    }
}
