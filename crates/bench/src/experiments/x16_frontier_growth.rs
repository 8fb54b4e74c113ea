//! X16 (extension) — the price of exactness for general utilities.
//!
//! The Pareto-frontier DP is exact for any monotone utility, but its per-
//! node frontier can grow with the number of memory buckets (more values →
//! fewer dominated profiles). This experiment maps that growth across
//! relation count and bucket count, and reports the search-space blow-up
//! relative to the scalar DP's single entry per node.

use crate::table::{ratio, Table};
use lec_core::pareto;
use lec_cost::PaperCostModel;
use lec_stats::Utility;
use lec_workload::envs;
use lec_workload::queries::{QueryGen, Topology};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs the experiment, returning a markdown section.
pub fn run() -> String {
    let mut t = Table::new(&["n", "b=2", "b=4", "b=8", "b=16"]);
    let mut exactness_ok = true;
    for n in [3usize, 4, 5] {
        let mut cells = vec![n.to_string()];
        for b in [2usize, 4, 8, 16] {
            // Max frontier across a few seeded instances.
            let mut worst = 0usize;
            for seed in 0..5u64 {
                let q = QueryGen {
                    topology: Topology::Chain,
                    n,
                    pages_range: (20.0, 30_000.0),
                    ..QueryGen::default()
                }
                .generate(&mut ChaCha8Rng::seed_from_u64(1600 + seed));
                let mem = envs::lognormal(250.0, 1.2, b);
                let r = pareto::optimize(&q, &PaperCostModel, &mem, Utility::Linear)
                    .expect("pareto")
                    .0;
                worst = worst.max(r.max_frontier);
                // Exactness spot-check against the exhaustive optimum.
                if n <= 4 {
                    let truth =
                        pareto::exhaustive_utility(&q, &PaperCostModel, &mem, Utility::Linear)
                            .expect("truth");
                    if (r.best.cost - truth.best.cost).abs() > 1e-6 * truth.best.cost {
                        exactness_ok = false;
                    }
                }
            }
            cells.push(worst.to_string());
        }
        t.row(cells);
    }

    // The blow-up vs the scalar DP on one representative setting.
    let q = QueryGen {
        topology: Topology::Chain,
        n: 5,
        pages_range: (20.0, 30_000.0),
        ..QueryGen::default()
    }
    .generate(&mut ChaCha8Rng::seed_from_u64(1605));
    let mem = envs::lognormal(250.0, 1.2, 8);
    let r = pareto::optimize(&q, &PaperCostModel, &mem, Utility::Linear)
        .expect("pareto")
        .0;

    format!(
        "## X16 — Pareto frontier growth: the price of utility-exactness\n\n\
         Maximum per-node frontier size (worst of 5 seeded chain queries) as \
         relations `n` and memory buckets `b` grow. The scalar DP keeps 1 \
         entry per node; every extra frontier entry is the overhead exact \
         general-utility optimization pays.\n\n{}\n\
         Representative blow-up at n = 5, b = 8: max frontier {} \
         ({} vs the scalar DP). Exactness spot-checks vs exhaustive: {}.\n",
        t.render(),
        r.max_frontier,
        ratio(r.max_frontier as f64),
        if exactness_ok { "PASS" } else { "FAIL" }
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn x16_frontier_bounded_and_exact() {
        let md = super::run();
        assert!(md.contains("PASS"), "{md}");
        // Frontiers stay manageable (the discrete parameter space caps them).
        for line in md
            .lines()
            .filter(|l| l.starts_with("| ") && !l.contains("n"))
        {
            for cell in line
                .split('|')
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .skip(1)
            {
                if let Ok(v) = cell.parse::<usize>() {
                    assert!(v <= 64, "frontier exploded: {line}");
                }
            }
        }
    }
}
