//! X8 — bucketing strategies (§3.7).
//!
//! A fine-grained "true" memory distribution is summarized by equi-width,
//! equi-depth and level-set bucketings. For each summary the LEC optimizer
//! runs on the buckets; its chosen plan is then scored under the *fine*
//! distribution. Two error measures: how wrong the optimizer's cost
//! estimate was (estimation error), and how much worse its plan is than
//! the fine-distribution LEC plan (regret). §3.7's claim: level-set
//! bucketing is exact with only a handful of buckets.

use crate::table::{num, ratio, Table};
use lec_core::{alg_c, bucketing, evaluate, MemoryModel};
use lec_cost::PaperCostModel;
use lec_stats::{Bucketing, Distribution};
use lec_workload::queries;

/// Runs the experiment, returning a markdown section.
pub fn run() -> String {
    let q = queries::example_1_1();
    let model = PaperCostModel;
    // "True" environment: 512-point lognormal around 1100 pages, squarely
    // straddling the 632/1000 breakpoints.
    let fine = lec_workload::envs::lognormal(1100.0, 0.6, 512);
    let fine_mem = MemoryModel::Static(fine.clone());
    let fine_phases = fine_mem.table(q.n()).expect("valid");
    let lec_fine = alg_c::optimize(&q, &model, &fine_mem).expect("fine").0;

    let mut t = Table::new(&[
        "strategy",
        "buckets",
        "optimizer estimate",
        "true E[cost] of choice",
        "estimate error",
        "regret",
    ]);
    let mut score = |name: String, coarse: Distribution| {
        let b = coarse.len();
        let opt = alg_c::optimize(&q, &model, &MemoryModel::Static(coarse))
            .expect("coarse")
            .0;
        let true_cost = evaluate::expected_cost(&q, &model, &opt.plan, &fine_phases);
        t.row(vec![
            name,
            b.to_string(),
            num(opt.cost),
            num(true_cost),
            format!("{:.3}%", 100.0 * (opt.cost - true_cost).abs() / true_cost),
            ratio(true_cost / lec_fine.cost),
        ]);
    };

    for b in [1usize, 2, 3, 4, 8, 16] {
        score(
            format!("equi-width({b})"),
            Bucketing::EquiWidth(b).apply(&fine).expect("bucketing"),
        );
    }
    for b in [1usize, 2, 3, 4, 8, 16] {
        score(
            format!("equi-depth({b})"),
            Bucketing::EquiDepth(b).apply(&fine).expect("bucketing"),
        );
    }
    score(
        "level-set (§3.7)".into(),
        bucketing::bucketize_memory(&q, &model, &fine).expect("level set"),
    );

    // The coarse-to-fine heuristic, reported on its own line (its "estimate"
    // is exact by construction — the final plan is re-costed under the fine
    // distribution).
    let adaptive = bucketing::adaptive_optimize(&q, &model, &fine, 2).expect("adaptive");
    t.row(vec![
        format!("coarse-to-fine ({} invocations)", adaptive.refinements),
        adaptive.buckets_used.to_string(),
        num(adaptive.optimized.cost),
        num(adaptive.optimized.cost),
        "0.000%".into(),
        ratio(adaptive.optimized.cost / lec_fine.cost),
    ]);

    format!(
        "## X8 — bucketing strategies for the memory parameter\n\n\
         True environment: 512-point lognormal (mean 1100 pages, cv 0.6) on \
         Example 1.1's query. The fine-distribution LEC expected cost is {}.\n\n{}\n",
        num(lec_fine.cost),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn x8_level_set_is_exact() {
        let md = super::run();
        let row = md.lines().find(|l| l.contains("level-set")).unwrap();
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        // Estimation error ~0 and regret exactly 1x.
        let err: f64 = cells[5].trim_end_matches('%').parse().unwrap();
        assert!(err < 1e-6, "{row}");
        assert_eq!(cells[6], "1.000x", "{row}");
        // Level-set needs far fewer buckets than the fine distribution.
        let buckets: usize = cells[2].parse().unwrap();
        assert!(buckets < 64, "{row}");
    }

    #[test]
    fn x8_one_bucket_is_the_traditional_optimizer() {
        // b = 1 rows exist (the "standard approach is the special case
        // where there is only one bucket", §3.2).
        let md = super::run();
        assert!(md.contains("equi-width(1)"));
        assert!(md.contains("equi-depth(1)"));
    }
}
