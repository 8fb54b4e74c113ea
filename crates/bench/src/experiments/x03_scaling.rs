//! X3 — plan quality and optimizer work across the algorithm family.
//!
//! Part (a): regret (expected cost / exhaustive-LEC expected cost) of
//! LSC(mean), Algorithm A, Algorithm B (c = 3) and Algorithm C over chain
//! queries of increasing size, plus the left-deep optimum's regret against
//! the bushy exhaustive optimum. Part (b): the §3.2/§3.4 work claims —
//! cost-formula evaluations as the bucket count grows (Algorithm C must be
//! exactly `b ×` the single-bucket count).

use crate::fixtures::{chain_query, spread_memory, static_mem, SEED};
use crate::table::{num, ratio, Table};
use lec_core::{alg_a, alg_b, alg_c, evaluate, exhaustive, lsc};
use lec_cost::{CountingModel, PaperCostModel};
use lec_stats::Distribution;

/// Runs the experiment, returning a markdown section.
pub fn run() -> String {
    let mem_dist = spread_memory(4);

    let mut quality = Table::new(&[
        "n",
        "LSC(mean)",
        "Alg A",
        "Alg B (c=3)",
        "Alg C",
        "bushy gap",
    ]);
    for n in 2..=6 {
        let q = chain_query(n, SEED + n as u64);
        let model = PaperCostModel;
        let mem = static_mem(mem_dist.clone());
        let phases = mem.table(n).expect("valid");
        let truth = exhaustive::exhaustive_lec(&q, &model, &phases)
            .expect("truth")
            .0;

        let lsc_plan = lsc::optimize_at(&q, &model, mem_dist.mean())
            .expect("lsc")
            .0;
        let a = alg_a::optimize(&q, &model, &mem).expect("a");
        let b = alg_b::optimize(&q, &model, &mem, 3).expect("b");
        let c = alg_c::optimize(&q, &model, &mem).expect("c").0;
        let lsc_e = evaluate::expected_cost(&q, &model, &lsc_plan.plan, &phases);

        let bushy_gap = if n <= 5 {
            let bushy = exhaustive::exhaustive_lec_bushy(&q, &model, &phases)
                .expect("bushy")
                .0;
            ratio(truth.cost / bushy.cost)
        } else {
            "-".into()
        };
        quality.row(vec![
            n.to_string(),
            ratio(lsc_e / truth.cost),
            ratio(a.best.cost / truth.cost),
            ratio(b.best.cost / truth.cost),
            ratio(c.cost / truth.cost),
            bushy_gap,
        ]);
    }

    let mut work = Table::new(&[
        "b buckets",
        "Alg C evals",
        "vs b=1",
        "Alg A evals",
        "vs b=1",
    ]);
    let q = chain_query(5, SEED + 50);
    let evals = |b: usize| -> (u64, u64) {
        let values: Vec<(f64, f64)> = (0..b)
            .map(|i| (60.0 * (i + 1) as f64, 1.0 / b as f64))
            .collect();
        let dist = Distribution::new(values).expect("valid");
        let mem = static_mem(dist.clone());
        let mc = CountingModel::new(PaperCostModel);
        alg_c::optimize(&q, &mc, &mem).expect("c");
        let c_evals = mc.evaluations();
        let ma = CountingModel::new(PaperCostModel);
        alg_a::optimize(&q, &ma, &mem).expect("a");
        (c_evals, ma.evaluations())
    };
    let (c1, a1) = evals(1);
    for b in [1usize, 2, 4, 8, 16, 32] {
        let (c, a) = evals(b);
        work.row(vec![
            b.to_string(),
            c.to_string(),
            ratio(c as f64 / c1 as f64),
            a.to_string(),
            ratio(a as f64 / a1 as f64),
        ]);
    }

    // (c) §3.2's caveat made concrete: an instance (found by search) where
    // Algorithm A's candidate set misses the LEC plan and Algorithm B
    // recovers it.
    let showcase = {
        use lec_plan::{JoinPred, JoinQuery, KeyId, Plan, Relation};
        let q = JoinQuery::new(
            vec![
                Relation::new("r0", 587.0, 37_568.0),
                Relation::new("r1", 93.0, 5_952.0),
                Relation::new("r2", 767.0, 49_088.0),
            ],
            vec![
                JoinPred {
                    left: 0,
                    right: 1,
                    selectivity: 0.0034071550255536627,
                    key: KeyId(0),
                },
                JoinPred {
                    left: 1,
                    right: 2,
                    selectivity: 0.002607561929595828,
                    key: KeyId(1),
                },
            ],
            Some(KeyId(1)),
        )
        .expect("valid showcase query");
        let b = 5;
        let step = (1500.0f64 / 20.0).powf(1.0 / (b as f64 - 1.0));
        let mem = static_mem(
            Distribution::new((0..b).map(|i| (20.0 * step.powi(i), 1.0 / b as f64)))
                .expect("valid"),
        );
        let model = PaperCostModel;
        let a = alg_a::optimize(&q, &model, &mem).expect("a");
        let b3 = alg_b::optimize(&q, &model, &mem, 3).expect("b");
        let c = alg_c::optimize(&q, &model, &mem).expect("c").0;
        let shape = |p: &Plan| p.explain(&q).replace('\n', " / ");
        let mut t = Table::new(&["algorithm", "expected cost", "vs LEC", "plan"]);
        t.row(vec![
            "Alg A".into(),
            num(a.best.cost),
            ratio(a.best.cost / c.cost),
            shape(&a.best.plan),
        ]);
        t.row(vec![
            "Alg B (c=3)".into(),
            num(b3.best.cost),
            ratio(b3.best.cost / c.cost),
            shape(&b3.best.plan),
        ]);
        t.row(vec![
            "Alg C".into(),
            num(c.cost),
            ratio(1.0),
            shape(&c.plan),
        ]);
        t.render()
    };

    format!(
        "## X3 — plan quality and optimizer work\n\n\
         (a) Expected-cost regret vs the exhaustive left-deep LEC optimum \
         (1.000x = optimal). `bushy gap` = left-deep optimum / bushy optimum.\n\n{}\n\
         (b) Cost-formula evaluations vs bucket count `b` (chain, n = 5). \
         §3.4 predicts Algorithm C at exactly b× the single-bucket count; \
         §3.2 predicts Algorithm A at roughly b× one LSC invocation plus \
         candidate-costing overhead.\n\n{}\nSingle-bucket baselines: Alg C {} evals, Alg A {} evals.\n\n\
         (c) §3.2's caveat: a search-found instance where no per-bucket LSC \
         plan is the LEC plan, so Algorithm A is strictly suboptimal while \
         Algorithm B's extra candidates recover the optimum.\n\n{}\n",
        quality.render(),
        work.render(),
        num(c1 as f64),
        num(a1 as f64),
        showcase,
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn x3_algorithm_c_is_always_optimal_and_work_scales_linearly() {
        let md = super::run();
        // Every Alg C row in the quality table shows regret 1.000x.
        let quality_rows: Vec<&str> = md
            .lines()
            .filter(|l| l.starts_with("|") && !l.contains("LSC") && !l.contains("---"))
            .collect();
        assert!(!quality_rows.is_empty());
        for n in 2..=6 {
            let row = md
                .lines()
                .find(|l| {
                    l.trim_start_matches('|')
                        .trim()
                        .starts_with(&format!("{n} |"))
                })
                .unwrap_or_else(|| panic!("missing row for n = {n}\n{md}"));
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            assert_eq!(cells[5], "1.000x", "Alg C regret for n = {n}: {row}");
        }
        // Work table: b = 32 must be exactly 32.000x for Alg C.
        let row32 = md
            .lines()
            .find(|l| l.trim_start_matches('|').trim().starts_with("32 |"))
            .unwrap();
        assert!(row32.contains("32.000x"), "{row32}");
    }
}
