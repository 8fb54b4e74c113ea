//! X6 — Algorithm D: uncertain selectivities (§3.6).
//!
//! Two views:
//!
//! * a **showcase** instance (found by search over random chain queries)
//!   where selectivity uncertainty flips the plan choice, swept over the
//!   uncertainty level;
//! * an **aggregate** over 40 random chain queries per uncertainty level:
//!   how often Algorithm D's plan differs from Algorithm C's, and the mean
//!   true-cost ratio when it does.
//!
//! All plans are scored by the exact joint-enumeration ground truth
//! [`lec_core::evaluate::expected_cost_joint`], which weights every
//! (sizes, selectivities, memory) assignment — no independence
//! approximation on the evaluation side.

use crate::table::{num, ratio, Table};
use lec_core::alg_d::{self, AlgDConfig, SizeModel};
use lec_core::{alg_c, evaluate, lsc, MemoryModel};
use lec_cost::PaperCostModel;
use lec_plan::JoinQuery;
use lec_workload::envs;
use lec_workload::queries::{QueryGen, Topology};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn gen_query(seed: u64) -> JoinQuery {
    QueryGen {
        topology: Topology::Chain,
        n: 4,
        pages_range: (20.0, 20_000.0),
        shrink: 5.0,
        ..QueryGen::default()
    }
    .generate(&mut ChaCha8Rng::seed_from_u64(seed))
}

/// Runs the experiment, returning a markdown section.
pub fn run() -> String {
    let model = PaperCostModel;
    let mem_dist = envs::lognormal(300.0, 0.8, 4);
    let mem = MemoryModel::Static(mem_dist.clone());

    // Showcase: the search-found instance where uncertainty flips the plan.
    let q = gen_query(318);
    let phases = mem.table(q.n()).expect("valid");
    let mut showcase = Table::new(&[
        "sel cv",
        "true E[cost] LSC(mean) plan",
        "true E[cost] Alg C plan",
        "true E[cost] Alg D plan",
        "D vs C",
        "D differs?",
    ]);
    for cv in [0.0, 0.5, 1.0, 1.5, 2.0] {
        let sizes = SizeModel::with_uncertainty(&q, 0.0, cv, 3).expect("sizes");
        let d = alg_d::optimize(&q, &PaperCostModel, &mem, &sizes, AlgDConfig::default())
            .expect("alg d")
            .0;
        let c = alg_c::optimize(&q, &model, &mem).expect("alg c").0;
        let l = lsc::optimize_at(&q, &model, mem_dist.mean())
            .expect("lsc")
            .0;
        let truth = |plan: &lec_plan::Plan| {
            evaluate::expected_cost_joint(&q, &model, plan, &sizes, &phases).expect("joint cost")
        };
        let (tl, tc, td) = (truth(&l.plan), truth(&c.plan), truth(&d.best.plan));
        showcase.row(vec![
            format!("{cv:.1}"),
            num(tl),
            num(tc),
            num(td),
            ratio(td / tc),
            if d.best.plan == c.plan { "no" } else { "yes" }.into(),
        ]);
    }

    // Aggregate over 40 random instances per level.
    let mut agg = Table::new(&[
        "sel cv",
        "instances where D != C",
        "mean D/C true-cost (those)",
        "worst-case D/C",
    ]);
    for cv in [0.5, 1.0, 2.0] {
        let mut flips = 0usize;
        let mut ratios = Vec::new();
        for seed in 200..240u64 {
            let qq = gen_query(seed);
            let m = MemoryModel::Static(mem_dist.clone());
            let ph = m.table(qq.n()).expect("valid");
            let sizes = SizeModel::with_uncertainty(&qq, 0.0, cv, 3).expect("sizes");
            let d = alg_d::optimize(&qq, &PaperCostModel, &m, &sizes, AlgDConfig::default())
                .expect("alg d")
                .0;
            let c = alg_c::optimize(&qq, &model, &m).expect("alg c").0;
            if d.best.plan != c.plan {
                flips += 1;
                let td = evaluate::expected_cost_joint(&qq, &model, &d.best.plan, &sizes, &ph)
                    .expect("joint cost");
                let tc = evaluate::expected_cost_joint(&qq, &model, &c.plan, &sizes, &ph)
                    .expect("joint cost");
                ratios.push(td / tc);
            }
        }
        let mean = if ratios.is_empty() {
            1.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        };
        let worst = ratios.iter().cloned().fold(1.0f64, f64::max);
        agg.row(vec![
            format!("{cv:.1}"),
            format!("{flips}/40"),
            ratio(mean),
            ratio(worst),
        ]);
    }

    format!(
        "## X6 — Algorithm D under selectivity uncertainty\n\n\
         Chain queries (n = 4), lognormal memory (mean 300 pages, cv 0.8, \
         4 buckets); per-predicate lognormal selectivity uncertainty with \
         coefficient of variation `cv`, 3 buckets each. Scores are exact \
         joint enumerations.\n\n\
         Showcase instance (search-found):\n\n{}\n\
         Aggregate over 40 random instances per level:\n\n{}\n",
        showcase.render(),
        agg.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn x6_showcase_flips_and_d_wins_big() {
        let md = super::run();
        // At cv = 0 the plans agree; at cv = 2 they differ and D wins by a
        // lot on this instance.
        let row0 = md
            .lines()
            .find(|l| l.trim_start_matches('|').trim().starts_with("0.0 |"))
            .unwrap();
        assert!(row0.contains("no"), "{row0}");
        let row2 = md
            .lines()
            .find(|l| l.trim_start_matches('|').trim().starts_with("2.0 |"))
            .unwrap();
        assert!(row2.contains("yes"), "{row2}");
        let dvc: f64 = row2
            .split('|')
            .map(str::trim)
            .nth(5)
            .unwrap()
            .trim_end_matches('x')
            .parse()
            .unwrap();
        assert!(dvc < 0.5, "expected a large win, got {dvc} in {row2}");
    }

    #[test]
    fn x6_aggregate_never_catastrophic() {
        let md = super::run();
        // Across the aggregate, D's worst-case true-cost ratio stays near 1.
        for line in md.lines().filter(|l| l.contains("/40")) {
            let worst: f64 = line
                .split('|')
                .map(str::trim)
                .nth(4)
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!(worst <= 1.1, "{line}");
        }
    }
}
