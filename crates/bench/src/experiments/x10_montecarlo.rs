//! X10 — the LEC claim realized in execution.
//!
//! A scaled-down Example 1.1 (the simulator works at hundreds of pages, not
//! millions) is optimized by LSC(mode) and by Algorithm C, and both chosen
//! plans are then *executed* — pages, buffer pool, the lot — over many
//! sampled memory environments. The paper's claim is about modeled cost;
//! this experiment checks it survives contact with counted I/O.

use crate::table::{num, Table};
use lec_core::{alg_c, lsc, MemoryModel};
use lec_cost::PaperCostModel;
use lec_exec::datagen::{domain_for_selectivity, generate, DataGenSpec};
use lec_exec::{execute_plan, Disk, ExecMemoryEnv, RelId};
use lec_plan::{JoinPred, JoinQuery, KeyId, Plan, Relation};
use lec_stats::Distribution;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

const A_PAGES: f64 = 400.0;
const B_PAGES: f64 = 100.0;
const SELECTIVITY: f64 = 3e-4;

/// The scaled motivating query.
fn scaled_query() -> JoinQuery {
    JoinQuery::new(
        vec![
            Relation::new("A", A_PAGES, A_PAGES * 64.0),
            Relation::new("B", B_PAGES, B_PAGES * 64.0),
        ],
        vec![JoinPred {
            left: 0,
            right: 1,
            selectivity: SELECTIVITY,
            key: KeyId(0),
        }],
        Some(KeyId(0)),
    )
    .expect("valid scaled query")
}

/// The scaled bimodal memory environment: 25 pages (mode) or 12 pages.
fn scaled_memory() -> Distribution {
    Distribution::new([(12.0, 0.2), (25.0, 0.8)]).expect("valid")
}

fn load_tables(seed: u64) -> (Disk, Vec<RelId>) {
    let mut disk = Disk::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let domain = domain_for_selectivity(SELECTIVITY);
    let a = generate(
        &mut disk,
        &mut rng,
        &DataGenSpec {
            pages: A_PAGES as usize,
            key_domain: domain,
        },
    );
    let b = generate(
        &mut disk,
        &mut rng,
        &DataGenSpec {
            pages: B_PAGES as usize,
            key_domain: domain,
        },
    );
    (disk, vec![a, b])
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Monte-Carlo race between two plans over `iters` paired environment
/// draws; returns (mean, p95, wins of plan1, totals of both).
fn race(plan1: &Plan, plan2: &Plan, iters: usize) -> (Vec<u64>, Vec<u64>, usize) {
    let (mut disk, base) = load_tables(4242);
    let mem = scaled_memory();
    let mut totals1 = Vec::with_capacity(iters);
    let mut totals2 = Vec::with_capacity(iters);
    let mut wins1 = 0;
    for i in 0..iters {
        // Paired draws: both plans see the same environment sample.
        let mut env1 = ExecMemoryEnv::draw_once(mem.clone(), 1000 + i as u64);
        let mut env2 = ExecMemoryEnv::draw_once(mem.clone(), 1000 + i as u64);
        let r1 = execute_plan(plan1, &base, &mut disk, &mut env1).expect("plan1");
        let r2 = execute_plan(plan2, &base, &mut disk, &mut env2).expect("plan2");
        totals1.push(r1.total.total());
        totals2.push(r2.total.total());
        if r1.total.total() < r2.total.total() {
            wins1 += 1;
        }
    }
    (totals1, totals2, wins1)
}

/// Runs the experiment, returning a markdown section.
pub fn run() -> String {
    let q = scaled_query();
    let model = PaperCostModel;
    let mem = scaled_memory();

    let lsc_choice = lsc::optimize_at(&q, &model, mem.mode()).expect("lsc").0;
    let lec_choice = alg_c::optimize(&q, &model, &MemoryModel::Static(mem.clone()))
        .expect("lec")
        .0;

    let iters = 400;
    let (mut t_lsc, mut t_lec, lsc_wins) = race(&lsc_choice.plan, &lec_choice.plan, iters);
    t_lsc.sort_unstable();
    t_lec.sort_unstable();

    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    let mut t = Table::new(&["plan", "mean I/O", "p50", "p95", "max"]);
    t.row(vec![
        "LSC(mode) choice".into(),
        num(mean(&t_lsc)),
        t_lsc[t_lsc.len() / 2].to_string(),
        percentile(&t_lsc, 0.95).to_string(),
        t_lsc.last().expect("non-empty").to_string(),
    ]);
    t.row(vec![
        "LEC choice".into(),
        num(mean(&t_lec)),
        t_lec[t_lec.len() / 2].to_string(),
        percentile(&t_lec, 0.95).to_string(),
        t_lec.last().expect("non-empty").to_string(),
    ]);

    format!(
        "## X10 — Monte-Carlo: realized I/O of LEC vs LSC plans\n\n\
         Scaled Example 1.1 (A = 400 pages, B = 100 pages, result ≈ 12 \
         pages, ORDER BY); memory 25 pages w.p. 0.8, 12 pages w.p. 0.2; \
         {iters} paired executions in the page-level simulator.\n\n\
         LSC(mode) chose: `{}`; LEC chose: `{}`.\n\n{}\n\
         LSC plan won {} / {iters} paired draws; LEC plan won {}.\n\
         Modeled expected costs: LSC plan {}, LEC plan {} (optimizer units).\n",
        summarize(&lsc_choice.plan),
        summarize(&lec_choice.plan),
        t.render(),
        lsc_wins,
        iters - lsc_wins,
        num(lec_of(&q, &lsc_choice.plan)),
        num(lec_choice.cost),
    )
}

fn lec_of(q: &JoinQuery, plan: &Plan) -> f64 {
    let mem = MemoryModel::Static(scaled_memory());
    let phases = mem.table(q.n()).expect("valid");
    lec_core::evaluate::expected_cost(q, &PaperCostModel, plan, &phases)
}

fn summarize(plan: &Plan) -> &'static str {
    match plan {
        Plan::Join {
            method: lec_cost::JoinMethod::SortMerge,
            ..
        } => "sort-merge",
        Plan::Sort { .. } => "grace-hash + sort",
        _ => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x10_optimizers_disagree_as_designed() {
        let q = scaled_query();
        let mem = scaled_memory();
        let lsc_choice = lsc::optimize_at(&q, &PaperCostModel, mem.mode()).unwrap().0;
        let lec_choice = alg_c::optimize(&q, &PaperCostModel, &MemoryModel::Static(mem))
            .unwrap()
            .0;
        assert_eq!(summarize(&lsc_choice.plan), "sort-merge");
        assert_eq!(summarize(&lec_choice.plan), "grace-hash + sort");
    }

    #[test]
    fn x10_lec_plan_wins_on_average_in_realized_io() {
        let q = scaled_query();
        let mem = scaled_memory();
        let lsc_choice = lsc::optimize_at(&q, &PaperCostModel, mem.mode()).unwrap().0;
        let lec_choice = alg_c::optimize(&q, &PaperCostModel, &MemoryModel::Static(mem.clone()))
            .unwrap()
            .0;
        let (t_lsc, t_lec, _) = race(&lsc_choice.plan, &lec_choice.plan, 120);
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(
            mean(&t_lec) < mean(&t_lsc),
            "LEC realized mean {} vs LSC {}",
            mean(&t_lec),
            mean(&t_lsc)
        );
    }
}
