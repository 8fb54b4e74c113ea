//! X1 — Example 1.1 (§1.1): the motivating comparison.
//!
//! Reproduces the paper's worked numbers: Plan 1 (sort-merge) vs Plan 2
//! (Grace hash + sort) at 700 and 2000 pages of memory, their expected
//! costs under the 80/20 distribution, and what each optimizer picks.
//! Also runs the interesting-orders ablation (DESIGN.md §4).

use crate::table::{num, Table};
use lec_core::{alg_c, evaluate, lsc, MemoryModel, PhaseDists};
use lec_cost::{JoinMethod, PaperCostModel};
use lec_plan::{JoinQuery, KeyId, Plan};
use lec_workload::{envs, queries};

/// Runs the experiment, returning a markdown section.
pub fn run() -> String {
    let q = queries::example_1_1();
    let model = PaperCostModel;
    let mem = envs::example_1_1_memory();
    let phases = MemoryModel::Static(mem.clone()).table(2).expect("valid");

    let plan1 = Plan::join(
        Plan::scan(0),
        Plan::scan(1),
        JoinMethod::SortMerge,
        Some(KeyId(0)),
    );
    let plan2 = Plan::sort(
        Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::GraceHash,
            Some(KeyId(0)),
        ),
        KeyId(0),
    );

    let mut costs = Table::new(&["plan", "cost @ M=700", "cost @ M=2000", "expected cost"]);
    for (name, plan) in [
        ("Plan 1: sort-merge", &plan1),
        ("Plan 2: grace-hash + sort", &plan2),
    ] {
        costs.row(vec![
            name.into(),
            num(evaluate::plan_cost_at(&q, &model, plan, 700.0)),
            num(evaluate::plan_cost_at(&q, &model, plan, 2000.0)),
            num(evaluate::expected_cost(&q, &model, plan, &phases)),
        ]);
    }

    let describe = |p: &Plan| -> &'static str {
        match p {
            Plan::Join {
                method: JoinMethod::SortMerge,
                ..
            } => "Plan 1 (sort-merge)",
            Plan::Sort { .. } => "Plan 2 (grace-hash + sort)",
            _ => "other",
        }
    };

    let lsc_mode = lsc::optimize_at(&q, &model, mem.mode()).expect("lsc").0;
    let lsc_mean = lsc::optimize_at(&q, &model, mem.mean()).expect("lsc").0;
    let lec = alg_c::optimize(&q, &model, &MemoryModel::Static(mem.clone()))
        .expect("lec")
        .0;
    let (ablated, ablated_cost) = orders_ablated(&q, &MemoryModel::Static(mem), &phases);

    let mut choices = Table::new(&["optimizer", "chooses", "expected cost of its choice"]);
    choices.row(vec![
        "LSC @ mode (2000)".into(),
        describe(&lsc_mode.plan).into(),
        num(evaluate::expected_cost(&q, &model, &lsc_mode.plan, &phases)),
    ]);
    choices.row(vec![
        "LSC @ mean (1740)".into(),
        describe(&lsc_mean.plan).into(),
        num(evaluate::expected_cost(&q, &model, &lsc_mean.plan, &phases)),
    ]);
    choices.row(vec![
        "LEC (Algorithm C)".into(),
        describe(&lec.plan).into(),
        num(lec.cost),
    ]);
    choices.row(vec![
        "LEC, orders ablated".into(),
        describe(&ablated).into(),
        num(ablated_cost),
    ]);

    format!(
        "## X1 — Example 1.1: the motivating comparison\n\n\
         Query: A (1,000,000 pages) ⋈ B (400,000 pages), result 3,000 pages, \
         ORDER BY join column. Memory: 2000 pages w.p. 0.8, 700 pages w.p. 0.2.\n\n\
         {}\n{}\n",
        costs.render(),
        choices.render()
    )
}

/// The interesting-orders ablation: the LEC plan of `q` optimized as if it
/// required no order, sorted on the required key at the root, with its
/// expected cost under `phases`.
fn orders_ablated(q: &JoinQuery, memory: &MemoryModel, phases: &PhaseDists) -> (Plan, f64) {
    let key = q.required_order().expect("Example 1.1 is ordered");
    let unordered = JoinQuery::new(q.relations().to_vec(), q.predicates().to_vec(), None)
        .expect("the ordered query is valid");
    let free = alg_c::optimize(&unordered, &PaperCostModel, memory)
        .expect("ablation")
        .0;
    let plan = Plan::sort(free.plan, key);
    let cost = evaluate::expected_cost(q, &PaperCostModel, &plan, phases);
    (plan, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_ablation_sorts_the_unordered_winner() {
        let q = queries::example_1_1();
        let memory = MemoryModel::Static(envs::example_1_1_memory());
        let phases = memory.table(2).unwrap();
        let (plan, cost) = orders_ablated(&q, &memory, &phases);
        let unordered =
            JoinQuery::new(q.relations().to_vec(), q.predicates().to_vec(), None).unwrap();
        let free = alg_c::optimize(&unordered, &PaperCostModel, &memory)
            .unwrap()
            .0;
        let Plan::Sort { input, key } = &plan else {
            panic!("the ablated plan must sort at the root, got {plan:?}");
        };
        assert_eq!(**input, free.plan);
        assert_eq!(Some(*key), q.required_order());
        let lec = alg_c::optimize(&q, &PaperCostModel, &memory).unwrap().0;
        assert!(cost >= lec.cost, "ablated {cost} < LEC {}", lec.cost);
    }

    #[test]
    fn x1_reports_the_papers_conclusion() {
        let md = super::run();
        // LEC must pick Plan 2; LSC at both mode and mean must pick Plan 1.
        assert!(md.contains("LEC (Algorithm C)"));
        let lec_line = md
            .lines()
            .find(|l| l.contains("LEC (Algorithm C)"))
            .unwrap();
        assert!(lec_line.contains("Plan 2"), "{lec_line}");
        for summary in ["mode", "mean"] {
            let line = md.lines().find(|l| l.contains(summary)).unwrap();
            assert!(line.contains("Plan 1"), "{line}");
        }
    }
}
