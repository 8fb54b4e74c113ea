//! X15 (extension) — parametric LEC: precompute at compile time, pick at
//! start-up time (§3.2/§3.4 meets \[INSS92\]).
//!
//! Compile time stores one LEC plan per anticipated environment scenario.
//! At start-up the observed memory distribution is re-costed against the
//! stored plans only — no plan search. The sweep perturbs the observed
//! environment away from the stored scenarios and reports the regret
//! against a full re-optimization, plus the work saved.

use crate::table::{num, ratio, Table};
use lec_core::parametric::ParametricPlans;
use lec_core::{alg_c, MemoryModel};
use lec_cost::{CountingModel, PaperCostModel};
use lec_stats::Distribution;
use lec_workload::queries;

/// Runs the experiment, returning a markdown section.
pub fn run() -> String {
    let q = queries::example_1_1();
    let model = CountingModel::new(PaperCostModel);
    // Compile-time scenario family: mixes of roomy and starved.
    let scenarios: Vec<Distribution> = [0.0, 0.2, 0.5, 0.8]
        .iter()
        .map(|&p_lo| lec_workload::envs::bimodal(700.0, 2000.0, p_lo))
        .collect();
    let set = ParametricPlans::precompute(&q, &model, &scenarios).expect("precompute");
    let precompute_evals = model.evaluations();

    let mut t = Table::new(&[
        "observed environment",
        "parametric pick E[cost]",
        "fresh re-optimization E[cost]",
        "regret",
        "pick evals",
        "fresh evals",
    ]);
    let mut observations: Vec<(String, Distribution)> = vec![
        (
            "stored: 80/20".into(),
            lec_workload::envs::bimodal(700.0, 2000.0, 0.2),
        ),
        (
            "between: 65/35 @ 750".into(),
            Distribution::new([(750.0, 0.35), (1950.0, 0.65)]).expect("valid"),
        ),
        (
            "sharpened: point 2000".into(),
            Distribution::point(2000.0).expect("valid"),
        ),
        (
            "sharpened: point 800".into(),
            Distribution::point(800.0).expect("valid"),
        ),
    ];
    observations.push((
        "off-family: lognormal".into(),
        lec_workload::envs::lognormal(1200.0, 0.5, 6),
    ));

    for (name, observed) in &observations {
        model.reset();
        let choice = set.pick(&q, &model, observed).expect("pick");
        let pick_evals = model.evaluations();
        model.reset();
        let fresh = alg_c::optimize(&q, &model, &MemoryModel::Static(observed.clone()))
            .expect("fresh")
            .0;
        let fresh_evals = model.evaluations();
        t.row(vec![
            name.clone(),
            num(choice.expected_cost),
            num(fresh.cost),
            ratio(choice.expected_cost / fresh.cost),
            pick_evals.to_string(),
            fresh_evals.to_string(),
        ]);
    }

    format!(
        "## X15 — parametric LEC: compile-time precompute, start-up pick\n\n\
         Example 1.1's query; four stored scenarios (bimodal mixes), \
         precomputed with {} formula evaluations total. At start-up the \
         observed distribution is re-costed against stored plans only.\n\n{}\n",
        precompute_evals,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn x15_zero_regret_on_family_and_cheap_picks() {
        let md = super::run();
        for line in md.lines().filter(|l| l.starts_with("|") && l.contains('x')) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() < 7 {
                continue;
            }
            if let Ok(regret) = cells[4].trim_end_matches('x').parse::<f64>() {
                assert!((1.0..1.25).contains(&regret), "{line}");
                let pick: u64 = cells[5].parse().unwrap();
                let fresh: u64 = cells[6].parse().unwrap();
                assert!(pick < fresh, "picking should be cheaper: {line}");
            }
        }
        // Stored and sharpened observations should tie fresh optimization.
        let stored_row = md.lines().find(|l| l.contains("stored: 80/20")).unwrap();
        assert!(stored_row.contains("1.000x"), "{stored_row}");
    }
}
