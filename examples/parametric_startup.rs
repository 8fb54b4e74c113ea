//! Compile once, pick at start-up (§3.2/§3.4 meets \[INSS92\]).
//!
//! ```text
//! cargo run --example parametric_startup
//! ```
//!
//! Queries are "optimized once and then evaluated repeatedly, often over
//! many months". Precompute LEC plans for a family of environment
//! scenarios at compile time; at each start-up, observe the current
//! environment (possibly a *sharpened* version of the compile-time belief)
//! and re-cost the stored plans — no plan search.

use lecopt::core::parametric::ParametricPlans;
use lecopt::core::{alg_c, MemoryModel};
use lecopt::cost::PaperCostModel;
use lecopt::rules::Rule;
use lecopt::stats::Distribution;
use lecopt::workload::{envs, queries};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let query = queries::example_1_1();
    let model = PaperCostModel;

    // Compile time: anticipate environments from roomy to starved.
    let scenarios: Vec<Distribution> = [0.0, 0.2, 0.5, 0.9]
        .iter()
        .map(|&p_lo| envs::bimodal(700.0, 2000.0, p_lo))
        .collect();
    let set = ParametricPlans::precompute(&query, &model, &scenarios)?;
    println!("precomputed {} scenario plans\n", set.len());

    // Start-up, day 1: the compile-time belief holds.
    let day1 = envs::example_1_1_memory();
    let pick = set.pick_with_rule(&query, &model, &day1, &Rule::LeastExpectedCost)?;
    println!(
        "day 1 (compile-time belief): scenario #{}, E[cost] {:.0}",
        pick.scenario, pick.expected_cost
    );

    // Start-up, day 2: monitoring says the system is busy — condition the
    // belief on "memory below 1000 pages" and re-pick.
    let day2 = day1.condition(|m| m < 1000.0)?;
    let pick2 = set.pick_with_rule(&query, &model, &day2, &Rule::LeastExpectedCost)?;
    println!(
        "day 2 (observed busy, belief sharpened to <1000 pages): scenario #{}, E[cost] {:.0}",
        pick2.scenario, pick2.expected_cost
    );

    // How much did start-up picking give up vs a full re-optimization?
    for (name, observed) in [("day 1", day1), ("day 2", day2)] {
        let fresh = alg_c::optimize(&query, &model, &MemoryModel::Static(observed.clone()))?.0;
        let choice = set.pick_with_rule(&query, &model, &observed, &Rule::LeastExpectedCost)?;
        println!(
            "{name}: parametric pick {:.0} vs fresh optimization {:.0} (regret {:.3}x)",
            choice.expected_cost,
            fresh.cost,
            choice.expected_cost / fresh.cost
        );
    }
    Ok(())
}
