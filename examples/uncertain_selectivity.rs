//! Uncertain selectivities (§3.6, Algorithm D).
//!
//! ```text
//! cargo run --example uncertain_selectivity
//! ```
//!
//! "Selectivities, in particular, are notoriously uncertain." This example
//! attaches lognormal uncertainty to every join predicate, runs Algorithm D
//! (which carries a result-size *distribution* up the dag) and compares its
//! choice against the point-estimate optimizer under the exact joint
//! ground truth.

use lecopt::catalog::SelectivityBelief;
use lecopt::core::alg_d::{self, AlgDConfig, SizeModel};
use lecopt::core::{alg_c, evaluate, MemoryModel};
use lecopt::cost::PaperCostModel;
use lecopt::plan::{JoinPred, JoinQuery, KeyId, Relation};
use lecopt::stats::Distribution;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let query = JoinQuery::new(
        vec![
            Relation::new("events", 50_000.0, 2.5e6),
            Relation::new("users", 4_000.0, 2e5),
            Relation::new("sessions", 22_000.0, 1.1e6),
        ],
        vec![
            JoinPred {
                left: 0,
                right: 1,
                selectivity: 2e-4,
                key: KeyId(0),
            },
            JoinPred {
                left: 0,
                right: 2,
                selectivity: 4e-5,
                key: KeyId(1),
            },
        ],
        None,
    )?;
    let model = PaperCostModel;
    let memory = Distribution::new([(60.0, 0.3), (250.0, 0.4), (900.0, 0.3)])?;
    let mem_model = MemoryModel::Static(memory);

    // Catalog-style beliefs: each predicate's estimate is trusted only up
    // to a factor (coefficient of variation 1.0).
    for pred in query.predicates() {
        let belief = SelectivityBelief::uncertain(pred.selectivity, 1.0, 3)?;
        println!(
            "predicate k{}: point {:.1e}, belief support {:?}",
            pred.key.0,
            belief.point(),
            belief
                .distribution()
                .values()
                .iter()
                .map(|v| format!("{v:.1e}"))
                .collect::<Vec<_>>()
        );
    }

    let sizes = SizeModel::with_uncertainty(&query, 0.0, 1.0, 3)?;
    let d = alg_d::optimize(
        &query,
        &PaperCostModel,
        &mem_model,
        &sizes,
        AlgDConfig::default(),
    )?
    .0;
    let c = alg_c::optimize(&query, &model, &mem_model)?.0;

    println!(
        "\npoint-estimate (Algorithm C) plan:\n{}",
        c.plan.explain(&query)
    );
    println!(
        "distribution-aware (Algorithm D) plan:\n{}",
        d.best.plan.explain(&query)
    );
    println!(
        "Algorithm D result-size distribution (pages): {}",
        d.result_size
            .iter()
            .map(|(v, p)| format!("{v:.0}@{p:.2}"))
            .collect::<Vec<_>>()
            .join("  ")
    );

    // Exact joint ground truth for both plans.
    let phases = mem_model.table(query.n())?;
    let truth_c = evaluate::expected_cost_joint(&query, &model, &c.plan, &sizes, &phases)?;
    let truth_d = evaluate::expected_cost_joint(&query, &model, &d.best.plan, &sizes, &phases)?;
    println!("\ntrue expected cost (joint enumeration):");
    println!("  Algorithm C plan: {truth_c:.0}");
    println!("  Algorithm D plan: {truth_d:.0}");
    if truth_d < truth_c {
        println!(
            "  modeling selectivity uncertainty saves {:.2}%",
            100.0 * (1.0 - truth_d / truth_c)
        );
    } else {
        println!("  (on this instance the point-estimate plan was already robust)");
    }
    Ok(())
}
