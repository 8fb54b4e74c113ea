//! Beyond expected cost: risk-sensitive plan selection (the PODS 2002
//! "what can we expect?" question).
//!
//! ```text
//! cargo run --example risk_averse
//! ```
//!
//! A report query runs nightly with a hard deadline: the average cost is
//! not the objective, the tail is. This example picks plans under four
//! objectives and prints each plan's full cost distribution.

use lecopt::core::pareto;
use lecopt::cost::PaperCostModel;
use lecopt::plan::{JoinPred, JoinQuery, KeyId, Relation};
use lecopt::stats::{Distribution, Utility};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let query = JoinQuery::new(
        vec![
            Relation::new("facts", 80_000.0, 4e6),
            Relation::new("dim_a", 900.0, 4.5e4),
            Relation::new("dim_b", 14_000.0, 7e5),
            Relation::new("dim_c", 2_500.0, 1.25e5),
        ],
        vec![
            JoinPred {
                left: 0,
                right: 1,
                selectivity: 1e-3,
                key: KeyId(0),
            },
            JoinPred {
                left: 0,
                right: 2,
                selectivity: 5e-5,
                key: KeyId(1),
            },
            JoinPred {
                left: 0,
                right: 3,
                selectivity: 4e-4,
                key: KeyId(2),
            },
        ],
        None,
    )?;
    let model = PaperCostModel;
    // Nightly memory is erratic: five levels from starved to roomy.
    let memory = Distribution::new([
        (40.0, 0.10),
        (150.0, 0.20),
        (500.0, 0.30),
        (1500.0, 0.25),
        (5000.0, 0.15),
    ])?;

    // A deadline: the 70th-percentile cost of the risk-neutral optimum.
    let neutral = pareto::optimize(&query, &model, &memory, &Utility::Linear)?.0;
    let deadline = neutral.cost_distribution.quantile(0.7)?;
    println!("deadline set at {deadline:.0} page units\n");

    let objectives = [
        ("risk-neutral (LEC)", Utility::Linear),
        (
            "risk-averse exp(1e-5)",
            Utility::Exponential { gamma: 1e-5 },
        ),
        (
            "risk-averse exp(1e-4)",
            Utility::Exponential { gamma: 1e-4 },
        ),
        (
            "deadline-driven",
            Utility::Deadline {
                threshold: deadline,
            },
        ),
    ];
    for (name, u) in objectives {
        let r = pareto::optimize(&query, &model, &memory, &u)?.0;
        let d = &r.cost_distribution;
        println!("{name}:");
        println!(
            "  mean {:.0}  p95 {:.0}  worst {:.0}  Pr(miss deadline) {:.3}",
            d.mean(),
            d.quantile(0.95)?,
            d.max(),
            1.0 - d.cdf(deadline)
        );
        println!(
            "  cost distribution: {}",
            d.iter()
                .map(|(v, p)| format!("{v:.0}@{p:.2}"))
                .collect::<Vec<_>>()
                .join("  ")
        );
        println!("  plan:\n{}", indent(&r.best.plan.explain(&query)));
    }
    Ok(())
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}\n")).collect()
}
