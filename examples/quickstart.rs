//! Quickstart: optimize a join query under memory uncertainty.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a three-way join, describes the uncertain buffer memory as a
//! bucketed distribution, and compares the traditional (LSC) plan against
//! the least-expected-cost (LEC) plan of Algorithm C.

use lecopt::core::{alg_c, evaluate, lsc, MemoryModel};
use lecopt::cost::PaperCostModel;
use lecopt::plan::{JoinPred, JoinQuery, KeyId, Relation};
use lecopt::stats::Distribution;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A query: orders ⋈ lineitem ⋈ customer, result ordered by the
    // customer join key.
    let query = JoinQuery::new(
        vec![
            Relation::new("orders", 30_000.0, 1.5e6),
            Relation::new("lineitem", 120_000.0, 6e6),
            Relation::new("customer", 3_000.0, 1.5e5),
        ],
        vec![
            JoinPred {
                left: 0,
                right: 1,
                selectivity: 2e-5,
                key: KeyId(0),
            },
            JoinPred {
                left: 0,
                right: 2,
                selectivity: 3e-4,
                key: KeyId(1),
            },
        ],
        Some(KeyId(1)),
    )?;

    // What the DBMS observed about its buffer pool: usually roomy,
    // sometimes starved.
    // The low mode sits between √30000 ≈ 173 (where the hash join is
    // still fine) and √120000 ≈ 346 (where sort-merge needs extra passes):
    // exactly the discontinuity structure that separates LEC from LSC.
    let memory = Distribution::new([(200.0, 0.35), (1200.0, 0.65)])?;
    let model = PaperCostModel;

    // The traditional optimizer summarizes the distribution by its mean.
    let lsc_plan = lsc::optimize_at(&query, &model, memory.mean())?.0;
    println!("LSC plan (optimized for M = {:.0} pages):", memory.mean());
    println!("{}", lsc_plan.plan.explain(&query));

    // Algorithm C optimizes the expectation directly.
    let mem_model = MemoryModel::Static(memory);
    let lec_plan = alg_c::optimize(&query, &model, &mem_model)?.0;
    println!("LEC plan (Algorithm C):");
    println!("{}", lec_plan.plan.explain(&query));

    // Score both under the full distribution.
    let phases = mem_model.table(query.n())?;
    let lsc_expected = evaluate::expected_cost(&query, &model, &lsc_plan.plan, &phases);
    println!("expected cost of LSC plan: {lsc_expected:.0} page units");
    println!("expected cost of LEC plan: {:.0} page units", lec_plan.cost);
    println!(
        "LEC advantage: {:.2}% cheaper on average",
        100.0 * (1.0 - lec_plan.cost / lsc_expected)
    );
    Ok(())
}
