//! Dynamic memory (§3.5): the buffer pool changes *while the query runs*.
//!
//! ```text
//! cargo run --example dynamic_memory
//! ```
//!
//! A long five-way join runs on a busy system: between join phases,
//! concurrent queries start and finish, so memory random-walks a ladder.
//! Algorithm C handles this exactly by evolving the memory distribution
//! with the Markov chain — one distribution per dag depth.

use lecopt::core::{alg_c, evaluate, lsc, MemoryModel};
use lecopt::cost::PaperCostModel;
use lecopt::workload::envs;
use lecopt::workload::queries::{QueryGen, Topology};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let query = QueryGen {
        topology: Topology::Chain,
        n: 5,
        ..QueryGen::default()
    }
    .generate(&mut rand_chacha::ChaCha8Rng::seed_from_u64(42));
    let model = PaperCostModel;

    // Memory ladder 12, 24, 48, ..., 768 pages; the walk starts low (the
    // system is busy when the query is admitted).
    let chain = envs::markov_ladder(12.0, 7, 0.6);
    let mut initial = vec![0.0; 7];
    initial[1] = 1.0;
    let dynamic = MemoryModel::dynamic(chain, initial)?;

    // Show the marginal memory distribution per phase.
    let phases = dynamic.table(query.n())?;
    println!("per-phase memory marginals (mean pages):");
    for k in 0..query.n() {
        println!("  phase {k}: mean {:.0}", phases.at(k).mean());
    }

    // Three optimizers, all scored under the true dynamics.
    let lec_dynamic = alg_c::optimize(&query, &model, &dynamic)?.0;
    let initial_dist = dynamic.initial_distribution()?;
    let lec_static = alg_c::optimize(&query, &model, &MemoryModel::Static(initial_dist.clone()))?.0;
    let lsc_plan = lsc::optimize_at(&query, &model, initial_dist.mean())?.0;

    let score = |plan| evaluate::expected_cost(&query, &model, plan, &phases);
    println!("\nexpected cost under the true dynamics:");
    println!("  LEC, dynamic-aware (Thm 3.4): {:.0}", lec_dynamic.cost);
    println!(
        "  LEC, static assumption:       {:.0}",
        score(&lec_static.plan)
    );
    println!(
        "  LSC at initial mean:          {:.0}",
        score(&lsc_plan.plan)
    );

    println!(
        "\ndynamic-aware plan:\n{}",
        lec_dynamic.plan.explain(&query)
    );
    Ok(())
}
