//! Shared fixtures: the queries and environments the experiments and the
//! Criterion benches both use, and the truth repricing the serving
//! experiments score their served plans with.

use lec_catalog::Catalog;
use lec_core::{alg_c, expected_cost, MemoryModel};
use lec_cost::PaperCostModel;
use lec_plan::{JoinQuery, Plan};
use lec_serve::QueryRequest;
use lec_stats::Distribution;
use lec_workload::from_catalog::query_from_catalog;
use lec_workload::queries::{QueryGen, Topology};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The fixed master seed for all experiments (reproducibility).
pub const SEED: u64 = 0x1EC0;

/// A deterministic chain query with `n` relations.
pub fn chain_query(n: usize, seed: u64) -> JoinQuery {
    QueryGen {
        topology: Topology::Chain,
        n,
        ..QueryGen::default()
    }
    .generate(&mut ChaCha8Rng::seed_from_u64(seed))
}

/// The spread memory environment used by the scaling experiments.
pub fn spread_memory(buckets: usize) -> Distribution {
    lec_workload::envs::lognormal(400.0, 1.0, buckets)
}

/// Static memory model from a distribution.
pub fn static_mem(d: Distribution) -> MemoryModel {
    MemoryModel::Static(d)
}

/// `request` built against the `truth` catalog's statistics.
fn truth_query(truth: &Catalog, request: &QueryRequest) -> JoinQuery {
    let tables: Vec<&str> = request.tables.iter().map(String::as_str).collect();
    query_from_catalog(truth, &tables, &request.joins, &request.filters, None)
        .expect("truth query builds")
}

/// Expected cost of `plan` for `request`, priced under `truth` statistics
/// and the `observed` memory distribution.
pub fn cost_under_truth(
    truth: &Catalog,
    request: &QueryRequest,
    plan: &Plan,
    observed: &Distribution,
) -> f64 {
    let q = truth_query(truth, request);
    let phases = MemoryModel::Static(observed.clone())
        .table(q.n().max(2))
        .expect("phase table");
    expected_cost(&q, &PaperCostModel, plan, &phases)
}

/// The truth-informed oracle: the expected cost of a fresh Algorithm C
/// optimization of `request` under `truth` statistics.
pub fn oracle_cost(truth: &Catalog, request: &QueryRequest, observed: &Distribution) -> f64 {
    let q = truth_query(truth, request);
    alg_c::optimize(&q, &PaperCostModel, &MemoryModel::Static(observed.clone()))
        .expect("oracle optimization")
        .0
        .cost
}
