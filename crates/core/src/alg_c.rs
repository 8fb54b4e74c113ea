//! Algorithm C (§3.4–3.5): dynamic programming directly on expected cost.
//!
//! This is the paper's exact LEC optimizer. It is the System R DP with one
//! change: each join step is priced at its *expected* cost over the memory
//! distribution in effect during that step's phase ("this computation
//! requires b evaluations of the cost formula"). Theorem 3.3 shows the
//! result is the LEC left-deep plan; Theorem 3.4 extends it to dynamically
//! varying memory, where the phase distributions come from evolving the
//! initial distribution along the Markov chain — exactly what
//! [`MemoryModel::table`] computes.
//!
//! Like every instantiation of the generic left-deep DP, the winning plan
//! passes through the plan-IR verifier in debug builds (`dp::finalize`
//! calls [`crate::verify::debug_verify_plan`]); this module adds no hook of
//! its own.

use crate::dp::{optimize_left_deep, ExpectedCoster, Optimized};
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::precompute::QueryTables;
use crate::stats::OptStats;
use lec_cost::CostModel;
use lec_plan::JoinQuery;

/// Computes the LEC left-deep plan (Theorems 3.3 / 3.4) together with its
/// search-space [`OptStats`].
///
/// # Examples
///
/// ```
/// use lec_core::{alg_c, MemoryModel};
/// use lec_cost::PaperCostModel;
/// use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
/// use lec_stats::Distribution;
///
/// let query = JoinQuery::new(
///     vec![
///         Relation::new("a", 5_000.0, 2.5e5),
///         Relation::new("b", 800.0, 4e4),
///     ],
///     vec![JoinPred { left: 0, right: 1, selectivity: 1e-4, key: KeyId(0) }],
///     None,
/// )?;
/// let memory = MemoryModel::Static(Distribution::new([(30.0, 0.4), (300.0, 0.6)])?);
/// let (lec, stats) = alg_c::optimize(&query, &PaperCostModel, &memory)?;
/// println!("{}", lec.plan.explain(&query));
/// assert!(lec.cost > 0.0);
/// assert_eq!(stats.algorithm, "alg_c");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &MemoryModel,
) -> Result<(Optimized, OptStats), CoreError> {
    // Phases: n-1 joins plus a possible root sort.
    let phases = memory.table(query.n().max(2))?;
    let coster = ExpectedCoster::new(model, &phases);
    let tabs = QueryTables::new(query);
    let (best, mut stats) = optimize_left_deep(query, &tabs, &coster)?;
    stats.algorithm = "alg_c";
    Ok((best, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::expected_cost;
    use crate::exhaustive;
    use crate::lsc;
    use lec_cost::{CountingModel, JoinMethod, PaperCostModel};
    use lec_plan::{JoinPred, KeyId, Plan, Relation};
    use lec_stats::{Distribution, MarkovChain};

    fn example_1_1() -> JoinQuery {
        JoinQuery::new(
            vec![
                Relation::new("A", 1_000_000.0, 5e7),
                Relation::new("B", 400_000.0, 2e7),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 3000.0 / 4e11,
                key: KeyId(0),
            }],
            Some(KeyId(0)),
        )
        .unwrap()
    }

    fn bimodal() -> Distribution {
        Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).unwrap()
    }

    fn chain_query(n: usize) -> JoinQuery {
        let relations = (0..n)
            .map(|i| Relation::new(format!("r{i}"), 200.0 * (i + 1) as f64, 1e4))
            .collect();
        let predicates = (0..n - 1)
            .map(|i| JoinPred {
                left: i,
                right: i + 1,
                selectivity: 0.002,
                key: KeyId(i),
            })
            .collect();
        JoinQuery::new(relations, predicates, Some(KeyId(n - 2))).unwrap()
    }

    #[test]
    fn example_1_1_lec_chooses_plan2_while_lsc_chooses_plan1() {
        let q = example_1_1();
        let model = PaperCostModel;
        let mem = MemoryModel::Static(bimodal());

        let lec = optimize(&q, &model, &mem).unwrap().0;
        // LEC: Grace hash + explicit sort.
        match &lec.plan {
            Plan::Sort { input, .. } => match &**input {
                Plan::Join { method, .. } => assert_eq!(*method, JoinMethod::GraceHash),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("expected sort root, got:\n{}", other.explain(&q)),
        }
        assert!((lec.cost - 2_812_000.0).abs() < 1.0);

        // LSC at the mode picks the sort-merge plan, which is worse in
        // expectation — the paper's headline comparison.
        let lsc_plan = lsc::optimize_at(&q, &model, bimodal().mode()).unwrap().0;
        let phases = mem.table(2).unwrap();
        let lsc_expected = expected_cost(&q, &model, &lsc_plan.plan, &phases);
        assert!(lec.cost < lsc_expected);
        assert!((lsc_expected - 3_363_000.0).abs() < 1.0);
    }

    #[test]
    fn one_bucket_reduces_to_lsc() {
        // "the algorithm with one bucket reduces to the standard System R
        // algorithm" (§3.7).
        let q = chain_query(5);
        let model = PaperCostModel;
        for mem in [40.0, 400.0, 4000.0] {
            let lec = optimize(
                &q,
                &model,
                &MemoryModel::Static(Distribution::point(mem).unwrap()),
            )
            .unwrap()
            .0;
            let lsc = lsc::optimize_at(&q, &model, mem).unwrap().0;
            assert_eq!(lec.plan, lsc.plan);
            assert!((lec.cost - lsc.cost).abs() < 1e-9 * lsc.cost.max(1.0));
        }
    }

    #[test]
    fn theorem_3_3_matches_exhaustive_static() {
        let q = chain_query(4);
        let model = PaperCostModel;
        let dist = Distribution::new([(30.0, 0.3), (150.0, 0.4), (900.0, 0.3)]).unwrap();
        let mem = MemoryModel::Static(dist);
        let lec = optimize(&q, &model, &mem).unwrap().0;
        let phases = mem.table(q.n()).unwrap();
        let truth = exhaustive::exhaustive_lec(&q, &model, &phases).unwrap().0;
        assert!(
            (lec.cost - truth.cost).abs() <= 1e-6 * truth.cost.max(1.0),
            "DP {} vs exhaustive {}",
            lec.cost,
            truth.cost
        );
    }

    #[test]
    fn theorem_3_4_matches_exhaustive_dynamic() {
        let q = chain_query(4);
        let model = PaperCostModel;
        let chain = MarkovChain::random_walk(vec![25.0, 120.0, 800.0], 0.7).unwrap();
        let mem = MemoryModel::dynamic(chain, vec![0.2, 0.5, 0.3]).unwrap();
        let lec = optimize(&q, &model, &mem).unwrap().0;
        let phases = mem.table(q.n()).unwrap();
        let truth = exhaustive::exhaustive_lec(&q, &model, &phases).unwrap().0;
        assert!(
            (lec.cost - truth.cost).abs() <= 1e-6 * truth.cost.max(1.0),
            "DP {} vs exhaustive {}",
            lec.cost,
            truth.cost
        );
    }

    #[test]
    fn work_scales_linearly_in_buckets() {
        // §3.4: "the cost of the computation is b times the cost of the
        // standard computation using a single memory size" — measured in
        // cost-formula evaluations.
        let q = chain_query(5);
        let evals_for = |b: usize| {
            let model = CountingModel::new(PaperCostModel);
            let values: Vec<(f64, f64)> = (0..b)
                .map(|i| (50.0 * (i + 1) as f64, 1.0 / b as f64))
                .collect();
            let mem = MemoryModel::Static(Distribution::new(values).unwrap());
            optimize(&q, &model, &mem).unwrap();
            model.evaluations()
        };
        let e1 = evals_for(1);
        let e4 = evals_for(4);
        let e8 = evals_for(8);
        assert_eq!(e4, 4 * e1);
        assert_eq!(e8, 8 * e1);
    }

    #[test]
    fn lec_expected_cost_never_above_lsc_choices() {
        // The contribution-1 guarantee: LEC ≤ LSC(mean), LSC(mode), and any
        // other specific value, measured in expected cost.
        let q = chain_query(4);
        let model = PaperCostModel;
        let dist = Distribution::new([(20.0, 0.25), (90.0, 0.5), (2500.0, 0.25)]).unwrap();
        let mem = MemoryModel::Static(dist.clone());
        let phases = mem.table(q.n()).unwrap();
        let lec = optimize(&q, &model, &mem).unwrap().0;
        for candidate in [
            lsc::optimize_at(&q, &model, dist.mean()).unwrap().0,
            lsc::optimize_at(&q, &model, dist.mode()).unwrap().0,
            lsc::optimize_at(&q, &model, 20.0).unwrap().0,
            lsc::optimize_at(&q, &model, 2500.0).unwrap().0,
        ] {
            let e = expected_cost(&q, &model, &candidate.plan, &phases);
            assert!(lec.cost <= e + 1e-9 * e.max(1.0));
        }
    }
}
