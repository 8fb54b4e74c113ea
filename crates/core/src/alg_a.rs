//! Algorithm A (§3.2): the standard optimizer as a black box.
//!
//! For each memory bucket representative `m_i`, run the LSC optimizer
//! pretending `m_i` is the true memory; then cost every candidate in
//! expectation and keep the cheapest. Costs `b` optimizer invocations and
//! is guaranteed no worse than the traditional (mean/mode) choice whenever
//! the summarized value is among the representatives — but it can miss the
//! true LEC plan, because a plan optimal for *no* specific `m_i` can still
//! be best on average (§3.2's closing caveat; Algorithm B and C exist to
//! close that gap).

use crate::dp::Optimized;
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::evaluate::expected_cost;
use crate::lsc;
use lec_cost::CostModel;
use lec_plan::JoinQuery;

/// A candidate produced by one black-box invocation.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The memory representative the LSC optimizer was run with.
    pub assumed_memory: f64,
    /// The plan it produced.
    pub optimized: Optimized,
    /// That plan's expected cost under the full distribution.
    pub expected_cost: f64,
}

/// Result of Algorithm A: the winner plus every candidate considered
/// (useful to the experiments).
#[derive(Debug, Clone)]
pub struct AlgAResult {
    /// The least-expected-cost candidate.
    pub best: Optimized,
    /// All candidates, one per memory bucket, in bucket order.
    pub candidates: Vec<Candidate>,
}

/// Runs Algorithm A. The candidate set is one LSC plan per support point of
/// the phase-0 memory distribution; candidates are compared by expected
/// cost under the (possibly dynamic) memory model.
pub fn optimize<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &MemoryModel,
) -> Result<AlgAResult, CoreError> {
    let initial = memory.initial_distribution()?;
    let phases = memory.table(query.n().max(2))?;
    let mut candidates = Vec::with_capacity(initial.len());
    for &m_i in initial.values() {
        let optimized = lsc::optimize_at(query, model, m_i)?.0;
        let e = expected_cost(query, model, &optimized.plan, &phases);
        candidates.push(Candidate {
            assumed_memory: m_i,
            optimized,
            expected_cost: e,
        });
    }
    let best = candidates
        .iter()
        .min_by(|a, b| a.expected_cost.total_cmp(&b.expected_cost))
        .ok_or(CoreError::NoPlanFound)?;
    let best = Optimized {
        plan: best.optimized.plan.clone(),
        cost: best.expected_cost,
    };
    crate::verify::debug_verify_plan(query, &best.plan, best.cost);
    Ok(AlgAResult { best, candidates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg_c;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};
    use lec_stats::Distribution;

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

    #[test]
    fn algorithm_a_finds_plan2_on_example_1_1() {
        // With buckets at 700 and 2000, the 700-bucket invocation produces
        // Plan 2, which wins in expectation — Algorithm A succeeds here.
        let q = example_1_1();
        let model = PaperCostModel;
        let mem = MemoryModel::Static(Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).unwrap());
        let res = optimize(&q, &model, &mem).unwrap();
        assert_eq!(res.candidates.len(), 2);
        let lec = alg_c::optimize(&q, &model, &mem).unwrap().0;
        assert_eq!(res.best.plan, lec.plan);
        assert!((res.best.cost - lec.cost).abs() < 1e-6);
    }

    #[test]
    fn candidates_are_one_per_bucket_and_best_is_min() {
        let q = example_1_1();
        let model = PaperCostModel;
        let dist =
            Distribution::new([(500.0, 0.2), (700.0, 0.2), (1500.0, 0.3), (2500.0, 0.3)]).unwrap();
        let mem = MemoryModel::Static(dist);
        let res = optimize(&q, &model, &mem).unwrap();
        assert_eq!(res.candidates.len(), 4);
        let min = res
            .candidates
            .iter()
            .map(|c| c.expected_cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(res.best.cost, min);
    }

    #[test]
    fn algorithm_a_can_miss_the_lec_plan() {
        // §3.2's caveat made concrete: "It is conceivable that a plan not
        // optimal for any m_i actually does better on average than any
        // candidate considered". On this instance (found by search over
        // random chain queries) Algorithm A is strictly suboptimal while
        // Algorithm C — and Algorithm B with c = 3 — find the true LEC plan.
        let q = JoinQuery::new(
            vec![
                Relation::new("r0", 587.0, 37_568.0),
                Relation::new("r1", 93.0, 5_952.0),
                Relation::new("r2", 767.0, 49_088.0),
            ],
            vec![
                JoinPred {
                    left: 0,
                    right: 1,
                    selectivity: 0.0034071550255536627,
                    key: KeyId(0),
                },
                JoinPred {
                    left: 1,
                    right: 2,
                    selectivity: 0.002607561929595828,
                    key: KeyId(1),
                },
            ],
            Some(KeyId(1)),
        )
        .unwrap();
        // Five geometric memory levels between 20 and 1500 pages.
        let b = 5;
        let step = (1500.0f64 / 20.0).powf(1.0 / (b as f64 - 1.0));
        let mem = MemoryModel::Static(
            Distribution::new((0..b).map(|i| (20.0 * step.powi(i), 1.0 / b as f64))).unwrap(),
        );
        let model = PaperCostModel;
        let a = optimize(&q, &model, &mem).unwrap();
        let c = alg_c::optimize(&q, &model, &mem).unwrap().0;
        let b3 = crate::alg_b::optimize(&q, &model, &mem, 3).unwrap();
        assert!(
            a.best.cost > c.cost * 1.0001,
            "expected a strict gap: A {} vs C {}",
            a.best.cost,
            c.cost
        );
        assert!(
            (b3.best.cost - c.cost).abs() <= 1e-9 * c.cost,
            "Algorithm B (c=3) should recover the LEC plan: {} vs {}",
            b3.best.cost,
            c.cost
        );
        // And no Algorithm A candidate equals the LEC plan.
        assert!(a
            .candidates
            .iter()
            .all(|cand| cand.optimized.plan != c.plan));
    }

    #[test]
    fn never_worse_than_lec_is_false_but_never_worse_than_lsc_is_true() {
        // Algorithm A is sandwiched: LEC cost ≤ A's cost ≤ expected cost of
        // the LSC(mode)/LSC(mean) plans (which are candidates whenever the
        // summary value is a bucket representative — mode always is).
        let q = example_1_1();
        let model = PaperCostModel;
        let dist = Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).unwrap();
        let mem = MemoryModel::Static(dist);
        let res = optimize(&q, &model, &mem).unwrap();
        let lec = alg_c::optimize(&q, &model, &mem).unwrap().0;
        assert!(lec.cost <= res.best.cost + 1e-9);
        let mode_candidate = res
            .candidates
            .iter()
            .find(|c| c.assumed_memory == 2000.0)
            .unwrap();
        assert!(res.best.cost <= mode_candidate.expected_cost);
    }
}
