//! The least-specific-cost (LSC) baseline: System R dynamic programming at
//! one fixed parameter value (§2.2, Theorem 2.1).
//!
//! "Current optimizers simply approximate each distribution by using the
//! mean or modal value" (§1) — [`optimize_at`] at `dist.mean()` or
//! `dist.mode()` is exactly those two baselines.

use crate::alg_c;
use crate::dp::Optimized;
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::stats::OptStats;
use lec_cost::CostModel;
use lec_plan::JoinQuery;
use lec_stats::Distribution;

/// The LSC left-deep plan for a specific memory value (Theorem 2.1), with
/// its search-space [`OptStats`]. It is Algorithm C under the one-point
/// distribution at `memory`: each step's expectation `0 + (formula + out)
/// · 1` is the step priced at `memory`, bit for bit.
pub fn optimize_at<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: f64,
) -> Result<(Optimized, OptStats), CoreError> {
    if !(memory.is_finite() && memory > 0.0) {
        return Err(CoreError::BadParameter(format!(
            "memory must be positive, got {memory}"
        )));
    }
    let point = MemoryModel::Static(Distribution::point(memory)?);
    let (best, mut stats) = alg_c::optimize(query, model, &point)?;
    stats.algorithm = "lsc";
    Ok((best, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::plan_cost_at;
    use crate::exhaustive;
    use lec_cost::{JoinMethod, PaperCostModel};
    use lec_plan::{JoinPred, KeyId, Plan, Relation};

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
    fn lsc_picks_plan1_at_high_memory() {
        // At the mode (2000) and the mean (1740) the sort-merge plan wins —
        // the trap Example 1.1 sets for traditional optimizers.
        let q = example_1_1();
        for memory in [2000.0, 1740.0] {
            let (opt, _) = optimize_at(&q, &PaperCostModel, memory).unwrap();
            match &opt.plan {
                Plan::Join { method, .. } => assert_eq!(*method, JoinMethod::SortMerge),
                other => panic!("expected a bare SM join, got:\n{}", other.explain(&q)),
            }
        }
    }

    #[test]
    fn lsc_picks_plan2_at_low_memory() {
        let q = example_1_1();
        let (opt, _) = optimize_at(&q, &PaperCostModel, 700.0).unwrap();
        // Grace hash + sort is cheaper when SM would need an extra pass.
        match &opt.plan {
            Plan::Sort { input, .. } => match &**input {
                Plan::Join { method, .. } => assert_eq!(*method, JoinMethod::GraceHash),
                other => panic!("expected hash join under sort, got {other:?}"),
            },
            other => panic!("expected sort at root, got:\n{}", other.explain(&q)),
        }
    }

    #[test]
    fn theorem_2_1_lsc_is_optimal_among_left_deep_plans() {
        // Exhaustive check over all left-deep plans for a 4-relation chain.
        let relations = vec![
            Relation::new("a", 3000.0, 3e4),
            Relation::new("b", 500.0, 5e3),
            Relation::new("c", 8000.0, 8e4),
            Relation::new("d", 1200.0, 1.2e4),
        ];
        let predicates = vec![
            JoinPred {
                left: 0,
                right: 1,
                selectivity: 1e-3,
                key: KeyId(0),
            },
            JoinPred {
                left: 1,
                right: 2,
                selectivity: 1e-4,
                key: KeyId(1),
            },
            JoinPred {
                left: 2,
                right: 3,
                selectivity: 1e-3,
                key: KeyId(2),
            },
        ];
        let q = JoinQuery::new(relations, predicates, Some(KeyId(2))).unwrap();
        let model = PaperCostModel;
        for memory in [10.0, 100.0, 1000.0] {
            let (opt, _) = optimize_at(&q, &model, memory).unwrap();
            let mut best = f64::INFINITY;
            for plan in exhaustive::enumerate_left_deep(&q) {
                best = best.min(plan_cost_at(&q, &model, &plan, memory));
            }
            assert!(
                (opt.cost - best).abs() <= 1e-6 * best.max(1.0),
                "memory {memory}: DP found {}, exhaustive found {best}",
                opt.cost
            );
        }
    }

    #[test]
    fn rejects_nonpositive_memory() {
        let q = example_1_1();
        assert!(optimize_at(&q, &PaperCostModel, 0.0).is_err());
        assert!(optimize_at(&q, &PaperCostModel, f64::NAN).is_err());
    }
}
