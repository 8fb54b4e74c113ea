//! Algorithm B (§3.3): generate the top-`c` plans per memory bucket, then
//! pick the candidate of least expected cost.
//!
//! A strict superset of Algorithm A's candidates (`c = 1` *is* Algorithm A),
//! so its chosen plan is never worse — and it can find plans that are
//! optimal for no specific memory value but best on average, the case
//! Algorithm A provably misses.

use crate::dp::Optimized;
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::evaluate::expected_cost;
use crate::topc::top_c_plans;
use lec_cost::CostModel;
use lec_plan::JoinQuery;

/// Result of Algorithm B.
#[derive(Debug, Clone)]
pub struct AlgBResult {
    /// The least-expected-cost candidate.
    pub best: Optimized,
    /// Distinct candidate plans evaluated (≤ b·c).
    pub candidates_evaluated: usize,
    /// Frontier-merge combinations examined across all invocations (X4).
    pub combos_examined: u64,
    /// What naive merging would have examined.
    pub combos_naive: u64,
}

/// Runs Algorithm B with `c` plans per bucket, reporting candidate and
/// merge statistics. A winner whose expected cost is not finite is
/// [`CoreError::Plan`] in every build.
pub fn optimize<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &MemoryModel,
    c: usize,
) -> Result<AlgBResult, CoreError> {
    let initial = memory.initial_distribution()?;
    let phases = memory.table(query.n().max(2))?;
    let mut candidates: Vec<Optimized> = Vec::new();
    let mut combos_examined = 0;
    let mut combos_naive = 0;
    for &m_i in initial.values() {
        let res = top_c_plans(query, model, m_i, c)?.0;
        combos_examined += res.combos_examined;
        combos_naive += res.combos_naive;
        for p in res.plans {
            if !candidates.iter().any(|q| q.plan == p.plan) {
                candidates.push(p);
            }
        }
    }
    let n_candidates = candidates.len();
    let best = candidates
        .into_iter()
        .map(|cand| {
            let e = expected_cost(query, model, &cand.plan, &phases);
            Optimized {
                plan: cand.plan,
                cost: e,
            }
        })
        .min_by(|a, b| a.cost.total_cmp(&b.cost))
        .ok_or(CoreError::NoPlanFound)?;
    lec_plan::verify_costs("algorithm B winner", &[best.cost])?;
    crate::verify::debug_verify_plan(query, &best.plan, best.cost);
    Ok(AlgBResult {
        best,
        candidates_evaluated: n_candidates,
        combos_examined,
        combos_naive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{alg_a, alg_c};
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};
    use lec_stats::Distribution;

    fn query(n: usize) -> JoinQuery {
        let relations = (0..n)
            .map(|i| Relation::new(format!("r{i}"), 150.0 * (i + 1) as f64, 1e4))
            .collect();
        let predicates = (0..n - 1)
            .map(|i| JoinPred {
                left: i,
                right: i + 1,
                selectivity: 0.002,
                key: KeyId(i),
            })
            .collect();
        JoinQuery::new(relations, predicates, None).unwrap()
    }

    fn spread_memory() -> MemoryModel {
        MemoryModel::Static(Distribution::new([(12.0, 0.3), (60.0, 0.4), (900.0, 0.3)]).unwrap())
    }

    #[test]
    fn c_equal_1_matches_algorithm_a() {
        let q = query(4);
        let model = PaperCostModel;
        let mem = spread_memory();
        let b = optimize(&q, &model, &mem, 1).unwrap();
        let a = alg_a::optimize(&q, &model, &mem).unwrap();
        assert!((b.best.cost - a.best.cost).abs() < 1e-9 * a.best.cost.max(1.0));
    }

    #[test]
    fn sandwiched_between_a_and_c() {
        let q = query(5);
        let model = PaperCostModel;
        let mem = spread_memory();
        let a = alg_a::optimize(&q, &model, &mem).unwrap();
        let b = optimize(&q, &model, &mem, 4).unwrap();
        let c = alg_c::optimize(&q, &model, &mem).unwrap().0;
        assert!(c.cost <= b.best.cost + 1e-9 * c.cost);
        assert!(b.best.cost <= a.best.cost + 1e-9 * a.best.cost);
        assert!(b.candidates_evaluated >= 3, "expected several candidates");
    }

    #[test]
    fn larger_c_never_hurts() {
        let q = query(4);
        let model = PaperCostModel;
        let mem = spread_memory();
        let mut last = f64::INFINITY;
        for c in [1, 2, 4, 8] {
            let b = optimize(&q, &model, &mem, c).unwrap();
            assert!(b.best.cost <= last + 1e-9 * last.clamp(1.0, 1e12));
            last = b.best.cost;
        }
    }

    #[test]
    fn frontier_never_examines_more_than_naive() {
        // With access lists of length ≤ 2 the frontier's savings are small
        // (it prunes pairs (i, k) with (i+1)(k+1) > c, which needs both
        // lists long); savings on full c×c lists are exercised by
        // `topc::frontier_merge` directly.
        let q = query(5);
        let model = PaperCostModel;
        let mem = spread_memory();
        let b = optimize(&q, &model, &mem, 8).unwrap();
        assert!(b.combos_examined <= b.combos_naive);
    }

    #[test]
    fn frontier_saves_with_two_access_paths() {
        // Indexed, selective relations give two access paths per relation,
        // so the merge combines lists of length up to 2·c... enough for the
        // frontier to prune.
        let relations: Vec<Relation> = (0..5)
            .map(|i| {
                Relation::new(format!("r{i}"), 400.0 * (i + 1) as f64, 1e4)
                    .with_local_selectivity(0.2)
                    .with_index()
            })
            .collect();
        let predicates = (0..4)
            .map(|i| JoinPred {
                left: i,
                right: i + 1,
                selectivity: 0.002,
                key: KeyId(i),
            })
            .collect();
        let q = JoinQuery::new(relations, predicates, None).unwrap();
        let b = optimize(&q, &PaperCostModel, &spread_memory(), 8).unwrap();
        assert!(b.combos_examined < b.combos_naive);
    }
}
