//! Top-`c` plan enumeration per parameter setting (§3.3).
//!
//! The System R DP is modified to retain the `c` best left-deep plans at
//! every dag node instead of one. When combining the top-`c` subplans for
//! `S_j` with the (cost-sorted) access paths for `A_j` under one join
//! method, the join-step cost is the same for every combination — "all the
//! c variants of each input have the very same properties" — so only the
//! *sum of input costs* differentiates combinations, and Proposition 3.1
//! shows the top `c` sums lie on the frontier `i·k ≤ c` of the sorted×sorted
//! grid: at most `c + c·ln c` combinations need examining instead of `c²`.
//!
//! [`top_c_plans`] is the left-deep DP ([`crate::dp`]) keeping the top `c`
//! per subset. It records how many combinations each merge examined, and
//! how many an all-pairs merge would, so that experiment X4 can compare
//! the measured count against the bound.

use crate::dp::{sweep_lists, ListKeep, Optimized};
use crate::error::CoreError;
use crate::stats::OptStats;
use lec_cost::CostModel;
use lec_plan::JoinQuery;

/// Result of the top-`c` search at one fixed memory value.
#[derive(Debug, Clone)]
pub struct TopCResult {
    /// Up to `c` best full-query plans, sorted by cost (plans that violate a
    /// required order are completed with a root sort).
    pub plans: Vec<Optimized>,
    /// Total `(subplan, access)` combinations examined across all merges.
    pub combos_examined: u64,
    /// What merging every pair would have examined.
    pub combos_naive: u64,
}

/// Computes the top-`c` left-deep plans for one fixed memory value
/// (Theorem 3.2: roughly a constant factor over the single-plan DP), with
/// the search-space [`OptStats`]: `candidates_priced` equals the merge's
/// `combos_examined`, and `entries_written` counts the list entries
/// actually kept per node. A returned plan whose cost is not finite is
/// [`CoreError::Plan`] in every build.
pub fn top_c_plans<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: f64,
    c: usize,
) -> Result<(TopCResult, OptStats), CoreError> {
    if c == 0 {
        return Err(CoreError::BadParameter("top-c needs c >= 1".into()));
    }
    if !(memory.is_finite() && memory > 0.0) {
        return Err(CoreError::BadParameter(format!("bad memory {memory}")));
    }
    let (roots, combos_naive, stats) = sweep_lists(query, model, &[memory], ListKeep::TopC(c))?;
    let plans = roots
        .into_iter()
        .map(|(plan, profile)| {
            let cost = profile.first().copied().ok_or(CoreError::NoPlanFound)?;
            lec_plan::verify_costs("top-c plan", &[cost])?;
            crate::verify::debug_verify_plan(query, &plan, cost);
            Ok(Optimized { plan, cost })
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    if plans.is_empty() {
        return Err(CoreError::NoPlanFound);
    }
    let result = TopCResult {
        plans,
        combos_examined: stats.counters.candidates_priced,
        combos_naive,
    };
    Ok((result, stats))
}

/// Proposition 3.1's bound on combinations per merge: `c + c·ln c`.
pub fn frontier_bound(c: usize) -> f64 {
    let cf = c as f64;
    cf + cf * cf.ln().max(0.0)
}

/// The Proposition 3.1 frontier merge on bare cost lists: given two
/// cost-sorted lists, returns the `c` smallest pairwise sums and the number
/// of combinations examined. Only pairs on the frontier `i·k ≤ c`
/// (1-indexed) are touched — at most `c + c·ln c` of them — versus the
/// naive `|left|·|right|`.
///
/// This is the primitive experiment X4 measures; the DP above applies it
/// with the access list as the second input.
pub fn frontier_merge(left: &[f64], right: &[f64], c: usize) -> (Vec<f64>, u64) {
    debug_assert!(left.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(right.windows(2).all(|w| w[0] <= w[1]));
    let mut sums = Vec::new();
    let mut examined = 0u64;
    for (k, &r) in right.iter().enumerate() {
        if (k + 1) > c {
            break;
        }
        for (i, &l) in left.iter().enumerate() {
            if (i + 1) * (k + 1) > c {
                break;
            }
            examined += 1;
            sums.push(l + r);
        }
    }
    sums.sort_by(f64::total_cmp);
    sums.truncate(c);
    (sums, examined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::plan_cost_at;
    use crate::exhaustive;
    use crate::lsc;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};

    fn query(n: usize) -> JoinQuery {
        let relations = (0..n)
            .map(|i| Relation::new(format!("r{i}"), 120.0 * (i + 1) as f64, 1e4))
            .collect();
        let predicates = (0..n - 1)
            .map(|i| JoinPred {
                left: i,
                right: i + 1,
                selectivity: 0.003,
                key: KeyId(i),
            })
            .collect();
        JoinQuery::new(relations, predicates, None).unwrap()
    }

    #[test]
    fn top_1_matches_lsc() {
        let q = query(4);
        let model = PaperCostModel;
        for memory in [15.0, 80.0, 600.0] {
            let top = top_c_plans(&q, &model, memory, 1).unwrap().0;
            let (single, _) = lsc::optimize_at(&q, &model, memory).unwrap();
            assert_eq!(top.plans.len(), 1);
            assert!((top.plans[0].cost - single.cost).abs() < 1e-9 * single.cost.max(1.0));
        }
    }

    #[test]
    fn costs_are_sorted_and_match_evaluator() {
        let q = query(4);
        let model = PaperCostModel;
        let memory = 90.0;
        let top = top_c_plans(&q, &model, memory, 5).unwrap().0;
        assert!(top.plans.windows(2).all(|w| w[0].cost <= w[1].cost));
        for p in &top.plans {
            p.plan.validate(&q).unwrap();
            let evaluated = plan_cost_at(&q, &model, &p.plan, memory);
            assert!(
                (p.cost - evaluated).abs() < 1e-6 * evaluated.max(1.0),
                "top-c cost {} vs evaluator {evaluated}",
                p.cost
            );
        }
    }

    #[test]
    fn frontier_equals_exhaustive_top_c() {
        // Proposition 3.1: the frontier loses nothing. The reference is
        // every left-deep plan priced by the evaluator, sorted.
        let q = query(5);
        let model = PaperCostModel;
        let mut all: Vec<f64> = exhaustive::enumerate_left_deep(&q)
            .iter()
            .map(|p| plan_cost_at(&q, &model, p, 70.0))
            .collect();
        all.sort_by(f64::total_cmp);
        for c in [2, 3, 8] {
            let frontier = top_c_plans(&q, &model, 70.0, c).unwrap().0;
            let fc: Vec<f64> = frontier.plans.iter().map(|p| p.cost).collect();
            assert_eq!(fc.len(), c);
            for (a, b) in fc.iter().zip(&all) {
                assert!(
                    (a - b).abs() < 1e-9 * a.max(1.0),
                    "c={c}: {fc:?} vs {all:?}"
                );
            }
            assert!(frontier.combos_examined <= frontier.combos_naive);
        }
    }

    #[test]
    fn top_c_contains_true_kth_best() {
        // Against exhaustive enumeration: the top-c list must equal the c
        // cheapest left-deep plans (by cost value).
        let q = query(3);
        let model = PaperCostModel;
        let memory = 45.0;
        let c = 4;
        let top = top_c_plans(&q, &model, memory, c).unwrap().0;
        let mut all: Vec<f64> = exhaustive::enumerate_left_deep(&q)
            .iter()
            .map(|p| plan_cost_at(&q, &model, p, memory))
            .collect();
        all.sort_by(f64::total_cmp);
        for (i, p) in top.plans.iter().enumerate() {
            assert!(
                (p.cost - all[i]).abs() < 1e-9 * all[i].max(1.0),
                "rank {i}: {} vs {}",
                p.cost,
                all[i]
            );
        }
    }

    #[test]
    fn top_1_matches_lsc_with_required_order() {
        // Regression: the ordered candidate pool must let a final SM-on-key
        // plan win even when it is outside the unordered top-c.
        let q = JoinQuery::new(
            vec![
                Relation::new("a", 5_000.0, 5e4),
                Relation::new("b", 900.0, 9e3),
                Relation::new("c", 20_000.0, 2e5),
            ],
            vec![
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
            ],
            Some(KeyId(1)),
        )
        .unwrap();
        let model = PaperCostModel;
        for memory in [12.0, 95.0, 800.0, 6000.0] {
            let top = top_c_plans(&q, &model, memory, 1).unwrap().0;
            let (single, _) = lsc::optimize_at(&q, &model, memory).unwrap();
            assert!(
                (top.plans[0].cost - single.cost).abs() < 1e-9 * single.cost.max(1.0),
                "M={memory}: top-1 {} vs LSC {}",
                top.plans[0].cost,
                single.cost
            );
        }
    }

    #[test]
    fn ordered_query_tops_satisfy_order() {
        let mut preds = vec![JoinPred {
            left: 0,
            right: 1,
            selectivity: 0.003,
            key: KeyId(0),
        }];
        preds.push(JoinPred {
            left: 1,
            right: 2,
            selectivity: 0.003,
            key: KeyId(1),
        });
        let q = JoinQuery::new(
            vec![
                Relation::new("a", 100.0, 1e3),
                Relation::new("b", 300.0, 3e3),
                Relation::new("c", 200.0, 2e3),
            ],
            preds,
            Some(KeyId(1)),
        )
        .unwrap();
        let top = top_c_plans(&q, &PaperCostModel, 40.0, 6).unwrap().0;
        for p in &top.plans {
            assert_eq!(p.plan.output_order(), Some(KeyId(1)));
        }
    }

    #[test]
    fn stats_track_combo_counters() {
        let q = query(6);
        let model = PaperCostModel;
        let (serial, sstats) = top_c_plans(&q, &model, 70.0, 4).unwrap();
        assert_eq!(sstats.counters.candidates_priced, serial.combos_examined);
        assert_eq!(sstats.counters.masks_expanded, (1 << 6) - 1 - 6);
        assert!(sstats.counters.entries_written > 0);
    }

    #[test]
    fn rejects_bad_parameters() {
        let q = query(3);
        assert!(top_c_plans(&q, &PaperCostModel, 50.0, 0).is_err());
        assert!(top_c_plans(&q, &PaperCostModel, -5.0, 2).is_err());
    }

    #[test]
    fn frontier_bound_formula() {
        assert_eq!(frontier_bound(1), 1.0);
        assert!((frontier_bound(8) - (8.0 + 8.0 * 8f64.ln())).abs() < 1e-12);
    }

    #[test]
    fn frontier_merge_matches_naive_top_c() {
        // Proposition 3.1 on bare lists: the frontier's top-c sums equal
        // the naive all-pairs top-c, while examining far fewer pairs.
        let left: Vec<f64> = (0..32).map(|i| (i * i) as f64).collect();
        let right: Vec<f64> = (0..32).map(|i| 3.0 * i as f64 + 0.5).collect();
        for c in [1, 4, 8, 16, 32] {
            let (fast, examined) = frontier_merge(&left, &right, c);
            let mut naive: Vec<f64> = left
                .iter()
                .flat_map(|l| right.iter().map(move |r| l + r))
                .collect();
            naive.sort_by(f64::total_cmp);
            naive.truncate(c);
            assert_eq!(fast, naive, "c = {c}");
            assert!(
                examined as f64 <= frontier_bound(c) + 1e-9,
                "c = {c}: {examined}"
            );
            if c >= 4 {
                assert!(examined < (left.len() * right.len()) as u64);
            }
        }
    }
}
