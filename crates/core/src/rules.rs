//! The one objective entry point: certify a selection rule, then run it
//! on the cheapest exact enumerator (DESIGN.md §9).
//!
//! Every objective is a [`SelectionRule`] over per-scenario cost
//! profiles: the paper's expected cost, an expected utility
//! ([`lec_stats::Utility`]), minmax regret, PARQO's penalty rule, CVaR, or
//! a custom rule. [`optimize_with_rule`] runs [`lec_rules::certify`] on it
//! and dispatches on the admission:
//!
//! * [`RuleAdmission::ScalarPruning`] (expected cost, the linear utility)
//!   → Algorithm C ([`alg_c`]), the existing scalar path, so
//!   [`Rule::LeastExpectedCost`](lec_rules::Rule::LeastExpectedCost) is
//!   bit-identical to the expected-cost optimizer by construction (the
//!   differential battery in `tests/rule_equivalence.rs` holds it to
//!   `to_bits` equality);
//! * [`RuleAdmission::FrontierOnly`] (every other shipped rule, the
//!   exponential and deadline utilities) → the Pareto-frontier DP
//!   ([`pareto::optimize`]), which scores the root frontier with the rule.
//!
//! Frontier finalization is *exact* for every certified rule: dominance
//! pruning only discards profiles that are componentwise no better, and
//! certification requires the rule's score to be monotone in profiles,
//! so some frontier survivor attains the optimal score. For
//! context-sensitive rules (minmax regret) there is a second subtlety:
//! the per-scenario optima the scores reference must not move when the
//! candidate set shrinks to the frontier — and they do not, because each
//! per-scenario minimum over all plans is itself attained by a frontier
//! survivor. The deadline utility is admitted on the same grounds: no
//! scalar DP is exact for it (`pareto::scalar_dp` is X11's
//! counterexample), but its miss probability is monotone in every
//! scenario's cost.

use crate::alg_c;
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::evaluate::{cost_profile, profile_distribution};
use crate::pareto::{self, UtilityResult};
use lec_cost::CostModel;
use lec_plan::JoinQuery;
use lec_rules::{certify, RuleAdmission, SelectionRule};
use lec_stats::Distribution;

/// Optimize under any selection rule — a shipped [`lec_rules::Rule`], an
/// expected [`lec_stats::Utility`], or a custom rule — dispatching it to
/// the cheapest entry point its certification admits. The result's
/// `best.cost` is the rule's score; the mean of its `cost_distribution`
/// is the chosen plan's expected cost.
///
/// Fails with [`CoreError::BadParameter`] for out-of-range rule
/// parameters and [`CoreError::UnsoundRule`] for a rule whose score is
/// not monotone in per-scenario costs.
///
/// # Examples
///
/// ```
/// use lec_core::rules::optimize_with_rule;
/// use lec_cost::PaperCostModel;
/// use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
/// use lec_rules::Rule;
/// use lec_stats::{Distribution, Utility};
///
/// let query = JoinQuery::new(
///     vec![
///         Relation::new("a", 5_000.0, 2.5e5),
///         Relation::new("b", 800.0, 4e4),
///     ],
///     vec![JoinPred { left: 0, right: 1, selectivity: 1e-4, key: KeyId(0) }],
///     None,
/// )?;
/// let memory = Distribution::new([(30.0, 0.4), (300.0, 0.6)])?;
/// let lec = optimize_with_rule(&query, &PaperCostModel, &memory, &Rule::LeastExpectedCost)?;
/// let robust = optimize_with_rule(&query, &PaperCostModel, &memory, &Rule::MinmaxRegret)?;
/// // The robust pick can never beat LEC at LEC's own game.
/// assert!(robust.cost_distribution.mean() >= lec.best.cost - 1e-9);
/// // A deadline is one more objective, certified for the frontier DP.
/// let deadline = Utility::Deadline { threshold: 2e5 };
/// let on_time = optimize_with_rule(&query, &PaperCostModel, &memory, &deadline)?;
/// assert!((0.0..=1.0).contains(&on_time.best.cost));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize_with_rule<M: CostModel + ?Sized, R: SelectionRule + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &Distribution,
    rule: &R,
) -> Result<UtilityResult, CoreError> {
    match certify(rule)? {
        RuleAdmission::ScalarPruning => {
            let best = alg_c::optimize(query, model, &MemoryModel::Static(memory.clone()))?.0;
            let profile = cost_profile(query, model, &best.plan, memory.values());
            Ok(UtilityResult {
                cost_distribution: profile_distribution(memory, &profile)?,
                best,
                max_frontier: 1,
                frontier_profiles: vec![profile],
            })
        }
        RuleAdmission::FrontierOnly { .. } => Ok(pareto::optimize(query, model, memory, rule)?.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::enumerate_left_deep;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};
    use lec_rules::Rule;
    use lec_stats::Utility;

    fn query(n: usize, seed: u64) -> JoinQuery {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 5000 + 50) as f64
        };
        let relations = (0..n)
            .map(|i| Relation::new(format!("r{i}"), next(), 1e4))
            .collect();
        let predicates = (0..n - 1)
            .map(|i| JoinPred {
                left: i,
                right: i + 1,
                selectivity: 0.001,
                key: KeyId(i),
            })
            .collect();
        JoinQuery::new(relations, predicates, Some(KeyId(n - 2))).unwrap()
    }

    fn memory() -> Distribution {
        Distribution::new([(15.0, 0.25), (70.0, 0.35), (450.0, 0.25), (2200.0, 0.15)]).unwrap()
    }

    #[test]
    fn lec_rule_dispatches_to_algorithm_c_bit_identically() {
        for seed in 0..8 {
            let q = query(4, seed);
            let mem = memory();
            let via_rule =
                optimize_with_rule(&q, &PaperCostModel, &mem, &Rule::LeastExpectedCost).unwrap();
            let direct = alg_c::optimize(&q, &PaperCostModel, &MemoryModel::Static(mem.clone()))
                .unwrap()
                .0;
            assert_eq!(via_rule.best.cost.to_bits(), direct.cost.to_bits());
            assert_eq!(via_rule.best.plan, direct.plan);
            assert_eq!(via_rule.frontier_profiles.len(), 1);
        }
    }

    #[test]
    fn frontier_rules_match_exhaustive_scoring() {
        // Ground truth: score *every* left-deep plan's profile jointly
        // and take the argmin. The frontier finalize must agree on the
        // achieved score for every shipped frontier-only rule.
        for seed in 0..6 {
            let q = query(4, seed);
            let mem = memory();
            let all_plans = enumerate_left_deep(&q);
            let all_profiles: Vec<Vec<f64>> = all_plans
                .iter()
                .map(|p| cost_profile(&q, &PaperCostModel, p, mem.values()))
                .collect();
            for rule in Rule::all() {
                if matches!(rule, Rule::LeastExpectedCost) {
                    continue;
                }
                let via_frontier = optimize_with_rule(&q, &PaperCostModel, &mem, &rule).unwrap();
                let truth_scores = rule.scores(&all_profiles, mem.probs());
                let truth = truth_scores.iter().cloned().fold(f64::INFINITY, f64::min);
                assert!(
                    (via_frontier.best.cost - truth).abs() <= 1e-9 * truth.abs().max(1.0),
                    "seed {seed}, {rule}: frontier {} vs exhaustive {}",
                    via_frontier.best.cost,
                    truth
                );
                assert!(!certify(&rule).unwrap().scalar_ok());
                assert!(!via_frontier.frontier_profiles.is_empty());
            }
        }
    }

    #[test]
    fn robust_rules_never_beat_lec_on_expected_cost() {
        for seed in 0..6 {
            let q = query(4, seed);
            let mem = memory();
            let lec =
                optimize_with_rule(&q, &PaperCostModel, &mem, &Rule::LeastExpectedCost).unwrap();
            for rule in Rule::all() {
                let r = optimize_with_rule(&q, &PaperCostModel, &mem, &rule).unwrap();
                let expected = r.cost_distribution.mean();
                assert!(
                    expected >= lec.best.cost - 1e-9 * lec.best.cost.max(1.0),
                    "seed {seed}, {rule}"
                );
            }
        }
    }

    #[test]
    fn unsound_rules_are_rejected_at_the_gate() {
        let q = query(3, 0);
        let bad_alpha = Rule::TailRisk(lec_rules::TailRisk { alpha: 1.5 });
        assert!(matches!(
            optimize_with_rule(&q, &PaperCostModel, &memory(), &bad_alpha),
            Err(CoreError::BadParameter(_))
        ));
        for bad in [
            Utility::Exponential { gamma: 0.0 },
            Utility::Exponential { gamma: f64::NAN },
            Utility::Deadline {
                threshold: f64::INFINITY,
            },
        ] {
            let via_rule = optimize_with_rule(&q, &PaperCostModel, &memory(), &bad);
            assert!(
                matches!(via_rule, Err(CoreError::BadParameter(_))),
                "{bad:?}"
            );
            let direct = pareto::optimize(&q, &PaperCostModel, &memory(), &bad);
            assert!(matches!(direct, Err(CoreError::BadParameter(_))), "{bad:?}");
        }
    }

    #[test]
    fn linear_utility_dispatches_to_algorithm_c_like_the_lec_rule() {
        for seed in 0..4 {
            let q = query(4, seed);
            let mem = memory();
            let linear = optimize_with_rule(&q, &PaperCostModel, &mem, &Utility::Linear).unwrap();
            let lec =
                optimize_with_rule(&q, &PaperCostModel, &mem, &Rule::LeastExpectedCost).unwrap();
            assert_eq!(linear.best.cost.to_bits(), lec.best.cost.to_bits());
            assert_eq!(linear.best.plan, lec.best.plan);
        }
    }
}
