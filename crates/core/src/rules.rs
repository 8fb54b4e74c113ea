//! Rule-parameterized plan selection: the `lec-rules` subsystem threaded
//! through the optimizer family (DESIGN.md §9).
//!
//! The frontier DP in [`pareto`] already computes, per
//! surviving plan, the full cost *profile* — one cost per memory value.
//! The LEC criterion collapses that profile to its expectation; this
//! module lets any certified [`SelectionRule`] do the collapsing instead,
//! reusing the frontier outputs rather than re-enumerating:
//!
//! * [`optimize_with_rule`] — gated entry point for the shipped
//!   [`Rule`]s. [`Rule::LeastExpectedCost`] dispatches to the *existing*
//!   scalar path ([`alg_c`]) exactly like
//!   [`soundness::optimize_gated`](crate::soundness::optimize_gated)
//!   does for the linear utility, so the LEC rule is bit-identical to
//!   the expected-cost optimizer by construction (the differential
//!   battery in `tests/rule_equivalence.rs` holds it to `to_bits`
//!   equality). Every other shipped rule is certified frontier-only and
//!   finalizes over the root Pareto frontier.
//!
//! Frontier finalization is *exact* for every certified rule: dominance
//! pruning only discards profiles that are componentwise no better, and
//! certification requires the rule's score to be monotone in profiles,
//! so some frontier survivor attains the optimal score. For
//! context-sensitive rules (minmax regret) there is a second subtlety:
//! the per-scenario optima the scores reference must not move when the
//! candidate set shrinks to the frontier — and they do not, because each
//! per-scenario minimum over all plans is itself attained by a frontier
//! survivor.

use crate::alg_c;
use crate::dp::Optimized;
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::evaluate::cost_distribution_static;
use crate::pareto;
use lec_cost::CostModel;
use lec_plan::JoinQuery;
use lec_rules::{argmin, Rule, RuleAdmission, SelectionRule};
use lec_stats::Distribution;

/// What a rule-parameterized optimization chose.
#[derive(Debug, Clone)]
pub struct RuleResult {
    /// The chosen plan; `cost` holds the rule's *score* (for
    /// [`Rule::LeastExpectedCost`] this is the expected cost, bit-equal
    /// to the scalar path's).
    pub best: Optimized,
    /// Expected cost of the chosen plan under the belief distribution
    /// (equals `best.cost` for the LEC rule; for other rules it shows
    /// what the robust choice pays in expectation).
    pub expected_cost: f64,
    /// The chosen plan's full cost distribution under the beliefs.
    pub cost_distribution: Distribution,
    /// How the certification gate admitted the rule.
    pub admission: RuleAdmission,
    /// Number of root-frontier candidates the rule scored (1 for the
    /// scalar-dispatched LEC rule).
    pub candidates: usize,
}

/// Optimize under a shipped [`Rule`], dispatching each rule to the
/// cheapest entry point its certification admits.
///
/// # Examples
///
/// ```
/// use lec_core::rules::optimize_with_rule;
/// use lec_cost::PaperCostModel;
/// use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
/// use lec_rules::Rule;
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
/// let memory = Distribution::new([(30.0, 0.4), (300.0, 0.6)])?;
/// let lec = optimize_with_rule(&query, &PaperCostModel, &memory, &Rule::LeastExpectedCost)?;
/// let robust = optimize_with_rule(&query, &PaperCostModel, &memory, &Rule::MinmaxRegret)?;
/// // The robust pick can never beat LEC at LEC's own game.
/// assert!(robust.expected_cost >= lec.expected_cost - 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize_with_rule<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &Distribution,
    rule: &Rule,
) -> Result<RuleResult, CoreError> {
    let admission = rule.certify()?;
    match rule {
        Rule::LeastExpectedCost => {
            debug_assert!(admission.scalar_ok());
            let best = alg_c::optimize(query, model, &MemoryModel::Static(memory.clone()))?.0;
            let dist = cost_distribution_static(query, model, &best.plan, memory);
            Ok(RuleResult {
                expected_cost: best.cost,
                cost_distribution: dist,
                admission,
                candidates: 1,
                best,
            })
        }
        _ => finalize_over_frontier(query, model, memory, rule, admission),
    }
}

fn finalize_over_frontier<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &Distribution,
    rule: &dyn SelectionRule,
    admission: RuleAdmission,
) -> Result<RuleResult, CoreError> {
    let (roots, _max_frontier, _stats) = pareto::root_frontier_with_stats(query, model, memory)?;
    let profiles: Vec<Vec<f64>> = roots.iter().map(|e| e.profile.clone()).collect();
    crate::verify::debug_verify_frontier(&profiles);
    let scores = rule.scores(&profiles, memory.probs());
    let idx = argmin(&scores).ok_or(CoreError::NoPlanFound)?;
    let winner = &roots[idx];
    let dist = Distribution::new(
        memory
            .probs()
            .iter()
            .zip(winner.profile.iter())
            .map(|(&p, &c)| (c, p)),
    )?;
    let result = RuleResult {
        best: Optimized {
            plan: winner.plan.clone(),
            cost: scores[idx],
        },
        expected_cost: dist.mean(),
        cost_distribution: dist,
        admission,
        candidates: roots.len(),
    };
    crate::verify::debug_verify_plan(query, &result.best.plan, result.expected_cost);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::cost_profile;
    use crate::exhaustive::enumerate_left_deep;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};

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
            assert!(via_rule.admission.scalar_ok());
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
                assert!(!via_frontier.admission.scalar_ok());
                assert!(via_frontier.candidates >= 1);
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
                assert!(
                    r.expected_cost >= lec.expected_cost - 1e-9 * lec.expected_cost.max(1.0),
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
    }
}
