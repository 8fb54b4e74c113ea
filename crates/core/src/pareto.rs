//! The frontier DP: optimization for any monotone selection rule,
//! expected utilities included (the PODS 2002 extension).
//!
//! For the linear utility, expectation distributes over cost addition and
//! the scalar DP of Algorithm C is exact (Theorem 3.3). For any other
//! utility the scalar principle of optimality fails: the best plan for a
//! subquery *by utility score* need not extend to the best overall plan,
//! because `E[u(c₁ + c₂)] ≠ f(E[u(c₁)], E[u(c₂)])` when costs share the
//! random parameter. Two enumerators are implemented here:
//!
//! * [`optimize`] — a **Pareto-frontier DP** over cost *profiles* (the
//!   vector of plan costs, one per memory value). A subplan is kept unless
//!   some other subplan is at least as cheap at *every* memory value;
//!   since plan cost is componentwise monotone in subplan profiles, the
//!   frontier retains an optimal subplan for every monotone selection
//!   rule, which then scores the root frontier jointly and picks its
//!   argmin. This is exact, at the price of a frontier that can grow with
//!   the bucket count (this is essentially parametric query optimization
//!   \[INSS92\] with the discrete parameter space).
//! * [`scalar_dp`] — the naive "Algorithm C with `E[u(·)]` in place of
//!   `E[·]`". Provably unsound for non-linear utilities; kept as the
//!   counterexample generator (experiment X11 exhibits a deadline-utility
//!   instance where it returns a strictly worse plan).
//!
//! Both are the left-deep DP ([`crate::dp`]) keeping, per subset, the
//! whole Pareto frontier or the single entry of least utility score.
//! [`crate::rules`] certifies an objective before choosing between
//! Algorithm C and [`optimize`]. Ground truth for both comes from
//! [`exhaustive_utility`].

use crate::dp::{sweep_lists, ListKeep, Optimized};
use crate::error::CoreError;
use crate::evaluate::{cost_distribution_static, profile_distribution};
use crate::exhaustive::enumerate_left_deep;
use crate::stats::OptStats;
use lec_cost::CostModel;
use lec_plan::{JoinQuery, Plan};
use lec_rules::{argmin, SelectionRule};
use lec_stats::{Distribution, Utility};

/// What optimizing one objective — a selection rule or an expected
/// utility — chose.
#[derive(Debug, Clone)]
pub struct UtilityResult {
    /// The chosen plan; `cost` holds the objective's *score* (lower is
    /// better): for the linear utility and the expected-cost rule the
    /// expected cost, for `Exponential` a certainty equivalent, for
    /// `Deadline` a miss probability. An objective run on Algorithm C
    /// reports Algorithm C's expected cost, to the bit.
    pub best: Optimized,
    /// The chosen plan's full cost distribution; its mean is what the
    /// choice pays in expectation, whatever the objective.
    pub cost_distribution: Distribution,
    /// Largest Pareto frontier encountered at any dag node (1 for the
    /// scalar DP and Algorithm C); a measure of the extra work exactness
    /// costs.
    pub max_frontier: usize,
    /// The root Pareto frontier's cost profiles (one cost per memory
    /// value, in `memory.values()` order): the candidates the objective
    /// scored. [`optimize`] reports the full surviving root frontier,
    /// [`scalar_dp`] and Algorithm C the single chosen profile, and
    /// [`exhaustive_utility`] leaves this empty (it never builds one).
    pub frontier_profiles: Vec<Vec<f64>>,
}

/// Exact optimization under any monotone selection rule — an expected
/// utility, a robust rule or a custom one — over left-deep plans via the
/// Pareto-frontier DP. Static memory only (profiles are per-value costs).
///
/// The sweep is rule-independent; the rule scores the surviving root
/// frontier jointly (so context-sensitive rules such as minmax regret see
/// every candidate) and the first argmin wins. Exact for every rule
/// [`lec_rules::certify`] accepts, since certification requires a score
/// monotone in per-scenario costs; [`crate::rules::optimize_with_rule`]
/// certifies first and sends only frontier-only objectives here.
///
/// Also returns the deterministic [`OptStats`] search counters:
/// `candidates_priced` counts frontier-insert attempts (subplan × join
/// method × extending relation), `entries_written` the singleton seeds
/// plus every surviving frontier entry, and `frontier_per_rank` the
/// largest frontier at any mask of each DP rank.
///
/// Fails with [`CoreError::BadParameter`] when the rule's parameters are
/// out of range, and with [`CoreError::Stats`] when a root profile is
/// non-finite (a result size or cost that overflowed to ∞).
///
/// # Examples
///
/// ```
/// use lec_core::pareto;
/// use lec_cost::PaperCostModel;
/// use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
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
/// let (averse, _stats) = pareto::optimize(
///     &query,
///     &PaperCostModel,
///     &memory,
///     &Utility::Exponential { gamma: 1e-4 },
/// )?;
/// // The score is a certainty equivalent, at least the mean cost.
/// assert!(averse.best.cost >= averse.cost_distribution.mean() - 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize<M: CostModel + ?Sized, R: SelectionRule + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &Distribution,
    rule: &R,
) -> Result<(UtilityResult, OptStats), CoreError> {
    rule.validate()?;
    let (roots, _, stats) = sweep_lists(query, model, memory.values(), ListKeep::Frontier)?;
    let (mut plans, frontier_profiles): (Vec<Plan>, Vec<Vec<f64>>) = roots.into_iter().unzip();
    // Convert before the debug hook, so a non-finite profile is an error
    // rather than a verifier panic.
    let mut dists = frontier_profiles
        .iter()
        .map(|p| profile_distribution(memory, p))
        .collect::<Result<Vec<_>, CoreError>>()?;
    crate::verify::debug_verify_frontier(&frontier_profiles);
    let scores = rule.scores(&frontier_profiles, memory.probs());
    let idx = argmin(&scores).ok_or(CoreError::NoPlanFound)?;
    let cost_distribution = dists.swap_remove(idx);
    let plan = plans.swap_remove(idx);
    crate::verify::debug_verify_plan(query, &plan, cost_distribution.mean());
    let widest = stats.counters.frontier_per_rank.iter().max();
    let result = UtilityResult {
        best: Optimized {
            plan,
            cost: scores[idx],
        },
        cost_distribution,
        max_frontier: widest.map_or(1, |&w| w.max(1)),
        frontier_profiles,
    };
    Ok((result, stats))
}

/// The unsound scalar utility DP: keeps, at every dag node, the single
/// subplan with the best utility score of its own cost distribution.
/// Exact only for [`Utility::Linear`] (where it *is* Algorithm C).
///
/// Fails with [`CoreError::Stats`] when a subplan's profile is non-finite.
pub fn scalar_dp<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &Distribution,
    utility: Utility,
) -> Result<UtilityResult, CoreError> {
    let keep = ListKeep::BestScore(utility, memory);
    let (mut roots, _, _) = sweep_lists(query, model, memory.values(), keep)?;
    let (plan, profile) = roots.pop().ok_or(CoreError::NoPlanFound)?;
    let dist = profile_distribution(memory, &profile)?;
    let score = utility.score(&dist);
    crate::verify::debug_verify_plan(query, &plan, score);
    Ok(UtilityResult {
        best: Optimized { plan, cost: score },
        cost_distribution: dist,
        max_frontier: 1,
        frontier_profiles: vec![profile],
    })
}

/// Brute-force expected-utility optimum over all left-deep plans.
pub fn exhaustive_utility<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &Distribution,
    utility: Utility,
) -> Result<UtilityResult, CoreError> {
    let best = enumerate_left_deep(query)
        .into_iter()
        .map(|plan| {
            let dist = cost_distribution_static(query, model, &plan, memory)?;
            let score = utility.score(&dist);
            Ok(UtilityResult {
                best: Optimized { plan, cost: score },
                cost_distribution: dist,
                max_frontier: 0,
                frontier_profiles: Vec::new(),
            })
        })
        .collect::<Result<Vec<_>, CoreError>>()?
        .into_iter()
        .min_by(|a, b| a.best.cost.total_cmp(&b.best.cost))
        .ok_or(CoreError::NoPlanFound)?;
    crate::verify::debug_verify_plan(query, &best.best.plan, best.best.cost);
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg_c;
    use crate::env::MemoryModel;
    use crate::rules::optimize_with_rule;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};
    use lec_rules::Rule;

    fn query(n: usize, seed: u64) -> JoinQuery {
        // Deterministic pseudo-random sizes from a tiny LCG.
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
    fn linear_utility_matches_algorithm_c() {
        for seed in 0..5 {
            let q = query(4, seed);
            let mem = memory();
            let p = optimize(&q, &PaperCostModel, &mem, &Utility::Linear)
                .unwrap()
                .0;
            let c = alg_c::optimize(&q, &PaperCostModel, &MemoryModel::Static(mem))
                .unwrap()
                .0;
            assert!(
                (p.best.cost - c.cost).abs() < 1e-6 * c.cost.max(1.0),
                "seed {seed}: pareto {} vs C {}",
                p.best.cost,
                c.cost
            );
        }
    }

    #[test]
    fn pareto_matches_exhaustive_for_all_utilities() {
        let utilities = [
            Utility::Linear,
            Utility::Exponential { gamma: 1e-5 },
            Utility::Exponential { gamma: -1e-5 },
        ];
        for seed in 0..4 {
            let q = query(4, seed);
            let mem = memory();
            for u in utilities {
                let p = optimize(&q, &PaperCostModel, &mem, &u).unwrap().0;
                let e = exhaustive_utility(&q, &PaperCostModel, &mem, u).unwrap();
                assert!(
                    (p.best.cost - e.best.cost).abs() <= 1e-6 * e.best.cost.abs().max(1e-9),
                    "seed {seed}, {u:?}: pareto {} vs exhaustive {}",
                    p.best.cost,
                    e.best.cost
                );
            }
        }
    }

    #[test]
    fn pareto_matches_exhaustive_for_deadline_utility() {
        for seed in 0..4 {
            let q = query(4, seed);
            let mem = memory();
            // Put the deadline between the best plan's min and max cost so
            // the miss probability is non-trivial.
            let probe = exhaustive_utility(&q, &PaperCostModel, &mem, Utility::Linear).unwrap();
            let t = probe.cost_distribution.mean();
            let u = Utility::Deadline { threshold: t };
            let p = optimize(&q, &PaperCostModel, &mem, &u).unwrap().0;
            let e = exhaustive_utility(&q, &PaperCostModel, &mem, u).unwrap();
            assert!(
                (p.best.cost - e.best.cost).abs() <= 1e-9,
                "seed {seed}: pareto {} vs exhaustive {}",
                p.best.cost,
                e.best.cost
            );
        }
    }

    #[test]
    fn scalar_dp_is_exact_for_linear_but_not_in_general() {
        // Soundness half: for Linear, scalar DP equals the exhaustive
        // optimum on every instance.
        let mut strict_gap = false;
        for seed in 0..30 {
            let q = query(4, seed);
            let mem = memory();
            let lin_scalar = scalar_dp(&q, &PaperCostModel, &mem, Utility::Linear).unwrap();
            let lin_truth = exhaustive_utility(&q, &PaperCostModel, &mem, Utility::Linear).unwrap();
            assert!(
                (lin_scalar.best.cost - lin_truth.best.cost).abs()
                    <= 1e-6 * lin_truth.best.cost.max(1.0),
                "seed {seed}: linear scalar DP must be exact"
            );
            // Unsoundness half: for a deadline utility, scalar DP is
            // sometimes strictly worse than the true optimum.
            let probe = lin_truth.cost_distribution.quantile(0.6).unwrap();
            let u = Utility::Deadline { threshold: probe };
            let scal = scalar_dp(&q, &PaperCostModel, &mem, u).unwrap();
            let truth = exhaustive_utility(&q, &PaperCostModel, &mem, u).unwrap();
            assert!(scal.best.cost >= truth.best.cost - 1e-12);
            if scal.best.cost > truth.best.cost + 1e-9 {
                strict_gap = true;
            }
        }
        assert!(
            strict_gap,
            "expected at least one instance where the scalar deadline DP is strictly suboptimal"
        );
    }

    #[test]
    fn risk_averse_utility_prefers_lower_variance() {
        // Example 1.1 again: the LEC winner (hash+sort) is *constant* in
        // cost, so any risk-averse utility likes it even more.
        let q = JoinQuery::new(
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
        .unwrap();
        let mem = Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).unwrap();
        let averse = optimize(
            &q,
            &PaperCostModel,
            &mem,
            &Utility::Exponential { gamma: 1e-5 },
        )
        .unwrap()
        .0;
        assert!(averse.cost_distribution.is_point());
        assert!(matches!(averse.best.plan, Plan::Sort { .. }));
        assert!(averse.max_frontier >= 1);
        assert!(!averse.frontier_profiles.is_empty());
    }

    #[test]
    fn overflowing_profiles_are_errors_not_panics() {
        // Two 1e200-page relations joined at selectivity 1: the result
        // pages, and with them every join cost, overflow to ∞.
        let q = JoinQuery::new(
            vec![
                Relation::new("a", 1e200, 1e201),
                Relation::new("b", 1e200, 1e201),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 1.0,
                key: KeyId(0),
            }],
            None,
        )
        .unwrap();
        let mem = memory();
        let is_stats = |r: Result<(), CoreError>| matches!(r, Err(CoreError::Stats(_)));
        let utilities = [
            Utility::Linear,
            Utility::Exponential { gamma: 1e-5 },
            Utility::Exponential { gamma: -1e-5 },
            Utility::Deadline { threshold: 1e6 },
        ];
        for u in utilities {
            let m = PaperCostModel;
            assert!(is_stats(optimize(&q, &m, &mem, &u).map(drop)), "{u:?}");
            assert!(is_stats(scalar_dp(&q, &m, &mem, u).map(drop)), "{u:?}");
            assert!(
                is_stats(exhaustive_utility(&q, &m, &mem, u).map(drop)),
                "{u:?}"
            );
        }
        // The LEC rule and the linear utility run Algorithm C, whose winner
        // check rejects the ∞ cost in every build before any profile is
        // formed.
        let is_bad_cost = |r: Result<(), CoreError>| {
            matches!(r, Err(CoreError::Plan(lec_plan::PlanError::BadCost { .. })))
        };
        for rule in Rule::all() {
            let r = optimize_with_rule(&q, &PaperCostModel, &mem, &rule).map(drop);
            if rule == Rule::LeastExpectedCost {
                assert!(is_bad_cost(r), "{rule}");
            } else {
                assert!(is_stats(r), "{rule}");
            }
        }
        for u in utilities {
            let r = optimize_with_rule(&q, &PaperCostModel, &mem, &u).map(drop);
            if u == Utility::Linear {
                assert!(is_bad_cost(r), "{u:?}");
            } else {
                assert!(is_stats(r), "{u:?}");
            }
        }
    }

    #[test]
    fn stats_track_frontier_growth() {
        let q = query(5, 1);
        let mem = memory();
        let (res, stats) = optimize(
            &q,
            &PaperCostModel,
            &mem,
            &Utility::Exponential { gamma: 1e-5 },
        )
        .unwrap();
        assert_eq!(stats.algorithm, "pareto");
        assert_eq!(stats.relations, 5);
        assert_eq!(stats.counters.masks_expanded, (1 << 5) - 1 - 5);
        assert_eq!(stats.counters.frontier_per_rank.len(), 4);
        assert_eq!(stats.rank_wall_ns.len(), 4);
        assert_eq!(
            *stats.counters.frontier_per_rank.iter().max().unwrap(),
            res.max_frontier,
        );
        // Seeds plus at least one surviving entry per expanded mask, and
        // no more survivors than insert attempts.
        assert!(stats.counters.entries_written >= 5 + stats.counters.masks_expanded);
        assert!(stats.counters.candidates_priced >= stats.counters.entries_written - 5);
        assert_eq!(
            res.frontier_profiles.len(),
            stats.counters.frontier_per_rank[3]
        );
        // Stats plumbing must not perturb the chosen plan.
        let plain = optimize(
            &q,
            &PaperCostModel,
            &mem,
            &Utility::Exponential { gamma: 1e-5 },
        )
        .unwrap()
        .0;
        assert_eq!(plain.best.cost.to_bits(), res.best.cost.to_bits());
        assert_eq!(plain.best.plan, res.best.plan);
    }
}
