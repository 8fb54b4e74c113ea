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
//! Both are one lattice sweep over the [`QueryTables`] precompute that
//! differs only in what each subset keeps: the whole Pareto frontier, or
//! the single entry of least utility score. [`crate::rules`] certifies an
//! objective before choosing between Algorithm C and [`optimize`]. Ground
//! truth for both comes from [`exhaustive_utility`].

use crate::dp::Optimized;
use crate::error::CoreError;
use crate::evaluate::{cost_distribution_static, join_step, profile_distribution, sort_step};
use crate::exhaustive::enumerate_left_deep;
use crate::par;
use crate::precompute::QueryTables;
use crate::stats::OptStats;
use lec_cost::{CostModel, JoinMethod};
use lec_plan::{JoinQuery, Plan, RelSet};
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

/// A surviving frontier entry: a plan and its cost profile (one cost per
/// memory value, in `memory.values()` order).
#[derive(Debug, Clone)]
struct ProfEntry {
    profile: Vec<f64>,
    plan: Plan,
}

/// `a` dominates `b` when it is at least as cheap at every parameter value.
///
/// The comparison is *exact*: an earlier implementation allowed `a` to
/// exceed `b` by an epsilon per component, which breaks antisymmetry
/// (near-tied profiles could each "dominate" the other), making the
/// surviving frontier — and hence the chosen plan — depend on insertion
/// order. With exact `<=`, two profiles dominate each other only when
/// they are equal, and [`insert_frontier`] keeps the first-inserted of an
/// exactly-equal pair, so the frontier is insertion-order independent as
/// a set of profiles.
fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| *x <= *y)
}

fn insert_frontier(frontier: &mut Vec<ProfEntry>, entry: ProfEntry) {
    if frontier
        .iter()
        .any(|e| dominates(&e.profile, &entry.profile))
    {
        return;
    }
    frontier.retain(|e| !dominates(&entry.profile, &e.profile));
    frontier.push(entry);
}

/// What the sweep keeps at each subset of the lattice.
#[derive(Debug, Clone, Copy)]
enum Keep {
    /// Every entry no other entry dominates (exact `<=`, see
    /// [`dominates`]): the exact frontier DP.
    Frontier,
    /// The one entry of least `utility.score`, under strict `<` so the
    /// first of tied entries wins: the scalar utility DP.
    Best(Utility),
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
    let (roots, max_frontier, stats) = sweep(query, model, memory, Keep::Frontier)?;
    // Convert before the debug hook, so a non-finite profile is an error
    // rather than a verifier panic.
    let mut dists = roots
        .iter()
        .map(|e| profile_distribution(memory, &e.profile))
        .collect::<Result<Vec<_>, CoreError>>()?;
    let frontier_profiles: Vec<Vec<f64>> = roots.iter().map(|e| e.profile.clone()).collect();
    crate::verify::debug_verify_frontier(&frontier_profiles);
    let scores = rule.scores(&frontier_profiles, memory.probs());
    let idx = argmin(&scores).ok_or(CoreError::NoPlanFound)?;
    let cost_distribution = dists.swap_remove(idx);
    crate::verify::debug_verify_plan(query, &roots[idx].plan, cost_distribution.mean());
    let result = UtilityResult {
        best: Optimized {
            plan: roots[idx].plan.clone(),
            cost: scores[idx],
        },
        cost_distribution,
        max_frontier,
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
    let root = sweep(query, model, memory, Keep::Best(utility))?
        .0
        .pop()
        .ok_or(CoreError::NoPlanFound)?;
    let dist = profile_distribution(memory, &root.profile)?;
    let score = utility.score(&dist);
    crate::verify::debug_verify_plan(query, &root.plan, score);
    Ok(UtilityResult {
        best: Optimized {
            plan: root.plan,
            cost: score,
        },
        cost_distribution: dist,
        max_frontier: 1,
        frontier_profiles: vec![root.profile],
    })
}

/// The one lattice sweep behind [`optimize`] and [`scalar_dp`]: extends
/// every subset's kept entries by one relation, in rank order, keeping per
/// subset what `keep` says. Returns the root's kept entries, the largest
/// kept list at any subset, and the search counters.
///
/// Access paths, result pages and join keys come from [`QueryTables`].
/// Access cost is memory-independent, so each relation contributes its
/// single cheapest access path. Complete plans that miss a required order
/// get their root sort *before* they are offered to `keep`, so ordered and
/// sorted alternatives compete fairly.
fn sweep<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &Distribution,
    keep: Keep,
) -> Result<(Vec<ProfEntry>, usize, OptStats), CoreError> {
    let n = query.n();
    let full = query.all();
    let tabs = QueryTables::new(query);
    let values = memory.values();
    let mut table: Vec<Vec<ProfEntry>> = vec![Vec::new(); (full.bits() + 1) as usize];
    let mut max_frontier = 1usize;
    let mut stats = OptStats::new("pareto", n);
    stats.precompute = tabs.sizes();
    stats.counters.entries_written = n as u64;

    for i in 0..n {
        let (cost, method, _) = tabs.access(i);
        table[RelSet::single(i).bits() as usize] = vec![ProfEntry {
            profile: vec![cost; values.len()],
            plan: Plan::Access { rel: i, method },
        }];
    }

    for rank in &par::ranks(n)[1..] {
        let mut rank_frontier = 0usize;
        let (swept, ns) = par::timed(|| -> Result<(), CoreError> {
            for &set in rank {
                let out = tabs.pages(set);
                let root_order = query.required_order().filter(|_| set == full);
                let mut kept: Vec<ProfEntry> = Vec::new();
                let mut kept_score: Option<f64> = None;
                for j in set.iter() {
                    let sub = set.remove(j);
                    let left_out = tabs.pages(sub);
                    let (acc_cost, acc_method, acc_out) = tabs.access(j);
                    let key = tabs.join_key(sub, j);
                    // Borrow, don't clone: the sub-entries live in a strictly
                    // lower rank, so they are never written while `set` is.
                    let left_list = &table[sub.bits() as usize];
                    for method in JoinMethod::ALL {
                        let step: Vec<f64> = values
                            .iter()
                            .map(|&m| join_step(model, method, left_out, acc_out, out, m))
                            .collect();
                        for left in left_list {
                            let mut profile: Vec<f64> = left
                                .profile
                                .iter()
                                .zip(&step)
                                .map(|(l, s)| l + acc_cost + s)
                                .collect();
                            let mut plan = Plan::join(
                                left.plan.clone(),
                                Plan::Access {
                                    rel: j,
                                    method: acc_method,
                                },
                                method,
                                key,
                            );
                            let missing = root_order.filter(|&r| plan.output_order() != Some(r));
                            if let Some(required) = missing {
                                for (p, &m) in profile.iter_mut().zip(values) {
                                    *p += sort_step(model, out, m);
                                }
                                plan = Plan::sort(plan, required);
                            }
                            stats.counters.candidates_priced += 1;
                            let entry = ProfEntry { profile, plan };
                            match keep {
                                Keep::Frontier => insert_frontier(&mut kept, entry),
                                Keep::Best(utility) => {
                                    let dist = profile_distribution(memory, &entry.profile)?;
                                    let score = utility.score(&dist);
                                    if kept_score.is_none_or(|s| score < s) {
                                        kept_score = Some(score);
                                        kept = vec![entry];
                                    }
                                }
                            }
                        }
                    }
                }
                stats.counters.masks_expanded += 1;
                stats.counters.entries_written += kept.len() as u64;
                rank_frontier = rank_frontier.max(kept.len());
                max_frontier = max_frontier.max(kept.len());
                table[set.bits() as usize] = kept;
            }
            Ok(())
        });
        swept?;
        stats.counters.frontier_per_rank.push(rank_frontier);
        stats.rank_wall_ns.push(ns);
    }

    let roots = std::mem::take(&mut table[full.bits() as usize]);
    Ok((roots, max_frontier, stats))
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

    fn leaf(rel: usize) -> Plan {
        Plan::Access {
            rel,
            method: lec_cost::AccessMethod::FullScan,
        }
    }

    fn sorted_profiles(frontier: &[ProfEntry]) -> Vec<Vec<f64>> {
        let mut v: Vec<Vec<f64>> = frontier.iter().map(|e| e.profile.clone()).collect();
        v.sort_by(|x, y| x.partial_cmp(y).unwrap());
        v
    }

    #[test]
    fn frontier_is_insertion_order_independent() {
        // Near-tied incomparable profiles. Under the old epsilon-tolerant
        // dominance each "dominated" the other, so whichever was inserted
        // first evicted the second and the frontier — hence the chosen
        // plan — depended on insertion order. Exact dominance keeps both.
        let a = vec![1.0, 2.0 + 1e-13];
        let c = vec![1.0 + 1e-13, 2.0];
        // A genuinely dominated profile must still be evicted either way.
        let d = vec![1.5, 2.5];

        let mut fwd = Vec::new();
        for (i, p) in [&a, &c, &d].into_iter().enumerate() {
            insert_frontier(
                &mut fwd,
                ProfEntry {
                    profile: p.clone(),
                    plan: leaf(i),
                },
            );
        }
        let mut rev = Vec::new();
        for (i, p) in [&d, &c, &a].into_iter().enumerate() {
            insert_frontier(
                &mut rev,
                ProfEntry {
                    profile: p.clone(),
                    plan: leaf(i),
                },
            );
        }

        assert_eq!(fwd.len(), 2, "near-ties are incomparable, both survive");
        assert_eq!(sorted_profiles(&fwd), sorted_profiles(&rev));

        // With identical frontier contents, the root pick (min utility
        // score with a total-order comparator) is order-independent too.
        let pick = |f: &[ProfEntry]| {
            f.iter()
                .map(|e| e.profile.iter().sum::<f64>())
                .min_by(f64::total_cmp)
                .unwrap()
        };
        assert_eq!(pick(&fwd).to_bits(), pick(&rev).to_bits());
    }

    #[test]
    fn frontier_keeps_first_inserted_of_exact_ties() {
        let p = vec![3.0, 4.0];
        let mut frontier = Vec::new();
        insert_frontier(
            &mut frontier,
            ProfEntry {
                profile: p.clone(),
                plan: leaf(0),
            },
        );
        insert_frontier(
            &mut frontier,
            ProfEntry {
                profile: p.clone(),
                plan: leaf(1),
            },
        );
        assert_eq!(frontier.len(), 1);
        assert!(
            matches!(frontier[0].plan, Plan::Access { rel: 0, .. }),
            "first-inserted entry wins an exact profile tie"
        );
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
