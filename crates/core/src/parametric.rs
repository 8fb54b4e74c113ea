//! Parametric LEC optimization: precompute at compile time, pick at
//! start-up time (§3.2/§3.4 meets \[INSS92\]/\[GC94\]).
//!
//! "We can precompute the best expected plan under a number of possible
//! distributions (ones that give good coverage of what we expect to
//! encounter at run-time), and store these expected plans, for use at
//! query execution time." At start-up the observed memory distribution is
//! usually sharper than the compile-time one; instead of re-running the
//! optimizer, re-*cost* the stored plans under the observed distribution —
//! plan costing is linear in plan size, optimization is exponential in the
//! join count — and run the cheapest.
//!
//! Precompute prices every scenario in one left-deep sweep with
//! [`MemoryCoster`], the coster behind LSC and Algorithm C: each scenario
//! is a static memory model, and each scenario's plan is the one Algorithm
//! C finds under it alone.

use crate::dp::{optimize_left_deep, MemoryCoster, Optimized};
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::evaluate::profile_and_expected_cost;
use crate::precompute::QueryTables;
use crate::stats::OptStats;
use lec_cost::CostModel;
use lec_plan::{JoinQuery, Plan};
use lec_stats::Distribution;

/// A compile-time-precomputed set of LEC plans, one per anticipated
/// environment scenario.
///
/// # Examples
///
/// ```
/// use lec_core::parametric::ParametricPlans;
/// use lec_cost::PaperCostModel;
/// use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
/// use lec_rules::Rule;
/// use lec_stats::Distribution;
///
/// let query = JoinQuery::new(
///     vec![Relation::new("a", 5_000.0, 2.5e5), Relation::new("b", 800.0, 4e4)],
///     vec![JoinPred { left: 0, right: 1, selectivity: 1e-4, key: KeyId(0) }],
///     None,
/// )?;
/// // Compile time: one LEC plan per anticipated scenario.
/// let scenarios = vec![
///     Distribution::new([(20.0, 0.7), (200.0, 0.3)])?,
///     Distribution::new([(20.0, 0.1), (200.0, 0.9)])?,
/// ];
/// let set = ParametricPlans::precompute(&query, &PaperCostModel, &scenarios)?;
///
/// // Start-up: re-cost stored plans under what was actually observed.
/// let observed = Distribution::new([(20.0, 0.5), (200.0, 0.5)])?;
/// let choice = set.pick_with_rule(&query, &PaperCostModel, &observed, &Rule::LeastExpectedCost)?;
/// assert!(choice.expected_cost > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParametricPlans {
    scenarios: Vec<(Distribution, Optimized)>,
}

/// What the start-up-time lookup chose.
#[derive(Debug, Clone)]
pub struct StartupChoice {
    /// Index of the winning scenario's plan.
    pub scenario: usize,
    /// The plan to run.
    pub plan: Plan,
    /// Its expected cost under the *observed* distribution.
    pub expected_cost: f64,
}

impl ParametricPlans {
    /// Compile-time phase: find the LEC plan of every scenario
    /// distribution, all scenarios in one (expensive) optimizer sweep.
    pub fn precompute<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        scenarios: &[Distribution],
    ) -> Result<Self, CoreError> {
        Ok(Self::precompute_with_stats(query, model, scenarios)?.0)
    }

    /// [`precompute`](Self::precompute), also returning the [`OptStats`]
    /// of the one sweep that priced every scenario.
    ///
    /// All scenarios share one run of the left-deep DP over one
    /// [`QueryTables`]: each subset keeps an entry per scenario, each
    /// candidate's join formulas are evaluated once per distinct memory
    /// value, and a subset stays live while any scenario's bound keeps it.
    /// Every scenario's plan and cost bits are those of a stand-alone
    /// Algorithm C run under it; the counters count each subset and
    /// candidate once, however many scenarios share it. A scenario whose
    /// winner does not have a finite cost makes the call a
    /// [`CoreError::Plan`], as [`from_parts`](Self::from_parts) would.
    pub fn precompute_with_stats<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        scenarios: &[Distribution],
    ) -> Result<(Self, OptStats), CoreError> {
        let phases = scenarios
            .iter()
            .map(|d| MemoryModel::Static(d.clone()).table(query.n().max(2)))
            .collect::<Result<Vec<_>, _>>()?;
        let tabs = QueryTables::new(query);
        let coster = MemoryCoster::new(model, &phases);
        let (winners, mut stats) = optimize_left_deep(query, &tabs, &coster)?;
        stats.algorithm = "parametric";
        let scenarios = scenarios.iter().cloned().zip(winners).collect();
        Ok((Self { scenarios }, stats))
    }

    /// Rebuilds a set from already-optimized per-scenario plans (the
    /// `lec-serve` cache-entry *migration* path: after a recalibration
    /// judged not worth a re-optimization, stored plans are carried over
    /// and re-cost at the next [`ranked`](Self::ranked) — their stored
    /// costs are allowed to be stale, the start-up pick never reads them).
    pub fn from_parts(scenarios: Vec<(Distribution, Optimized)>) -> Result<Self, CoreError> {
        if scenarios.is_empty() {
            return Err(CoreError::BadParameter("need at least one scenario".into()));
        }
        // Always-on (not debug-gated): this is the one constructor fed with
        // externally stored plans, so even stale-by-design costs must still
        // be finite and nonnegative before they re-enter the service.
        for (i, (_, opt)) in scenarios.iter().enumerate() {
            lec_plan::verify_costs(&format!("parametric scenario {i}"), &[opt.cost])?;
        }
        Ok(Self { scenarios })
    }

    /// Number of stored scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Never true: precompute rejects empty scenario sets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The stored scenarios and their plans.
    pub fn scenarios(&self) -> &[(Distribution, Optimized)] {
        &self.scenarios
    }

    /// Start-up phase: re-cost every distinct stored plan under the
    /// observed distribution (cheap — no plan search), one [`Candidate`]
    /// per plan in first-occurrence scenario order, and [`rank`] them by
    /// `rule`. The rule is validated here; a host certifies it once, when
    /// it is configured, with [`lec_rules::certify`].
    pub fn ranked<M: CostModel + ?Sized>(
        &self,
        query: &JoinQuery,
        model: &M,
        observed: &Distribution,
        rule: &lec_rules::Rule,
    ) -> Result<Vec<Candidate<'_>>, CoreError> {
        lec_rules::SelectionRule::validate(rule)?;
        let mut candidates: Vec<Candidate<'_>> = Vec::new();
        for (scenario, (_, opt)) in self.scenarios.iter().enumerate() {
            if candidates.iter().any(|c| *c.plan == opt.plan) {
                continue;
            }
            let (profile, expected_cost) =
                profile_and_expected_cost(query, model, &opt.plan, observed);
            candidates.push(Candidate {
                scenario,
                plan: &opt.plan,
                profile,
                expected_cost,
                score: f64::NAN,
            });
        }
        Ok(rank(candidates, rule, observed.probs()))
    }

    /// The first of [`ranked`](Self::ranked): the plan to run under
    /// `rule`, with its expected cost under `observed`.
    pub fn pick_with_rule<M: CostModel + ?Sized>(
        &self,
        query: &JoinQuery,
        model: &M,
        observed: &Distribution,
        rule: &lec_rules::Rule,
    ) -> Result<StartupChoice, CoreError> {
        let mut ranked = self.ranked(query, model, observed, rule)?.into_iter();
        let best = ranked.next().ok_or(CoreError::NoPlanFound)?;
        Ok(StartupChoice {
            scenario: best.scenario,
            plan: best.plan.clone(),
            expected_cost: best.expected_cost,
        })
    }
}

/// A stored plan priced by one walk under an observed memory distribution.
#[derive(Debug, Clone)]
pub struct Candidate<'a> {
    /// The first scenario that stored this plan.
    pub scenario: usize,
    /// The plan.
    pub plan: &'a Plan,
    /// Its cost at each observed memory value: what a rule scores.
    pub profile: Vec<f64>,
    /// Its expected cost, reported whatever the rule optimized, so callers
    /// can account the robustness premium.
    pub expected_cost: f64,
    /// Its score among the candidates [`rank`] ranked it with.
    pub score: f64,
}

/// Orders `candidates` best first by `rule`'s joint scores of their
/// profiles (a context-sensitive rule scores a subset among itself):
/// ascending under `total_cmp`, ties by scenario index. LEC's score, the
/// profile mean, sums per memory value, and `expected_cost` per plan step,
/// so the two can disagree on near-ties; the reported bits stay the
/// per-step sum, which every served cost and decision digest is built on.
pub fn rank<'a, R: lec_rules::SelectionRule + ?Sized>(
    mut candidates: Vec<Candidate<'a>>,
    rule: &R,
    probs: &[f64],
) -> Vec<Candidate<'a>> {
    let profiles: Vec<Vec<f64>> = candidates
        .iter_mut()
        .map(|c| std::mem::take(&mut c.profile))
        .collect();
    let scores = rule.scores(&profiles, probs);
    for ((c, profile), score) in candidates.iter_mut().zip(profiles).zip(scores) {
        c.profile = profile;
        c.score = score;
    }
    candidates.sort_by(|a, b| {
        a.score
            .total_cmp(&b.score)
            .then(a.scenario.cmp(&b.scenario))
    });
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg_c;
    use lec_cost::{CountingModel, PaperCostModel};
    use lec_plan::{JoinPred, KeyId, Relation};
    use lec_rules::Rule;

    fn query() -> JoinQuery {
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

    fn scenarios() -> Vec<Distribution> {
        vec![
            // Roomy environment.
            Distribution::new([(1800.0, 0.7), (2500.0, 0.3)]).unwrap(),
            // The paper's 80/20 mix.
            Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).unwrap(),
            // Starved environment.
            Distribution::new([(400.0, 0.6), (900.0, 0.4)]).unwrap(),
        ]
    }

    #[test]
    fn picking_a_stored_scenario_matches_fresh_optimization() {
        let q = query();
        let model = PaperCostModel;
        let set = ParametricPlans::precompute(&q, &model, &scenarios()).unwrap();
        assert_eq!(set.len(), 3);
        for s in scenarios() {
            let choice = set
                .pick_with_rule(&q, &model, &s, &Rule::LeastExpectedCost)
                .unwrap();
            let (fresh, _) = alg_c::optimize(&q, &model, &MemoryModel::Static(s)).unwrap();
            assert!(
                (choice.expected_cost - fresh.cost).abs() <= 1e-9 * fresh.cost,
                "stored {} vs fresh {}",
                choice.expected_cost,
                fresh.cost
            );
        }
    }

    #[test]
    fn interpolated_observations_have_bounded_regret() {
        let q = query();
        let model = PaperCostModel;
        let set = ParametricPlans::precompute(&q, &model, &scenarios()).unwrap();
        // An observed distribution between the stored scenarios.
        let observed = Distribution::new([(600.0, 0.3), (2100.0, 0.7)]).unwrap();
        let choice = set
            .pick_with_rule(&q, &model, &observed, &Rule::LeastExpectedCost)
            .unwrap();
        let (fresh, _) = alg_c::optimize(&q, &model, &MemoryModel::Static(observed)).unwrap();
        // Never better than fresh, and on this family the stored plans
        // cover the space, so it should tie.
        assert!(choice.expected_cost >= fresh.cost - 1e-9);
        assert!(choice.expected_cost <= fresh.cost * 1.2);
    }

    #[test]
    fn startup_costing_is_much_cheaper_than_reoptimizing() {
        let q = query();
        let model = CountingModel::new(PaperCostModel);
        let set = ParametricPlans::precompute(&q, &model, &scenarios()).unwrap();
        let observed = Distribution::new([(500.0, 0.5), (1500.0, 0.5)]).unwrap();
        model.reset();
        set.pick_with_rule(&q, &model, &observed, &Rule::LeastExpectedCost)
            .unwrap();
        let pick_evals = model.evaluations();
        model.reset();
        alg_c::optimize(&q, &model, &MemoryModel::Static(observed)).unwrap();
        let fresh_evals = model.evaluations();
        assert!(
            pick_evals < fresh_evals,
            "pick {pick_evals} vs fresh {fresh_evals}"
        );
    }

    #[test]
    fn rejects_empty_scenarios() {
        let q = query();
        assert!(matches!(
            ParametricPlans::precompute(&q, &PaperCostModel, &[]),
            Err(CoreError::BadParameter(_))
        ));
        assert!(matches!(
            ParametricPlans::precompute_with_stats(&q, &PaperCostModel, &[]),
            Err(CoreError::BadParameter(_))
        ));
    }

    #[test]
    fn stats_variants_match_plain_precompute() {
        let q = query();
        let model = PaperCostModel;
        let plain = ParametricPlans::precompute(&q, &model, &scenarios()).unwrap();
        let (with_stats, stats) =
            ParametricPlans::precompute_with_stats(&q, &model, &scenarios()).unwrap();
        assert_eq!(stats.algorithm, "parametric");
        // Each scenario's plan and cost bits are those of a stand-alone
        // alg_c run under it.
        let mut alone = Vec::new();
        for (s, (_, stored)) in scenarios().into_iter().zip(with_stats.scenarios()) {
            let mem = MemoryModel::Static(s);
            let (fresh, fresh_stats) = alg_c::optimize(&q, &model, &mem).unwrap();
            assert_eq!(fresh.plan, stored.plan);
            assert_eq!(fresh.cost.to_bits(), stored.cost.to_bits());
            alone.push(fresh_stats.counters);
        }
        // One sweep priced all three scenarios, counting each subset and
        // candidate once: the one pair, formed two ways under three
        // methods, as a single alg_c run counts it.
        let c = &stats.counters;
        assert_eq!((c.masks_expanded, c.masks_pruned), (1, 0));
        assert_eq!(c.candidates_priced, 2 * 3);
        assert_eq!(c.entries_written, 2 + 1);
        assert!(alone.iter().all(|a| a == c));
        assert!(stats.counters.candidates_priced > 0);
        // The scenarios share one set of tables, reported once.
        assert_eq!(stats.precompute, QueryTables::new(&q).sizes());
        for ((ds, os), (dw, ow)) in plain.scenarios().iter().zip(with_stats.scenarios()) {
            assert!(ds.approx_eq(dw, 0.0));
            assert_eq!(os.cost.to_bits(), ow.cost.to_bits());
            assert_eq!(os.plan, ow.plan);
        }
    }
}
