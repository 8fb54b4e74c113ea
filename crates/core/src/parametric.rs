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

use crate::dp::{optimize_left_deep, ExpectedCoster, Optimized};
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::evaluate::expected_cost;
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
/// let choice = set.pick(&query, &PaperCostModel, &observed)?;
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
    /// Compile-time phase: run the (expensive) LEC optimizer once per
    /// scenario distribution.
    pub fn precompute<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        scenarios: &[Distribution],
    ) -> Result<Self, CoreError> {
        Ok(Self::precompute_with_stats(query, model, scenarios)?.0)
    }

    /// [`precompute`](Self::precompute), also returning the aggregate
    /// [`OptStats`] of the per-scenario optimizer runs (absorbed in
    /// scenario order, so the aggregate is deterministic).
    ///
    /// Every scenario runs Algorithm C's DP against one shared
    /// [`QueryTables`], so the aggregate reports the table sizes once, not
    /// once per scenario.
    pub fn precompute_with_stats<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        scenarios: &[Distribution],
    ) -> Result<(Self, OptStats), CoreError> {
        if scenarios.is_empty() {
            return Err(CoreError::BadParameter("need at least one scenario".into()));
        }
        let tabs = QueryTables::new(query);
        let mut out = Vec::with_capacity(scenarios.len());
        let mut aggregate = OptStats::new("parametric", query.n());
        for s in scenarios {
            let phases = MemoryModel::Static(s.clone()).table(query.n().max(2))?;
            let coster = ExpectedCoster::new(model, &phases);
            let (opt, stats) = optimize_left_deep(query, &tabs, &coster)?;
            aggregate.absorb(&stats);
            out.push((s.clone(), opt));
        }
        aggregate.precompute = tabs.sizes();
        Ok((Self { scenarios: out }, aggregate))
    }

    /// Rebuilds a set from already-optimized per-scenario plans (the
    /// `lec-serve` cache-entry *migration* path: after a recalibration
    /// judged not worth a re-optimization, stored plans are carried over
    /// and re-cost at the next [`pick`](Self::pick) — their stored costs
    /// are allowed to be stale, `pick` never reads them).
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

    /// Start-up phase: re-cost every stored plan under the observed
    /// distribution (cheap — no plan search) and return the best.
    pub fn pick<M: CostModel + ?Sized>(
        &self,
        query: &JoinQuery,
        model: &M,
        observed: &Distribution,
    ) -> Result<StartupChoice, CoreError> {
        let phases = MemoryModel::Static(observed.clone()).table(query.n().max(2))?;
        let mut best: Option<StartupChoice> = None;
        // Deduplicate identical plans across scenarios before costing.
        let mut seen: Vec<&Plan> = Vec::new();
        for (idx, (_, opt)) in self.scenarios.iter().enumerate() {
            if seen.iter().any(|p| **p == opt.plan) {
                continue;
            }
            seen.push(&opt.plan);
            let e = expected_cost(query, model, &opt.plan, &phases);
            if best.as_ref().is_none_or(|b| e < b.expected_cost) {
                best = Some(StartupChoice {
                    scenario: idx,
                    plan: opt.plan.clone(),
                    expected_cost: e,
                });
            }
        }
        best.ok_or(CoreError::NoPlanFound)
    }

    /// [`pick`](Self::pick) under a configurable selection rule.
    ///
    /// [`lec_rules::Rule::LeastExpectedCost`] dispatches to [`pick`](Self::pick)
    /// itself — same code path, bit-identical choice. Any other rule
    /// scores the stored plans' cost *profiles* under the observed
    /// distribution jointly (regret-style rules are context-sensitive)
    /// and keeps the argmin, first-wins on ties in scenario order — the
    /// same dedup and tie conventions as the expected-cost path. The
    /// reported `expected_cost` is always the plan's expected cost under
    /// `observed`, whatever the rule optimized, so callers can account
    /// the robustness premium.
    pub fn pick_with_rule<M: CostModel + ?Sized>(
        &self,
        query: &JoinQuery,
        model: &M,
        observed: &Distribution,
        rule: &lec_rules::Rule,
    ) -> Result<StartupChoice, CoreError> {
        if matches!(rule, lec_rules::Rule::LeastExpectedCost) {
            return self.pick(query, model, observed);
        }
        rule.certify()?;
        // Deduplicate identical plans across scenarios before costing
        // (same convention as `pick`).
        let mut kept: Vec<(usize, &Plan)> = Vec::new();
        for (idx, (_, opt)) in self.scenarios.iter().enumerate() {
            if kept.iter().any(|(_, p)| **p == opt.plan) {
                continue;
            }
            kept.push((idx, &opt.plan));
        }
        let profiles: Vec<Vec<f64>> = kept
            .iter()
            .map(|(_, plan)| crate::evaluate::cost_profile(query, model, plan, observed.values()))
            .collect();
        let scores = lec_rules::SelectionRule::scores(rule, &profiles, observed.probs());
        let win = lec_rules::argmin(&scores).ok_or(CoreError::NoPlanFound)?;
        let (scenario, plan) = kept[win];
        let phases = MemoryModel::Static(observed.clone()).table(query.n().max(2))?;
        Ok(StartupChoice {
            scenario,
            plan: plan.clone(),
            expected_cost: expected_cost(query, model, plan, &phases),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg_c;
    use lec_cost::{CountingModel, PaperCostModel};
    use lec_plan::{JoinPred, KeyId, Relation};

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
            let choice = set.pick(&q, &model, &s).unwrap();
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
        let choice = set.pick(&q, &model, &observed).unwrap();
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
        set.pick(&q, &model, &observed).unwrap();
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
        // One alg_c run per scenario, absorbed in scenario order, with the
        // same plan and cost bits as a stand-alone alg_c run.
        let mut expected = OptStats::new("parametric", q.n());
        for (s, (_, stored)) in scenarios().into_iter().zip(with_stats.scenarios()) {
            let mem = MemoryModel::Static(s);
            let (fresh, fresh_stats) = alg_c::optimize(&q, &model, &mem).unwrap();
            assert_eq!(fresh.plan, stored.plan);
            assert_eq!(fresh.cost.to_bits(), stored.cost.to_bits());
            expected.absorb(&fresh_stats);
        }
        assert_eq!(stats.counters, expected.counters);
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
