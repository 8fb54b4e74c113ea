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

use crate::dp::{optimize_left_deep, JoinInputs, Optimized, SweepCoster};
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::evaluate::expected_cost;
use crate::precompute::QueryTables;
use crate::stats::OptStats;
use lec_cost::CostModel;
use lec_plan::{JoinQuery, Plan, RelSet};
use lec_stats::Distribution;
use std::cell::Cell;

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
        if scenarios.is_empty() {
            return Err(CoreError::BadParameter("need at least one scenario".into()));
        }
        let tabs = QueryTables::new(query);
        let coster = ScenarioCoster::new(model, scenarios);
        let (winners, mut stats) = optimize_left_deep(query, &tabs, &coster)?;
        stats.algorithm = "parametric";
        let scenarios = scenarios.iter().cloned().zip(winners).collect();
        Ok((Self { scenarios }, stats))
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

/// Prices every candidate for all scenarios at once. The join formulas are
/// evaluated once per distinct memory value
/// ([`CostModel::join_costs_at`]) and folded into each scenario's
/// expectation in that scenario's bucket order, `acc += (formula + out) ·
/// p`, exactly as [`CostModel::expected_join_steps`] sums it, so each
/// scenario's costs keep the bits of a stand-alone
/// [`ExpectedCoster`](crate::dp::ExpectedCoster) run under it.
struct ScenarioCoster<'a, M: ?Sized> {
    model: &'a M,
    scenarios: &'a [Distribution],
    /// The distinct memory values of all scenarios, in first-appearance
    /// order.
    values: Vec<f64>,
    /// Per scenario, its buckets in order: the index of the bucket's value
    /// in `values`, and its probability.
    buckets: Vec<Vec<(usize, f64)>>,
    /// The per-value formulas of the candidate being priced.
    formulas: Cell<Vec<[f64; 3]>>,
}

impl<'a, M: CostModel + ?Sized> ScenarioCoster<'a, M> {
    fn new(model: &'a M, scenarios: &'a [Distribution]) -> Self {
        let mut values: Vec<f64> = Vec::new();
        let buckets = scenarios
            .iter()
            .map(|d| {
                d.values()
                    .iter()
                    .zip(d.probs())
                    .map(|(&v, &p)| {
                        let i = values
                            .iter()
                            .position(|u| u.to_bits() == v.to_bits())
                            .unwrap_or_else(|| {
                                values.push(v);
                                values.len() - 1
                            });
                        (i, p)
                    })
                    .collect()
            })
            .collect();
        let formulas = Cell::new(vec![[0.0; 3]; values.len()]);
        ScenarioCoster {
            model,
            scenarios,
            values,
            buckets,
            formulas,
        }
    }
}

impl<M: CostModel + ?Sized> SweepCoster for ScenarioCoster<'_, M> {
    type Output = Vec<Optimized>;

    fn scenarios(&self) -> usize {
        self.scenarios.len()
    }

    fn join_each(&self, _phase: usize, bases: &[f64], join: JoinInputs, out: &mut [[f64; 3]]) {
        let mut formulas = self.formulas.take();
        self.model.join_costs_at(
            join.left_pages,
            join.right_pages,
            &self.values,
            &mut formulas,
        );
        let o = join.out_pages;
        for ((buckets, &base), slot) in self.buckets.iter().zip(bases).zip(out) {
            let mut acc = [0.0; 3];
            for &(i, p) in buckets {
                for (a, f) in acc.iter_mut().zip(formulas[i]) {
                    *a += (f + o) * p;
                }
            }
            *slot = acc.map(|step| base + step);
        }
        self.formulas.set(formulas);
    }

    fn join_one(&self, _phase: usize, s: usize, base: f64, join: JoinInputs) -> [f64; 3] {
        let Some(d) = self.scenarios.get(s) else {
            return [f64::NAN; 3];
        };
        let mut formulas = self.formulas.take();
        self.model
            .join_costs_at(join.left_pages, join.right_pages, d.values(), &mut formulas);
        let mut acc = [0.0; 3];
        for (f, &p) in formulas.iter().zip(d.probs()) {
            for (a, f) in acc.iter_mut().zip(f) {
                *a += (f + join.out_pages) * p;
            }
        }
        self.formulas.set(formulas);
        acc.map(|step| base + step)
    }

    fn sort_one(&self, _phase: usize, s: usize, _set: RelSet, pages: f64) -> f64 {
        self.scenarios.get(s).map_or(f64::NAN, |d| {
            self.model.expected_sort_step(pages, d.values(), d.probs())
        })
    }

    /// A step is `Σ (formula + out_pages) · p` with non-negative formulas
    /// and probabilities summing to one up to rounding.
    fn step_floor(&self, out_pages: f64) -> f64 {
        out_pages
    }

    fn output(winners: Vec<Optimized>) -> Result<Vec<Optimized>, CoreError> {
        Ok(winners)
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

    /// A 3-relation chain whose two 1e200-page relations join at
    /// selectivity 1: every plan's result overflows, so every winner costs
    /// ∞. That is a typed error in every build, never an `Ok(∞)` (which
    /// `from_parts` would refuse) and never a panic.
    #[test]
    fn non_finite_winners_are_typed_errors() {
        let q = JoinQuery::new(
            vec![
                Relation::new("huge_a", 1e200, 1e200),
                Relation::new("huge_b", 1e200, 1e200),
                Relation::new("small", 10.0, 1e3),
            ],
            vec![
                JoinPred {
                    left: 0,
                    right: 1,
                    selectivity: 1.0,
                    key: KeyId(0),
                },
                JoinPred {
                    left: 1,
                    right: 2,
                    selectivity: 1.0,
                    key: KeyId(1),
                },
            ],
            None,
        )
        .unwrap();
        let bad_cost = |r: Result<(), CoreError>| {
            matches!(
                r,
                Err(CoreError::Plan(lec_plan::PlanError::BadCost { value, .. })) if value.is_infinite()
            )
        };
        let model = PaperCostModel;
        for s in scenarios() {
            let mem = MemoryModel::Static(s);
            assert!(bad_cost(alg_c::optimize(&q, &model, &mem).map(|_| ())));
        }
        assert!(bad_cost(
            ParametricPlans::precompute(&q, &model, &scenarios()).map(|_| ())
        ));
    }
}
