//! Rule-selection differential battery (the refactor safety net for the
//! `lec-rules` subsystem), on the same seeded environments as
//! `optimizer_differential.rs`.
//!
//! * **Bit-identity**: the `LeastExpectedCost` rule must return the same
//!   plan and the same cost *bits* as the existing expected-cost
//!   optimizers — both the fresh-optimization path (`alg_c` via
//!   [`rules::optimize_with_rule`]) and the parametric start-up path
//!   ([`ParametricPlans::pick_with_rule`] vs `oracle::pick`, a verbatim
//!   copy of the stand-alone expected-cost pick it replaced). The start-up
//!   pick ranks every rule, LEC included, by its score on the plans' cost
//!   profiles; LEC's score (the profile mean) sums in a different order
//!   from the reported expected cost, so the battery also checks that the
//!   winner's expected cost is within 1e-12 of every candidate's: the two
//!   sums can only disagree on near-ties.
//! * **Frontier agreement**: finalizing the LEC criterion over the
//!   Pareto frontier (the path every *other* rule takes) lands on the
//!   same expected cost as the scalar DP, up to float-summation-order
//!   tolerance — the two paths genuinely sum in different orders.
//! * **Divergence**: on at least one seeded environment apiece,
//!   `MinmaxRegret` and `TailRisk` provably pick a *different* plan than
//!   LEC, and every such minmax divergence strictly reduces the
//!   worst-case regret over the belief support (that is the rule's
//!   defining guarantee — checked against the rule-independent frontier).

use lec_core::evaluate::{cost_profile, expected_cost};
use lec_core::parametric::ParametricPlans;
use lec_core::rules::optimize_with_rule;
use lec_core::{alg_c, MemoryModel};
use lec_cost::PaperCostModel;
use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
use lec_rules::{Rule, TailRisk};
use lec_stats::Distribution;

/// The expected-cost start-up pick that `pick_with_rule` replaced, kept
/// verbatim as the oracle.
mod oracle {
    use lec_core::evaluate::expected_cost;
    use lec_core::parametric::{ParametricPlans, StartupChoice};
    use lec_core::{CoreError, MemoryModel};
    use lec_cost::CostModel;
    use lec_plan::{JoinQuery, Plan};
    use lec_stats::Distribution;

    /// Start-up phase: re-cost every stored plan under the observed
    /// distribution (cheap — no plan search) and return the best.
    pub(crate) fn pick<M: CostModel + ?Sized>(
        set: &ParametricPlans,
        query: &JoinQuery,
        model: &M,
        observed: &Distribution,
    ) -> Result<StartupChoice, CoreError> {
        let phases = MemoryModel::Static(observed.clone()).table(query.n().max(2))?;
        let mut best: Option<StartupChoice> = None;
        // Deduplicate identical plans across scenarios before costing.
        let mut seen: Vec<&Plan> = Vec::new();
        for (idx, (_, opt)) in set.scenarios().iter().enumerate() {
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
}

/// splitmix64: the battery's only randomness (identical to the generator
/// in `optimizer_differential.rs`, so both batteries stress the same
/// environment family).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() % 1000) as f64 / 1000.0
    }
}

fn build_query(topo: usize, n: usize, seed: u64, ordered: bool) -> JoinQuery {
    let mut rng = SplitMix64(seed ^ (topo as u64) << 32 ^ (n as u64) << 48);
    let relations = (0..n)
        .map(|i| {
            let pages = (rng.next() % 7000 + 50) as f64;
            let mut rel = Relation::new(format!("r{i}"), pages, pages * 40.0);
            if rng.next().is_multiple_of(3) {
                rel = rel
                    .with_local_selectivity(rng.range(0.05, 0.95))
                    .with_index();
            }
            rel
        })
        .collect();
    let mut predicates = Vec::new();
    let push = |preds: &mut Vec<JoinPred>, l: usize, r: usize, rng: &mut SplitMix64| {
        let key = preds.len();
        preds.push(JoinPred {
            left: l,
            right: r,
            selectivity: rng.range(1e-5, 1e-2),
            key: KeyId(key),
        });
    };
    match topo {
        0 => (0..n - 1).for_each(|i| push(&mut predicates, i, i + 1, &mut rng)),
        1 => (1..n).for_each(|i| push(&mut predicates, 0, i, &mut rng)),
        _ => (0..n).for_each(|i| {
            (i + 1..n).for_each(|j| push(&mut predicates, i, j, &mut rng));
        }),
    }
    let required = ordered.then(|| predicates[predicates.len() - 1].key);
    JoinQuery::new(relations, predicates, required).expect("valid differential query")
}

fn build_memory(seed: u64) -> Distribution {
    let mut rng = SplitMix64(seed.wrapping_mul(0xA24BAED4963EE407));
    let lo = rng.range(5.0, 80.0);
    let hi = rng.range(150.0, 3000.0);
    if rng.next().is_multiple_of(2) {
        let p = rng.range(0.1, 0.9);
        Distribution::new([(lo, p), (hi, 1.0 - p)]).expect("two-point memory")
    } else {
        let mid = rng.range(90.0, 140.0);
        Distribution::new([(lo, 0.25), (mid, 0.4), (hi, 0.35)]).expect("three-point memory")
    }
}

/// The ~51 seeded environments of the optimizer battery.
fn environments() -> Vec<(JoinQuery, Distribution, String)> {
    let mut envs = Vec::new();
    for topo in 0..3 {
        for n in 2..=5 {
            for seed in 0..4 {
                let ordered = seed % 2 == 1;
                envs.push((
                    build_query(topo, n, seed, ordered),
                    build_memory(seed * 31 + topo as u64 * 7 + n as u64),
                    format!("topo {topo} n {n} seed {seed} ordered {ordered}"),
                ));
            }
        }
    }
    for seed in 0..3 {
        envs.push((
            build_query(0, 6, 100 + seed, false),
            build_memory(500 + seed),
            format!("topo 0 n 6 seed {} ordered false", 100 + seed),
        ));
    }
    envs
}

/// Three anticipated-scenario distributions per environment, for the
/// parametric start-up path.
fn scenario_set(seed: u64, observed: &Distribution) -> Vec<Distribution> {
    vec![
        build_memory(seed.wrapping_add(1000)),
        build_memory(seed.wrapping_add(2000)),
        observed.clone(),
    ]
}

#[test]
fn lec_rule_is_bit_identical_to_the_expected_cost_optimizers() {
    let model = PaperCostModel;
    for (i, (q, mem, label)) in environments().into_iter().enumerate() {
        // Fresh optimization: the rule entry point vs alg_c directly.
        let via_rule =
            optimize_with_rule(&q, &model, &mem, &Rule::LeastExpectedCost).expect("rule path");
        let direct = alg_c::optimize(&q, &model, &MemoryModel::Static(mem.clone()))
            .expect("alg_c")
            .0;
        assert_eq!(
            via_rule.best.cost.to_bits(),
            direct.cost.to_bits(),
            "{label}: LEC rule cost must be bit-identical to alg_c"
        );
        assert_eq!(via_rule.best.plan, direct.plan, "{label}: LEC rule plan");
        // The chosen plan's cost distribution sums its mean in bucket
        // order, not in the DP's order: equal up to float re-association.
        let mean = via_rule.cost_distribution.mean();
        assert!(
            (mean - direct.cost).abs() <= 1e-9 * direct.cost.max(1.0),
            "{label}: LEC rule's cost distribution has mean {mean}, alg_c cost {}",
            direct.cost
        );

        // Parametric start-up: pick_with_rule(LEC) vs the old pick, bit
        // for bit.
        let scenarios = scenario_set(i as u64, &mem);
        let set = ParametricPlans::precompute(&q, &model, &scenarios).expect("precompute");
        let plain = oracle::pick(&set, &q, &model, &mem).expect("pick");
        let ruled = set
            .pick_with_rule(&q, &model, &mem, &Rule::LeastExpectedCost)
            .expect("pick_with_rule");
        assert_eq!(ruled.scenario, plain.scenario, "{label}: startup scenario");
        assert_eq!(ruled.plan, plain.plan, "{label}: startup plan");
        assert_eq!(
            ruled.expected_cost.to_bits(),
            plain.expected_cost.to_bits(),
            "{label}: startup cost bits"
        );
        // The profile-mean ranking can only swap near-ties of the kernel's
        // expected costs.
        let ranked = set
            .ranked(&q, &model, &mem, &Rule::LeastExpectedCost)
            .expect("ranked");
        for c in &ranked {
            assert!(
                ruled.expected_cost <= c.expected_cost * (1.0 + 1e-12),
                "{label}: LEC winner {} above candidate {} (scenario {})",
                ruled.expected_cost,
                c.expected_cost,
                c.scenario
            );
        }
    }
}

#[test]
fn frontier_finalized_lec_agrees_with_the_scalar_path() {
    let model = PaperCostModel;
    for (q, mem, label) in environments() {
        let scalar = alg_c::optimize(&q, &model, &MemoryModel::Static(mem.clone()))
            .expect("alg_c")
            .0;
        // Finalize the LEC criterion over the root Pareto frontier, the
        // path every other rule takes.
        let frontier = lec_core::pareto::optimize(&q, &model, &mem, &lec_stats::Utility::Linear)
            .expect("frontier LEC")
            .0;
        assert!(
            (frontier.best.cost - scalar.cost).abs() <= 1e-9 * scalar.cost.max(1.0),
            "{label}: frontier-finalized LEC {} vs scalar {}",
            frontier.best.cost,
            scalar.cost
        );
    }
}

#[test]
fn minmax_and_tail_risk_provably_diverge_from_lec() {
    let model = PaperCostModel;
    let mut minmax_divergences = 0usize;
    let mut tail_divergences = 0usize;
    for (q, mem, label) in environments() {
        let lec = optimize_with_rule(&q, &model, &mem, &Rule::LeastExpectedCost).expect("lec");
        let minmax = optimize_with_rule(&q, &model, &mem, &Rule::MinmaxRegret).expect("minmax");
        let tail = optimize_with_rule(&q, &model, &mem, &Rule::TailRisk(TailRisk { alpha: 0.9 }))
            .expect("tail");

        // Rule-independent yardstick: regret against the *per-scenario
        // optima of the whole plan space* — which the Pareto frontier
        // attains, so the frontier's root profiles define them. The
        // minmax winner minimized exactly this objective, so its
        // worst-case regret can never exceed the LEC plan's.
        let lec_profile = cost_profile(&q, &model, &lec.best.plan, mem.values());
        let mm_profile = cost_profile(&q, &model, &minmax.best.plan, mem.values());
        let frontier = lec_core::pareto::optimize(&q, &model, &mem, &lec_stats::Utility::Linear)
            .expect("frontier")
            .0
            .frontier_profiles;
        let opt: Vec<f64> = (0..mem.values().len())
            .map(|s| {
                frontier
                    .iter()
                    .map(|p| p[s])
                    .chain([lec_profile[s], mm_profile[s]])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let max_regret = |profile: &[f64]| {
            profile
                .iter()
                .zip(&opt)
                .map(|(c, o)| c - o)
                .fold(0.0f64, f64::max)
        };
        assert!(
            max_regret(&mm_profile) <= max_regret(&lec_profile) + 1e-9,
            "{label}: minmax winner has worse worst-case regret than LEC"
        );
        if minmax.best.plan != lec.best.plan {
            minmax_divergences += 1;
        }
        if tail.best.plan != lec.best.plan {
            tail_divergences += 1;
        }
        // The robustness premium is never negative expected cost savings:
        // LEC is by definition minimal in expectation.
        let phases = MemoryModel::Static(mem.clone())
            .table(q.n().max(2))
            .expect("phases");
        for robust in [&minmax, &tail] {
            let repriced = expected_cost(&q, &model, &robust.best.plan, &phases);
            assert!(
                repriced >= lec.best.cost - 1e-9 * lec.best.cost.max(1.0),
                "{label}: a robust rule repriced below the LEC optimum"
            );
        }
    }
    assert!(
        minmax_divergences >= 1,
        "minmax regret never diverged from LEC across the battery"
    );
    assert!(
        tail_divergences >= 1,
        "tail risk never diverged from LEC across the battery"
    );
}
