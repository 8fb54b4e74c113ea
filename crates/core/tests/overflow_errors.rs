//! Queries on which every plan's cost overflows to ∞: two 1e200-page
//! relations joined at selectivity 1. Every optimizer — the left-deep DP
//! behind LSC, Algorithm C and parametric precompute, bushy, top-c,
//! Algorithm B, and the certificate built on bushy — answers such a query
//! with `CoreError::Plan(BadCost)` in every build: never an `Ok` carrying
//! ∞, and never the debug-build verifier's panic. Run under `cargo test`,
//! these cases exercise the debug build; `--release` exercises the other.

use lec_core::parametric::ParametricPlans;
use lec_core::topc::top_c_plans;
use lec_core::{alg_b, alg_c, bushy, certify_plan, lsc, CoreError, MemoryModel, QueryIntervals};
use lec_cost::{JoinMethod, PaperCostModel};
use lec_plan::{JoinPred, JoinQuery, KeyId, Plan, PlanError, Relation};
use lec_stats::Distribution;

/// A 3-relation chain whose two 1e200-page relations join at selectivity
/// 1: every plan's result overflows, so every plan costs ∞.
fn overflowing() -> JoinQuery {
    JoinQuery::new(
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
    .expect("query")
}

fn memory() -> MemoryModel {
    MemoryModel::Static(Distribution::new([(20.0, 0.3), (400.0, 0.7)]).expect("dist"))
}

/// Asserts `result` is the typed error for a non-finite cost.
fn assert_bad_cost<T: std::fmt::Debug>(result: Result<T, CoreError>, label: &str) {
    match result {
        Err(CoreError::Plan(PlanError::BadCost { value, .. })) => {
            assert!(
                !value.is_finite(),
                "{label}: rejected a finite cost {value}"
            );
        }
        other => panic!("{label}: expected a BadCost error, got {other:?}"),
    }
}

/// The left-deep DP's winners: LSC, Algorithm C, and every scenario of a
/// parametric precompute (which `ParametricPlans::from_parts` would refuse
/// as `Ok(∞)`).
#[test]
fn left_deep_winners_are_typed_errors() {
    let q = overflowing();
    let scenarios = [
        Distribution::new([(1800.0, 0.7), (2500.0, 0.3)]).expect("dist"),
        Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).expect("dist"),
        Distribution::new([(400.0, 0.6), (900.0, 0.4)]).expect("dist"),
    ];
    for s in &scenarios {
        let mem = MemoryModel::Static(s.clone());
        assert_bad_cost(alg_c::optimize(&q, &PaperCostModel, &mem), "alg_c");
        assert_bad_cost(lsc::optimize_at(&q, &PaperCostModel, s.mean()), "lsc");
    }
    let precomputed = ParametricPlans::precompute(&q, &PaperCostModel, &scenarios);
    assert_bad_cost(precomputed, "parametric");
}

#[test]
fn bushy_rejects_an_overflowing_winner() {
    let q = overflowing();
    assert_bad_cost(bushy::optimize(&q, &PaperCostModel, &memory()), "bushy");
}

#[test]
fn top_c_rejects_overflowing_plans() {
    let q = overflowing();
    for c in [1, 2] {
        let result = top_c_plans(&q, &PaperCostModel, 400.0, c);
        assert_bad_cost(result, &format!("top-{c}"));
    }
}

#[test]
fn algorithm_b_rejects_an_overflowing_query() {
    let q = overflowing();
    assert_bad_cost(alg_b::optimize(&q, &PaperCostModel, &memory(), 2), "alg_b");
}

/// The certificate's lower bound is the bushy optimum of the optimistic
/// query, which with exact intervals is the query itself: certifying any
/// plan of it fails with the bushy optimizer's typed error.
#[test]
fn certify_plan_returns_the_overflow_error() {
    let q = overflowing();
    let plan = Plan::join(
        Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::GraceHash,
            Some(KeyId(0)),
        ),
        Plan::scan(2),
        JoinMethod::GraceHash,
        Some(KeyId(1)),
    );
    let intervals = QueryIntervals::exact(&q);
    let result = certify_plan(&q, &PaperCostModel, &memory(), &plan, &intervals);
    assert_bad_cost(result, "certify_plan");
}
