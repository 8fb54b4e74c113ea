//! Cross-crate property tests: optimizer invariants over randomized
//! queries and environments.

use lecopt::core::{alg_b, alg_c, bucketing, evaluate, exhaustive, lsc, MemoryModel};
use lecopt::cost::{DetailedCostModel, PaperCostModel};
use lecopt::stats::Distribution;
use lecopt::workload::queries::{QueryGen, Topology};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_query() -> impl Strategy<Value = lecopt::plan::JoinQuery> {
    (2usize..=4, any::<u64>(), prop::bool::ANY).prop_map(|(n, seed, order)| {
        QueryGen {
            topology: Topology::Chain,
            n,
            require_order: order,
            ..QueryGen::default()
        }
        .generate(&mut ChaCha8Rng::seed_from_u64(seed))
    })
}

fn arb_memory() -> impl Strategy<Value = Distribution> {
    prop::collection::vec((4.0f64..5000.0, 0.05f64..1.0), 1..=5)
        .prop_map(|pts| Distribution::from_weights(pts).expect("positive weights"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Algorithm C's reported cost always equals the evaluator's score of
    /// its plan, and is a lower bound on every enumerated left-deep plan.
    #[test]
    fn alg_c_exact_and_self_consistent(q in arb_query(), mem in arb_memory()) {
        let model = PaperCostModel;
        let mm = MemoryModel::Static(mem);
        let lec = alg_c::optimize(&q, &model, &mm).unwrap().0;
        let phases = mm.table(q.n()).unwrap();
        let scored = evaluate::expected_cost(&q, &model, &lec.plan, &phases);
        prop_assert!((lec.cost - scored).abs() <= 1e-6 * scored.max(1.0));
        for plan in exhaustive::enumerate_left_deep(&q) {
            let e = evaluate::expected_cost(&q, &model, &plan, &phases);
            prop_assert!(lec.cost <= e + 1e-6 * e.max(1.0));
        }
    }

    /// The same optimality, under the detailed (textbook) cost model —
    /// Algorithm C is model-agnostic.
    #[test]
    fn alg_c_optimal_under_detailed_model(q in arb_query(), mem in arb_memory()) {
        let model = DetailedCostModel;
        let mm = MemoryModel::Static(mem);
        let lec = alg_c::optimize(&q, &model, &mm).unwrap().0;
        let phases = mm.table(q.n()).unwrap();
        for plan in exhaustive::enumerate_left_deep(&q) {
            let e = evaluate::expected_cost(&q, &model, &plan, &phases);
            prop_assert!(lec.cost <= e + 1e-6 * e.max(1.0));
        }
    }

    /// Monotonicity of the family: C ≤ B(c) ≤ B(1) = A.
    #[test]
    fn family_ordering(q in arb_query(), mem in arb_memory(), c in 2usize..6) {
        let model = PaperCostModel;
        let mm = MemoryModel::Static(mem);
        let cc = alg_c::optimize(&q, &model, &mm).unwrap().0;
        let bc = alg_b::optimize(&q, &model, &mm, c).unwrap();
        let b1 = alg_b::optimize(&q, &model, &mm, 1).unwrap();
        prop_assert!(cc.cost <= bc.best.cost + 1e-9 * cc.cost.max(1.0));
        prop_assert!(bc.best.cost <= b1.best.cost + 1e-9 * cc.cost.max(1.0));
    }

    /// Level-set bucketing never changes Algorithm C's answer.
    #[test]
    fn level_set_bucketing_lossless(q in arb_query(), mem in arb_memory()) {
        let model = PaperCostModel;
        let coarse = bucketing::bucketize_memory(&q, &model, &mem).unwrap();
        let fine_res = alg_c::optimize(&q, &model, &MemoryModel::Static(mem)).unwrap().0;
        let coarse_res = alg_c::optimize(&q, &model, &MemoryModel::Static(coarse)).unwrap().0;
        prop_assert!(
            (fine_res.cost - coarse_res.cost).abs() <= 1e-6 * fine_res.cost.max(1.0),
            "{} vs {}", fine_res.cost, coarse_res.cost
        );
    }

    /// The chosen plan always satisfies the query's order requirement.
    #[test]
    fn required_order_always_satisfied(q in arb_query(), mem in arb_memory()) {
        let lec = alg_c::optimize(&q, &PaperCostModel, &MemoryModel::Static(mem)).unwrap().0;
        if let Some(k) = q.required_order() {
            prop_assert_eq!(lec.plan.output_order(), Some(k));
        }
        lec.plan.validate(&q).unwrap();
        prop_assert!(lec.plan.is_left_deep());
    }

    /// LSC at any specific value is lower-bounded by LEC in expectation,
    /// and plan costs are monotone non-increasing in memory.
    #[test]
    fn lsc_cost_monotone_in_memory(q in arb_query(), m1 in 4.0f64..5000.0, m2 in 4.0f64..5000.0) {
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        let model = PaperCostModel;
        let cheap_hi = lsc::optimize_at(&q, &model, hi).unwrap().0;
        let cheap_lo = lsc::optimize_at(&q, &model, lo).unwrap().0;
        prop_assert!(cheap_hi.cost <= cheap_lo.cost + 1e-9 * cheap_lo.cost.max(1.0));
    }
}
