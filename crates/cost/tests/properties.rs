//! Property tests: the fast expectation kernels agree exactly with the
//! naive triple loop for arbitrary bucketed distributions, both cost
//! models behave monotonically in memory, and their formulas are
//! non-negative wherever the optimizer's dynamic program evaluates them,
//! and the per-value join kernel folds to the expected-step kernel bit for
//! bit.

use lec_cost::fast_expect::{expected_join_fast, expected_join_naive};
use lec_cost::{CostModel, CountingModel, DetailedCostModel, JoinMethod, PaperCostModel};
use lec_stats::Distribution;
use proptest::prelude::*;

/// Page-size distributions with supports that can collide across relations
/// (values snapped to a coarse grid to force ties).
fn arb_pages_dist() -> impl Strategy<Value = Distribution> {
    prop::collection::vec((1u32..2000, 0.05f64..1.0), 1..=10).prop_map(|pts| {
        Distribution::from_weights(pts.into_iter().map(|(v, w)| (f64::from(v) * 8.0, w)))
            .expect("positive weights")
    })
}

/// Memory distributions, including values likely to hit √n-style thresholds.
fn arb_mem_dist() -> impl Strategy<Value = Distribution> {
    prop::collection::vec((2u32..5000, 0.05f64..1.0), 1..=10).prop_map(|pts| {
        Distribution::from_weights(pts.into_iter().map(|(v, w)| (f64::from(v), w)))
            .expect("positive weights")
    })
}

/// Page counts the left-deep DP hands a formula: result and access pages
/// are floored at one page, and products of huge relations overflow to ∞.
fn dp_pages() -> impl Strategy<Value = f64> {
    (0.0f64..300.0, 0u8..16).prop_map(|(e, k)| if k == 0 { f64::INFINITY } else { 10f64.powf(e) })
}

/// Memory values: any positive size, from a fraction of a page up.
fn dp_memory() -> impl Strategy<Value = f64> {
    (-3.0f64..12.0).prop_map(|e| 10f64.powf(e))
}

/// How the memory supports of two scenarios relate.
#[derive(Debug, Clone, Copy)]
enum Supports {
    /// No value in common.
    Disjoint,
    /// Some values in common.
    Overlapping,
    /// The same values, different probabilities.
    Repeated,
    /// The first scenario is a single point the second also holds.
    OnePoint,
}

/// Two memory scenarios whose supports relate as `supports` says.
fn arb_scenarios() -> impl Strategy<Value = (Supports, Distribution, Distribution)> {
    let points = || prop::collection::vec((1u32..2500, 0.05f64..1.0), 1..=6);
    (0u8..4, points(), points()).prop_map(|(case, a, b)| {
        let supports = [
            Supports::Disjoint,
            Supports::Overlapping,
            Supports::Repeated,
            Supports::OnePoint,
        ][usize::from(case)];
        // Odd values for the first scenario, even for the second: disjoint
        // until a case copies values across.
        let a: Vec<(f64, f64)> = a.iter().map(|&(v, w)| (f64::from(2 * v + 1), w)).collect();
        let mut b: Vec<(f64, f64)> = b.iter().map(|&(v, w)| (f64::from(2 * v), w)).collect();
        let a = match supports {
            Supports::Disjoint => a,
            Supports::Overlapping => {
                b.push(a[0]);
                a
            }
            Supports::Repeated => {
                b = a.iter().rev().map(|&(v, w)| (v, 1.05 - w)).collect();
                a
            }
            Supports::OnePoint => {
                b.push(a[0]);
                vec![(a[0].0, 1.0)]
            }
        };
        let dist =
            |pts: Vec<(f64, f64)>| Distribution::from_weights(pts).expect("positive weights");
        (supports, dist(a), dist(b))
    })
}

/// Prices a join once per distinct memory value of `scenarios` with
/// `join_costs_at`, folds each scenario's expectation in its own bucket
/// order, and checks it against `expected_join_steps` bit for bit.
fn check_per_value_fold<M: CostModel>(
    model: &M,
    (l, r, out): (f64, f64, f64),
    scenarios: [&Distribution; 2],
) -> Result<(), String> {
    let mut union: Vec<f64> = Vec::new();
    for d in scenarios {
        for &v in d.values() {
            if !union.iter().any(|u| u.to_bits() == v.to_bits()) {
                union.push(v);
            }
        }
    }
    let mut per_value = vec![[0.0; 3]; union.len()];
    model.join_costs_at(l, r, &union, &mut per_value);
    for d in scenarios {
        let mut acc = [0.0; 3];
        for (&v, &p) in d.values().iter().zip(d.probs()) {
            let i = union
                .iter()
                .position(|u| u.to_bits() == v.to_bits())
                .expect("in union");
            for (a, f) in acc.iter_mut().zip(per_value[i]) {
                *a += (f + out) * p;
            }
        }
        let fused = model.expected_join_steps(l, r, out, d.values(), d.probs());
        if acc.map(f64::to_bits) != fused.map(f64::to_bits) {
            return Err(format!(
                "({l}, {r}, {out}) over {d:?}: fold {acc:?} vs {fused:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    /// The per-value kernel is the shared half of the expected-step
    /// kernel: each scenario's fold of it reproduces `expected_join_steps`
    /// exactly, for the paper model's hoisted override, the detailed
    /// model's default, the counting wrapper and the `&M` forwarding impl.
    #[test]
    fn per_value_fold_matches_expected_join_steps_bitwise(
        l in 1.0f64..1e7,
        r in 1.0f64..1e7,
        out in 1.0f64..1e9,
        (supports, a, b) in arb_scenarios(),
    ) {
        let sizes = (l, r, out);
        let counting = CountingModel::new(PaperCostModel);
        let checks = [
            ("paper", check_per_value_fold(&PaperCostModel, sizes, [&a, &b])),
            ("detailed", check_per_value_fold(&DetailedCostModel, sizes, [&a, &b])),
            ("counting", check_per_value_fold(&counting, sizes, [&a, &b])),
            ("&paper", check_per_value_fold(&&PaperCostModel, sizes, [&a, &b])),
            ("&detailed", check_per_value_fold(&&DetailedCostModel, sizes, [&a, &b])),
        ];
        for (model, result) in checks {
            prop_assert!(result.is_ok(), "{model} {supports:?}: {}", result.unwrap_err());
        }
    }

    /// The DP's lower bound charges every remaining step at least its
    /// output pages, which is exact only if no join or sort formula is
    /// negative (NaN fails `>= 0` too).
    #[test]
    fn formulas_are_nonnegative_over_the_dp_domain(
        a in dp_pages(),
        b in dp_pages(),
        m in dp_memory(),
    ) {
        for model in [&PaperCostModel as &dyn CostModel, &DetailedCostModel] {
            for method in JoinMethod::ALL {
                let c = model.join_cost(method, a, b, m);
                prop_assert!(c >= 0.0, "{method}({a}, {b}, {m}) = {c}");
            }
            let c = model.sort_cost(a, m);
            prop_assert!(c >= 0.0, "sort({a}, {m}) = {c}");
        }
    }

    #[test]
    fn fast_equals_naive_for_all_methods(
        a in arb_pages_dist(),
        b in arb_pages_dist(),
        mem in arb_mem_dist(),
    ) {
        for method in JoinMethod::ALL {
            let naive = expected_join_naive(&PaperCostModel, method, &a, &b, &mem);
            let fast = expected_join_fast(method, &a, &b, &mem);
            let scale = naive.abs().max(1.0);
            prop_assert!(
                (naive - fast).abs() <= 1e-9 * scale,
                "{method}: naive {naive} vs fast {fast}"
            );
        }
    }

    #[test]
    fn join_costs_monotone_nonincreasing_in_memory(
        a in 1.0f64..1e6,
        b in 1.0f64..1e6,
        m1 in 3.0f64..1e6,
        m2 in 3.0f64..1e6,
    ) {
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        for method in JoinMethod::ALL {
            let paper = PaperCostModel;
            prop_assert!(paper.join_cost(method, a, b, hi) <= paper.join_cost(method, a, b, lo));
            let detailed = DetailedCostModel;
            prop_assert!(
                detailed.join_cost(method, a, b, hi) <= detailed.join_cost(method, a, b, lo)
            );
        }
    }

    #[test]
    fn join_costs_positive_and_finite(
        a in 1.0f64..1e6,
        b in 1.0f64..1e6,
        m in 3.0f64..1e6,
    ) {
        for method in JoinMethod::ALL {
            for model in [&PaperCostModel as &dyn CostModel, &DetailedCostModel] {
                let c = model.join_cost(method, a, b, m);
                prop_assert!(c.is_finite() && c > 0.0);
            }
        }
    }

    #[test]
    fn join_cost_constant_between_breakpoints(
        a in 10.0f64..1e6,
        b in 10.0f64..1e6,
        t in 0.01f64..0.99,
    ) {
        // Probe a random point within each open interval between paper-model
        // breakpoints: the cost there must equal the cost at the interval
        // midpoint (i.e., the formula is a step function of memory).
        let model = PaperCostModel;
        for method in JoinMethod::ALL {
            let mut edges = vec![3.0];
            edges.extend(model.join_breakpoints(method, a, b));
            edges.push(2e6);
            edges.retain(|&e| e >= 3.0);
            edges.dedup();
            for w in edges.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                if hi - lo < 1e-6 {
                    continue;
                }
                let eps = ((hi - lo) * 1e-6).max(1e-9);
                let probe = lo + (hi - lo) * t;
                let mid = (lo + hi) / 2.0;
                let c_probe = model.join_cost(method, a, b, probe.clamp(lo + eps, hi - eps));
                let c_mid = model.join_cost(method, a, b, mid);
                prop_assert_eq!(c_probe, c_mid, "{} on ({}, {})", method, lo, hi);
            }
        }
    }

    #[test]
    fn sort_cost_zero_iff_fits(n in 1.0f64..1e6, m in 3.0f64..1e6) {
        let paper = PaperCostModel.sort_cost(n, m);
        if n <= m {
            prop_assert_eq!(paper, 0.0);
        } else {
            prop_assert!(paper > 0.0);
        }
    }
}
