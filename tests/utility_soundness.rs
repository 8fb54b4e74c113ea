//! Integration tests for the expected-utility extension: the Pareto DP is
//! exact for every monotone utility; the scalar DP is exact exactly for the
//! linear utility.

use lecopt::core::pareto;
use lecopt::cost::PaperCostModel;
use lecopt::stats::Utility;
use lecopt::workload::envs;
use lecopt::workload::queries::{QueryGen, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn query(seed: u64) -> lecopt::plan::JoinQuery {
    QueryGen {
        topology: Topology::Chain,
        n: 4,
        ..QueryGen::default()
    }
    .generate(&mut ChaCha8Rng::seed_from_u64(seed))
}

#[test]
fn pareto_dp_is_exact_for_every_utility() {
    let model = PaperCostModel;
    for seed in 0..6 {
        let q = query(seed);
        let mem = envs::lognormal(300.0, 1.0, 5);
        let linear = pareto::exhaustive_utility(&q, &model, &mem, Utility::Linear).unwrap();
        let deadline = linear.cost_distribution.quantile(0.55).unwrap();
        for u in [
            Utility::Linear,
            Utility::Exponential { gamma: 1e-5 },
            Utility::Exponential { gamma: -1e-5 },
            Utility::Deadline {
                threshold: deadline,
            },
        ] {
            let p = pareto::optimize(&q, &model, &mem, u).unwrap().0;
            let t = pareto::exhaustive_utility(&q, &model, &mem, u).unwrap();
            assert!(
                (p.best.cost - t.best.cost).abs() <= 1e-6 * t.best.cost.abs().max(1e-12),
                "seed {seed}, {u:?}: {} vs {}",
                p.best.cost,
                t.best.cost
            );
        }
    }
}

#[test]
fn scalar_dp_sound_iff_linear() {
    let model = PaperCostModel;
    let mut nonlinear_gap = false;
    for seed in 0..25 {
        let q = query(100 + seed);
        let mem = envs::lognormal(300.0, 1.0, 5);
        // Linear: always exact.
        let s = pareto::scalar_dp(&q, &model, &mem, Utility::Linear).unwrap();
        let t = pareto::exhaustive_utility(&q, &model, &mem, Utility::Linear).unwrap();
        assert!(
            (s.best.cost - t.best.cost).abs() <= 1e-6 * t.best.cost,
            "seed {seed}: linear scalar DP must be exact"
        );
        // Deadline: never better, sometimes strictly worse.
        let deadline = t.cost_distribution.quantile(0.6).unwrap();
        let u = Utility::Deadline {
            threshold: deadline,
        };
        let su = pareto::scalar_dp(&q, &model, &mem, u).unwrap();
        let tu = pareto::exhaustive_utility(&q, &model, &mem, u).unwrap();
        assert!(su.best.cost >= tu.best.cost - 1e-12, "seed {seed}");
        if su.best.cost > tu.best.cost + 1e-9 {
            nonlinear_gap = true;
        }
    }
    assert!(nonlinear_gap, "no counterexample across 25 seeds");
}

#[test]
fn risk_preferences_order_certainty_equivalents() {
    // For the SAME plan, a risk-averse score is >= the mean, risk-seeking
    // <= the mean; and stronger aversion means a higher score.
    let model = PaperCostModel;
    let q = query(55);
    let mem = envs::lognormal(300.0, 1.2, 6);
    let plan = pareto::optimize(&q, &model, &mem, Utility::Linear)
        .unwrap()
        .0;
    let d = &plan.cost_distribution;
    let mean = d.mean();
    let averse1 = Utility::Exponential { gamma: 1e-6 }.score(d);
    let averse2 = Utility::Exponential { gamma: 1e-5 }.score(d);
    let seeking = Utility::Exponential { gamma: -1e-5 }.score(d);
    assert!(averse1 >= mean - 1e-6);
    assert!(averse2 >= averse1 - 1e-6, "{averse2} vs {averse1}");
    assert!(seeking <= mean + 1e-6);
}

#[test]
fn soundness_gate_admits_and_refuses_by_measured_algebra() {
    // The static gate must agree with what the DP-vs-exhaustive experiments
    // above demonstrate dynamically: linear → scalar DP, exponential →
    // frontier DP, deadline → refused before any DP runs.
    use lecopt::core::soundness::{self, DpAdmission};
    use lecopt::core::CoreError;

    let model = PaperCostModel;
    let q = query(7);
    let mem = envs::lognormal(300.0, 1.0, 5);

    let (linear, adm) = soundness::optimize_gated(&q, &model, &mem, Utility::Linear).unwrap();
    assert_eq!(adm, DpAdmission::ScalarExpectedCost);
    let truth = pareto::exhaustive_utility(&q, &model, &mem, Utility::Linear).unwrap();
    assert!((linear.best.cost - truth.best.cost).abs() <= 1e-6 * truth.best.cost);

    let u = Utility::Exponential { gamma: 1e-5 };
    let (averse, adm) = soundness::optimize_gated(&q, &model, &mem, u).unwrap();
    assert_eq!(adm, DpAdmission::FrontierOnly);
    let truth = pareto::exhaustive_utility(&q, &model, &mem, u).unwrap();
    assert!((averse.best.cost - truth.best.cost).abs() <= 1e-6 * truth.best.cost.abs());

    // A step utility is refused statically, with the witness and fallbacks
    // in the error — the scalar DP never gets a chance to return the
    // silently-worse plan `scalar_dp_sound_iff_linear` exhibits.
    let deadline = truth.cost_distribution.quantile(0.6).unwrap();
    let err = soundness::optimize_gated(
        &q,
        &model,
        &mem,
        Utility::Deadline {
            threshold: deadline,
        },
    )
    .unwrap_err();
    assert!(matches!(err, CoreError::UnsoundUtility { .. }), "{err:?}");
    assert!(err.to_string().contains("exhaustive_utility"));
}
