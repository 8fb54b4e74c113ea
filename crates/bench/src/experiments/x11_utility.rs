//! X11 — from expected cost to expected utility (the PODS 2002 question).
//!
//! Part (a): the risk profile of LSC / LEC / risk-averse-exponential /
//! deadline plans on a spread memory environment — mean cost, tail cost,
//! and deadline-miss probability.
//!
//! Part (b): the soundness boundary. The scalar utility DP is exact for the
//! linear utility (Theorem 3.3) but *unsound* beyond it: the harness
//! searches seeded instances and exhibits one where the scalar deadline DP
//! returns a strictly worse plan than the exact Pareto-frontier DP.

use crate::fixtures::{chain_query, SEED};
use crate::table::{num, Table};
use lec_core::pareto::{self, UtilityResult};
use lec_cost::PaperCostModel;
use lec_stats::{Distribution, Utility};
use lec_workload::envs;
use lec_workload::queries::{QueryGen, Topology};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs the experiment, returning a markdown section.
pub fn run() -> String {
    // A search-found instance where the linear, risk-averse and deadline
    // objectives pick three *different* plans.
    let q = QueryGen {
        topology: Topology::Chain,
        n: 4,
        pages_range: (20.0, 30_000.0),
        shrink: 3.0,
        ..QueryGen::default()
    }
    .generate(&mut ChaCha8Rng::seed_from_u64(92));
    let model = PaperCostModel;
    let mem = envs::lognormal(120.0, 1.5, 6);

    // A deadline at the linear optimum's 60th percentile cost.
    let linear = pareto::optimize(&q, &model, &mem, Utility::Linear)
        .expect("linear")
        .0;
    let deadline = linear
        .cost_distribution
        .quantile(0.6)
        .expect("valid quantile");

    let utilities: Vec<(&str, Utility)> = vec![
        ("LEC (linear)", Utility::Linear),
        ("risk-averse (γ=1e-4)", Utility::Exponential { gamma: 1e-4 }),
        (
            "risk-seeking (γ=-1e-4)",
            Utility::Exponential { gamma: -1e-4 },
        ),
        (
            "deadline",
            Utility::Deadline {
                threshold: deadline,
            },
        ),
    ];

    let mut t = Table::new(&[
        "objective",
        "mean cost",
        "p95 cost",
        "max cost",
        "Pr(miss deadline)",
    ]);
    let profile = |r: &UtilityResult| -> Vec<String> {
        let d: &Distribution = &r.cost_distribution;
        vec![
            num(d.mean()),
            num(d.quantile(0.95).expect("valid")),
            num(d.max()),
            format!("{:.3}", 1.0 - d.cdf(deadline)),
        ]
    };
    for (name, u) in &utilities {
        let r = pareto::optimize(&q, &model, &mem, *u).expect("pareto").0;
        let mut row = vec![name.to_string()];
        row.extend(profile(&r));
        t.row(row);
    }

    // Part (b): hunt for a scalar-DP counterexample.
    let mut counterexample = String::from("no counterexample found in 60 seeds (unexpected)");
    let mut linear_sound = true;
    for seed in 0..60u64 {
        let qq = chain_query(4, SEED + 100 + seed);
        let mm = envs::lognormal(250.0, 1.2, 5);
        // Soundness half: linear scalar DP must equal the exhaustive optimum.
        let lin_scalar = pareto::scalar_dp(&qq, &model, &mm, Utility::Linear).expect("scalar");
        let lin_truth =
            pareto::exhaustive_utility(&qq, &model, &mm, Utility::Linear).expect("truth");
        if (lin_scalar.best.cost - lin_truth.best.cost).abs() > 1e-6 * lin_truth.best.cost {
            linear_sound = false;
        }
        // Unsoundness half: deadline scalar DP vs exact.
        let probe = lin_truth.cost_distribution.quantile(0.6).expect("valid");
        let u = Utility::Deadline { threshold: probe };
        let scal = pareto::scalar_dp(&qq, &model, &mm, u).expect("scalar");
        let exact = pareto::optimize(&qq, &model, &mm, u).expect("pareto").0;
        if scal.best.cost > exact.best.cost + 1e-9 {
            counterexample = format!(
                "seed {seed}: scalar deadline DP miss-probability {:.3} vs exact {:.3} \
                 (frontier size {})",
                scal.best.cost, exact.best.cost, exact.max_frontier
            );
            break;
        }
    }

    format!(
        "## X11 — expected utility: risk profiles and the DP soundness boundary\n\n\
         Chain query (n = 4), lognormal memory (mean 120, cv 1.5, 6 buckets); \
         deadline = 60th-percentile cost of the LEC plan ({}).\n\n{}\n\
         Scalar-DP soundness for the linear utility across 60 seeded instances: {}.\n\
         Scalar-DP counterexample for the deadline utility: {}.\n",
        num(deadline),
        t.render(),
        if linear_sound { "PASS" } else { "FAIL" },
        counterexample
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn x11_linear_sound_and_deadline_counterexample_found() {
        let md = super::run();
        assert!(md.contains("PASS"));
        assert!(md.contains("seed "), "no counterexample exhibited:\n{md}");
    }

    #[test]
    fn x11_risk_averse_trims_the_tail() {
        let md = super::run();
        let get = |name: &str, col: usize| -> f64 {
            let row = md.lines().find(|l| l.contains(name)).unwrap();
            let cell = row.split('|').map(str::trim).nth(col).unwrap();
            // num() may render scientific notation; f64::parse handles it.
            cell.parse::<f64>().expect("numeric cell")
        };
        let lec_p95 = get("LEC (linear)", 3);
        let averse_p95 = get("risk-averse", 3);
        assert!(
            averse_p95 <= lec_p95 * 1.0 + 1e-9,
            "risk-averse p95 {averse_p95} vs LEC {lec_p95}"
        );
    }
}
