//! X2 — "The greater the run-time variation ... the greater the cost
//! advantage of the LEC plan is likely to be" (§1.2).
//!
//! Two sweeps on Example 1.1's environment: (a) the probability of the
//! low-memory mode, (b) how low the low-memory mode is. Reported metric:
//! expected cost of the LSC(mode) plan divided by expected cost of the LEC
//! plan (≥ 1 by construction; 1.0 means LEC buys nothing).

use crate::table::{num, ratio, Table};
use lec_core::{alg_c, evaluate, lsc, MemoryModel};
use lec_cost::PaperCostModel;
use lec_workload::{envs, queries};

fn advantage(lo: f64, hi: f64, p_lo: f64) -> (f64, f64, f64) {
    let q = queries::example_1_1();
    let model = PaperCostModel;
    let mem = envs::bimodal(lo, hi, p_lo);
    let phases = MemoryModel::Static(mem.clone()).table(2).expect("valid");
    let lsc_plan = lsc::optimize_at(&q, &model, mem.mode()).expect("lsc").0;
    let lec = alg_c::optimize(&q, &model, &MemoryModel::Static(mem))
        .expect("lec")
        .0;
    let lsc_expected = evaluate::expected_cost(&q, &model, &lsc_plan.plan, &phases);
    (lsc_expected, lec.cost, lsc_expected / lec.cost)
}

/// Runs the experiment, returning a markdown section.
pub fn run() -> String {
    let mut by_p = Table::new(&[
        "Pr(M = 700)",
        "E[cost] LSC(mode) plan",
        "E[cost] LEC plan",
        "advantage",
    ]);
    for p in [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.49, 0.6, 0.8, 1.0] {
        let (l, c, r) = advantage(700.0, 2000.0, p);
        by_p.row(vec![format!("{p:.2}"), num(l), num(c), ratio(r)]);
    }

    let mut by_lo = Table::new(&[
        "low-memory mode",
        "E[cost] LSC(mode) plan",
        "E[cost] LEC plan",
        "advantage",
    ]);
    for lo in [1500.0, 1100.0, 900.0, 700.0, 500.0, 200.0, 50.0, 10.0] {
        let (l, c, r) = advantage(lo, 2000.0, 0.2);
        by_lo.row(vec![num(lo), num(l), num(c), ratio(r)]);
    }

    format!(
        "## X2 — LEC advantage vs run-time variation\n\n\
         Sweep (a): probability of the 700-page mode (2000 pages otherwise).\n\n{}\n\
         Sweep (b): depth of the low mode at fixed Pr = 0.2.\n\n{}\n",
        by_p.render(),
        by_lo.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advantage_is_at_least_one_and_grows_with_variation() {
        // No variation: LEC == LSC.
        let (_, _, r0) = advantage(700.0, 2000.0, 0.0);
        assert!((r0 - 1.0).abs() < 1e-9);
        // The paper's 80/20 point: strictly > 1.
        let (_, _, r) = advantage(700.0, 2000.0, 0.2);
        assert!(r > 1.05, "advantage {r}");
        // Every sweep point is >= 1 (the contribution-1 guarantee).
        for p in [0.1, 0.3, 0.5, 0.9] {
            let (_, _, rp) = advantage(700.0, 2000.0, p);
            assert!(rp >= 1.0 - 1e-9);
        }
    }
}
