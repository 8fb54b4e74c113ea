//! X12 — §3.6.3 rebucketing of result-size distributions.
//!
//! The product of `b`-bucket inputs has up to `b³` support points; carrying
//! that up the dag would blow up. Rebucketing caps the support at `b`
//! while preserving mass and mean exactly. This experiment measures what
//! the cap costs: moment error and CDF (L1) distance of the rebucketed
//! result-size distribution against the full product, plus whether the
//! downstream Algorithm D plan choice survives aggressive caps.

use crate::fixtures::{chain_query, SEED};
use crate::table::Table;
use lec_core::alg_d::{self, AlgDConfig, Kernel, SizeModel};
use lec_core::MemoryModel;
use lec_cost::PaperCostModel;
use lec_stats::rebucket;
use lec_workload::envs;

/// Runs the experiment, returning a markdown section.
pub fn run() -> String {
    // Full product of three 12-bucket inputs: |A| ⊗ |B| ⊗ σ.
    let a = lec_stats::families::lognormal_bucketed(5_000.0, 0.8, 12).expect("a");
    let b = lec_stats::families::lognormal_bucketed(1_200.0, 0.8, 12).expect("b");
    let sel = lec_stats::families::lognormal_bucketed(1e-3, 1.0, 12).expect("sel");
    let full = a
        .product_with(&b, |x, y| x * y)
        .and_then(|ab| ab.product_with(&sel, |x, s| x * s))
        .expect("product");

    let mut t = Table::new(&[
        "cap b",
        "support",
        "mean err %",
        "std-dev err %",
        "CDF L1 (rel)",
    ]);
    for cap in [64usize, 32, 16, 8, 4, 2] {
        let r = rebucket(&full, cap).expect("rebucket");
        t.row(vec![
            cap.to_string(),
            r.len().to_string(),
            format!(
                "{:.2e}",
                100.0 * (r.mean() - full.mean()).abs() / full.mean()
            ),
            format!(
                "{:.2}",
                100.0 * (r.std_dev() - full.std_dev()).abs() / full.std_dev()
            ),
            format!("{:.4}", full.cdf_l1_distance(&r) / full.mean()),
        ]);
    }

    // Downstream stability: Algorithm D's chosen plan across caps.
    let q = chain_query(4, SEED + 12);
    let mem = MemoryModel::Static(envs::lognormal(300.0, 0.8, 4));
    let sizes = SizeModel::with_uncertainty(&q, 0.5, 0.8, 6).expect("sizes");
    let reference = alg_d::optimize(
        &q,
        &PaperCostModel,
        &mem,
        &sizes,
        AlgDConfig {
            size_buckets: 64,
            kernel: Kernel::Fast,
        },
    )
    .expect("reference")
    .0;
    let mut stability = Table::new(&["cap b", "same plan as b=64?", "E[cost] drift %"]);
    for cap in [32usize, 16, 8, 4, 2] {
        let r = alg_d::optimize(
            &q,
            &PaperCostModel,
            &mem,
            &sizes,
            AlgDConfig {
                size_buckets: cap,
                kernel: Kernel::Fast,
            },
        )
        .expect("capped")
        .0;
        stability.row(vec![
            cap.to_string(),
            if r.best.plan == reference.best.plan {
                "yes"
            } else {
                "NO"
            }
            .into(),
            format!(
                "{:.3}",
                100.0 * (r.best.cost - reference.best.cost).abs() / reference.best.cost
            ),
        ]);
    }

    format!(
        "## X12 — rebucketing result-size distributions (§3.6.3)\n\n\
         Full product |A| ⊗ |B| ⊗ σ has {} support points; rebucketing caps \
         it while preserving mass and mean exactly.\n\n{}\n\
         Downstream effect on Algorithm D (chain n = 4):\n\n{}\n",
        full.len(),
        t.render(),
        stability.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn x12_mean_exact_and_cost_stable() {
        let md = super::run();
        // Mean error column is always ~0 (rebucketing is mean-exact).
        let mut checked = 0;
        for line in md
            .lines()
            .filter(|l| l.starts_with("|") && l.contains("e-"))
        {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() >= 6 {
                if let Ok(err) = cells[3].parse::<f64>() {
                    assert!(err < 1e-6, "{line}");
                    checked += 1;
                }
            }
        }
        assert!(checked >= 5, "mean-error rows not found:\n{md}");
        // The chosen plan may flip between near-tied alternatives, but the
        // expected-cost drift must stay far below 1% even at cap 2.
        for line in md.lines().filter(|l| l.contains("yes") || l.contains("NO")) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() >= 4 {
                if let Ok(drift) = cells[3].parse::<f64>() {
                    assert!(drift < 1.0, "cost drift too large: {line}");
                }
            }
        }
    }
}
