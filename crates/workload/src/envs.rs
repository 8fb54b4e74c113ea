//! Memory-environment families.
//!
//! Example 1.1's environment ("memory is estimated to be 2000 pages 80% of
//! the time and 700 pages 20% of the time ... obtained by observing the
//! actual query execution environment") plus parameterized families for
//! sweeping distribution shape, spread, and temporal volatility.

use lec_stats::{Distribution, MarkovChain};

/// The 80/20 bimodal memory distribution of Example 1.1.
// lec-lint: allow(panic-reachability) — constant two-point support is valid by construction
pub fn example_1_1_memory() -> Distribution {
    Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).expect("valid distribution")
}

/// A two-point mix: `lo` pages with probability `p_lo`, else `hi` pages.
pub fn bimodal(lo: f64, hi: f64, p_lo: f64) -> Distribution {
    Distribution::new([(lo, p_lo), (hi, 1.0 - p_lo)]).expect("valid mix") // lec-lint: allow(panic-reachability) — callers pass fixed in-range probabilities, so the two-point support is valid
}

/// A lognormal-shaped memory distribution with the given mean, coefficient
/// of variation, and bucket count.
// lec-lint: allow(panic-reachability) — the discretized lognormal support is positive and finite for the fixed parameter grids callers use
pub fn lognormal(mean: f64, cv: f64, b: usize) -> Distribution {
    lec_stats::families::lognormal_bucketed(mean, cv, b)
        .expect("valid lognormal parameters")
        .map(|v| v.max(3.0))
        .expect("positive support")
}

/// A geometric ladder of `levels` memory states from `lo` upward by factor
/// 2, walked with per-phase move probability `volatility` — the dynamic-
/// memory world of §3.5.
pub fn markov_ladder(lo: f64, levels: usize, volatility: f64) -> MarkovChain {
    let states: Vec<f64> = (0..levels).map(|i| lo * 2f64.powi(i as i32)).collect();
    MarkovChain::random_walk(states, volatility).expect("valid ladder") // lec-lint: allow(panic-reachability) — the workload's fixed ladder parameters are valid by construction
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_memory_mean_is_1740() {
        let d = example_1_1_memory();
        assert!((d.mean() - 1740.0).abs() < 1e-9);
        assert_eq!(d.mode(), 2000.0);
    }

    #[test]
    fn bimodal_mass() {
        let d = bimodal(100.0, 900.0, 0.25);
        assert!((d.cdf(100.0) - 0.25).abs() < 1e-12);
        assert!((d.mean() - 700.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_respects_floor() {
        let d = lognormal(10.0, 2.0, 16);
        assert!(d.min() >= 3.0);
    }

    #[test]
    fn ladder_states_double() {
        let c = markov_ladder(50.0, 4, 0.5);
        assert_eq!(c.states(), &[50.0, 100.0, 200.0, 400.0]);
    }
}
