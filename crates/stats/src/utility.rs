//! (Dis)utility functions: from least expected *cost* to least expected
//! *utility* (the PODS 2002 question: "what can we expect?").
//!
//! LEC optimization minimizes `E[cost]`, which is the right objective when
//! the query runs many times and the user cares about the long-run average.
//! A risk-averse user (one slow execution is catastrophic) or a deadline-
//! bound user (only "finished by T" matters) has a different objective:
//! minimize `E[u(cost)]` for a disutility function `u`.
//!
//! The decision-theoretically interesting fact — and the reason System-R
//! style dynamic programming survives the generalization only partially —
//! is how `u` interacts with cost *addition*:
//!
//! * **Linear** `u(c) = c`: expectation distributes over addition, so the
//!   DP principle of optimality holds (Theorem 3.3).
//! * **Exponential** `u(c) = sign(γ)·e^{γc}`: `u(c₁+c₂) = u(c₁)·u(c₂)` up
//!   to sign, so when stage costs are *independent* the expected disutility
//!   factors and DP again works (the classic risk-sensitive MDP result).
//!   With a *shared* static parameter the stage costs are dependent and only
//!   the Pareto-frontier DP (see `lec-core::pareto`) is exact.
//! * **Step / deadline** `u(c) = 1{c > T}`: no algebraic structure at all;
//!   scalar DP is provably unsound (`lec-core` constructs a counterexample)
//!   and exact optimization needs full cost distributions per plan.
//!
//! All utilities here are *disutilities*: lower is better, and
//! [`Utility::score`] returns a value on the cost scale (a certainty
//! equivalent) so scores of different plans are directly comparable.

use crate::dist::Distribution;

/// A disutility function over plan cost. Lower scores are better.
///
/// # Examples
///
/// ```
/// use lec_stats::{Distribution, Utility};
///
/// // A risky plan: usually cheap, sometimes catastrophic.
/// let costs = Distribution::new([(100.0, 0.9), (10_000.0, 0.1)])?;
/// let mean = Utility::Linear.score(&costs);
/// let averse = Utility::Exponential { gamma: 1e-3 }.score(&costs);
/// let miss = Utility::Deadline { threshold: 500.0 }.score(&costs);
/// assert!((mean - 1090.0).abs() < 1e-9);
/// assert!(averse > mean);       // risk aversion penalizes the tail
/// assert!((miss - 0.1).abs() < 1e-12);
/// # Ok::<(), lec_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Utility {
    /// Risk-neutral: score = expected cost. This is plain LEC.
    Linear,
    /// Exponential / risk-sensitive with coefficient `gamma`:
    /// positive `gamma` is risk-averse (penalizes the upper tail), negative
    /// is risk-seeking. Scores are certainty equivalents
    /// `(1/γ) · ln E[e^{γ·cost}]`, computed in log-space for stability.
    Exponential {
        /// Risk coefficient; must be non-zero (use [`Utility::Linear`] for 0).
        gamma: f64,
    },
    /// Deadline utility: all that matters is whether the cost exceeds
    /// `threshold`. Score = probability of missing the deadline.
    Deadline {
        /// The cost budget.
        threshold: f64,
    },
}

impl Utility {
    /// Pointwise disutility of a deterministic cost.
    pub fn apply(&self, cost: f64) -> f64 {
        match *self {
            Utility::Linear => cost,
            // On a point mass the certainty equivalent is the cost itself.
            Utility::Exponential { .. } => cost,
            Utility::Deadline { threshold } => {
                if cost > threshold {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The comparable score of a cost distribution; lower is better.
    ///
    /// * `Linear` → the mean.
    /// * `Exponential` → the certainty equivalent (same units as cost).
    /// * `Deadline` → `Pr[cost > threshold]`.
    pub fn score(&self, costs: &Distribution) -> f64 {
        match *self {
            Utility::Linear => costs.mean(),
            Utility::Exponential { gamma } => certainty_equivalent(costs, gamma),
            Utility::Deadline { threshold } => 1.0 - costs.cdf(threshold),
        }
    }
}

/// Certainty equivalent `(1/γ) ln E[e^{γX}]` computed with the log-sum-exp
/// trick so that large page-count costs do not overflow.
fn certainty_equivalent(costs: &Distribution, gamma: f64) -> f64 {
    debug_assert!(gamma != 0.0, "gamma = 0 is the linear utility");
    // ln Σ pᵢ e^{γxᵢ} = m + ln Σ pᵢ e^{γxᵢ - m},  m = max γxᵢ.
    let m = costs
        .values()
        .iter()
        .map(|&v| gamma * v)
        .fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = costs.iter().map(|(v, p)| p * (gamma * v - m).exp()).sum();
    (m + sum.ln()) / gamma
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread() -> Distribution {
        Distribution::new([(100.0, 0.5), (300.0, 0.5)]).unwrap()
    }

    #[test]
    fn linear_score_is_mean() {
        let d = spread();
        assert!((Utility::Linear.score(&d) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_ce_brackets_mean_and_max() {
        let d = spread();
        let averse = Utility::Exponential { gamma: 0.01 }.score(&d);
        assert!(averse > d.mean() && averse < d.max(), "ce = {averse}");
        let seeking = Utility::Exponential { gamma: -0.01 }.score(&d);
        assert!(seeking < d.mean() && seeking > d.min(), "ce = {seeking}");
    }

    #[test]
    fn exponential_ce_on_point_mass_is_the_value() {
        let d = Distribution::point(42.0).unwrap();
        let ce = Utility::Exponential { gamma: 0.5 }.score(&d);
        assert!((ce - 42.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_ce_is_stable_for_huge_costs() {
        // Page counts in the millions would overflow a naive exp().
        let d = Distribution::new([(2.8e6, 0.8), (5.6e6, 0.2)]).unwrap();
        let ce = Utility::Exponential { gamma: 1e-5 }.score(&d);
        assert!(ce.is_finite());
        assert!(ce > d.mean() && ce < d.max());
    }

    #[test]
    fn exponential_ce_limits_to_mean_as_gamma_vanishes() {
        let d = spread();
        let ce = certainty_equivalent(&d, 1e-9);
        assert!((ce - d.mean()).abs() < 1e-3);
    }

    #[test]
    fn deadline_score_is_miss_probability() {
        let d = spread();
        assert!((Utility::Deadline { threshold: 150.0 }.score(&d) - 0.5).abs() < 1e-12);
        assert!((Utility::Deadline { threshold: 300.0 }.score(&d) - 0.0).abs() < 1e-12);
        assert!((Utility::Deadline { threshold: 50.0 }.score(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pointwise_apply() {
        assert_eq!(Utility::Linear.apply(7.0), 7.0);
        assert_eq!(Utility::Deadline { threshold: 5.0 }.apply(7.0), 1.0);
        assert_eq!(Utility::Deadline { threshold: 7.0 }.apply(7.0), 0.0);
    }
}
