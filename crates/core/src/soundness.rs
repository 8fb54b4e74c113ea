//! The utility-soundness gate: certify that a utility distributes over
//! cost addition *before* admitting it to a dynamic-programming entry
//! point.
//!
//! Dynamic programming over plan cost rests on one algebraic fact: the
//! score of a concatenation of stages must be computable from the scores of
//! the stages. The paper's 2002 generalization makes the boundary precise:
//!
//! * **Linear** `u(c) = c` — expectation distributes over addition *and*
//!   is linear in the probabilities, so the scalar DP (Algorithm C) is
//!   exact even when stages share the random parameter (Theorem 3.3).
//! * **Exponential** `u(c) = sign(γ)·e^{γc}` — `u(c₁+c₂) = u(c₁)·u(c₂)`,
//!   so certainty equivalents add for *independent* stages; with a shared
//!   parameter only the Pareto-frontier DP ([`crate::pareto::optimize`])
//!   is exact.
//! * **Step / deadline** `u(c) = 1{c > T}` — no structure at all:
//!   `Pr[X + Y > T]` is not a function of `Pr[X > T]` and `Pr[Y > T]`.
//!   Scalar DP is provably unsound (experiment X11 constructs an instance
//!   where it returns a strictly worse plan), so the gate refuses it with
//!   [`CoreError::UnsoundUtility`] and points at the exact fallbacks.
//!
//! Rather than trusting an enum match, [`certify`] *measures* the algebra
//! on probe distributions scaled to the utility's own regime (so a
//! `gamma = 1e-9` exponential is probed at costs around `1e9`, where its
//! curvature is visible):
//!
//! 1. **Distributivity probe** — `score(X ⊛ Y) = score(X) + score(Y)` for
//!    independent `X`, `Y` (convolution via [`Distribution::convolve`]).
//!    Failing this is disqualifying: no DP over accumulated cost can be
//!    sound, and the numeric witness is returned in the error.
//! 2. **Mixture probe** — `score(wX + (1−w)Y) = w·score(X) + (1−w)·score(Y)`.
//!    Passing both admits the scalar DP ([`DpAdmission::ScalarExpectedCost`]);
//!    passing only the first admits the frontier DP
//!    ([`DpAdmission::FrontierOnly`]), which stays exact when stages share
//!    the parameter.
//!
//! The probes use point supports, not point *costs*, because
//! `Utility::apply` on a deterministic cost is the identity for the
//! exponential utility (a point mass's certainty equivalent is its value) —
//! only genuine two-point distributions expose the curvature.

use crate::error::CoreError;
use crate::pareto::{self, UtilityResult};
use lec_cost::CostModel;
use lec_plan::JoinQuery;
use lec_stats::{Distribution, Utility};

/// Which dynamic-programming entry point the gate admits a utility to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpAdmission {
    /// The score distributes over addition *and* mixtures: the scalar
    /// expected-score DP is exact even under a shared parameter
    /// (Theorem 3.3; the linear utility).
    ScalarExpectedCost,
    /// The score distributes over addition for independent stages but is
    /// not mixture-linear: only the Pareto-frontier DP is exact under a
    /// shared parameter (the exponential utility).
    FrontierOnly,
}

/// Relative tolerance for the certification probes. The probes are scaled
/// to the utility's regime, so defects of a genuinely unsound utility are
/// `O(scale)` — ten orders of magnitude above this.
const PROBE_TOLERANCE: f64 = 1e-9;

/// A two-point probe distribution shape: `(value multiplier, probability)`.
type ProbeShape = [(f64, f64); 2];

/// The probe pairs, as `(value multiplier, probability)` two-point shapes.
/// Multipliers straddle 1.0 so a deadline at `threshold = scale` is crossed
/// by some but not all convolution outcomes.
const PROBES: [(ProbeShape, ProbeShape); 2] = [
    ([(0.2, 0.5), (1.4, 0.5)], [(0.3, 0.5), (1.1, 0.5)]),
    ([(0.6, 0.25), (0.9, 0.75)], [(0.1, 0.5), (1.3, 0.5)]),
];

/// The cost scale the probes run at: chosen so the utility's nonlinearity
/// (if any) is numerically visible.
fn probe_scale(utility: &Utility) -> Result<f64, CoreError> {
    match *utility {
        Utility::Linear => Ok(100.0),
        Utility::Exponential { gamma } => {
            if !gamma.is_finite() || gamma == 0.0 {
                return Err(CoreError::BadParameter(format!(
                    "exponential utility gamma must be finite and non-zero, got {gamma}"
                )));
            }
            Ok(1.0 / gamma.abs().clamp(1e-300, 1e300))
        }
        Utility::Deadline { threshold } => {
            if !threshold.is_finite() {
                return Err(CoreError::BadParameter(format!(
                    "deadline threshold must be finite, got {threshold}"
                )));
            }
            Ok(if threshold > 0.0 { threshold } else { 1.0 })
        }
    }
}

fn scaled(shape: &[(f64, f64)], scale: f64) -> Result<Distribution, CoreError> {
    Ok(Distribution::new(
        shape.iter().map(|&(v, p)| (v * scale, p)),
    )?)
}

fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= PROBE_TOLERANCE * (1.0 + scale.abs() + a.abs() + b.abs())
}

/// Certify a utility for dynamic programming. Returns which entry point is
/// admitted, or [`CoreError::UnsoundUtility`] with a numeric witness when
/// the utility's score does not distribute over cost addition.
pub fn certify(utility: &Utility) -> Result<DpAdmission, CoreError> {
    let scale = probe_scale(utility)?;
    let mut mixture_linear = true;
    for (xs, ys) in &PROBES {
        let x = scaled(xs, scale)?;
        let y = scaled(ys, scale)?;

        // Probe 1: distributivity over cost addition (independent stages).
        let combined = utility.score(&x.convolve(&y)?);
        let split = utility.score(&x) + utility.score(&y);
        if !close(combined, split, scale) {
            return Err(CoreError::UnsoundUtility {
                utility: format!("{utility:?}"),
                combined,
                split,
            });
        }

        // Probe 2: linearity in the probabilities (shared-parameter case).
        let mixed = utility.score(&x.mix(&y, 0.5)?);
        let averaged = 0.5 * utility.score(&x) + 0.5 * utility.score(&y);
        if !close(mixed, averaged, scale) {
            mixture_linear = false;
        }
    }
    Ok(if mixture_linear {
        DpAdmission::ScalarExpectedCost
    } else {
        DpAdmission::FrontierOnly
    })
}

/// The gated utility optimizer: certify first, then dispatch to the
/// soundest admitted entry point.
///
/// * [`DpAdmission::ScalarExpectedCost`] → [`pareto::scalar_dp`] (for the
///   linear utility this *is* Algorithm C).
/// * [`DpAdmission::FrontierOnly`] → [`pareto::optimize`] (exact for any
///   monotone utility; needed because a shared static parameter makes the
///   stage costs dependent).
/// * Rejected utilities (step/deadline) return
///   [`CoreError::UnsoundUtility`]; callers who still want an exact answer
///   should use [`pareto::exhaustive_utility`] (brute force) or accept the
///   frontier DP explicitly via [`pareto::optimize`] — the gate refuses to
///   pick silently because the frontier can be exponentially larger than
///   the scalar table.
///
/// # Examples
///
/// ```
/// use lec_core::soundness::{self, DpAdmission};
/// use lec_core::CoreError;
/// use lec_stats::Utility;
///
/// assert_eq!(
///     soundness::certify(&Utility::Linear)?,
///     DpAdmission::ScalarExpectedCost
/// );
/// assert_eq!(
///     soundness::certify(&Utility::Exponential { gamma: 1e-4 })?,
///     DpAdmission::FrontierOnly
/// );
/// assert!(matches!(
///     soundness::certify(&Utility::Deadline { threshold: 1e6 }),
///     Err(CoreError::UnsoundUtility { .. })
/// ));
/// # Ok::<(), CoreError>(())
/// ```
pub fn optimize_gated<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &Distribution,
    utility: Utility,
) -> Result<(UtilityResult, DpAdmission), CoreError> {
    let admission = certify(&utility)?;
    let result = match admission {
        DpAdmission::ScalarExpectedCost => pareto::scalar_dp(query, model, memory, utility)?,
        DpAdmission::FrontierOnly => pareto::optimize(query, model, memory, utility)?.0,
    };
    Ok((result, admission))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};

    fn query() -> JoinQuery {
        JoinQuery::new(
            vec![
                Relation::new("a", 5_000.0, 2.5e5),
                Relation::new("b", 800.0, 4e4),
                Relation::new("c", 1_200.0, 6e4),
            ],
            vec![
                JoinPred {
                    left: 0,
                    right: 1,
                    selectivity: 1e-4,
                    key: KeyId(0),
                },
                JoinPred {
                    left: 1,
                    right: 2,
                    selectivity: 2e-4,
                    key: KeyId(1),
                },
            ],
            None,
        )
        .expect("statically valid test query")
    }

    fn memory() -> Distribution {
        Distribution::new([(30.0, 0.4), (300.0, 0.6)]).expect("valid memory distribution")
    }

    #[test]
    fn linear_certifies_for_scalar_dp() {
        assert_eq!(
            certify(&Utility::Linear).expect("linear certifies"),
            DpAdmission::ScalarExpectedCost
        );
    }

    #[test]
    fn exponential_certifies_for_frontier_dp_only() {
        for gamma in [1e-9, 1e-4, 0.5, 100.0, -1e-4, -0.5] {
            assert_eq!(
                certify(&Utility::Exponential { gamma }).expect("exponential certifies"),
                DpAdmission::FrontierOnly,
                "gamma = {gamma}"
            );
        }
    }

    #[test]
    fn deadline_is_rejected_with_a_numeric_witness() {
        for threshold in [0.0, 1.0, 1e6, -5.0] {
            let err =
                certify(&Utility::Deadline { threshold }).expect_err("deadline must not certify");
            match err {
                CoreError::UnsoundUtility {
                    combined, split, ..
                } => {
                    assert!(
                        (combined - split).abs() > 0.1,
                        "witness too weak: {combined} vs {split}"
                    );
                }
                other => panic!("wrong error: {other:?}"),
            }
        }
    }

    #[test]
    fn rejection_message_names_the_fallbacks() {
        let err = certify(&Utility::Deadline { threshold: 100.0 })
            .expect_err("deadline must not certify");
        let msg = err.to_string();
        assert!(msg.contains("exhaustive_utility"), "message: {msg}");
        assert!(msg.contains("pareto::optimize"), "message: {msg}");
        assert!(msg.contains("counterexample"), "message: {msg}");
    }

    #[test]
    fn bad_gamma_is_a_parameter_error() {
        assert!(matches!(
            certify(&Utility::Exponential { gamma: 0.0 }),
            Err(CoreError::BadParameter(_))
        ));
        assert!(matches!(
            certify(&Utility::Exponential { gamma: f64::NAN }),
            Err(CoreError::BadParameter(_))
        ));
    }

    #[test]
    fn gated_linear_matches_the_scalar_dp() {
        let (gated, admission) =
            optimize_gated(&query(), &PaperCostModel, &memory(), Utility::Linear)
                .expect("linear optimizes");
        assert_eq!(admission, DpAdmission::ScalarExpectedCost);
        let direct = pareto::scalar_dp(&query(), &PaperCostModel, &memory(), Utility::Linear)
            .expect("scalar dp runs");
        assert_eq!(gated.best.plan, direct.best.plan);
        assert_eq!(gated.best.cost, direct.best.cost);
    }

    #[test]
    fn gated_exponential_matches_the_frontier_dp() {
        let u = Utility::Exponential { gamma: 1e-4 };
        let (gated, admission) =
            optimize_gated(&query(), &PaperCostModel, &memory(), u).expect("exponential optimizes");
        assert_eq!(admission, DpAdmission::FrontierOnly);
        let direct = pareto::optimize(&query(), &PaperCostModel, &memory(), u)
            .expect("frontier dp runs")
            .0;
        assert_eq!(gated.best.plan, direct.best.plan);
        assert_eq!(gated.best.cost, direct.best.cost);
    }

    #[test]
    fn gated_deadline_is_statically_refused() {
        let u = Utility::Deadline { threshold: 1e6 };
        assert!(matches!(
            optimize_gated(&query(), &PaperCostModel, &memory(), u),
            Err(CoreError::UnsoundUtility { .. })
        ));
        // The documented fallback still answers the question exactly.
        let exact = pareto::exhaustive_utility(&query(), &PaperCostModel, &memory(), u)
            .expect("exhaustive fallback runs");
        assert!(exact.best.cost.is_finite());
    }
}
