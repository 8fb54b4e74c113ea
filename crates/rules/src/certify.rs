//! Probe-based rule certification, mirroring the utility-soundness gate
//! in `lec-core::soundness` (DESIGN.md §7/§9).
//!
//! A dynamic program can prune with a selection rule at every dag node
//! (*scalar pruning*, what Algorithm C does with expected cost) only if
//! the rule's ranking of subplans survives everything the optimizer will
//! later do to them: adding common downstream costs, mixing scenario
//! probabilities, and widening the candidate set. Instead of trusting a
//! self-declared flag, [`certify`] *measures* each property on fixed
//! numeric probes and returns the first counterexample as a
//! [`PruningWitness`] — the same philosophy as the deadline-utility
//! counterexample that guards the utility DP.
//!
//! Three probe families run, cheapest guarantee last:
//!
//! 1. **Monotonicity** (mandatory): a componentwise-cheaper profile must
//!    never score worse within the same candidate set. This is the
//!    correctness contract of Pareto-frontier pruning itself — a rule
//!    that fails it can have its optimum *discarded by the frontier*, so
//!    certification fails with [`RuleError::UnsoundRule`].
//! 2. **Context-freeness**: a candidate's score must not change when an
//!    unrelated candidate joins the set (minmax regret fails: the
//!    per-scenario optima move).
//! 3. **Tail additivity and mixture linearity**: `score(x ⊕ t) =
//!    score(x) + score(t)` for a common additive cost tail `t`, and
//!    linearity in the scenario probabilities (the Bellman property that
//!    makes scalar DP exact; CVaR and the asymmetric penalty fail the
//!    tail probe).
//!
//! Passing all three admits the rule for scalar pruning; failing 2 or 3
//! demotes it to frontier-only selection with the witness attached.

use crate::SelectionRule;
use std::fmt;

/// Absolute tolerance for probe comparisons. Probe magnitudes are O(10),
/// so anything beyond 1e-9 is a structural property violation, not float
/// noise (same constant as the utility gate).
pub(crate) const PROBE_TOLERANCE: f64 = 1e-9;

/// What the certification gate admits a rule for.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleAdmission {
    /// The rule may prune scalar DP entries (its score is additive,
    /// probability-linear, and context-free on all probes) — the host can
    /// run it through the Algorithm C path.
    ScalarPruning,
    /// The rule is only exact when applied to the surviving Pareto
    /// frontier at the root; `witness` is the numeric counterexample that
    /// rules out scalar pruning.
    FrontierOnly {
        /// First scalar-pruning probe the rule failed.
        witness: PruningWitness,
    },
}

impl RuleAdmission {
    /// Whether the admission allows scalar pruning.
    pub fn scalar_ok(&self) -> bool {
        matches!(self, RuleAdmission::ScalarPruning)
    }
}

/// A numeric counterexample: `lhs` and `rhs` should agree (up to the
/// gate's `1e-9` probe tolerance) for a scalar-pruning-sound rule but do
/// not.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningWitness {
    /// Which probe failed, with the probe data spelled out.
    pub probe: String,
    /// Measured left-hand side.
    pub lhs: f64,
    /// Measured right-hand side.
    pub rhs: f64,
}

/// Errors from rule validation and certification.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleError {
    /// Rule parameters are out of range (bad alpha, penalty slopes, …).
    BadConfig(String),
    /// The rule's score is not monotone in per-scenario costs, so even
    /// frontier pruning can discard its optimum; the fields exhibit a
    /// dominated profile scoring strictly better.
    UnsoundRule {
        /// The rejected rule's name.
        rule: String,
        /// The probe that produced the counterexample.
        probe: String,
        /// Score of the dominating (componentwise cheaper) profile.
        dominating: f64,
        /// Score of the dominated profile — strictly smaller, which is
        /// the violation.
        dominated: f64,
    },
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::BadConfig(msg) => write!(f, "bad rule config: {msg}"),
            RuleError::UnsoundRule {
                rule,
                probe,
                dominating,
                dominated,
            } => write!(
                f,
                "selection rule {rule} is not monotone in per-scenario costs \
                 ({probe}: dominating profile scores {dominating} but the dominated \
                 one scores {dominated}), so Pareto-frontier pruning may discard its \
                 optimum; no optimizer entry point is exact for it"
            ),
        }
    }
}

impl std::error::Error for RuleError {}

/// Fixed scenario probabilities shared by all probes.
const PROBE_PROBS: [f64; 3] = [0.25, 0.5, 0.25];

/// Base candidate profiles: mutually non-dominated, and chosen so the
/// third candidate moves a *binding* per-scenario optimum. With the
/// first two candidates alone the scenario optima are (0, 6, 5) and
/// candidate 0's worst regret is 4 (scenario 1); adding the third drops
/// the scenario-1 optimum to 0 and lifts that regret to 10 — the
/// context shift regret-style rules must reveal to the probe.
fn probe_candidates() -> Vec<Vec<f64>> {
    vec![
        vec![0.0, 10.0, 5.0],
        vec![6.0, 6.0, 5.0],
        vec![10.0, 0.0, 5.0],
    ]
}

/// Certify `rule` against the probe battery. See the module docs for the
/// probe families; returns [`RuleError::UnsoundRule`] when the mandatory
/// monotonicity probes fail, otherwise the appropriate [`RuleAdmission`].
pub fn certify(rule: &dyn SelectionRule) -> Result<RuleAdmission, RuleError> {
    monotone_probe(rule)?;
    if let Some(witness) = context_probe(rule)
        .or_else(|| tail_probe(rule))
        .or_else(|| mixture_probe(rule))
    {
        return Ok(RuleAdmission::FrontierOnly { witness });
    }
    Ok(RuleAdmission::ScalarPruning)
}

/// Mandatory probe: within one candidate set, a componentwise-dominated
/// profile must never score strictly better than its dominator. Probes
/// each base candidate against a copy worsened in a single scenario, at
/// unit and 1e6 scale (to catch scale-dependent pathologies).
fn monotone_probe(rule: &dyn SelectionRule) -> Result<(), RuleError> {
    for scale in [1.0, 1e6] {
        let base: Vec<Vec<f64>> = probe_candidates()
            .into_iter()
            .map(|p| p.iter().map(|c| c * scale).collect())
            .collect();
        for i in 0..base.len() {
            for s in 0..PROBE_PROBS.len() {
                let mut worse = base[i].clone();
                worse[s] += 2.5 * scale;
                let mut set = base.clone();
                set.push(worse);
                let scores = rule.scores(&set, &PROBE_PROBS);
                let (dominating, dominated) = (scores[i], scores[base.len()]);
                if dominated < dominating - PROBE_TOLERANCE * scale.max(1.0) {
                    return Err(RuleError::UnsoundRule {
                        rule: rule.name().to_string(),
                        probe: format!(
                            "worsening scenario {s} of profile {:?} by {} lowered its score",
                            base[i],
                            2.5 * scale
                        ),
                        dominating,
                        dominated,
                    });
                }
            }
        }
    }
    Ok(())
}

/// A candidate's score must not move when a new candidate joins the set.
fn context_probe(rule: &dyn SelectionRule) -> Option<PruningWitness> {
    let base = probe_candidates();
    let narrow = rule.scores(&base[..2], &PROBE_PROBS);
    let wide = rule.scores(&base, &PROBE_PROBS);
    for i in 0..2 {
        if (narrow[i] - wide[i]).abs() > PROBE_TOLERANCE {
            return Some(PruningWitness {
                probe: format!(
                    "score of profile {:?} changed when candidate {:?} joined the set \
                     (context-sensitive; per-candidate scores cannot label dag entries)",
                    base[i], base[2]
                ),
                lhs: narrow[i],
                rhs: wide[i],
            });
        }
    }
    None
}

/// Adding a common per-scenario cost tail must add the tail's own score
/// (the Bellman property scalar DP needs: subplan scores plus step costs
/// compose). CVaR's witness doubles as the ranking-flip counterexample:
/// with probs (.5,.5) and alpha .5, x=(0,10) scores 10 and t=(20,0)
/// scores 20, but x⊕t=(20,10) scores 20 ≠ 30.
fn tail_probe(rule: &dyn SelectionRule) -> Option<PruningWitness> {
    let tails = [vec![20.0, 0.0, 0.0], vec![4.0, 4.0, 9.0]];
    for x in probe_candidates() {
        for t in &tails {
            let combined: Vec<f64> = x.iter().zip(t).map(|(a, b)| a + b).collect();
            let lhs = rule.scores(std::slice::from_ref(&combined), &PROBE_PROBS)[0];
            let rhs = rule.scores(std::slice::from_ref(&x), &PROBE_PROBS)[0]
                + rule.scores(std::slice::from_ref(t), &PROBE_PROBS)[0];
            if (lhs - rhs).abs() > PROBE_TOLERANCE {
                return Some(PruningWitness {
                    probe: format!(
                        "score({combined:?}) != score({x:?}) + score({t:?}) \
                         (not additive over a common cost tail)"
                    ),
                    lhs,
                    rhs,
                });
            }
        }
    }
    None
}

/// Scores must be linear in the scenario probabilities: the score under a
/// mixture of two belief vectors equals the mixture of the scores.
fn mixture_probe(rule: &dyn SelectionRule) -> Option<PruningWitness> {
    let base = probe_candidates();
    let p = [0.6, 0.3, 0.1];
    let q = [0.1, 0.2, 0.7];
    let mix: Vec<f64> = p.iter().zip(&q).map(|(a, b)| 0.5 * a + 0.5 * b).collect();
    let sp = rule.scores(&base, &p);
    let sq = rule.scores(&base, &q);
    let sm = rule.scores(&base, &mix);
    for i in 0..base.len() {
        let blend = 0.5 * sp[i] + 0.5 * sq[i];
        if (sm[i] - blend).abs() > PROBE_TOLERANCE {
            return Some(PruningWitness {
                probe: format!(
                    "score of {:?} under mixed beliefs {mix:?} is not the mixture of \
                     its scores under {p:?} and {q:?}",
                    base[i]
                ),
                lhs: sm[i],
                rhs: blend,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LeastExpectedCost, MinmaxRegret, Penalty, Rule, TailRisk};

    #[test]
    fn expected_cost_is_admitted_for_scalar_pruning() {
        assert_eq!(
            certify(&LeastExpectedCost).unwrap(),
            RuleAdmission::ScalarPruning
        );
        assert_eq!(
            Rule::LeastExpectedCost.certify().unwrap(),
            RuleAdmission::ScalarPruning
        );
    }

    #[test]
    fn minmax_regret_is_frontier_only_with_context_witness() {
        match certify(&MinmaxRegret).unwrap() {
            RuleAdmission::FrontierOnly { witness } => {
                assert!(witness.probe.contains("context-sensitive"), "{witness:?}");
                assert!((witness.lhs - witness.rhs).abs() > PROBE_TOLERANCE);
            }
            other => panic!("expected FrontierOnly, got {other:?}"),
        }
    }

    #[test]
    fn penalty_and_tail_risk_fail_the_tail_additivity_probe() {
        for rule in [
            Rule::PenaltyAware(Penalty::default()),
            Rule::TailRisk(TailRisk::default()),
        ] {
            match rule.certify().unwrap() {
                RuleAdmission::FrontierOnly { witness } => {
                    assert!(
                        witness.probe.contains("common cost tail"),
                        "{rule}: {witness:?}"
                    );
                    assert!((witness.lhs - witness.rhs).abs() > PROBE_TOLERANCE);
                }
                other => panic!("{rule}: expected FrontierOnly, got {other:?}"),
            }
        }
    }

    /// A pathological variance-loving rule: prefers the *worst* worst
    /// case. Not monotone — the gate must reject it with a witness, not
    /// merely demote it to the frontier.
    struct WorstCaseLover;

    impl SelectionRule for WorstCaseLover {
        fn name(&self) -> &'static str {
            "worst-case-lover"
        }

        fn scores(&self, profiles: &[Vec<f64>], _probs: &[f64]) -> Vec<f64> {
            profiles
                .iter()
                .map(|p| -p.iter().fold(0.0f64, |a, &c| a.max(c)))
                .collect()
        }
    }

    #[test]
    fn anti_monotone_rules_are_rejected_outright() {
        let err = certify(&WorstCaseLover).unwrap_err();
        match err {
            RuleError::UnsoundRule {
                rule,
                dominating,
                dominated,
                ..
            } => {
                assert_eq!(rule, "worst-case-lover");
                assert!(dominated < dominating, "witness must exhibit the violation");
            }
            other => panic!("expected UnsoundRule, got {other:?}"),
        }
        assert!(certify(&WorstCaseLover)
            .unwrap_err()
            .to_string()
            .contains("not monotone"));
    }

    #[test]
    fn all_shipped_rules_certify() {
        for rule in Rule::all() {
            let admission = rule.certify().unwrap();
            match rule {
                Rule::LeastExpectedCost => assert!(admission.scalar_ok()),
                _ => assert!(!admission.scalar_ok(), "{rule} must be frontier-only"),
            }
        }
    }
}
