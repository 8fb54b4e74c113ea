#![warn(missing_docs)]

//! Plan-*selection rules*: how to turn a per-scenario cost profile into a
//! winner. Every objective the optimizer family serves is one of them.
//!
//! The LEC criterion of the source paper is one scalarization of the
//! per-scenario cost distributions the Pareto-frontier machinery in
//! `lec-core` already computes: pick the plan of least *expected* cost.
//! When the belief distribution is wrong, however, the selection rule —
//! not just the estimates — determines how badly the chosen plan degrades
//! (Alyoubi, Helmer & Wood's minmax-regret optimizer and PARQO's
//! penalty-aware robust selection both make this point), and a
//! risk-averse or deadline-bound user wants an expected *utility* instead
//! (the PODS 2002 question). This crate factors the objective out of the
//! optimizer:
//!
//! * a candidate is a **cost profile** — one cost per environment
//!   scenario, aligned with the scenario probabilities;
//! * a [`SelectionRule`] scores the *whole candidate set at once* (rules
//!   like minmax regret are context-sensitive: a candidate's score depends
//!   on which other candidates are present) and the host picks the argmin;
//! * [`certify`], the one certifier, validates a rule's parameters and
//!   probes it with numeric witnesses, classifying it as sound for scalar
//!   pruning ([`RuleAdmission::ScalarPruning`]) or exact only on the
//!   surviving Pareto frontier ([`RuleAdmission::FrontierOnly`]); rules
//!   whose score is not monotone in per-scenario costs are rejected
//!   outright, because then even the frontier may have pruned their
//!   optimum.
//!
//! Four rules ship: [`LeastExpectedCost`] (the paper's criterion — a
//! host's optimizer sends it to the scalar DP, which is exact for it, and
//! a host ranking stored plans scores it like every other rule),
//! [`MinmaxRegret`], [`PenaltyAware`], and [`TailRisk`]
//! (CVaR). Each [`lec_stats::Utility`] is a rule too: the linear utility
//! certifies for scalar pruning, the exponential and deadline utilities
//! for the frontier only. All are deterministic: ties break toward the
//! first candidate, comparisons use `f64::total_cmp`, and no ambient
//! randomness exists anywhere in this crate.
//!
//! ```
//! use lec_rules::{Rule, SelectionRule};
//!
//! // Two plans priced under two equally likely memory scenarios: a risky
//! // one (cheap if beliefs hold, terrible otherwise) and a flat one.
//! let profiles = vec![vec![10.0, 1000.0], vec![300.0, 300.0]];
//! let probs = [0.9, 0.1];
//! // Expected cost prefers the risky plan…
//! assert_eq!(Rule::LeastExpectedCost.select(&profiles, &probs), Some(0));
//! // …minmax regret prefers the flat one (its worst-case regret is 290,
//! // the risky plan's is 700).
//! assert_eq!(Rule::MinmaxRegret.select(&profiles, &probs), Some(1));
//! ```

mod certify;

pub use certify::{certify, PruningWitness, RuleAdmission, RuleError};

use lec_stats::{Distribution, Utility};

/// A plan-selection rule: jointly scores a set of candidate cost profiles
/// (lower is better).
///
/// `profiles[i][s]` is candidate `i`'s cost in scenario `s`; `probs[s]`
/// is that scenario's probability (all profiles share the scenario axis).
/// Scoring is joint because some rules are context-sensitive — under
/// minmax regret a candidate's score depends on the per-scenario optimum
/// *of the candidate set*. Implementations must be deterministic and
/// must not reorder candidates: `scores()[i]` always refers to
/// `profiles[i]`.
pub trait SelectionRule {
    /// Stable human-readable rule name (used in artifacts and witnesses).
    fn name(&self) -> &'static str;

    /// Score every candidate jointly; lower is better. Returns one score
    /// per profile, in input order.
    fn scores(&self, profiles: &[Vec<f64>], probs: &[f64]) -> Vec<f64>;

    /// Index of the winning (minimum-score) candidate, first-wins on
    /// exact ties, `None` for an empty candidate set.
    fn select(&self, profiles: &[Vec<f64>], probs: &[f64]) -> Option<usize> {
        argmin(&self.scores(profiles, probs))
    }

    /// Check the rule's parameters without running the probes;
    /// [`certify`] calls this first. Parameter-free rules keep the default.
    fn validate(&self) -> Result<(), RuleError> {
        Ok(())
    }

    /// The cost scale [`certify`] probes the rule at: every probe profile
    /// is a unit-scale profile times this factor. A rule whose score bends
    /// only at some cost magnitude (an exponential utility's `1/|γ|`, a
    /// deadline's threshold) returns that magnitude, so the probes land
    /// where its curvature shows. Called only after
    /// [`SelectionRule::validate`] passes.
    fn probe_scale(&self) -> f64 {
        1.0
    }
}

/// Index of the strictly smallest score under `total_cmp`, first-wins on
/// exact ties (mirrors the frontier's first-inserted-wins convention).
pub fn argmin(scores: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &s) in scores.iter().enumerate() {
        if best.is_none_or(|(_, b)| s.total_cmp(&b).is_lt()) {
            best = Some((i, s));
        }
    }
    best.map(|(i, _)| i)
}

/// Probability-weighted mean of one profile (`Σ_s probs[s]·profile[s]`,
/// summed in scenario order — deterministic, but *not* necessarily the
/// same float as the expected-cost kernels in `lec-core`, which sum per
/// plan step; the two agree up to rounding, so ranking by this mean can
/// only reorder near-ties of the kernels' costs).
fn profile_mean(profile: &[f64], probs: &[f64]) -> f64 {
    profile.iter().zip(probs).map(|(c, p)| c * p).sum()
}

/// The paper's criterion: score = expected cost.
///
/// [`certify`] admits it for scalar pruning — expectation is additive
/// over common cost tails, linear in the scenario probabilities, and
/// context-free — which is exactly why Algorithm C's scalar DP is exact
/// for it (Theorem 3.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastExpectedCost;

impl SelectionRule for LeastExpectedCost {
    fn name(&self) -> &'static str {
        "least-expected-cost"
    }

    fn scores(&self, profiles: &[Vec<f64>], probs: &[f64]) -> Vec<f64> {
        profiles.iter().map(|p| profile_mean(p, probs)).collect()
    }
}

/// Minmax regret: a candidate's regret in scenario `s` is its cost minus
/// the cheapest candidate cost in `s`; the score is the worst regret over
/// scenarios, so the winner degrades the least no matter which scenario
/// materializes.
///
/// Context-sensitive (the per-scenario optima depend on the candidate
/// set), hence [`RuleAdmission::FrontierOnly`]. Frontier pruning is still
/// exact: the score is monotone in profiles, and every per-scenario
/// minimum over *all* plans is attained by some frontier survivor, so
/// scoring the frontier against itself equals scoring it against the full
/// plan space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinmaxRegret;

impl SelectionRule for MinmaxRegret {
    fn name(&self) -> &'static str {
        "minmax-regret"
    }

    fn scores(&self, profiles: &[Vec<f64>], probs: &[f64]) -> Vec<f64> {
        let scenarios = probs.len();
        let mut opt = vec![f64::INFINITY; scenarios];
        for p in profiles {
            for (o, &c) in opt.iter_mut().zip(p) {
                if c < *o {
                    *o = c;
                }
            }
        }
        profiles
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&opt)
                    .map(|(c, o)| c - o)
                    .fold(0.0f64, f64::max)
            })
            .collect()
    }
}

/// Asymmetric deviation penalty for [`PenaltyAware`]: slopes charged per
/// unit of cost above (`under`, the belief *under*-estimated the cost)
/// and below (`over`) the profile mean.
///
/// Validation requires `0 ≤ over ≤ under` and `under + over < 1`. The
/// sum bound is what keeps the score monotone in per-scenario costs
/// (raising one scenario's cost raises the mean by `probs[s]`, moves
/// every deviation, and the worst-case total derivative stays positive
/// only while `under + over < 1`); [`certify`] rejects anything outside
/// the bound with a numeric witness, so the bound is enforced twice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Penalty {
    /// Slope charged per unit the realized cost exceeds the mean.
    pub under: f64,
    /// Slope credited per unit the realized cost undershoots the mean.
    pub over: f64,
}

impl Penalty {
    /// Validated constructor; see the type docs for the bounds.
    pub fn new(under: f64, over: f64) -> Result<Self, RuleError> {
        let p = Penalty { under, over };
        p.validate()?;
        Ok(p)
    }

    pub(crate) fn validate(&self) -> Result<(), RuleError> {
        let ok = self.over >= 0.0
            && self.under >= self.over
            && self.under + self.over < 1.0
            && self.under.is_finite();
        if ok {
            Ok(())
        } else {
            Err(RuleError::BadConfig(format!(
                "penalty slopes must satisfy 0 <= over <= under and under + over < 1 \
                 (got under = {}, over = {})",
                self.under, self.over
            )))
        }
    }
}

impl Default for Penalty {
    /// PARQO-flavored default: underestimation hurts three times as much
    /// as overestimation.
    fn default() -> Self {
        Penalty {
            under: 0.6,
            over: 0.2,
        }
    }
}

/// PARQO-style penalty-aware selection: score = mean cost plus an
/// asymmetric expected deviation penalty,
/// `mean + Σ_s probs[s]·φ(cost_s − mean)` with
/// `φ(d) = under·max(d,0) + over·max(−d,0)`.
///
/// Charging `under > over` penalizes plans whose believed cost
/// *under*-estimates bad scenarios — the expensive direction to be wrong
/// in — more than conservative overestimates. Not additive over common
/// cost tails (the mean anchor shifts), hence
/// [`RuleAdmission::FrontierOnly`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PenaltyAware {
    /// The asymmetric slopes.
    pub penalty: Penalty,
}

impl SelectionRule for PenaltyAware {
    fn name(&self) -> &'static str {
        "penalty-aware"
    }

    fn validate(&self) -> Result<(), RuleError> {
        self.penalty.validate()
    }

    fn scores(&self, profiles: &[Vec<f64>], probs: &[f64]) -> Vec<f64> {
        profiles
            .iter()
            .map(|p| {
                let mean = profile_mean(p, probs);
                let dev: f64 = p
                    .iter()
                    .zip(probs)
                    .map(|(&c, &pr)| {
                        let d = c - mean;
                        pr * (self.penalty.under * d.max(0.0) + self.penalty.over * (-d).max(0.0))
                    })
                    .sum();
                mean + dev
            })
            .collect()
    }
}

/// Tail-risk selection: score = CVaR (expected shortfall) of the cost at
/// level `alpha` — the expected cost conditioned on the worst `1 − alpha`
/// probability mass. `alpha = 0` degenerates to the mean, `alpha → 1`
/// approaches the worst case.
///
/// CVaR is monotone (frontier-exact) but rankings are not preserved under
/// common cost tails — [`certify`] exhibits the witness — hence
/// [`RuleAdmission::FrontierOnly`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailRisk {
    /// Confidence level in `[0, 1)`.
    pub alpha: f64,
}

impl TailRisk {
    /// Validated constructor: `alpha` must lie in `[0, 1)`.
    pub fn new(alpha: f64) -> Result<Self, RuleError> {
        let t = TailRisk { alpha };
        t.validate()?;
        Ok(t)
    }
}

impl Default for TailRisk {
    /// p95 expected shortfall, the usual tail-latency operating point.
    fn default() -> Self {
        TailRisk { alpha: 0.95 }
    }
}

/// CVaR at level `alpha` of a discrete cost profile: sort scenarios by
/// cost, drop the cheapest `alpha` probability mass (splitting the atom
/// that straddles the boundary), renormalize the rest. Deterministic:
/// the sort is a stable sort under `total_cmp` and equal-cost atoms
/// contribute identically wherever the boundary lands.
fn cvar(profile: &[f64], probs: &[f64], alpha: f64) -> f64 {
    debug_assert_eq!(profile.len(), probs.len());
    let alpha = alpha.clamp(0.0, 1.0 - 1e-12);
    let mut idx: Vec<usize> = (0..profile.len()).collect();
    idx.sort_by(|&a, &b| profile[a].total_cmp(&profile[b]));
    let mut skip = alpha; // probability mass still to discard
    let mut tail = 0.0f64; // Σ p·c over the kept tail
    let mut kept = 0.0f64; // Σ p over the kept tail
    for &i in &idx {
        let p = probs[i];
        if skip >= p {
            skip -= p;
        } else {
            let keep = p - skip;
            skip = 0.0;
            tail += keep * profile[i];
            kept += keep;
        }
    }
    if kept > 0.0 {
        tail / kept
    } else {
        // Numerically empty tail (alpha ~ 1): fall back to the worst case.
        idx.last().map_or(0.0, |&i| profile[i])
    }
}

impl SelectionRule for TailRisk {
    fn name(&self) -> &'static str {
        "tail-risk"
    }

    fn validate(&self) -> Result<(), RuleError> {
        if (0.0..1.0).contains(&self.alpha) {
            Ok(())
        } else {
            Err(RuleError::BadConfig(format!(
                "tail-risk alpha must lie in [0, 1), got {}",
                self.alpha
            )))
        }
    }

    fn scores(&self, profiles: &[Vec<f64>], probs: &[f64]) -> Vec<f64> {
        profiles
            .iter()
            .map(|p| cvar(p, probs, self.alpha))
            .collect()
    }
}

/// Config-friendly closed set of the shipped rules (the form hosts store
/// in `ServeConfig` and experiments iterate over). Utilities and custom
/// rules implement [`SelectionRule`] directly and go through the same
/// certified entry point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Rule {
    /// The paper's expected-cost criterion (scored by the profile mean;
    /// a host's optimizer sends it to the scalar DP, which is exact for
    /// it).
    #[default]
    LeastExpectedCost,
    /// Minimize the worst-case regret versus the per-scenario optimum.
    MinmaxRegret,
    /// Mean plus asymmetric deviation penalty.
    PenaltyAware(Penalty),
    /// CVaR of the cost at the given level.
    TailRisk(TailRisk),
}

impl Rule {
    /// All four shipped rules with their default parameters, in the
    /// canonical artifact order.
    pub fn all() -> [Rule; 4] {
        [
            Rule::LeastExpectedCost,
            Rule::MinmaxRegret,
            Rule::PenaltyAware(Penalty::default()),
            Rule::TailRisk(TailRisk::default()),
        ]
    }
}

impl SelectionRule for Rule {
    fn name(&self) -> &'static str {
        match self {
            Rule::LeastExpectedCost => LeastExpectedCost.name(),
            Rule::MinmaxRegret => MinmaxRegret.name(),
            Rule::PenaltyAware(_) => "penalty-aware",
            Rule::TailRisk(_) => "tail-risk",
        }
    }

    fn scores(&self, profiles: &[Vec<f64>], probs: &[f64]) -> Vec<f64> {
        match self {
            Rule::LeastExpectedCost => LeastExpectedCost.scores(profiles, probs),
            Rule::MinmaxRegret => MinmaxRegret.scores(profiles, probs),
            Rule::PenaltyAware(p) => PenaltyAware { penalty: *p }.scores(profiles, probs),
            Rule::TailRisk(t) => t.scores(profiles, probs),
        }
    }

    fn validate(&self) -> Result<(), RuleError> {
        match self {
            Rule::LeastExpectedCost | Rule::MinmaxRegret => Ok(()),
            Rule::PenaltyAware(p) => p.validate(),
            Rule::TailRisk(t) => t.validate(),
        }
    }
}

/// An expected (dis)utility is one more selection rule: a candidate's
/// score is [`Utility::score`] of its cost profile read as a distribution,
/// each cost carrying its scenario's probability. A profile that is no
/// distribution (a non-finite cost) scores NaN, which [`argmin`] ranks
/// last.
///
/// [`certify`] admits the linear utility for scalar pruning. The
/// exponential and deadline utilities fail the tail-additivity probe — a
/// common cost tail added within each scenario, which is the
/// shared-parameter case — and are frontier-only: the Pareto-frontier DP
/// is exact for them because their scores are monotone in every
/// scenario's cost.
impl SelectionRule for Utility {
    fn name(&self) -> &'static str {
        match self {
            Utility::Linear => "linear-utility",
            Utility::Exponential { .. } => "exponential-utility",
            Utility::Deadline { .. } => "deadline-utility",
        }
    }

    fn scores(&self, profiles: &[Vec<f64>], probs: &[f64]) -> Vec<f64> {
        profiles
            .iter()
            .map(|profile| {
                Distribution::new(profile.iter().zip(probs).map(|(&c, &p)| (c, p)))
                    .map_or(f64::NAN, |costs| self.score(&costs))
            })
            .collect()
    }

    /// `gamma` must be finite and non-zero (zero is [`Utility::Linear`]),
    /// and a deadline finite.
    fn validate(&self) -> Result<(), RuleError> {
        match *self {
            Utility::Exponential { gamma } if !gamma.is_finite() || gamma == 0.0 => {
                Err(RuleError::BadConfig(format!(
                    "exponential utility gamma must be finite and non-zero, got {gamma}"
                )))
            }
            Utility::Deadline { threshold } if !threshold.is_finite() => Err(RuleError::BadConfig(
                format!("deadline threshold must be finite, got {threshold}"),
            )),
            _ => Ok(()),
        }
    }

    /// `1/|γ|` for the exponential utility (so `γ = 1e-9` is probed at
    /// costs around `1e9`, where it is not yet linear), a positive
    /// deadline itself (so the probe costs straddle it), 1 otherwise.
    fn probe_scale(&self) -> f64 {
        match *self {
            Utility::Linear => 1.0,
            Utility::Exponential { gamma } => 1.0 / gamma.abs().clamp(1e-300, 1e300),
            Utility::Deadline { threshold } if threshold > 0.0 => threshold,
            Utility::Deadline { .. } => 1.0,
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rule::PenaltyAware(p) => {
                write!(f, "penalty-aware(under={}, over={})", p.under, p.over)
            }
            Rule::TailRisk(t) => write!(f, "tail-risk(alpha={})", t.alpha),
            _ => f.write_str(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROBS: [f64; 2] = [0.5, 0.5];

    #[test]
    fn expected_cost_scores_are_means() {
        let profiles = vec![vec![0.0, 10.0], vec![6.0, 6.0]];
        let s = LeastExpectedCost.scores(&profiles, &PROBS);
        assert_eq!(s, vec![5.0, 6.0]);
        assert_eq!(LeastExpectedCost.select(&profiles, &PROBS), Some(0));
    }

    #[test]
    fn minmax_regret_uses_per_scenario_optima() {
        // Optima per scenario: (0, 6). Regrets: x → max(0, 4) = 4,
        // y → max(6, 0) = 6.
        let profiles = vec![vec![0.0, 10.0], vec![6.0, 6.0]];
        let s = MinmaxRegret.scores(&profiles, &PROBS);
        assert_eq!(s, vec![4.0, 6.0]);
        // Adding a third candidate changes the scenario-0 optimum and
        // hence existing scores: context sensitivity.
        let wider = vec![vec![0.0, 10.0], vec![6.0, 6.0], vec![10.0, 0.0]];
        let s = MinmaxRegret.scores(&wider, &PROBS);
        assert_eq!(s, vec![10.0, 6.0, 10.0]);
    }

    #[test]
    fn penalty_scores_charge_upside_deviation_more() {
        let rule = PenaltyAware {
            penalty: Penalty {
                under: 0.6,
                over: 0.2,
            },
        };
        // mean 5, deviations ±5: 5 + 0.5·0.6·5 + 0.5·0.2·5 = 7.
        let s = rule.scores(&[vec![0.0, 10.0]], &PROBS);
        assert!((s[0] - 7.0).abs() < 1e-12);
        // A flat profile with the same mean carries no penalty, so the
        // asymmetric rule prefers it to the spread one.
        let both = vec![vec![0.0, 10.0], vec![5.5, 5.5]];
        assert_eq!(rule.select(&both, &PROBS), Some(1));
        // Plain expected cost would pick the spread plan (mean 5 < 5.5).
        assert_eq!(LeastExpectedCost.select(&both, &PROBS), Some(0));
    }

    #[test]
    fn penalty_validation_enforces_monotonicity_bound() {
        assert!(Penalty::new(0.6, 0.2).is_ok());
        assert!(Penalty::new(0.2, 0.6).is_err(), "over > under");
        assert!(Penalty::new(0.7, 0.4).is_err(), "under + over >= 1");
        assert!(Penalty::new(0.6, -0.1).is_err(), "negative slope");
    }

    #[test]
    fn cvar_interpolates_between_mean_and_max() {
        let profile = [0.0, 10.0];
        assert!((cvar(&profile, &PROBS, 0.0) - 5.0).abs() < 1e-12);
        assert!((cvar(&profile, &PROBS, 0.5) - 10.0).abs() < 1e-12);
        // alpha = 0.75 splits the worst atom: still 10.
        assert!((cvar(&profile, &PROBS, 0.75) - 10.0).abs() < 1e-12);
        // Unsorted input with a straddling atom: costs (3, 1, 2) at
        // probabilities (0.2, 0.5, 0.3), alpha = 0.6 keeps 0.2 of the
        // middle atom and all of the worst: (0.2·2 + 0.2·3) / 0.4 = 2.5.
        let v = [3.0, 1.0, 2.0];
        let p = [0.2, 0.5, 0.3];
        assert!((cvar(&v, &p, 0.6) - 2.5).abs() < 1e-12);
        assert!(TailRisk::new(1.0).is_err());
        assert!(TailRisk::new(-0.1).is_err());
        assert!(TailRisk::new(0.95).is_ok());
    }

    #[test]
    fn tail_risk_ranking_flips_under_a_common_tail() {
        // The classic CVaR non-additivity witness (documented in
        // `certify`): adding the same downstream cost tail to both
        // candidates flips their ranking, which is exactly why scalar DP
        // pruning is unsound for CVaR.
        let rule = TailRisk { alpha: 0.5 };
        let bare = vec![vec![0.0, 10.0], vec![6.0, 6.0]];
        assert_eq!(rule.select(&bare, &PROBS), Some(1));
        let tailed = vec![vec![20.0, 10.0], vec![26.0, 6.0]];
        assert_eq!(rule.select(&tailed, &PROBS), Some(0));
    }

    #[test]
    fn argmin_is_first_wins_and_total() {
        assert_eq!(argmin(&[2.0, 1.0, 1.0]), Some(1));
        assert_eq!(argmin(&[]), None);
        assert_eq!(
            argmin(&[f64::NAN, 1.0]),
            Some(1),
            "total_cmp orders NaN last"
        );
    }

    #[test]
    fn rule_enum_delegates_to_the_structs() {
        let profiles = vec![vec![0.0, 10.0], vec![6.0, 6.0]];
        for rule in Rule::all() {
            let via_enum = rule.scores(&profiles, &PROBS);
            assert_eq!(via_enum.len(), 2);
            assert!(rule.validate().is_ok());
            assert!(!rule.to_string().is_empty());
        }
        assert_eq!(Rule::default(), Rule::LeastExpectedCost);
        assert!(certify(&Rule::TailRisk(TailRisk { alpha: 2.0 })).is_err());
    }

    #[test]
    fn utility_scores_are_the_utility_of_the_profile_distribution() {
        let profiles = vec![vec![100.0, 300.0], vec![200.0, 200.0]];
        for u in [
            Utility::Linear,
            Utility::Exponential { gamma: 0.01 },
            Utility::Deadline { threshold: 150.0 },
        ] {
            let scores = u.scores(&profiles, &PROBS);
            for (profile, score) in profiles.iter().zip(&scores) {
                let d = Distribution::new(profile.iter().zip(PROBS).map(|(&c, p)| (c, p)))
                    .expect("valid profile");
                assert_eq!(score.to_bits(), u.score(&d).to_bits(), "{u:?}");
            }
        }
        // A non-finite cost is no distribution: it scores NaN, ranked last.
        let scores = Utility::Linear.scores(&[vec![f64::INFINITY, 1.0], vec![5.0, 5.0]], &PROBS);
        assert!(scores[0].is_nan());
        assert_eq!(argmin(&scores), Some(1));
    }
}
