//! Error type for the optimizer crate.
//!
//! Objective certification errors convert into it: a
//! `lec_rules::RuleError::BadConfig` (an out-of-range rule slope, CVaR
//! level, utility `γ` or deadline) becomes [`CoreError::BadParameter`],
//! and a non-monotone rule [`CoreError::UnsoundRule`]. No utility is
//! refused: the deadline utility, for which no scalar DP is exact, is
//! certified for the frontier DP.

use std::fmt;

/// Errors raised by the optimizers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A plan-substrate error (malformed query or plan).
    Plan(lec_plan::PlanError),
    /// A probability-substrate error (malformed distribution or chain).
    Stats(lec_stats::StatsError),
    /// An algorithm parameter was invalid (e.g. `c = 0` for top-c).
    BadParameter(String),
    /// The search produced no plan (internal invariant violation).
    NoPlanFound,
    /// The objective gate rejected a selection rule (see
    /// `lec_rules::certify` and the `rules` module): its score is not
    /// monotone in per-scenario costs, so even Pareto-frontier pruning
    /// may discard its optimum. Out-of-range rule or utility parameters
    /// are [`CoreError::BadParameter`] instead.
    UnsoundRule(lec_rules::RuleError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Plan(e) => write!(f, "plan error: {e}"),
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
            CoreError::NoPlanFound => write!(f, "optimizer produced no plan"),
            CoreError::UnsoundRule(e) => write!(f, "selection-rule gate: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Plan(e) => Some(e),
            CoreError::Stats(e) => Some(e),
            CoreError::UnsoundRule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lec_plan::PlanError> for CoreError {
    fn from(e: lec_plan::PlanError) -> Self {
        CoreError::Plan(e)
    }
}

impl From<lec_stats::StatsError> for CoreError {
    fn from(e: lec_stats::StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<lec_rules::RuleError> for CoreError {
    fn from(e: lec_rules::RuleError) -> Self {
        match e {
            lec_rules::RuleError::BadConfig(msg) => CoreError::BadParameter(msg),
            unsound @ lec_rules::RuleError::UnsoundRule { .. } => CoreError::UnsoundRule(unsound),
        }
    }
}
