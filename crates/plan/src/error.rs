//! Error type for the plan substrate.

use crate::bitset::RelSet;
use crate::plan::KeyId;
use std::fmt;

/// Errors raised while constructing queries or plans.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The query has no relations.
    EmptyQuery,
    /// Too many relations for the bitset representation (max 30).
    TooManyRelations(usize),
    /// A predicate references a relation index out of range.
    BadRelationIndex(usize),
    /// A predicate joins a relation with itself.
    SelfJoinPredicate(usize),
    /// A selectivity was outside `(0, 1]` or non-finite.
    BadSelectivity(f64),
    /// A relation statistic (pages/rows) was non-positive or non-finite.
    BadStatistic(f64),
    /// The required output order names a join key that no predicate has.
    UnknownOrderKey(usize),
    /// A plan is malformed (e.g. a join whose children overlap).
    MalformedPlan(String),
    /// Verifier: a relation is produced by both children of a join.
    DuplicateRelation(usize),
    /// Verifier: the plan's leaves cover a different relation set than the
    /// query requires.
    CoverageMismatch {
        /// Relations the plan actually produces.
        covered: RelSet,
        /// Relations the query requires.
        required: RelSet,
    },
    /// Verifier: a join node's declared key disagrees with the key the
    /// query's crossing predicates define for that pair of inputs.
    JoinKeyMismatch {
        /// Key declared on the plan's join node.
        declared: Option<KeyId>,
        /// Key derived from the query (`join_key_between`).
        expected: Option<KeyId>,
    },
    /// Verifier: a cost value is non-finite or negative.
    BadCost {
        /// Which cost carried the bad value (e.g. `"parametric[3]"`).
        stage: String,
        /// The offending value.
        value: f64,
    },
    /// Verifier: a frontier entry is dominated by another entry, so the set
    /// is not a frontier (mutual nondominance is violated).
    DominatedFrontierEntry {
        /// Index of the dominated entry.
        index: usize,
        /// Index of an entry dominating it.
        by: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptyQuery => write!(f, "query has no relations"),
            PlanError::TooManyRelations(n) => {
                write!(f, "{n} relations exceed the supported maximum of 30")
            }
            PlanError::BadRelationIndex(i) => write!(f, "relation index {i} out of range"),
            PlanError::SelfJoinPredicate(i) => {
                write!(f, "predicate joins relation {i} with itself")
            }
            PlanError::BadSelectivity(s) => write!(f, "selectivity {s} outside (0, 1]"),
            PlanError::BadStatistic(v) => write!(f, "non-finite or non-positive statistic {v}"),
            PlanError::UnknownOrderKey(k) => write!(f, "order key {k} matches no predicate"),
            PlanError::MalformedPlan(msg) => write!(f, "malformed plan: {msg}"),
            PlanError::DuplicateRelation(i) => {
                write!(f, "relation {i} is produced by both children of a join")
            }
            PlanError::CoverageMismatch { covered, required } => {
                write!(f, "plan covers {covered} but the query requires {required}")
            }
            PlanError::JoinKeyMismatch { declared, expected } => {
                let fmt_key = |k: &Option<KeyId>| match k {
                    Some(k) => k.to_string(),
                    None => "none".to_string(),
                };
                write!(
                    f,
                    "join declares key {} but the crossing predicates define {}",
                    fmt_key(declared),
                    fmt_key(expected)
                )
            }
            PlanError::BadCost { stage, value } => {
                write!(
                    f,
                    "cost {stage} is {value}, not a finite nonnegative number"
                )
            }
            PlanError::DominatedFrontierEntry { index, by } => {
                write!(f, "frontier entry {index} is dominated by entry {by}")
            }
        }
    }
}

impl std::error::Error for PlanError {}
