#![warn(missing_docs)]

//! Query-serving subsystem for the LEC optimizer family.
//!
//! The paper optimizes one query at a time under *assumed* distributions;
//! this crate closes the loop a deployed optimizer actually runs in:
//!
//! 1. **Cache** — incoming queries are keyed by a canonical fingerprint
//!    ([`lec_plan::fingerprint`]), so isomorphic requests (same statistics,
//!    different relation numbering or predicate order) share one cached
//!    [`ParametricPlans`](lec_core::parametric::ParametricPlans) entry: one
//!    precomputed LEC plan per anticipated memory scenario, re-*cost* (not
//!    re-optimized) under the observed distribution at serve time.
//! 2. **Execute** — served plans run for real on `lec-exec`'s page-level
//!    simulator, which reports observed selection and join cardinalities
//!    alongside the I/O counts.
//! 3. **Recalibrate** — a [`DriftDetector`] compares observations against
//!    the belief catalog's estimates; sustained error recalibrates the
//!    catalog ([`Histogram::merge_observations`]
//!    (lec_catalog::Histogram::merge_observations)), invalidates the
//!    affected cache entries, and a value-of-information analysis
//!    ([`lec_core::voi`]) decides whether they are re-optimized or merely
//!    migrated and re-cost.
//!
//! Everything is deterministic for a given request stream — including the
//! cache and recalibration counters.
//!
//! The [`concurrent`] module scales the loop out: a [`ConcurrentServer`]
//! partitions one logical stream across shard-affine workers with bounded
//! batch windows and in-window miss deduplication, preserving the
//! sequential loop's counters and served plans bit for bit (see the module
//! docs for the exact contract).

pub mod cache;
pub mod concurrent;
pub mod drift;
pub mod error;
pub mod resilience;
pub mod service;

pub use cache::PlanCache;
pub use concurrent::{ConcurrencyConfig, ConcurrentServer, RequestOutcome, StreamOutcome};
pub use drift::{DriftConfig, DriftDetector, DriftEvent, DriftTarget};
pub use error::ServeError;
pub use resilience::{
    CircuitBreaker, FaultInjection, ResiliencePolicy, ResilienceReport, ServeRoute, ShardBreaker,
};
pub use service::{
    BatchPrimer, PreparedRequest, QueryRequest, QueryService, Recalibration, RecalibrationDecision,
    ResampleConfig, ServeConfig, ServedQuery,
};
// Re-exported so callers can inspect certificates and intervals without
// naming lec-core/lec-catalog directly.
pub use lec_catalog::sampling::{BoundKind, StatInterval};
pub use lec_core::certificate::Certificate;
// Re-exported so serving configs can name selection rules without a direct
// `lec-rules` dependency.
pub use lec_rules::{Penalty, PenaltyAware, Rule, RuleAdmission, SelectionRule, TailRisk};
