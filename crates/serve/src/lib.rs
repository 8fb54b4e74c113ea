#![warn(missing_docs)]

//! Query-serving subsystem for the LEC optimizer family.
//!
//! The paper optimizes one query at a time under *assumed* distributions;
//! this crate closes the loop a deployed optimizer actually runs in. Every
//! request runs the same straight-line sequence of stages, whether it
//! enters through [`QueryService::serve`] or
//! [`ConcurrentServer::serve_stream`] (see the [`service`] module docs):
//!
//! 1. **Prepare and plan** — incoming queries are keyed by a canonical
//!    fingerprint ([`lec_plan::fingerprint`]), so isomorphic requests (same
//!    statistics, different relation numbering or predicate order) share
//!    one cached [`ParametricPlans`](lec_core::parametric::ParametricPlans)
//!    entry: one precomputed LEC plan per anticipated memory scenario. A
//!    request's prepared form (belief-side query and canonicalization) is
//!    memoized per beliefs version, so a repeated hit only picks.
//! 2. **Pick and verify** — the stored plans are re-*cost* (not
//!    re-optimized) under the observed distribution, one is chosen by the
//!    configured selection rule, and the plan-IR verifier checks it.
//! 3. **Execute** — the pick runs for real on `lec-exec`'s page-level
//!    simulator, falling back down a ladder of frontier plans and the LSC
//!    baseline on injected faults; a tripped circuit [`Breaker`] starts
//!    the ladder at the LSC baseline.
//! 4. **Certify, feedback, recalibrate** — with resampling on, the served
//!    plan gets an (ε, δ) certificate; observed cardinalities feed a
//!    [`DriftDetector`], and sustained error recalibrates the belief
//!    catalog (blending the observations into it via
//!    [`Histogram::merge_observations`](lec_catalog::Histogram::merge_observations),
//!    or resampling the statistic from the truth catalog), invalidates the
//!    affected cache entries, and a value-of-information analysis
//!    ([`lec_core::voi`]) decides whether they are re-optimized or merely
//!    migrated and re-cost.
//!
//! Everything is deterministic for a given request stream — including the
//! cache and recalibration counters. Each stage that keeps state owns it
//! (prepare, plan, execute, recalibrate), and each service owns its stages,
//! so no mutable state is shared between threads and nothing is locked.
//!
//! The [`concurrent`] module scales the loop out: a [`ConcurrentServer`]
//! partitions one logical stream across shard-affine workers with bounded
//! batch windows and in-window miss deduplication, preserving the
//! sequential loop's counters and served plans bit for bit (see the module
//! docs for the exact contract). Each worker owns a whole service; the
//! batch-window protocol between the driver and its workers is private to
//! this crate.

pub mod cache;
pub mod concurrent;
pub mod drift;
pub mod error;
mod execute;
mod lru;
mod plan;
mod prepare;
mod recalibrate;
pub mod resilience;
pub mod service;

pub use cache::PlanCache;
pub use concurrent::{ConcurrencyConfig, ConcurrentServer, RequestOutcome, StreamOutcome};
pub use drift::{DriftConfig, DriftDetector, DriftEvent, DriftTarget};
pub use error::ServeError;
pub use resilience::{Breaker, FaultInjection, ResiliencePolicy, ResilienceReport, ServeRoute};
pub use service::{
    QueryRequest, QueryService, Recalibration, RecalibrationDecision, ResampleConfig, ServeConfig,
    ServedQuery,
};
// Re-exported so callers can inspect certificates and intervals without
// naming lec-core/lec-catalog directly.
pub use lec_catalog::sampling::{BoundKind, StatInterval};
pub use lec_core::certificate::Certificate;
// Re-exported so serving configs can name selection rules without a direct
// `lec-rules` dependency.
pub use lec_rules::{Penalty, PenaltyAware, Rule, RuleAdmission, SelectionRule, TailRisk};
