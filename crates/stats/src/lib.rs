#![warn(missing_docs)]

//! Discrete probability substrate for LEC query optimization.
//!
//! The LEC papers (Chu–Halpern–Seshadri, PODS 1999; Chu–Halpern–Gehrke,
//! PODS 2002) model every uncertain optimizer parameter — available buffer
//! memory, relation sizes, predicate selectivities — as a *bucketed* discrete
//! probability distribution: the parameter space is partitioned into a small
//! number of buckets, each represented by a single value carrying the
//! bucket's probability mass.
//!
//! This crate provides that substrate:
//!
//! * [`Distribution`] — a validated, sorted discrete distribution over `f64`
//!   values with exact-mass arithmetic (expectations, quantiles,
//!   pushforwards, independent products). Supports of at most 8 points —
//!   every rebucketed size distribution at `alg_d`'s default — are stored
//!   inline, so cloning them never touches the heap.
//! * [`bucket`] — bucketing strategies (equi-width, equi-depth, breakpoint /
//!   level-set driven) and the mean-preserving `rebucket` reduction used by
//!   §3.6.3 of the paper. `rebucket(&x.product_with(&y, f)?, b)` is the
//!   one product-then-rebucket path; Algorithm D's size propagation runs
//!   it at every dag node.
//! * [`markov`] — finite Markov chains over parameter values, used for the
//!   dynamic-parameter model of §3.5 (memory changes between join phases).
//! * [`utility`] — (dis)utility functions for the PODS 2002 extension from
//!   least *expected cost* to least *expected utility* (linear, exponential /
//!   risk-sensitive, and step "deadline" utilities).
//!
//! Everything is deterministic given an RNG seed; sampling helpers accept any
//! [`rand::Rng`].

pub mod bucket;
pub mod dist;
pub mod error;
pub mod families;
pub mod markov;
mod smallbuf;
pub mod utility;

pub use bucket::{rebucket, Bucketing};
pub use dist::Distribution;
pub use error::StatsError;
pub use markov::MarkovChain;
pub use utility::Utility;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StatsError>;
