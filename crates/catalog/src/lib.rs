#![warn(missing_docs)]

//! Catalog substrate for LEC query optimization.
//!
//! The paper's first two parameter categories (§1) are properties of the
//! data (cardinalities, value distributions) and of the query components
//! (selectivities, group sizes). A real DBMS keeps these in its catalog;
//! this crate is that catalog:
//!
//! * [`TableMeta`] / [`ColumnMeta`] — per-table and per-column statistics
//!   (row counts, page counts, distinct values, value ranges).
//! * [`Histogram`] — equi-width and equi-depth histograms used for range
//!   and equality selectivity estimation (à la \[PHS96\]).
//! * [`Catalog`] — the named collection of tables.
//! * [`selectivity`] — point selectivity estimation for predicates, plus
//!   [`selectivity::SelectivityBelief`]: a point estimate wrapped in a
//!   bucketed uncertainty distribution, the input Algorithm D consumes.
//! * [`synthetic`] — closed-form Zipf masses the experiment harness uses
//!   to skew a "truth" away from beliefs.
//! * [`sampling`] — seeded row sampling against a truth catalog:
//!   sample-backed histograms and per-statistic Hoeffding/Wilson
//!   confidence intervals ([`sampling::StatInterval`]), the raw material
//!   for (ε, δ) suboptimality certificates (DESIGN.md §11).

pub mod catalog;
pub mod error;
pub mod histogram;
pub mod sampling;
pub mod selectivity;
pub mod synthetic;
pub mod table;

pub use catalog::Catalog;
pub use error::CatalogError;
pub use histogram::Histogram;
pub use sampling::{BoundKind, SampleConfig, SampleEstimator, StatInterval};
pub use selectivity::{Predicate, SelectivityBelief};
pub use table::{ColumnMeta, TableMeta};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CatalogError>;
