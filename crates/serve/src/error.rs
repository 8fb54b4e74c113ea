//! Error type for the serving layer.

use lec_catalog::CatalogError;
use lec_core::CoreError;
use lec_exec::ExecError;
use lec_workload::from_catalog::{BuildError, FilterSpec};
use std::fmt;

/// Errors surfaced by [`crate::QueryService`].
#[derive(Debug)]
pub enum ServeError {
    /// The optimizer failed.
    Core(CoreError),
    /// Plan execution failed.
    Exec(ExecError),
    /// Catalog lookup or statistics maintenance failed.
    Catalog(CatalogError),
    /// Building the optimizer query from the request failed.
    Build(BuildError),
    /// The service configuration was invalid.
    Config(String),
    /// A request's filter has a NaN bound. The range estimators would drop
    /// the bound and plan an unbounded range, so the request is refused
    /// before it is planned. (±∞ bounds are legal.) Boxed so the error
    /// stays as small as before: every serve-path `Result` carries it.
    NanFilterBound(Box<FilterSpec>),
    /// A serve worker thread panicked. The stream result is discarded
    /// rather than re-raising: the panic already aborted that worker's
    /// batch, and the caller (bench driver or test harness) decides whether
    /// to retry. The payload itself is not preserved — it need not be
    /// `Display`able — only the worker index is.
    WorkerPanicked {
        /// Index of the worker whose thread died.
        worker: usize,
    },
    /// A plan about to be served failed the plan-IR verifier
    /// (`lec_plan::verify`). Unlike the optimizers' debug-only hooks this
    /// check always runs on every served plan and fallback rung, because
    /// served plans can come from the cache-migration path rather than
    /// straight from an optimizer.
    Verification(lec_plan::PlanError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "optimizer: {e}"),
            ServeError::Exec(e) => write!(f, "execution: {e}"),
            ServeError::Catalog(e) => write!(f, "catalog: {e}"),
            ServeError::Build(e) => write!(f, "query build: {e}"),
            ServeError::Config(msg) => write!(f, "configuration: {msg}"),
            ServeError::NanFilterBound(s) => {
                write!(f, "filter on `{}.{}` has a NaN bound", s.table, s.column)
            }
            ServeError::WorkerPanicked { worker } => {
                write!(f, "serve worker {worker} panicked; stream result discarded")
            }
            ServeError::Verification(e) => {
                write!(f, "served plan failed verification: {e}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            ServeError::Exec(e) => Some(e),
            ServeError::Catalog(e) => Some(e),
            ServeError::Build(e) => Some(e),
            ServeError::Config(_) | ServeError::NanFilterBound(_) => None,
            ServeError::WorkerPanicked { .. } => None,
            ServeError::Verification(e) => Some(e),
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

impl From<CatalogError> for ServeError {
    fn from(e: CatalogError) -> Self {
        ServeError::Catalog(e)
    }
}

impl From<BuildError> for ServeError {
    fn from(e: BuildError) -> Self {
        ServeError::Build(e)
    }
}
