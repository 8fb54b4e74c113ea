#![warn(missing_docs)]

//! Page-level execution simulator.
//!
//! The paper has no testbed; this crate is the substitute. It executes
//! physical plans over synthetic data **for real**: tuples live in pages,
//! pages live on a simulated [`Disk`], every page movement goes through a
//! pin-capable LRU [`BufferPool`] that counts reads and writes, and the
//! operators are honest page-at-a-time implementations whose behavior
//! changes with the memory grant exactly where the cost formulas say it
//! should (run counts, merge fan-in, partition fan-out, block sizes).
//!
//! What this buys the reproduction:
//!
//! * **X9** — the closed-form cost formulas are validated against counted
//!   page I/O, operator by operator, across a memory grid;
//! * **X10** — LEC vs LSC plans are raced in *realized* I/O over sampled
//!   memory environments, not just in the optimizer's own cost model;
//! * join results are checked against an in-memory oracle, so the
//!   operators are correct, not just countable.
//!
//! ### Scope
//!
//! All join predicates must share one join attribute (`Tuple::key`): star /
//! clique / two-relation queries. The data generator calibrates the key
//! domain so a requested page-domain selectivity is realized in
//! expectation. Memory is granted per *phase* (one phase per join or sort
//! operator, post-order), matching §3.5.

pub mod analyze;
pub mod bufferpool;
pub mod datagen;
pub mod disk;
pub mod env;
pub mod error;
pub mod executor;
pub mod fault;
pub mod ops;
pub mod tuple;

pub use analyze::{analyze, RelationStats};
pub use bufferpool::{BufferPool, IoCounters};
pub use datagen::DataGenSpec;
pub use disk::{Disk, RelId};
pub use env::ExecMemoryEnv;
pub use error::ExecError;
pub use executor::{
    execute_plan, execute_plan_with_faults, ExecFeedback, ExecReport, JoinObs, SelectionObs,
};
pub use fault::{FaultKind, FaultRecord, FaultSchedule, FaultSpec, FaultTrigger, OpKind};
pub use tuple::{Page, Tuple, PAGE_CAPACITY};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ExecError>;
