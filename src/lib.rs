#![warn(missing_docs)]

//! `lecopt` — least expected cost (LEC) query optimization.
//!
//! A complete Rust implementation of the Chu–Halpern–Seshadri/Gehrke line
//! of work (PODS 1999/2002): System-R dynamic programming run directly on
//! *expected* plan cost over bucketed parameter distributions, instead of
//! on the cost at one summarized parameter value.
//!
//! This crate re-exports the whole workspace; see the README for the
//! architecture and DESIGN.md/EXPERIMENTS.md for the reproduction record.
//!
//! # Example
//!
//! The paper's motivating Example 1.1: the traditional optimizer picks a
//! sort-merge plan that is best at the *expected* memory, the LEC optimizer
//! picks a hash-join plan that is best *in expectation*:
//!
//! ```
//! use lecopt::core::{alg_c, lsc, MemoryModel};
//! use lecopt::cost::PaperCostModel;
//! use lecopt::stats::Distribution;
//! use lecopt::workload::queries::example_1_1;
//!
//! let query = example_1_1();
//! let memory = Distribution::new([(700.0, 0.2), (2000.0, 0.8)])?;
//!
//! // Traditional: summarize by the mode, optimize for that one value.
//! let lsc = lsc::optimize_at(&query, &PaperCostModel, memory.mode())?.0;
//!
//! // LEC: optimize the expectation directly (Algorithm C, Theorem 3.3).
//! let lec = alg_c::optimize(&query, &PaperCostModel, &MemoryModel::Static(memory))?.0;
//!
//! assert_ne!(lsc.plan, lec.plan);           // they disagree...
//! assert!(lec.cost < 2_813_000.0);          // ...and LEC wins on average
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Every optimizer also returns deterministic search counters, and EXPLAIN
//! renders them below the per-operator expected costs:
//!
//! ```
//! use lecopt::core::{alg_c, evaluate, MemoryModel};
//! use lecopt::cost::PaperCostModel;
//! use lecopt::stats::Distribution;
//! use lecopt::workload::queries::example_1_1;
//!
//! let query = example_1_1();
//! let memory = MemoryModel::Static(Distribution::new([(700.0, 0.2), (2000.0, 0.8)])?);
//!
//! let (best, stats) = alg_c::optimize(&query, &PaperCostModel, &memory)?;
//! assert!(stats.counters.candidates_priced > 0);
//!
//! let phases = memory.table(query.n().max(2))?;
//! let explain = evaluate::explain_with_costs(&query, &PaperCostModel, &best.plan, &phases)
//!     + &stats.render();
//! let footer = format!("candidates priced: {}", stats.counters.candidates_priced);
//! assert!(explain.contains(&footer));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use lec_catalog as catalog;
pub use lec_core as core;
pub use lec_cost as cost;
pub use lec_exec as exec;
pub use lec_plan as plan;
pub use lec_rules as rules;
pub use lec_serve as serve;
pub use lec_stats as stats;
pub use lec_workload as workload;
