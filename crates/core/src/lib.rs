#![warn(missing_docs)]

//! The LEC optimizer family — the paper's primary contribution.
//!
//! Given a [`lec_plan::JoinQuery`], a [`lec_cost::CostModel`] and a model of
//! the uncertain parameters, this crate finds evaluation plans:
//!
//! | Module | Paper anchor | What it does |
//! |--------|--------------|--------------|
//! | [`lsc`] | §2.2, Thm 2.1 | System R dynamic programming for one fixed parameter value — the **least specific cost** baseline |
//! | [`alg_a`] | §3.2 | Black-box: run LSC per memory bucket, pick the candidate of least expected cost |
//! | [`alg_b`] | §3.3, Prop 3.1 | Top-`c` plans per bucket via the frontier merge, then pick by expected cost |
//! | [`alg_c`] | §3.4–3.5, Thms 3.3/3.4 | DP directly on expected cost — the exact **LEC** plan, for static and dynamic (Markov) memory |
//! | [`alg_d`] | §3.6 | Multi-parameter: relation sizes and selectivities are distributions too; result-size distributions propagate with §3.6.3 rebucketing |
//! | [`exhaustive`] | — | Brute-force left-deep / bushy enumeration: ground truth for every theorem test |
//! | [`pareto`] | PODS 2002 | Pareto-frontier DP over cost *profiles*: exact for any monotone utility; plus the scalar utility DP and the counterexample showing it is unsound for non-linear utilities |
//! | [`rules`] | \[AHW15\]/PARQO | Rule-parameterized finalize over the frontier outputs: minmax regret, penalty-aware, CVaR — the `lec-rules` subsystem threaded through the optimizer |
//! | [`bucketing`] | §3.7 | Level-set bucketing: memory buckets placed at the cost formulas' discontinuities |
//! | [`bushy`] | §4 future work | Bushy-tree LEC dynamic programming (DPsub-style), exact under static memory |
//! | [`certificate`] | DESIGN.md §11 | (ε, δ) suboptimality certificates: bound a chosen plan against the sampled-interval optimum |
//! | [`voi`] | §2.3 / \[SBM93\] | Expected value of perfect information: when sampling to reduce uncertainty pays for itself |
//! | [`parametric`] | §3.2 / \[INSS92\] | Precompute LEC plans per scenario at compile time, re-cost and pick at start-up time |
//!
//! The shared machinery lives in [`env`](mod@env) (static / Markov-dynamic memory
//! models), [`evaluate`] (costing *given* plans: per-value, expected,
//! profiles, distributions) and [`dp`] (the generic left-deep dynamic
//! program all scalar algorithms instantiate). Each enumerator has exactly
//! one entry point, a serial dynamic program (or enumeration) taking its
//! options as explicit arguments; the DP enumerators (`lsc`, `alg_c`,
//! `alg_d`, `bushy`, `topc`, `pareto`, `exhaustive`, `parametric`) return
//! their result together with the deterministic [`OptStats`] search
//! counters of the [`stats`] observability layer. [`par`] holds the
//! lattice-rank and timing helpers.
//!
//! Two static-verification layers guard the family (DESIGN.md §7): every
//! optimizer funnels its winners through the [`verify`] debug hooks (the
//! `lec-plan` plan-IR verifier, compiled out in release builds), and the
//! [`soundness`] gate certifies that a utility distributes over cost
//! addition before admitting it to a DP entry point.
//!
//! ### Cost accounting
//!
//! Uniformly across optimizer and evaluator: every join and sort
//! materializes its output (the paper's §3.4 assumes no pipelining), join
//! and sort formulas own reading their inputs, and plain full scans are
//! therefore free at the leaves (selections materialize a filtered
//! intermediate; index scans pay a random-access premium).

pub mod alg_a;
pub mod alg_b;
pub mod alg_c;
pub mod alg_d;
pub mod bucketing;
pub mod bushy;
pub mod certificate;
pub mod dp;
pub mod env;
pub mod error;
pub mod evaluate;
pub mod exhaustive;
pub mod lsc;
pub mod par;
pub mod parametric;
pub mod pareto;
pub mod precompute;
pub mod rules;
pub mod soundness;
pub mod stats;
pub mod topc;
pub mod verify;
pub mod voi;

pub use certificate::{certify_plan, Certificate, QueryIntervals};
pub use dp::Optimized;
pub use env::{MemoryModel, PhaseDists};
pub use error::CoreError;
pub use evaluate::{cost_distribution_static, expected_cost, plan_cost_at};
pub use precompute::QueryTables;
pub use rules::{optimize_with_rule, RuleResult};
pub use stats::{CacheCounters, OptStats, PrecomputeSizes, ResilienceCounters, SearchCounters};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
