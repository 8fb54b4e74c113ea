//! Debug-build verification hooks over the plan-IR verifier.
//!
//! Every optimizer in the family funnels its winning plan(s) through these
//! functions just before returning. Under `debug_assertions` they run
//! [`lec_plan::verify_plan`] / [`lec_plan::verify_costs`] /
//! [`lec_plan::verify_frontier`] and panic with the verifier's diagnosis on
//! failure; in release builds they compile to nothing, so the hot path pays
//! zero cost (EXPERIMENTS.md measures with the hooks compiled out).
//!
//! `lec-serve` does *not* rely on these: its verify stage checks every
//! served plan and fallback rung unconditionally, in every build.

use lec_plan::{JoinQuery, Plan};

/// Verify an emitted `(plan, cost)` pair against its query in debug builds.
///
/// # Panics
///
/// In debug builds, when the plan violates a plan-IR invariant or the cost
/// is non-finite/negative — both mean an optimizer bug, never bad input.
#[inline]
// lec-lint: allow(panic-reachability) — a verification failure here is a found optimizer bug; debug builds must abort loudly at the emission point
pub fn debug_verify_plan(query: &JoinQuery, plan: &Plan, cost: f64) {
    #[cfg(debug_assertions)]
    {
        if let Err(e) = lec_plan::verify_plan(plan, query) {
            panic!("optimizer emitted an invalid plan: {e}\nplan: {plan:?}");
        }
        if let Err(e) = lec_plan::verify_costs("emitted", &[cost]) {
            panic!("optimizer emitted a bad cost: {e}\nplan: {plan:?}");
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (query, plan, cost);
    }
}

/// Verify a root Pareto frontier (mutual nondominance, finite nonnegative
/// costs) in debug builds.
///
/// # Panics
///
/// In debug builds, when some entry is dominated by another or carries a
/// non-finite/negative cost.
#[inline]
// lec-lint: allow(panic-reachability) — a verification failure here is a found optimizer bug; debug builds must abort loudly at the emission point
pub fn debug_verify_frontier(points: &[impl AsRef<[f64]>]) {
    #[cfg(debug_assertions)]
    {
        if let Err(e) = lec_plan::verify_frontier(points) {
            panic!("optimizer emitted an invalid Pareto frontier: {e}");
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = points;
    }
}
