#![warn(missing_docs)]

//! I/O cost-model substrate for LEC query optimization.
//!
//! This crate implements the cost function `Φ(p, v)` of §3.1: given a plan
//! fragment and a parameter value (available buffer memory, in pages), it
//! returns an I/O cost. Two models are provided behind the [`CostModel`]
//! trait:
//!
//! * [`PaperCostModel`] — the paper's own simplified Shapiro-style formulas
//!   (§3.6.1–3.6.2 and Example 1.1): a small number of *level sets* per
//!   operator, with discontinuities at memory thresholds like `√L`. The
//!   paper's footnote 2 explicitly argues for such simple formulas.
//! * [`DetailedCostModel`] — classic textbook formulas (explicit run
//!   generation and merge passes, recursive hash partitioning, block
//!   nested loops) used as an ablation to show the LEC results are not an
//!   artifact of the three-case simplification.
//!
//! ## Cost-unit convention
//!
//! Following the paper's formulas, a "pass" over the data costs its data
//! volume in pages: `Φ(SM) = 2(|A| + |B|)` means two passes. The execution
//! simulator (`lec-exec`) counts physical page reads *and* writes, so its
//! absolute numbers differ by a bounded factor; experiment X9 measures that
//! correspondence. Reading the two join inputs is owned by the join formula
//! (the paper's Algorithm C adds access-path costs separately, which are
//! therefore zero for a plain full scan and positive only when an initial
//! selection materializes a filtered intermediate).
//!
//! The crate also provides:
//!
//! * [`CostModel::expected_join_dist`] — the expected join cost when both
//!   input sizes and memory are distributions (Algorithm D's pricing). The
//!   default is the naive `O(b_A · b_B · b_M)` triple loop through the
//!   model's own formulas; [`PaperCostModel`] overrides it with the
//!   §3.6.1/3.6.2 linear-time kernels of [`fast_expect`];
//! * memory **breakpoints** per operator, feeding the level-set bucketing
//!   strategy of §3.7;
//! * [`CountingModel`] — a wrapper that counts cost-formula evaluations,
//!   the work metric used by the complexity experiments (X3).

pub mod counting;
pub mod detailed;
pub mod fast_expect;
pub mod methods;
pub mod paper;

pub use counting::CountingModel;
pub use detailed::DetailedCostModel;
pub use methods::{AccessMethod, JoinMethod};
pub use paper::PaperCostModel;

use lec_stats::Distribution;

/// A cost model: `Φ(operator, sizes, memory) -> I/O cost`.
///
/// Implementations must be pure (same inputs, same cost) — the optimizer
/// relies on this for dynamic programming — and total for all positive page
/// counts and memories.
pub trait CostModel {
    /// Cost of joining materialized inputs of `left_pages` and `right_pages`
    /// pages with `method` under `memory` pages of buffer, including reading
    /// both inputs and all intermediate passes, excluding writing the output.
    ///
    /// Must be non-negative (never NaN) for page counts `>= 1`, including
    /// `∞`, and any positive memory. The left-deep DP's lower bound charges
    /// each remaining join step at least its output pages and prunes on
    /// that; a negative formula would let it prune the optimum.
    fn join_cost(&self, method: JoinMethod, left_pages: f64, right_pages: f64, memory: f64) -> f64;

    /// Cost of sorting a materialized input of `pages` pages under `memory`
    /// pages of buffer (zero when it fits in memory). Non-negative under
    /// the same contract as [`CostModel::join_cost`].
    fn sort_cost(&self, pages: f64, memory: f64) -> f64;

    /// Memory values at which `join_cost` for these sizes is discontinuous,
    /// in increasing order. Used by level-set bucketing (§3.7).
    fn join_breakpoints(&self, method: JoinMethod, left_pages: f64, right_pages: f64) -> Vec<f64>;

    /// Memory values at which `sort_cost` for this size is discontinuous.
    fn sort_breakpoints(&self, pages: f64) -> Vec<f64>;

    /// Expected join-*step* cost (join formula plus `out_pages` output
    /// materialization) over a bucketed memory distribution given as aligned
    /// `(values, probs)` slices.
    ///
    /// The default accumulates `(join_cost + out_pages) · p` in slice order —
    /// bitwise identical to `dist.expect(|m| join_cost(..., m) + out_pages)`.
    /// Models whose formulas share per-call invariants (thresholds, size
    /// sums) may override with a hoisted kernel, **provided** the per-bucket
    /// arithmetic expressions and the accumulation order are unchanged, so
    /// the override stays bit-identical to the default. The optimizer
    /// equivalence and differential test batteries rely on this.
    fn expected_join_step(
        &self,
        method: JoinMethod,
        left_pages: f64,
        right_pages: f64,
        out_pages: f64,
        mem_values: &[f64],
        mem_probs: &[f64],
    ) -> f64 {
        let mut acc = 0.0;
        for (&m, &p) in mem_values.iter().zip(mem_probs) {
            acc += (self.join_cost(method, left_pages, right_pages, m) + out_pages) * p;
        }
        acc
    }

    /// Expected join-step costs for **all three** join methods at once, in
    /// [`JoinMethod::ALL`] order. The default defers to
    /// [`CostModel::expected_join_step`] per method; models may override
    /// with a single fused bucket pass, provided each method's accumulator
    /// receives exactly the per-method sequence of adds (bit-identity, as
    /// above). The DP inner loop prices every candidate under all three
    /// methods, so fusing shares the bucket loads and loop overhead.
    fn expected_join_steps(
        &self,
        left_pages: f64,
        right_pages: f64,
        out_pages: f64,
        mem_values: &[f64],
        mem_probs: &[f64],
    ) -> [f64; 3] {
        JoinMethod::ALL.map(|method| {
            self.expected_join_step(
                method,
                left_pages,
                right_pages,
                out_pages,
                mem_values,
                mem_probs,
            )
        })
    }

    /// Join formulas of all three methods at each memory value, in
    /// [`JoinMethod::ALL`] order: `out[i][k]` is
    /// `join_cost(ALL[k], left_pages, right_pages, mem_values[i])`, for
    /// every `i` both slices cover.
    ///
    /// This is the per-value half of [`CostModel::expected_join_steps`]:
    /// folding `acc += (out[i][k] + out_pages) · p` over a distribution's
    /// buckets in slice order is bitwise identical to it. Distributions
    /// that share memory values can therefore price a join once per
    /// distinct value and each fold its own expectation. The default calls
    /// [`CostModel::join_cost`]; overrides may hoist per-call invariants,
    /// provided every entry keeps `join_cost`'s bits.
    fn join_costs_at(
        &self,
        left_pages: f64,
        right_pages: f64,
        mem_values: &[f64],
        out: &mut [[f64; 3]],
    ) {
        for (&m, slot) in mem_values.iter().zip(out) {
            *slot =
                JoinMethod::ALL.map(|method| self.join_cost(method, left_pages, right_pages, m));
        }
    }

    /// Expected join cost `E[Φ(method, |A|, |B|, M)]` over independent
    /// distributions of the input sizes `left` (`|A|`), `right` (`|B|`) and
    /// memory — Algorithm D's per-node expectation (§3.6), excluding output
    /// materialization. The default is the `O(b_A · b_B · b_M)` triple loop
    /// [`fast_expect::expected_join_naive`]; overrides may be faster and
    /// agree up to float rounding, as [`PaperCostModel`]'s §3.6.1/3.6.2
    /// kernels ([`fast_expect::expected_join_fast`]) do.
    fn expected_join_dist(
        &self,
        method: JoinMethod,
        left: &Distribution,
        right: &Distribution,
        mem: &Distribution,
    ) -> f64 {
        fast_expect::expected_join_naive(self, method, left, right, mem)
    }

    /// Expected sort-*step* cost (sort formula plus `pages` output
    /// materialization) over a bucketed memory distribution. Same contract
    /// as [`CostModel::expected_join_step`]: the default is bitwise
    /// identical to `dist.expect(|m| sort_cost(pages, m) + pages)`, and any
    /// override must preserve that bit-identity.
    fn expected_sort_step(&self, pages: f64, mem_values: &[f64], mem_probs: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&m, &p) in mem_values.iter().zip(mem_probs) {
            acc += (self.sort_cost(pages, m) + pages) * p;
        }
        acc
    }
}

impl<M: CostModel + ?Sized> CostModel for &M {
    fn join_cost(&self, method: JoinMethod, l: f64, r: f64, m: f64) -> f64 {
        (**self).join_cost(method, l, r, m)
    }
    fn sort_cost(&self, pages: f64, memory: f64) -> f64 {
        (**self).sort_cost(pages, memory)
    }
    fn join_breakpoints(&self, method: JoinMethod, l: f64, r: f64) -> Vec<f64> {
        (**self).join_breakpoints(method, l, r)
    }
    fn sort_breakpoints(&self, pages: f64) -> Vec<f64> {
        (**self).sort_breakpoints(pages)
    }
    fn expected_join_step(
        &self,
        method: JoinMethod,
        l: f64,
        r: f64,
        out: f64,
        mem_values: &[f64],
        mem_probs: &[f64],
    ) -> f64 {
        (**self).expected_join_step(method, l, r, out, mem_values, mem_probs)
    }
    fn expected_join_steps(
        &self,
        l: f64,
        r: f64,
        out: f64,
        mem_values: &[f64],
        mem_probs: &[f64],
    ) -> [f64; 3] {
        (**self).expected_join_steps(l, r, out, mem_values, mem_probs)
    }
    fn join_costs_at(&self, l: f64, r: f64, mem_values: &[f64], out: &mut [[f64; 3]]) {
        (**self).join_costs_at(l, r, mem_values, out)
    }
    fn expected_join_dist(
        &self,
        method: JoinMethod,
        left: &Distribution,
        right: &Distribution,
        mem: &Distribution,
    ) -> f64 {
        (**self).expected_join_dist(method, left, right, mem)
    }
    fn expected_sort_step(&self, pages: f64, mem_values: &[f64], mem_probs: &[f64]) -> f64 {
        (**self).expected_sort_step(pages, mem_values, mem_probs)
    }
}
