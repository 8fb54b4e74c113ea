//! A cost-model wrapper that counts formula evaluations.
//!
//! The paper's complexity claims are stated in cost-formula evaluations
//! ("this computation requires b evaluations of the cost formula", §3.4;
//! "b times the cost of a single optimizer invocation", §3.2). Experiments
//! X3/X7 use this wrapper as the work meter.

use crate::methods::JoinMethod;
use crate::CostModel;
use std::cell::Cell;

/// Wraps a [`CostModel`], counting every `join_cost` / `sort_cost` call.
#[derive(Debug, Clone, Default)]
pub struct CountingModel<M> {
    inner: M,
    evals: Cell<u64>,
}

impl<M: CostModel> CountingModel<M> {
    /// Wraps `inner` with a zeroed counter.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            evals: Cell::new(0),
        }
    }

    /// Number of cost-formula evaluations so far.
    pub fn evaluations(&self) -> u64 {
        self.evals.get()
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.evals.set(0);
    }
}

impl<M: CostModel> CostModel for CountingModel<M> {
    fn join_cost(&self, method: JoinMethod, l: f64, r: f64, m: f64) -> f64 {
        self.evals.set(self.evals.get() + 1);
        self.inner.join_cost(method, l, r, m)
    }

    fn sort_cost(&self, pages: f64, memory: f64) -> f64 {
        self.evals.set(self.evals.get() + 1);
        self.inner.sort_cost(pages, memory)
    }

    fn join_breakpoints(&self, method: JoinMethod, l: f64, r: f64) -> Vec<f64> {
        self.inner.join_breakpoints(method, l, r)
    }

    fn sort_breakpoints(&self, pages: f64) -> Vec<f64> {
        self.inner.sort_breakpoints(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::PaperCostModel;

    #[test]
    fn counts_and_resets() {
        let m = CountingModel::new(PaperCostModel);
        assert_eq!(m.evaluations(), 0);
        let direct = PaperCostModel.join_cost(JoinMethod::SortMerge, 100.0, 50.0, 20.0);
        let wrapped = m.join_cost(JoinMethod::SortMerge, 100.0, 50.0, 20.0);
        assert_eq!(direct, wrapped);
        m.sort_cost(100.0, 10.0);
        assert_eq!(m.evaluations(), 2);
        // Breakpoint queries are not formula evaluations.
        m.join_breakpoints(JoinMethod::GraceHash, 100.0, 50.0);
        assert_eq!(m.evaluations(), 2);
        m.reset();
        assert_eq!(m.evaluations(), 0);
    }

    #[test]
    fn distribution_expectation_runs_the_counted_default_loop() {
        use crate::fast_expect::expected_join_naive;
        use lec_stats::Distribution;
        // The wrapper does not forward `PaperCostModel`'s fast override: it
        // prices through the default triple loop, one counted `join_cost`
        // per (left, right, memory) bucket triple.
        let m = CountingModel::new(PaperCostModel);
        let left = Distribution::new([(10.0, 0.25), (50.0, 0.25), (100.0, 0.5)]).unwrap();
        let right = Distribution::new([(9.0, 0.15), (61.0, 0.35), (415.0, 0.5)]).unwrap();
        let mem =
            Distribution::new([(4.0, 0.15), (9.0, 0.25), (19.0, 0.35), (75.0, 0.25)]).unwrap();
        for method in JoinMethod::ALL {
            m.reset();
            let counted = m.expected_join_dist(method, &left, &right, &mem);
            let naive = expected_join_naive(&PaperCostModel, method, &left, &right, &mem);
            assert_eq!(counted.to_bits(), naive.to_bits(), "{method}");
            assert_eq!(m.evaluations(), 3 * 3 * 4, "{method}");
        }
    }
}
