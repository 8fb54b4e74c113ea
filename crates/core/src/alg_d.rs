//! Algorithm D (§3.6): multiple uncertain parameters.
//!
//! Beyond memory, the sizes of base relations and the selectivities of join
//! predicates are distributions. Assuming independence (the paper's §3.6
//! simplification), each dag node needs exactly four distributions —
//! memory `M`, the input sizes `|B_j|` and `|A_j|`, and the predicate
//! selectivity `σ` (the paper's Figure 1) — regardless of how many
//! parameters the query started with:
//!
//! * the expected join-step cost is `E[Φ(method, |B_j|, |A_j|, M)]`, which
//!   the model computes itself through
//!   [`CostModel::expected_join_dist`]: the naive `b_M · b_B · b_A` triple
//!   loop by default, the §3.6.1/3.6.2 linear-time kernels for
//!   [`PaperCostModel`](lec_cost::PaperCostModel);
//! * the result-size distribution `|B_j ⋈ A_j|` is the independent product
//!   `|B_j| ⊗ |A_j| ⊗ σ`, rebucketed back to `b` support points (§3.6.3) so
//!   the distribution carried up the dag does not grow.
//!
//! The result size is independent of the choice of `j`, so it is computed
//! once per dag node (the paper's observation at the end of Algorithm D),
//! before the dag walk. The walk itself is Algorithm C's: the shared
//! left-deep DP ([`dp::optimize_left_deep`]) with a step coster that reads
//! those distributions.

use crate::dp::{self, JoinInputs, Optimized, StepCoster};
use crate::env::{MemoryModel, PhaseDists};
use crate::error::CoreError;
use crate::precompute::QueryTables;
use crate::stats::OptStats;
use lec_cost::fast_expect::expected_sort;
use lec_cost::{CostModel, JoinMethod};
use lec_plan::{JoinQuery, RelSet};
use lec_stats::{ConvolveScratch, Distribution};

/// Distributions for the non-memory parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeModel {
    /// Per-relation distribution of *effective* pages (after any local
    /// selection), aligned with the query's relation indices.
    pub rel_sizes: Vec<Distribution>,
    /// Per-predicate selectivity distribution, aligned with the query's
    /// predicate indices.
    pub selectivities: Vec<Distribution>,
}

impl SizeModel {
    /// Point distributions straight from the query's statistics: Algorithm D
    /// with this model must coincide with Algorithm C.
    pub fn certain(query: &JoinQuery) -> Result<Self, CoreError> {
        let rel_sizes = query
            .relations()
            .iter()
            .map(|r| Distribution::point(r.effective_pages()))
            .collect::<Result<_, _>>()?;
        let selectivities = query
            .predicates()
            .iter()
            .map(|p| Distribution::point(p.selectivity))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            rel_sizes,
            selectivities,
        })
    }

    /// Multiplicative lognormal uncertainty around the query's point
    /// estimates: relation sizes with coefficient of variation `size_cv`,
    /// selectivities with `sel_cv`, each discretized into `buckets` buckets.
    pub fn with_uncertainty(
        query: &JoinQuery,
        size_cv: f64,
        sel_cv: f64,
        buckets: usize,
    ) -> Result<Self, CoreError> {
        let rel_sizes = query
            .relations()
            .iter()
            .map(|r| {
                lec_stats::families::lognormal_bucketed(r.effective_pages(), size_cv, buckets)
                    .and_then(|d| d.map(|v| v.max(1.0)))
            })
            .collect::<Result<_, _>>()?;
        let selectivities = query
            .predicates()
            .iter()
            .map(|p| {
                lec_stats::families::lognormal_bucketed(p.selectivity, sel_cv, buckets)
                    .and_then(|d| d.map(|v| v.clamp(f64::MIN_POSITIVE, 1.0)))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            rel_sizes,
            selectivities,
        })
    }
}

/// Configuration for Algorithm D.
#[derive(Debug, Clone, Copy)]
pub struct AlgDConfig {
    /// Support-size cap `b` for propagated result-size distributions
    /// (§3.6.3 rebucketing).
    pub size_buckets: usize,
}

impl Default for AlgDConfig {
    fn default() -> Self {
        Self { size_buckets: 8 }
    }
}

/// Result of Algorithm D.
#[derive(Debug, Clone)]
pub struct AlgDResult {
    /// The chosen plan and its expected cost.
    pub best: Optimized,
    /// The propagated distribution of the final result size (pages).
    pub result_size: Distribution,
}

/// Runs Algorithm D, returning the winner, its propagated result-size
/// distribution, and the search-space [`OptStats`]
/// (`precompute.pages_entries` counts the result-size distributions
/// materialized — Algorithm D's analog of the pages table).
///
/// Every expectation goes through `model`: join steps through
/// [`CostModel::expected_join_dist`] and the root sort through the model's
/// `sort_cost`, so any cost model is priced by its own formulas.
pub fn optimize<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &MemoryModel,
    sizes: &SizeModel,
    config: AlgDConfig,
) -> Result<(AlgDResult, OptStats), CoreError> {
    validate_inputs(query, sizes, &config)?;
    let phases = memory.table(query.n().max(2))?;
    let node_sizes = node_size_dists(query, sizes, config.size_buckets)?;
    let coster = SizeDistCoster {
        model,
        phases: &phases,
        rel_sizes: &sizes.rel_sizes,
        means: node_sizes.iter().map(Distribution::mean).collect(),
        node_sizes,
    };
    let tabs = QueryTables::with_access_pages(query, |i| sizes.rel_sizes[i].mean());
    let (best, mut stats) = dp::optimize_left_deep(query, &tabs, &coster)?;
    stats.algorithm = "alg_d";
    // One propagated size distribution per non-empty subset.
    stats.precompute.pages_entries = coster.node_sizes.len() - 1;
    let result_size = coster.node_sizes[query.all().bits() as usize].clone();
    Ok((AlgDResult { best, result_size }, stats))
}

/// Prices join steps in expectation over memory *and* the propagated
/// size distributions: `E[Φ(method, |B_j|, |A_j|, M)] + E[|out|]`.
struct SizeDistCoster<'a, M: ?Sized> {
    model: &'a M,
    phases: &'a PhaseDists,
    rel_sizes: &'a [Distribution],
    /// Result-size distribution per subset, indexed by `RelSet::bits()`.
    node_sizes: Vec<Distribution>,
    /// Their means: the expected output-materialization costs.
    means: Vec<f64>,
}

impl<M: CostModel + ?Sized> StepCoster for SizeDistCoster<'_, M> {
    fn join_all(&self, phase: usize, base: f64, join: JoinInputs) -> [f64; 3] {
        let mem = self.phases.at(phase);
        let left = &self.node_sizes[join.sub.bits() as usize];
        let right = &self.rel_sizes[join.j];
        let e_out = self.means[join.set.bits() as usize];
        // Summed left to right onto `base`: folding `e_join + e_out` first
        // would round differently and can flip ties between candidates.
        JoinMethod::ALL
            .map(|method| base + self.model.expected_join_dist(method, left, right, mem) + e_out)
    }

    fn sort(&self, phase: usize, set: RelSet, _pages: f64) -> f64 {
        let idx = set.bits() as usize;
        expected_sort(self.model, &self.node_sizes[idx], self.phases.at(phase)) + self.means[idx]
    }
}

fn validate_inputs(
    query: &JoinQuery,
    sizes: &SizeModel,
    config: &AlgDConfig,
) -> Result<(), CoreError> {
    if config.size_buckets == 0 {
        return Err(CoreError::BadParameter("size_buckets must be >= 1".into()));
    }
    if sizes.rel_sizes.len() != query.n() || sizes.selectivities.len() != query.predicates().len() {
        return Err(CoreError::BadParameter(
            "size model does not match the query".into(),
        ));
    }
    Ok(())
}

/// Result-size distribution of every subset, indexed by `RelSet::bits()`
/// (entry 0, the empty set, is an unused point). A node's distribution
/// joins its lowest member `j` onto `set \ {j}` (any choice of `j` is
/// equivalent), and that smaller mask is always filled first.
///
/// Every product → §3.6.3 rebucket step runs through one
/// [`ConvolveScratch`], so steady-state nodes allocate nothing but their
/// result: the wide product support lives in the scratch buffers and the
/// rebucketed result (≤ `size_buckets` ≤ 8 points by default) is emitted
/// inline. The scratch kernels are bit-identical to `product_with` +
/// `rebucket`.
fn node_size_dists(
    query: &JoinQuery,
    sizes: &SizeModel,
    size_buckets: usize,
) -> Result<Vec<Distribution>, CoreError> {
    let mut dists = Vec::with_capacity(1usize << query.n());
    dists.push(Distribution::point(1.0)?);
    let mut scratch = ConvolveScratch::new();
    for set in RelSet::all_subsets(query.n()) {
        let j = set.bits().trailing_zeros() as usize;
        let sub = set.remove(j);
        let j_dist = &sizes.rel_sizes[j];
        if sub.is_empty() {
            dists.push(j_dist.clone());
            continue;
        }
        let sub_dist = &dists[sub.bits() as usize];
        let mut dist = scratch.product_rebucket(sub_dist, j_dist, |a, b| a * b, size_buckets)?;
        for (pidx, pred) in query.predicates().iter().enumerate() {
            let crosses = (sub.contains(pred.left) && j == pred.right)
                || (sub.contains(pred.right) && j == pred.left);
            if crosses {
                dist = scratch.product_rebucket(
                    &dist,
                    &sizes.selectivities[pidx],
                    |s, sel| s * sel,
                    size_buckets,
                )?;
            }
        }
        dists.push(scratch.map(&dist, |v| v.max(1.0))?);
    }
    Ok(dists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg_c;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Plan, Relation};
    use lec_stats::{Distribution, MarkovChain};

    /// The paper's formulas without its fast-kernel override: inherits the
    /// default triple loop of [`CostModel::expected_join_dist`].
    struct NaivePaper;

    impl CostModel for NaivePaper {
        fn join_cost(&self, method: JoinMethod, l: f64, r: f64, m: f64) -> f64 {
            PaperCostModel.join_cost(method, l, r, m)
        }
        fn sort_cost(&self, pages: f64, memory: f64) -> f64 {
            PaperCostModel.sort_cost(pages, memory)
        }
        fn join_breakpoints(&self, method: JoinMethod, l: f64, r: f64) -> Vec<f64> {
            PaperCostModel.join_breakpoints(method, l, r)
        }
        fn sort_breakpoints(&self, pages: f64) -> Vec<f64> {
            PaperCostModel.sort_breakpoints(pages)
        }
    }

    fn fast(
        q: &JoinQuery,
        mem: &MemoryModel,
        sizes: &SizeModel,
        config: AlgDConfig,
    ) -> Result<AlgDResult, CoreError> {
        optimize(q, &PaperCostModel, mem, sizes, config).map(|(d, _)| d)
    }

    fn chain_query(n: usize) -> JoinQuery {
        let relations = (0..n)
            .map(|i| Relation::new(format!("r{i}"), 300.0 * (i + 1) as f64, 1e4))
            .collect();
        let predicates = (0..n - 1)
            .map(|i| JoinPred {
                left: i,
                right: i + 1,
                selectivity: 0.001,
                key: KeyId(i),
            })
            .collect();
        JoinQuery::new(relations, predicates, Some(KeyId(n - 2))).unwrap()
    }

    fn memory() -> MemoryModel {
        MemoryModel::Static(Distribution::new([(20.0, 0.3), (200.0, 0.4), (1500.0, 0.3)]).unwrap())
    }

    #[test]
    fn certain_sizes_reduce_to_algorithm_c() {
        let q = chain_query(4);
        let sizes = SizeModel::certain(&q).unwrap();
        let mem = memory();
        let d = fast(&q, &mem, &sizes, AlgDConfig::default()).unwrap();
        let (c, _) = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap();
        assert_eq!(d.best.plan, c.plan);
        assert!(
            (d.best.cost - c.cost).abs() < 1e-6 * c.cost.max(1.0),
            "D: {} vs C: {}",
            d.best.cost,
            c.cost
        );
        // With point sizes, the result-size distribution is the point
        // estimate the query computes.
        assert!(d.result_size.is_point());
        assert!((d.result_size.mean() - q.result_pages(q.all())).abs() < 1e-6);
    }

    fn dynamic_memory() -> MemoryModel {
        let chain = MarkovChain::random_walk(vec![20.0, 200.0, 1500.0], 0.5).unwrap();
        MemoryModel::dynamic(chain, vec![0.3, 0.4, 0.3]).unwrap()
    }

    #[test]
    fn fast_and_naive_kernels_agree() {
        let q = chain_query(4);
        let sizes = SizeModel::with_uncertainty(&q, 0.4, 0.6, 4).unwrap();
        for mem in [memory(), dynamic_memory()] {
            let fast_kernel = fast(&q, &mem, &sizes, AlgDConfig::default()).unwrap();
            let (naive, _) =
                optimize(&q, &NaivePaper, &mem, &sizes, AlgDConfig::default()).unwrap();
            assert_eq!(fast_kernel.best.plan, naive.best.plan);
            assert!(
                (fast_kernel.best.cost - naive.best.cost).abs() < 1e-6 * naive.best.cost.max(1.0)
            );
        }
    }

    #[test]
    fn result_size_mean_tracks_point_estimate() {
        // Rebucketing preserves means exactly, and the product of
        // independent means is the mean of the product, so the propagated
        // mean must match the point-estimate chain (up to the max(1.0)
        // flooring, inactive for these sizes).
        let q = chain_query(4);
        let sizes = SizeModel::with_uncertainty(&q, 0.3, 0.3, 5).unwrap();
        let mem = memory();
        let d = fast(&q, &mem, &sizes, AlgDConfig::default()).unwrap();
        let point = q.result_pages(q.all());
        let rel = (d.result_size.mean() - point).abs() / point;
        assert!(
            rel < 0.05,
            "propagated {} vs point {point}",
            d.result_size.mean()
        );
    }

    #[test]
    fn size_buckets_cap_is_respected() {
        let q = chain_query(5);
        let sizes = SizeModel::with_uncertainty(&q, 0.5, 0.5, 6).unwrap();
        let mem = memory();
        for b in [2, 4, 8] {
            let d = fast(&q, &mem, &sizes, AlgDConfig { size_buckets: b }).unwrap();
            assert!(d.result_size.len() <= b);
        }
    }

    #[test]
    fn uncertainty_can_change_the_chosen_plan() {
        // A query engineered so that size uncertainty flips a nested-loop
        // decision: with certain sizes the small relation fits in memory;
        // with uncertainty there is a real chance it does not, and the
        // quadratic blowup makes NL unattractive in expectation.
        let q = JoinQuery::new(
            vec![
                Relation::new("big", 40_000.0, 4e5),
                Relation::new("small", 95.0, 950.0),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 1e-5,
                key: KeyId(0),
            }],
            None,
        )
        .unwrap();
        let mem = MemoryModel::Static(Distribution::point(100.0).unwrap());
        let certain = SizeModel::certain(&q).unwrap();
        let d1 = fast(&q, &mem, &certain, AlgDConfig::default()).unwrap();
        let uncertain = SizeModel::with_uncertainty(&q, 0.8, 0.0, 8).unwrap();
        let d2 = fast(&q, &mem, &uncertain, AlgDConfig::default()).unwrap();
        let m1 = match &d1.best.plan {
            Plan::Join { method, .. } => *method,
            other => panic!("unexpected {other:?}"),
        };
        let m2 = match &d2.best.plan {
            Plan::Join { method, .. } => *method,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(m1, JoinMethod::NestedLoop);
        assert_ne!(m2, JoinMethod::NestedLoop, "uncertainty should kill NL");
    }

    #[test]
    fn stats_count_the_lattice() {
        let q = chain_query(5);
        let sizes = SizeModel::with_uncertainty(&q, 0.4, 0.5, 4).unwrap();
        let mem = memory();
        let (_, sstats) =
            optimize(&q, &PaperCostModel, &mem, &sizes, AlgDConfig::default()).unwrap();
        // Every mask of the lattice is expanded or pruned, and no more
        // candidates are priced than the unbounded 3 · Σ_{k=2..5} k·C(5,k).
        let c = &sstats.counters;
        assert_eq!(c.masks_expanded + c.masks_pruned, 26);
        assert_eq!(c.entries_written, 5 + c.masks_expanded);
        assert!(c.candidates_priced <= 225);
        // One propagated size distribution per node, pruned or not:
        // 5 seeds + 26 masks.
        assert_eq!(sstats.precompute.pages_entries, 5 + 26);
    }

    #[test]
    fn rejects_mismatched_size_model() {
        let q = chain_query(3);
        let other = SizeModel::certain(&chain_query(4)).unwrap();
        let res = fast(&q, &memory(), &other, AlgDConfig::default());
        assert!(matches!(res, Err(CoreError::BadParameter(_))));
    }
}
