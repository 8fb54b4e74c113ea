//! Level-set bucketing of the memory parameter (§3.7).
//!
//! "The cost formulas of the common join algorithms are very simple ... for
//! fixed relation sizes, the cost for a sort-merge join has one of three
//! possible values" — so instead of a fine uniform grid, place bucket
//! boundaries exactly at the discontinuities ("level sets") of the cost
//! formulas the optimizer will evaluate. Within each resulting bucket every
//! formula is constant, so the expected cost computed from the bucketed
//! distribution equals the one computed from the full distribution: the
//! bucketing is *lossless* for plan choice, with only a handful of buckets.

use crate::error::CoreError;
use lec_cost::{CostModel, JoinMethod};
use lec_plan::{JoinQuery, RelSet};
use lec_stats::{Bucketing, Distribution};

/// Collects every memory value at which some join or sort formula the
/// optimizer may evaluate for this query is discontinuous.
///
/// Covers all dag nodes: for every subset `S` (point size estimates) and
/// relation `j ∉ S`, the breakpoints of every join method on
/// (`|S|`, `|A_j|`), plus the sort breakpoints of the final result. Each
/// breakpoint `t` is emitted together with `t.next_down()` so that both
/// strict (`M > t`) and non-strict (`M ≥ t`) threshold conventions fall on
/// bucket boundaries. Exponential in `n` (like the DP itself).
fn level_set_breakpoints<M: CostModel + ?Sized>(query: &JoinQuery, model: &M) -> Vec<f64> {
    let n = query.n();
    let mut points = Vec::new();
    let mut push = |t: f64| {
        if t.is_finite() && t > 0.0 {
            points.push(t);
            points.push(t.next_down());
        }
    };
    for set in RelSet::all_subsets(n) {
        let left = query.result_pages(set);
        for j in 0..n {
            if set.contains(j) {
                continue;
            }
            let right = query.relation(j).effective_pages();
            for method in JoinMethod::ALL {
                for t in model.join_breakpoints(method, left, right) {
                    push(t);
                }
            }
        }
    }
    for t in model.sort_breakpoints(query.result_pages(query.all())) {
        push(t);
    }
    points.sort_by(f64::total_cmp);
    points.dedup();
    points
}

/// Applies the §3.7 bucketing strategy to a fine memory distribution:
/// bucket boundaries at the level sets of the query's cost formulas.
pub fn bucketize_memory<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    fine: &Distribution,
) -> Result<Distribution, CoreError> {
    Ok(Bucketing::Breakpoints(level_set_breakpoints(query, model)).apply(fine)?)
}

/// Result of the coarse-to-fine strategy.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// The chosen plan, with its expected cost under the *fine*
    /// distribution (so the reported number is exact for the plan).
    pub optimized: crate::dp::Optimized,
    /// Number of buckets in the coarse distribution the search stabilized
    /// on. This is the *actual* bucket count: equi-depth bucketing cannot
    /// split a support point, so skewed distributions can yield fewer
    /// buckets than requested (an earlier version reported the requested
    /// count instead).
    pub buckets_used: usize,
    /// Number of optimizer invocations performed.
    pub refinements: usize,
}

/// §3.7's coarse-to-fine heuristic: "We can partition it coarsely at
/// first, and then generate more candidates in the region ... We may be
/// able to use coarse bucketing to eliminate many plans and then use a
/// more refined bucketing to decide among the remaining few."
///
/// Starts with 2 equi-depth buckets and doubles until the chosen plan is
/// stable for `stability` consecutive refinements (or the bucket count
/// reaches the fine support). The returned cost is re-evaluated under the
/// fine distribution, so it is exact *for the returned plan*; the plan
/// itself is heuristic (stability is evidence, not proof, of convergence).
pub fn adaptive_optimize<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    fine: &Distribution,
    stability: usize,
) -> Result<AdaptiveResult, CoreError> {
    let stability = stability.max(1);
    let mut b = 2usize;
    let mut refinements = 0;
    let mut last_plan: Option<lec_plan::Plan> = None;
    let mut stable_for = 0;
    loop {
        let coarse = Bucketing::EquiDepth(b.min(fine.len())).apply(fine)?;
        let coarse_buckets = coarse.len();
        let opt = crate::alg_c::optimize(query, model, &crate::env::MemoryModel::Static(coarse))?.0;
        refinements += 1;
        if last_plan.as_ref() == Some(&opt.plan) {
            stable_for += 1;
        } else {
            stable_for = 0;
        }
        let exhausted = b >= fine.len();
        if stable_for >= stability || exhausted {
            let phases = crate::env::MemoryModel::Static(fine.clone()).table(query.n().max(2))?;
            let cost = crate::evaluate::expected_cost(query, model, &opt.plan, &phases);
            return Ok(AdaptiveResult {
                optimized: crate::dp::Optimized {
                    plan: opt.plan,
                    cost,
                },
                buckets_used: coarse_buckets,
                refinements,
            });
        }
        last_plan = Some(opt.plan);
        b *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg_c;
    use crate::env::MemoryModel;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};

    fn example_1_1() -> JoinQuery {
        JoinQuery::new(
            vec![
                Relation::new("A", 1_000_000.0, 5e7),
                Relation::new("B", 400_000.0, 2e7),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 3000.0 / 4e11,
                key: KeyId(0),
            }],
            Some(KeyId(0)),
        )
        .unwrap()
    }

    #[test]
    fn example_1_1_breakpoints_include_the_papers_buckets() {
        // §3.2: "the appropriate buckets are [0, 633), [633, 1000), and
        // [1000, ∞)" — i.e. breakpoints at √400000 ≈ 632.46 and √1e6 = 1000.
        let bps = level_set_breakpoints(&example_1_1(), &PaperCostModel);
        assert!(bps.iter().any(|&b| (b - 632.455).abs() < 0.01));
        assert!(bps.iter().any(|&b| (b - 1000.0).abs() < 1e-9));
        assert!(bps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn level_set_bucketing_is_lossless_for_plan_choice() {
        // A fine 400-point distribution vs its level-set bucketing: the
        // LEC optimizer must return the same plan at the same expected cost,
        // because every formula it evaluates is constant within buckets.
        let q = example_1_1();
        let model = PaperCostModel;
        let fine = Distribution::uniform_over((1..=400).map(|i| 10.0 * i as f64)).unwrap();
        let coarse = bucketize_memory(&q, &model, &fine).unwrap();
        assert!(
            coarse.len() < fine.len() / 4,
            "coarse has {} buckets",
            coarse.len()
        );

        let lec_fine = alg_c::optimize(&q, &model, &MemoryModel::Static(fine))
            .unwrap()
            .0;
        let lec_coarse = alg_c::optimize(&q, &model, &MemoryModel::Static(coarse))
            .unwrap()
            .0;
        assert_eq!(lec_fine.plan, lec_coarse.plan);
        assert!(
            (lec_fine.cost - lec_coarse.cost).abs() < 1e-6 * lec_fine.cost,
            "fine {} vs coarse {}",
            lec_fine.cost,
            lec_coarse.cost
        );
    }

    #[test]
    fn losslessness_holds_on_a_three_relation_query() {
        let q = JoinQuery::new(
            vec![
                Relation::new("a", 5_000.0, 5e4),
                Relation::new("b", 900.0, 9e3),
                Relation::new("c", 20_000.0, 2e5),
            ],
            vec![
                JoinPred {
                    left: 0,
                    right: 1,
                    selectivity: 1e-3,
                    key: KeyId(0),
                },
                JoinPred {
                    left: 1,
                    right: 2,
                    selectivity: 1e-4,
                    key: KeyId(1),
                },
            ],
            Some(KeyId(1)),
        )
        .unwrap();
        let model = PaperCostModel;
        let fine = Distribution::uniform_over((1..=300).map(|i| 3.0 + 7.0 * i as f64)).unwrap();
        let coarse = bucketize_memory(&q, &model, &fine).unwrap();
        let lec_fine = alg_c::optimize(&q, &model, &MemoryModel::Static(fine))
            .unwrap()
            .0;
        let lec_coarse = alg_c::optimize(&q, &model, &MemoryModel::Static(coarse))
            .unwrap()
            .0;
        assert_eq!(lec_fine.plan, lec_coarse.plan);
        assert!((lec_fine.cost - lec_coarse.cost).abs() < 1e-6 * lec_fine.cost);
    }

    #[test]
    fn adaptive_matches_fine_optimization_cheaply() {
        // On Example 1.1 with a 512-point fine environment, the coarse-to-
        // fine heuristic should land on the fine-optimal plan after a
        // handful of refinements.
        let q = example_1_1();
        let model = PaperCostModel;
        let fine = {
            let vals = (1..=512).map(|i| 5.0 * i as f64);
            Distribution::uniform_over(vals).unwrap()
        };
        let adaptive = adaptive_optimize(&q, &model, &fine, 2).unwrap();
        let full = alg_c::optimize(&q, &model, &MemoryModel::Static(fine))
            .unwrap()
            .0;
        assert_eq!(adaptive.optimized.plan, full.plan);
        assert!((adaptive.optimized.cost - full.cost).abs() < 1e-6 * full.cost);
        assert!(
            adaptive.buckets_used < 512,
            "used {}",
            adaptive.buckets_used
        );
        assert!(adaptive.refinements <= 9);
    }

    #[test]
    fn adaptive_regret_is_bounded_on_random_queries() {
        use lec_plan::{JoinPred, Relation};
        for seed in 0..8u64 {
            // Deterministic pseudo-random sizes from a tiny LCG.
            let mut state = seed.wrapping_mul(0x5851F42D4C957F2D).wrapping_add(1);
            let mut next = || {
                state = state
                    .wrapping_mul(0x5851F42D4C957F2D)
                    .wrapping_add(0x14057B7EF767814F);
                ((state >> 33) % 8000 + 60) as f64
            };
            let relations = (0..4)
                .map(|i| Relation::new(format!("r{i}"), next(), 1e5))
                .collect();
            let predicates = (0..3)
                .map(|i| JoinPred {
                    left: i,
                    right: i + 1,
                    selectivity: 1e-3,
                    key: KeyId(i),
                })
                .collect();
            let q = JoinQuery::new(relations, predicates, None).unwrap();
            let fine = Distribution::uniform_over((1..=128).map(|i| 12.0 * i as f64)).unwrap();
            let adaptive = adaptive_optimize(&q, &PaperCostModel, &fine, 2).unwrap();
            let full = alg_c::optimize(&q, &PaperCostModel, &MemoryModel::Static(fine))
                .unwrap()
                .0;
            let regret = adaptive.optimized.cost / full.cost;
            assert!(
                (1.0 - 1e-9..1.05).contains(&regret),
                "seed {seed}: regret {regret}"
            );
        }
    }

    #[test]
    fn buckets_used_reports_actual_coarse_buckets() {
        // Equi-depth cannot split a support point, so a tail-heavy fine
        // distribution collapses: with 90% of the mass on the last point,
        // every requested bucket count groups all three points into one
        // bucket. The old code reported the *requested* count (3 here);
        // the actual coarse distribution has a single bucket.
        let q = example_1_1();
        let fine = Distribution::new([(10.0, 0.05), (20.0, 0.05), (30.0, 0.9)]).unwrap();
        let coarse = Bucketing::EquiDepth(2).apply(&fine).unwrap();
        assert_eq!(coarse.len(), 1, "precondition: equi-depth collapses");
        let adaptive = adaptive_optimize(&q, &PaperCostModel, &fine, 1).unwrap();
        assert_eq!(adaptive.buckets_used, 1);
    }

    #[test]
    fn breakpoints_scale_with_subsets() {
        let q = example_1_1();
        let bps2 = level_set_breakpoints(&q, &PaperCostModel).len();
        assert!(bps2 > 4);
    }
}
