//! Algorithm D (§3.6): multiple uncertain parameters.
//!
//! Beyond memory, the sizes of base relations and the selectivities of join
//! predicates are distributions. Assuming independence (the paper's §3.6
//! simplification), each dag node needs exactly four distributions —
//! memory `M`, the input sizes `|B_j|` and `|A_j|`, and the predicate
//! selectivity `σ` (the paper's Figure 1) — regardless of how many
//! parameters the query started with:
//!
//! * the expected join-step cost is `E[Φ(method, |B_j|, |A_j|, M)]`,
//!   computed either by the naive `b_M · b_B · b_A` triple loop or by the
//!   §3.6.1/3.6.2 linear-time kernels;
//! * the result-size distribution `|B_j ⋈ A_j|` is the independent product
//!   `|B_j| ⊗ |A_j| ⊗ σ`, rebucketed back to `b` support points (§3.6.3) so
//!   the distribution carried up the dag does not grow.
//!
//! The result size is independent of the choice of `j`, so it is computed
//! once per dag node (the paper's observation at the end of Algorithm D).

use crate::dp::Optimized;
use crate::env::{MemoryModel, PhaseDists};
use crate::error::CoreError;
use crate::evaluate::access_choices;
use crate::par;
use crate::stats::OptStats;
use lec_cost::fast_expect::{expected_join_fast, expected_join_naive, expected_sort};
use lec_cost::{AccessMethod, CostModel, JoinMethod};
use lec_plan::{JoinQuery, KeyId, Plan, RelSet};
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

/// Which expected-cost computation to use at each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// The §3.6.1/3.6.2 linear-time kernels. They encode the paper's
    /// formulas, so they are exact only when [`optimize`] is handed
    /// [`PaperCostModel`](lec_cost::PaperCostModel).
    #[default]
    Fast,
    /// The naive `O(b_M · b_B · b_A)` triple loop through the model's own
    /// formulas; works for any model.
    Naive,
}

/// Configuration for Algorithm D.
#[derive(Debug, Clone, Copy)]
pub struct AlgDConfig {
    /// Support-size cap `b` for propagated result-size distributions
    /// (§3.6.3 rebucketing).
    pub size_buckets: usize,
    /// Expected-cost kernel.
    pub kernel: Kernel,
}

impl Default for AlgDConfig {
    fn default() -> Self {
        Self {
            size_buckets: 8,
            kernel: Kernel::Fast,
        }
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
/// `config.kernel` picks the expected-cost computation: [`Kernel::Fast`]
/// hard-codes the paper formulas, so any other `model` needs
/// [`Kernel::Naive`]. The root sort is priced through `model` either way.
///
/// The sweep walks the lattice rank by rank (a valid DP order,
/// bit-identical to the flat numeric sweep) so per-rank wall time can be
/// recorded; within a rank each mask computes its result-size distribution
/// and then its join costing, in increasing numeric mask order.
pub fn optimize<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &MemoryModel,
    sizes: &SizeModel,
    config: AlgDConfig,
) -> Result<(AlgDResult, OptStats), CoreError> {
    validate_inputs(query, sizes, &config)?;
    let n = query.n();
    let full = query.all();
    let phases = memory.table(n.max(2))?;
    let slots = (full.bits() + 1) as usize;
    let mut table: Vec<Option<Entry>> = vec![None; slots];
    let mut size_of: Vec<Option<Distribution>> = vec![None; slots];

    let access = AccessTable::new(query, sizes);
    seed_depth_one(query, sizes, &access, &mut table, &mut size_of);

    let required = query.required_order();
    let mut best_ordered: Option<Entry> = None;

    let mut stats = OptStats::new("alg_d", n);
    stats.precompute.access_entries = access.best.len();
    stats.precompute.pages_entries = n; // singleton size distributions
    stats.counters.entries_written = n as u64;

    let ranks = par::ranks(n);
    let mut scratch = ConvolveScratch::new();
    for rank in &ranks[1..] {
        let (result, elapsed) = par::timed(|| -> Result<(), CoreError> {
            for &set in rank {
                let idx = set.bits() as usize;
                size_of[idx] = Some(node_size_dist(
                    query,
                    sizes,
                    config,
                    &size_of,
                    set,
                    &mut scratch,
                )?);
                let (best, ordered, candidates) = cost_mask_d(
                    query, model, sizes, config, &access, &phases, &table, &size_of, set, full,
                    required,
                );
                table[idx] = Some(best);
                if let Some(ord) = ordered {
                    best_ordered = Some(ord);
                }
                stats.counters.masks_expanded += 1;
                stats.counters.candidates_priced += candidates;
                stats.counters.entries_written += 1;
                stats.precompute.pages_entries += 1;
            }
            Ok(())
        });
        result?;
        stats.rank_wall_ns.push(elapsed);
    }

    let best = finalize_d(
        query,
        model,
        &access,
        &phases,
        &table,
        &size_of,
        best_ordered,
    )?;
    Ok((best, stats))
}

#[derive(Debug, Clone, Copy)]
enum Choice {
    Access(AccessMethod),
    Join { last: usize, method: JoinMethod },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    cost: f64,
    choice: Choice,
}

/// Per-query state Algorithm D previously recomputed per `(set, j)` visit:
/// the best expected access path of each relation, hoisted out of the
/// inner loop (computed once, like the other memoization tables).
struct AccessTable {
    best: Vec<(f64, AccessMethod)>,
}

impl AccessTable {
    fn new(query: &JoinQuery, sizes: &SizeModel) -> Self {
        let best = (0..query.n())
            .map(|i| {
                let rel = query.relation(i);
                access_choices(rel)
                    .into_iter()
                    .map(|m| (expected_access_cost(rel, m, &sizes.rel_sizes[i]), m))
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .expect("at least the full scan") // lec-lint: allow(panic-reachability) — every relation set is seeded with the full-scan access, so the candidate list is non-empty
            })
            .collect();
        AccessTable { best }
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

/// Result-size distribution of a dag node: computed once per node, from
/// the lowest member as the designated `j` (any choice is equivalent).
///
/// Every product → §3.6.3 rebucket step runs through the caller's
/// [`ConvolveScratch`], so steady-state nodes allocate nothing: the wide
/// product support lives in the scratch buffers and the rebucketed result
/// (≤ `size_buckets` ≤ 8 points by default) is emitted inline. The scratch
/// kernels are bit-identical to `product_with` + `rebucket`, so this is
/// purely an allocation change.
// lec-lint: allow(panic-reachability) — callers pass non-empty sets whose subset entries the DP pass has already filled
fn node_size_dist(
    query: &JoinQuery,
    sizes: &SizeModel,
    config: AlgDConfig,
    size_of: &[Option<Distribution>],
    set: RelSet,
    scratch: &mut ConvolveScratch,
) -> Result<Distribution, CoreError> {
    let j = set.iter().next().expect("non-empty");
    let sub = set.remove(j);
    let sub_dist = size_of[sub.bits() as usize]
        .as_ref()
        .expect("subset computed earlier");
    let j_dist = &sizes.rel_sizes[j];
    let mut dist = scratch.product_rebucket(sub_dist, j_dist, |a, b| a * b, config.size_buckets)?;
    for (pidx, pred) in query.predicates().iter().enumerate() {
        let crosses = (sub.contains(pred.left) && j == pred.right)
            || (sub.contains(pred.right) && j == pred.left);
        if crosses {
            dist = scratch.product_rebucket(
                &dist,
                &sizes.selectivities[pidx],
                |s, sel| s * sel,
                config.size_buckets,
            )?;
        }
    }
    Ok(scratch.map(&dist, |v| v.max(1.0))?)
}

/// Prices every way of forming `set` by a last join, against the filled
/// lower-depth tables.
#[allow(clippy::too_many_arguments)]
// lec-lint: allow(panic-reachability) — DP induction: singletons are seeded and subsets priced in rank order before supersets, and every candidate set holds at least the full-scan plan
fn cost_mask_d<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    sizes: &SizeModel,
    config: AlgDConfig,
    access: &AccessTable,
    phases: &PhaseDists,
    table: &[Option<Entry>],
    size_of: &[Option<Distribution>],
    set: RelSet,
    full: RelSet,
    required: Option<KeyId>,
) -> (Entry, Option<Entry>, u64) {
    let phase = set.len() - 2;
    let mem_dist = phases.at(phase);
    let e_out = size_of[set.bits() as usize]
        .as_ref()
        .expect("node size computed earlier")
        .mean();

    let mut best: Option<Entry> = None;
    let mut best_ordered: Option<Entry> = None;
    let mut candidates = 0u64;
    for j in set.iter() {
        let sub = set.remove(j);
        let left = table[sub.bits() as usize].expect("subset computed earlier");
        let left_dist = size_of[sub.bits() as usize]
            .as_ref()
            .expect("subset computed earlier");
        let j_dist = &sizes.rel_sizes[j];
        let acc_cost = access.best[j].0;
        let key = query.join_key_between(sub, RelSet::single(j));
        for method in JoinMethod::ALL {
            let e_join = match config.kernel {
                Kernel::Fast => expected_join_fast(method, left_dist, j_dist, mem_dist),
                Kernel::Naive => expected_join_naive(model, method, left_dist, j_dist, mem_dist),
            };
            let cost = left.cost + acc_cost + e_join + e_out;
            candidates += 1;
            let entry = Entry {
                cost,
                choice: Choice::Join { last: j, method },
            };
            if best.is_none_or(|b| cost < b.cost) {
                best = Some(entry);
            }
            if set == full
                && method == JoinMethod::SortMerge
                && required.is_some()
                && key == required
                && best_ordered.is_none_or(|b| cost < b.cost)
            {
                best_ordered = Some(entry);
            }
        }
    }
    (
        best.expect("set has at least two members"),
        best_ordered,
        candidates,
    )
}

fn seed_depth_one(
    query: &JoinQuery,
    sizes: &SizeModel,
    access: &AccessTable,
    table: &mut [Option<Entry>],
    size_of: &mut [Option<Distribution>],
) {
    for i in 0..query.n() {
        let (cost, method) = access.best[i];
        let idx = RelSet::single(i).bits() as usize;
        table[idx] = Some(Entry {
            cost,
            choice: Choice::Access(method),
        });
        size_of[idx] = Some(sizes.rel_sizes[i].clone());
    }
}

fn finalize_d<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    access: &AccessTable,
    phases: &PhaseDists,
    table: &[Option<Entry>],
    size_of: &[Option<Distribution>],
    best_ordered: Option<Entry>,
) -> Result<AlgDResult, CoreError> {
    let n = query.n();
    let full = query.all();
    let root = table[full.bits() as usize].ok_or(CoreError::NoPlanFound)?;
    let result_size = size_of[full.bits() as usize]
        .clone()
        .ok_or(CoreError::NoPlanFound)?;

    let best = if let Some(key) = query.required_order() {
        let sort_phase = n.saturating_sub(1);
        let e_sort = expected_sort(model, &result_size, phases.at(sort_phase)) + result_size.mean();
        let sorted_cost = root.cost + e_sort;
        match best_ordered {
            Some(ord) if ord.cost <= sorted_cost => Optimized {
                plan: reconstruct(query, access, table, full, Some(ord)),
                cost: ord.cost,
            },
            _ => Optimized {
                plan: Plan::sort(reconstruct(query, access, table, full, None), key),
                cost: sorted_cost,
            },
        }
    } else {
        Optimized {
            plan: reconstruct(query, access, table, full, None),
            cost: root.cost,
        }
    };

    crate::verify::debug_verify_plan(query, &best.plan, best.cost);
    Ok(AlgDResult { best, result_size })
}

/// Expected access cost when the effective size is a distribution.
fn expected_access_cost(
    rel: &lec_plan::Relation,
    method: AccessMethod,
    size: &Distribution,
) -> f64 {
    match method {
        AccessMethod::FullScan => {
            if rel.local_selectivity >= 1.0 {
                0.0
            } else {
                rel.pages + size.mean()
            }
        }
        AccessMethod::IndexScan => 2.0 + 3.0 * size.mean(),
    }
}

// lec-lint: allow(panic-reachability) — reconstruction only walks entries the forward DP pass has filled; a singleton decomposes to its only relation
fn reconstruct(
    query: &JoinQuery,
    access: &AccessTable,
    table: &[Option<Entry>],
    set: RelSet,
    override_root: Option<Entry>,
) -> Plan {
    let entry = override_root.unwrap_or_else(|| table[set.bits() as usize].expect("entry exists"));
    match entry.choice {
        Choice::Access(method) => Plan::Access {
            rel: set.iter().next().expect("singleton"),
            method,
        },
        Choice::Join { last, method } => {
            let sub = set.remove(last);
            let left = reconstruct(query, access, table, sub, None);
            let key = query.join_key_between(sub, RelSet::single(last));
            Plan::join(
                left,
                Plan::Access {
                    rel: last,
                    method: access.best[last].1,
                },
                method,
                key,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg_c;
    use crate::dp::DpOptions;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};
    use lec_stats::Distribution;

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
        let (c, _) = alg_c::optimize(&q, &PaperCostModel, &mem, DpOptions::default()).unwrap();
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

    #[test]
    fn fast_and_naive_kernels_agree() {
        let q = chain_query(4);
        let sizes = SizeModel::with_uncertainty(&q, 0.4, 0.6, 4).unwrap();
        let mem = memory();
        let fast_kernel = fast(&q, &mem, &sizes, AlgDConfig::default()).unwrap();
        let naive = fast(
            &q,
            &mem,
            &sizes,
            AlgDConfig {
                kernel: Kernel::Naive,
                size_buckets: 8,
            },
        )
        .unwrap();
        assert_eq!(fast_kernel.best.plan, naive.best.plan);
        assert!((fast_kernel.best.cost - naive.best.cost).abs() < 1e-6 * naive.best.cost.max(1.0));
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
            let d = fast(
                &q,
                &mem,
                &sizes,
                AlgDConfig {
                    size_buckets: b,
                    kernel: Kernel::Fast,
                },
            )
            .unwrap();
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
        assert_eq!(sstats.counters.masks_expanded, 26);
        assert_eq!(sstats.counters.candidates_priced, 225);
        // One propagated size distribution per node: 5 seeds + 26 masks.
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
