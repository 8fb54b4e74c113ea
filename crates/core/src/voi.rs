//! Value of information: when is it worth *reducing* the uncertainty?
//!
//! §2.3 and §3.6 point at \[SBM93\]: some uncertainty (notably predicate
//! selectivities) can be reduced by sampling, which itself costs I/O —
//! "they use decision-theoretic methods to pre-compute scenarios where it
//! may be worthwhile to do sampling". The decision-theoretic quantity
//! behind that is the **expected value of perfect information (EVPI)**:
//!
//! ```text
//! EVPI = E[ cost of committing to one plan under uncertainty ]
//!      − E_v[ cost of the best plan for each realized v ]
//! ```
//!
//! i.e. how much cheaper execution gets, on average, if the optimizer could
//! learn the parameters' true values before choosing a plan. Sampling (or
//! any other uncertainty-reducing measurement) is worthwhile exactly when
//! its cost is below the (partial) EVPI of the parameter it measures.
//!
//! This module computes the exact EVPI for the multi-parameter model by
//! joint enumeration (exponential; experiment scale), both for learning
//! *everything* and for learning one parameter at a time — the per-
//! parameter numbers tell you *which* predicate deserves a sample.
//!
//! Every quantity is a fold over the same `P × A` table of plan costs (`P`
//! left-deep plans, `A` joint parameter assignments). [`analyze`] fills it
//! one join order at a time and never builds a plan to price it: per
//! assignment it prices each relation's access paths, each relation set's
//! output pages and every join step that adds one relation to a set, once;
//! a left-deep plan's cost is then its prefix's cost plus the next access
//! and join step, so each prefix (the first `k` relations with their access
//! paths and the first `k − 1` join methods) is priced once and shared by
//! every plan that extends it. The sums are taken in the order
//! [`crate::evaluate::expected_cost`] takes them, so every cost has its
//! bits. The fold then visits the join order's plans in
//! [`crate::exhaustive::enumerate_left_deep`]'s order, keeping running
//! sums and minima, and only the committed plan is built.

use crate::alg_d::SizeModel;
use crate::env::{MemoryModel, PhaseDists};
use crate::error::CoreError;
use crate::evaluate::{access_step, joint_assignments};
use crate::exhaustive::{for_each_join_order, LeftDeepSpace};
use lec_cost::{CostModel, JoinMethod};
use lec_plan::{JoinQuery, Plan, RelSet};
use lec_stats::Distribution;

/// The EVPI analysis of one query under a size/selectivity model.
#[derive(Debug, Clone)]
pub struct VoiReport {
    /// Expected cost of the best *single* plan committed to under full
    /// uncertainty (the exact joint LEC plan).
    pub committed_cost: f64,
    /// The committed plan itself.
    pub committed_plan: Plan,
    /// Expected cost when the true parameter values are revealed before
    /// planning (a fresh optimization per realization).
    pub informed_cost: f64,
    /// `committed_cost - informed_cost` (≥ 0): the most any oracle —
    /// sampling, statistics refresh, run-time feedback — can be worth.
    pub evpi: f64,
    /// Per-parameter EVPI: `partial[k]` is the value of learning only
    /// parameter `k` (relation sizes first, then predicate selectivities,
    /// in index order), the others staying uncertain.
    pub partial: Vec<f64>,
}

impl VoiReport {
    /// True when a measurement of the given cost pays for itself against
    /// the full-information bound.
    pub fn sampling_worthwhile(&self, sampling_cost: f64) -> bool {
        self.evpi > sampling_cost
    }
}

/// Lowers `slot` to `cost` when `cost` is smaller under `total_cmp`; an
/// empty slot takes any cost. Ties keep the earlier value, like `min_by`.
fn keep_min(slot: &mut Option<f64>, cost: f64) {
    if slot.is_none_or(|m| cost.total_cmp(&m).is_lt()) {
        *slot = Some(cost);
    }
}

/// Computes the full EVPI analysis: every left-deep plan priced once per
/// joint parameter assignment, `P × A` costs in total, each built from
/// per-assignment join steps shared across plans. The assignment count `A`
/// is the product of all parameter bucket counts; intended for small
/// queries (`n ≤ 4`, few buckets), where it is exact.
///
/// Each quantity matches, to the bit, an exact joint-LEC search (the
/// first minimum of [`crate::evaluate::expected_cost_joint`] over all
/// left-deep plans) on the conditioned size model it is defined by: costs are accumulated in the
/// same odometer order, and a parameter conditioned to one bucket weighs
/// exactly 1.0, the mass of [`Distribution::point`].
pub fn analyze(
    query: &JoinQuery,
    model: &(impl CostModel + ?Sized),
    memory: &MemoryModel,
    sizes: &SizeModel,
) -> Result<VoiReport, CoreError> {
    let phases = memory.table(query.n().max(2))?;
    let assignments = joint_assignments(query, sizes)?;
    let dims: Vec<&Distribution> = sizes
        .rel_sizes
        .iter()
        .chain(sizes.selectivities.iter())
        .collect();

    // Partial information about parameter k conditions it on its bucket b:
    // assignment `a` then lands in the (k, b) bucket with the probability
    // of the other parameters alone. `slots[a]` lists, per parameter, that
    // bucket's position in the flat per-(k, b) arrays and that weight.
    let mut bucket_base = Vec::with_capacity(dims.len());
    let mut n_buckets = 0;
    for d in &dims {
        bucket_base.push(n_buckets);
        n_buckets += d.len();
    }
    let slots: Vec<Vec<(usize, f64)>> = assignments
        .iter()
        .map(|a| {
            bucket_base
                .iter()
                .zip(&a.buckets)
                .enumerate()
                .map(|(k, (&base, &b))| {
                    let weight = dims
                        .iter()
                        .zip(&a.buckets)
                        .enumerate()
                        .fold(1.0, |prob, (j, (d, &i))| {
                            prob * if j == k { 1.0 } else { d.probs()[i] }
                        });
                    (base + b, weight)
                })
                .collect()
        })
        .collect();

    let space = LeftDeepSpace::new(query);
    let steps: Vec<Steps> = assignments
        .iter()
        .map(|a| Steps::new(&a.instance, model, &phases, &space))
        .collect();
    let per_order = space.len();
    // `costs[a * per_order + p]`: plan `p` of the current join order under
    // assignment `a`.
    let mut costs = vec![0.0; assignments.len() * per_order];
    let (mut level, mut next) = (Vec::new(), Vec::new());

    let mut committed: Option<(Vec<usize>, usize, f64)> = None;
    let mut informed: Vec<Option<f64>> = vec![None; assignments.len()];
    let mut partial_best: Vec<Option<f64>> = vec![None; n_buckets];
    let mut partial_sum = vec![0.0; n_buckets];
    for_each_join_order(query.n(), |order| {
        for (steps, row) in steps.iter().zip(costs.chunks_mut(per_order)) {
            steps.price_order(query, &space, order, row, &mut level, &mut next);
        }
        // Fold the plans in `enumerate_left_deep`'s order.
        for p in 0..per_order {
            let mut total = 0.0;
            partial_sum.fill(0.0);
            for (((a, best), slots), row) in assignments
                .iter()
                .zip(&mut informed)
                .zip(&slots)
                .zip(costs.chunks(per_order))
            {
                let cost = row[p];
                total += a.prob * cost;
                keep_min(best, cost);
                for &(slot, weight) in slots {
                    partial_sum[slot] += weight * cost;
                }
            }
            for (best, &sum) in partial_best.iter_mut().zip(&partial_sum) {
                keep_min(best, sum);
            }
            if committed
                .as_ref()
                .is_none_or(|(_, _, c)| total.total_cmp(c).is_lt())
            {
                committed = Some((order.to_vec(), p, total));
            }
        }
    });
    let (order, p, committed_cost) = committed.ok_or(CoreError::NoPlanFound)?;
    let committed_plan = space.plan(query, &order, p);
    // With at least one plan priced, every running minimum is set.
    let informed: Vec<f64> = informed
        .into_iter()
        .collect::<Option<_>>()
        .ok_or(CoreError::NoPlanFound)?;
    let partial_best: Vec<f64> = partial_best
        .into_iter()
        .collect::<Option<_>>()
        .ok_or(CoreError::NoPlanFound)?;

    // Full information: the best plan for each realized assignment.
    let informed_cost = assignments
        .iter()
        .zip(&informed)
        .fold(0.0, |total, (a, best)| total + a.prob * best);

    // Partial information, one parameter at a time.
    let partial = dims
        .iter()
        .zip(&bucket_base)
        .map(|(d, &base)| {
            let with_k = d
                .probs()
                .iter()
                .zip(partial_best.iter().skip(base))
                .fold(0.0, |total, (p, best)| total + p * best);
            (committed_cost - with_k).max(0.0)
        })
        .collect();

    Ok(VoiReport {
        evpi: (committed_cost - informed_cost).max(0.0),
        committed_cost,
        committed_plan,
        informed_cost,
        partial,
    })
}

/// Priced plan prefixes of one length: `(cost, plan index so far)`, the
/// index summing the method and access-mask parts of the prefix's choices.
type Prefixes = Vec<(f64, usize)>;

/// One assignment's pricing pieces, shared by every plan that uses them:
/// each relation's access costs and the expected step of every join that
/// adds one relation to a set (priced from the sets' output pages). A
/// left-deep plan's cost is its prefixes' costs built up in
/// [`crate::evaluate::expected_cost`]'s order (`(lc + rc) + step`, join
/// `k` in phase `k`, a root sort last), so the pieces reproduce its walk
/// to the bit.
struct Steps {
    /// `access[rel][c]`: access cost of `rel` through its choice `c`.
    access: Vec<[f64; 2]>,
    /// `joins[set][rel]`: expected step of each method
    /// (`JoinMethod::ALL` order) joining `rel` onto the prefix `set`, in
    /// phase `|set| − 1`.
    joins: Vec<Vec<[f64; 3]>>,
    /// Expected step of a root sort of the full result, in phase `n − 1`,
    /// when the query requires an order.
    sort: Option<f64>,
}

impl Steps {
    fn new(
        instance: &JoinQuery,
        model: &(impl CostModel + ?Sized),
        phases: &PhaseDists,
        space: &LeftDeepSpace,
    ) -> Self {
        let n = instance.n();
        // Output pages per relation set: an access emits the relation's
        // effective pages, a join its set's result pages.
        let pages: Vec<f64> = (0..1u32 << n)
            .map(|bits| {
                let set = RelSet::from_bits(bits);
                match set.len() {
                    0 => 0.0,
                    1 => instance
                        .relation(bits.trailing_zeros() as usize)
                        .effective_pages(),
                    _ => instance.result_pages(set),
                }
            })
            .collect();
        let access = (0..n)
            .map(|rel| {
                let mut costs = [0.0; 2];
                for (cost, &(method, _)) in costs.iter_mut().zip(space.choices(rel)) {
                    *cost = access_step(instance.relation(rel), method).0;
                }
                costs
            })
            .collect();
        let mut joins = vec![vec![[0.0; 3]; n]; 1 << n];
        for bits in 1..1u32 << n {
            let set = RelSet::from_bits(bits);
            let dist = phases.at(set.len() - 1);
            for rel in (0..n).filter(|&rel| !set.contains(rel)) {
                let (left, right) = (pages[bits as usize], pages[1 << rel]);
                let out = pages[set.insert(rel).bits() as usize];
                joins[bits as usize][rel] = JoinMethod::ALL.map(|method| {
                    model.expected_join_step(method, left, right, out, dist.values(), dist.probs())
                });
            }
        }
        let sort = instance.required_order().map(|_| {
            let dist = phases.at(n - 1);
            model.expected_sort_step(
                pages[instance.all().bits() as usize],
                dist.values(),
                dist.probs(),
            )
        });
        Steps {
            access,
            joins,
            sort,
        }
    }

    /// Prices every plan of join order `order` into `row`, indexed as
    /// [`LeftDeepSpace`] numbers them. Each prefix (its relations' access
    /// choices and its joins' methods) is priced once and extended by
    /// every method and access choice of the next relation; `level` and
    /// `next` are scratch space for two lengths of prefix.
    fn price_order(
        &self,
        query: &JoinQuery,
        space: &LeftDeepSpace,
        order: &[usize],
        row: &mut [f64],
        level: &mut Prefixes,
        next: &mut Prefixes,
    ) {
        level.clear();
        let first = order[0];
        for (&cost, &(_, bit)) in self.access[first].iter().zip(space.choices(first)) {
            level.push((cost, bit));
        }
        let mut set = RelSet::single(first);
        // Plan-index weight of join `j`'s method: 3^j method combinations
        // of `variants()` masks each.
        let mut weight = space.variants();
        for &rel in &order[1..] {
            let steps = &self.joins[set.bits() as usize][rel];
            next.clear();
            for &(cost, index) in level.iter() {
                for (m, &step) in steps.iter().enumerate() {
                    for (&access, &(_, bit)) in self.access[rel].iter().zip(space.choices(rel)) {
                        next.push(((cost + access) + step, index + m * weight + bit));
                    }
                }
            }
            std::mem::swap(level, next);
            set = set.insert(rel);
            weight *= 3;
        }
        // A required order costs a root sort unless the root join already
        // delivers it (as `Plan::output_order` decides).
        let root = match order {
            [_, .., last] => Some((
                query.join_key_between(set.remove(*last), RelSet::single(*last)),
                weight / 3,
            )),
            _ => None,
        };
        for &(cost, index) in level.iter() {
            let ordered = root.is_some_and(|(key, weight)| {
                JoinMethod::ALL[(index / weight) % 3].output_sorted()
                    && key == query.required_order()
            });
            row[index] = match self.sort {
                Some(sort) if !ordered => cost + sort,
                _ => cost,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::expected_cost_joint;
    use crate::exhaustive::enumerate_left_deep;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};

    fn query() -> JoinQuery {
        JoinQuery::new(
            vec![
                Relation::new("a", 2_000.0, 1e5),
                Relation::new("b", 150.0, 7.5e3),
                Relation::new("c", 5_000.0, 2.5e5),
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
                    selectivity: 5e-4,
                    key: KeyId(1),
                },
            ],
            None,
        )
        .unwrap()
    }

    fn memory() -> MemoryModel {
        MemoryModel::Static(Distribution::new([(30.0, 0.5), (400.0, 0.5)]).unwrap())
    }

    #[test]
    fn certain_parameters_have_zero_evpi() {
        let q = query();
        let sizes = SizeModel::certain(&q).unwrap();
        let r = analyze(&q, &PaperCostModel, &memory(), &sizes).unwrap();
        assert!(
            r.evpi.abs() < 1e-9 * r.committed_cost.max(1.0),
            "evpi {}",
            r.evpi
        );
        for p in &r.partial {
            assert!(p.abs() < 1e-9 * r.committed_cost.max(1.0));
        }
        assert!(!r.sampling_worthwhile(1.0));
    }

    #[test]
    fn evpi_nonnegative_and_bounds_partials() {
        let q = query();
        let sizes = SizeModel::with_uncertainty(&q, 0.6, 1.0, 2).unwrap();
        let r = analyze(&q, &PaperCostModel, &memory(), &sizes).unwrap();
        assert!(r.evpi >= 0.0);
        assert!(r.informed_cost <= r.committed_cost + 1e-9);
        // Learning one parameter can never beat learning everything.
        for (k, p) in r.partial.iter().enumerate() {
            assert!(
                *p <= r.evpi + 1e-6 * r.committed_cost,
                "param {k}: {p} > {}",
                r.evpi
            );
        }
    }

    #[test]
    fn committed_plan_is_the_joint_optimum() {
        let q = query();
        let sizes = SizeModel::with_uncertainty(&q, 0.0, 1.5, 3).unwrap();
        let mem = memory();
        let r = analyze(&q, &PaperCostModel, &mem, &sizes).unwrap();
        let phases = mem.table(q.n()).unwrap();
        for plan in enumerate_left_deep(&q) {
            let c = expected_cost_joint(&q, &PaperCostModel, &plan, &sizes, &phases).unwrap();
            assert!(r.committed_cost <= c + 1e-6 * c.max(1.0));
        }
        r.committed_plan.validate(&q).unwrap();
    }

    #[test]
    fn sampling_decision_threshold() {
        let q = query();
        let sizes = SizeModel::with_uncertainty(&q, 0.8, 1.5, 2).unwrap();
        let r = analyze(&q, &PaperCostModel, &memory(), &sizes).unwrap();
        if r.evpi > 0.0 {
            assert!(r.sampling_worthwhile(r.evpi / 2.0));
            assert!(!r.sampling_worthwhile(r.evpi * 2.0));
        }
    }
}
