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
//! left-deep plans, `A` joint parameter assignments), so [`analyze`] costs
//! one plan enumeration plus `P × A` plan pricings, and never stores the
//! table: it prices plan by plan and keeps only running sums and minima.

use crate::alg_d::SizeModel;
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::evaluate::{expected_cost, joint_assignments};
use crate::exhaustive::enumerate_left_deep;
use lec_cost::CostModel;
use lec_plan::{JoinQuery, Plan};
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

/// Computes the full EVPI analysis: one left-deep enumeration, and each
/// plan priced once per joint parameter assignment, so `P × A` pricings in
/// total. The assignment count `A` is the product of all parameter bucket
/// counts; intended for small queries (`n ≤ 4`, few buckets), where it is
/// exact.
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

    let mut committed: Option<(Plan, f64)> = None;
    let mut informed: Vec<Option<f64>> = vec![None; assignments.len()];
    let mut partial_best: Vec<Option<f64>> = vec![None; n_buckets];
    let mut partial_sum = vec![0.0; n_buckets];
    for plan in enumerate_left_deep(query) {
        let mut total = 0.0;
        partial_sum.fill(0.0);
        for ((a, best), slots) in assignments.iter().zip(&mut informed).zip(&slots) {
            let cost = expected_cost(&a.instance, model, &plan, &phases);
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
            .is_none_or(|(_, c)| total.total_cmp(c).is_lt())
        {
            committed = Some((plan, total));
        }
    }
    let (committed_plan, committed_cost) = committed.ok_or(CoreError::NoPlanFound)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::expected_cost_joint;
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
