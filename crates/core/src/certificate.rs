//! (ε, δ) suboptimality certificates for sampled statistics.
//!
//! When a query's selectivities come from row samples with per-statistic
//! confidence intervals (`lec_catalog::sampling`), the optimizer can say
//! *how wrong it is allowed to be*: with probability at least `1 − δ` the
//! chosen plan's true expected cost is within a factor `1 + ε` of the true
//! optimum (Trummer & Koch, "Probably Approximately Optimal Query
//! Optimization"; DESIGN.md §11).
//!
//! The construction uses the monotonicity of the paper's cost formulas in
//! intermediate result sizes. Replace every interval-backed statistic by
//! its upper confidence limit to get the *pessimistic* query, by its lower
//! limit to get the *optimistic* one; then, on the event that every
//! interval covers its true statistic (probability ≥ `1 − δ` by the union
//! bound over the per-statistic failure probabilities):
//!
//! * the chosen plan's true expected cost is at most its cost under the
//!   pessimistic query (`chosen_upper`), and
//! * *every* plan's true expected cost is at least its cost under the
//!   optimistic query, so the optimistic optimum (`optimal_lower`, found
//!   by the bushy LEC dynamic program — a superset of the left-deep
//!   space every optimizer here searches) lower-bounds the true optimum.
//!
//! Hence `true_cost(chosen) ≤ (1 + ε) · true_optimum` for
//! `ε = chosen_upper / optimal_lower − 1`.
//!
//! The `certify*` entry points are panic-reachability audit roots
//! (lec-lint `--audit`, budget 0), like the `optimize*` family they build
//! on.

use crate::bushy;
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::evaluate::expected_cost;
use lec_cost::CostModel;
use lec_plan::{JoinQuery, Plan, Relation};

/// Confidence intervals for every uncertain statistic of one query.
///
/// Indices align with the query's relation and predicate numbering; an
/// exactly-known statistic carries a zero-width interval. `delta` is the
/// *total* failure probability — for per-statistic intervals at level
/// `1 − δ_i`, the union bound gives `delta = Σ δ_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryIntervals {
    /// Per-relation `[lo, hi]` bounds on `local_selectivity`.
    pub relation_selectivity: Vec<(f64, f64)>,
    /// Per-predicate `[lo, hi]` bounds on the page-domain join selectivity.
    pub predicate_selectivity: Vec<(f64, f64)>,
    /// Probability that at least one interval misses its true statistic.
    pub delta: f64,
}

impl QueryIntervals {
    /// Degenerate intervals pinned at the query's own point estimates
    /// (an exactly-known query; `delta = 0`).
    pub fn exact(query: &JoinQuery) -> Self {
        QueryIntervals {
            relation_selectivity: query
                .relations()
                .iter()
                .map(|r| (r.local_selectivity, r.local_selectivity))
                .collect(),
            predicate_selectivity: query
                .predicates()
                .iter()
                .map(|p| (p.selectivity, p.selectivity))
                .collect(),
            delta: 0.0,
        }
    }

    /// Number of statistics carrying genuine uncertainty (positive-width
    /// intervals).
    pub fn statistics(&self) -> usize {
        self.relation_selectivity
            .iter()
            .chain(self.predicate_selectivity.iter())
            .filter(|(lo, hi)| hi > lo)
            .count()
    }
}

/// A per-plan suboptimality certificate: with probability at least
/// `1 − delta`, the plan's true expected cost is within `1 + epsilon` of
/// the true optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Suboptimality bound: `true_cost ≤ (1 + epsilon) · true_optimum` on
    /// the certificate's success event.
    pub epsilon: f64,
    /// Probability the certificate's success event fails (some interval
    /// missed its statistic).
    pub delta: f64,
    /// Upper confidence bound on the certified plan's expected cost (its
    /// cost under the pessimistic query).
    pub chosen_upper: f64,
    /// Lower confidence bound on the optimum over the bushy plan space
    /// (the optimistic query's LEC optimum).
    pub optimal_lower: f64,
    /// Number of interval-backed statistics combined into the bound.
    pub statistics: usize,
}

impl Certificate {
    /// One-line rendering for EXPLAIN output and reports.
    pub fn render(&self) -> String {
        format!(
            "certificate:       within (1+ε) of optimal, ε ≤ {:.4}, w.p. ≥ {:.3} ({} sampled stats, cost ∈ [{:.1}, {:.1}])",
            self.epsilon,
            1.0 - self.delta,
            self.statistics,
            self.optimal_lower,
            self.chosen_upper
        )
    }
}

/// Certifies `plan` for `query` under the given statistic intervals: the
/// (ε, δ) suboptimality certificate described in the module docs.
///
/// Fails with [`CoreError::BadParameter`] when the interval vectors do not
/// match the query's shape, when an interval does not bracket the query's
/// own point statistic, or when the cost model turns out not to be
/// monotone over the interval box (the certified sandwich
/// `cost_lo ≤ cost_point ≤ cost_hi` is checked, not assumed).
pub fn certify_plan<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &MemoryModel,
    plan: &Plan,
    intervals: &QueryIntervals,
) -> Result<Certificate, CoreError> {
    if intervals.relation_selectivity.len() != query.n()
        || intervals.predicate_selectivity.len() != query.predicates().len()
    {
        return Err(CoreError::BadParameter(format!(
            "interval shape ({} relations, {} predicates) does not match query ({}, {})",
            intervals.relation_selectivity.len(),
            intervals.predicate_selectivity.len(),
            query.n(),
            query.predicates().len()
        )));
    }
    if !(intervals.delta.is_finite() && (0.0..1.0).contains(&intervals.delta)) {
        return Err(CoreError::BadParameter(format!(
            "certificate failure probability {} outside [0, 1)",
            intervals.delta
        )));
    }
    check_brackets(query, intervals)?;

    let optimistic = bound_query(query, intervals, Bound::Lower)?;
    let pessimistic = bound_query(query, intervals, Bound::Upper)?;

    let phases = memory.table(query.n().max(2))?;
    let chosen_upper = expected_cost(&pessimistic, model, plan, &phases);
    let chosen_point = expected_cost(query, model, plan, &phases);
    let chosen_lower = expected_cost(&optimistic, model, plan, &phases);

    // The certificate rests on cost monotonicity over the interval box;
    // verify the sandwich on the plan actually being certified instead of
    // assuming it.
    let tol = 1e-9 * chosen_point.abs().max(1.0);
    if chosen_lower > chosen_point + tol || chosen_point > chosen_upper + tol {
        return Err(CoreError::BadParameter(format!(
            "cost not monotone over the interval box: lower {chosen_lower} / point \
             {chosen_point} / upper {chosen_upper}"
        )));
    }

    // The optimistic optimum over the *bushy* space lower-bounds the true
    // optimum over every plan any optimizer in this family can emit.
    let optimal_lower = bushy::optimize(&optimistic, model, memory)?.0.cost;
    if !(optimal_lower.is_finite() && optimal_lower > 0.0) {
        return Err(CoreError::BadParameter(format!(
            "optimistic optimum {optimal_lower} unusable as a lower bound"
        )));
    }
    let epsilon = (chosen_upper / optimal_lower - 1.0).max(0.0);

    Ok(Certificate {
        epsilon,
        delta: intervals.delta,
        chosen_upper,
        optimal_lower,
        statistics: intervals.statistics(),
    })
}

enum Bound {
    Lower,
    Upper,
}

fn check_brackets(query: &JoinQuery, intervals: &QueryIntervals) -> Result<(), CoreError> {
    for (r, (lo, hi)) in query
        .relations()
        .iter()
        .zip(&intervals.relation_selectivity)
    {
        if !(lo.is_finite()
            && hi.is_finite()
            && *lo <= r.local_selectivity + 1e-12
            && r.local_selectivity <= *hi + 1e-12)
        {
            return Err(CoreError::BadParameter(format!(
                "relation `{}` selectivity {} outside its interval [{lo}, {hi}]",
                r.name, r.local_selectivity
            )));
        }
        // An unfiltered relation (selectivity exactly 1) has no predicate to
        // sample; its statistic is known, and the cost model's free-scan
        // special case makes cost discontinuous there. Sampled intervals are
        // only meaningful on the filtered branch.
        if r.local_selectivity >= 1.0 && hi > lo {
            return Err(CoreError::BadParameter(format!(
                "relation `{}` is unfiltered (selectivity 1) but carries a sampled \
                 interval [{lo}, {hi}]; unfiltered statistics are exact",
                r.name
            )));
        }
    }
    for (i, (p, (lo, hi))) in query
        .predicates()
        .iter()
        .zip(&intervals.predicate_selectivity)
        .enumerate()
    {
        if !(lo.is_finite()
            && hi.is_finite()
            && *lo <= p.selectivity + 1e-12
            && p.selectivity <= *hi + 1e-12)
        {
            return Err(CoreError::BadParameter(format!(
                "predicate {i} selectivity {} outside its interval [{lo}, {hi}]",
                p.selectivity
            )));
        }
    }
    Ok(())
}

/// The query with every interval-backed statistic pinned at one end of its
/// interval (selectivities clamped into the `(0, 1]` domain `JoinQuery`
/// requires).
///
/// A *sampled* relation selectivity is clamped strictly below 1 so both
/// bound queries stay on the cost model's filtered-scan branch: a filter
/// that happens to pass every row still reads and materializes its input,
/// which is the continuous extension of the access formula, whereas
/// selectivity exactly 1 means "no filter" and prices the scan as free.
/// Degenerate (exact) intervals keep the query's own value, so genuinely
/// unfiltered relations stay free.
fn bound_query(
    query: &JoinQuery,
    intervals: &QueryIntervals,
    bound: Bound,
) -> Result<JoinQuery, CoreError> {
    let pick = |(lo, hi): &(f64, f64)| match bound {
        Bound::Lower => *lo,
        Bound::Upper => *hi,
    };
    const ALMOST_ONE: f64 = 1.0 - f64::EPSILON;
    let relations: Vec<Relation> = query
        .relations()
        .iter()
        .zip(&intervals.relation_selectivity)
        .map(|(r, iv)| {
            let mut r = r.clone();
            if iv.1 > iv.0 {
                r.local_selectivity = pick(iv).clamp(f64::MIN_POSITIVE, ALMOST_ONE);
            }
            r
        })
        .collect();
    let predicates = query
        .predicates()
        .iter()
        .zip(&intervals.predicate_selectivity)
        .map(|(p, iv)| {
            let mut p = *p;
            p.selectivity = pick(iv).clamp(f64::MIN_POSITIVE, 1.0);
            p
        })
        .collect();
    Ok(JoinQuery::new(
        relations,
        predicates,
        query.required_order(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg_c;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId};
    use lec_stats::Distribution;

    fn query() -> JoinQuery {
        JoinQuery::new(
            vec![
                Relation::new("a", 2000.0, 8e4).with_local_selectivity(0.2),
                Relation::new("b", 900.0, 4e4),
                Relation::new("c", 300.0, 1e4),
            ],
            vec![
                JoinPred {
                    left: 0,
                    right: 1,
                    selectivity: 2e-3,
                    key: KeyId(0),
                },
                JoinPred {
                    left: 1,
                    right: 2,
                    selectivity: 5e-3,
                    key: KeyId(1),
                },
            ],
            None,
        )
        .unwrap()
    }

    fn memory() -> MemoryModel {
        MemoryModel::Static(Distribution::new([(60.0, 0.5), (400.0, 0.5)]).unwrap())
    }

    fn widen(query: &JoinQuery, factor: f64, delta: f64) -> QueryIntervals {
        QueryIntervals {
            relation_selectivity: query
                .relations()
                .iter()
                .map(|r| {
                    if r.local_selectivity >= 1.0 {
                        // Unfiltered relations are exactly known.
                        (1.0, 1.0)
                    } else {
                        (
                            r.local_selectivity / factor,
                            (r.local_selectivity * factor).min(1.0),
                        )
                    }
                })
                .collect(),
            predicate_selectivity: query
                .predicates()
                .iter()
                .map(|p| (p.selectivity / factor, (p.selectivity * factor).min(1.0)))
                .collect(),
            delta,
        }
    }

    #[test]
    fn exact_intervals_certify_epsilon_zero_for_the_optimum() {
        let q = query();
        let mem = memory();
        let best = crate::bushy::optimize(&q, &PaperCostModel, &mem).unwrap().0;
        let cert = certify_plan(
            &q,
            &PaperCostModel,
            &mem,
            &best.plan,
            &QueryIntervals::exact(&q),
        )
        .unwrap();
        assert!(cert.epsilon.abs() < 1e-9, "ε = {}", cert.epsilon);
        assert_eq!(cert.delta, 0.0);
        assert_eq!(cert.statistics, 0);
        assert!((cert.chosen_upper - best.cost).abs() < 1e-9 * best.cost);
    }

    #[test]
    fn wider_intervals_give_weaker_certificates() {
        let q = query();
        let mem = memory();
        let plan = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap().0.plan;
        let tight = certify_plan(&q, &PaperCostModel, &mem, &plan, &widen(&q, 1.1, 0.05)).unwrap();
        let loose = certify_plan(&q, &PaperCostModel, &mem, &plan, &widen(&q, 2.0, 0.05)).unwrap();
        assert!(
            tight.epsilon < loose.epsilon,
            "{} vs {}",
            tight.epsilon,
            loose.epsilon
        );
        assert!(tight.chosen_upper <= loose.chosen_upper);
        assert!(tight.optimal_lower >= loose.optimal_lower);
        assert_eq!(tight.statistics, 3);
    }

    #[test]
    fn certificate_bounds_the_realized_suboptimality() {
        // The certified sandwich: any plan's true cost is inside
        // [optimal_lower, (1+ε)·optimal_lower] when truth is the point.
        let q = query();
        let mem = memory();
        let plan = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap().0.plan;
        let cert = certify_plan(&q, &PaperCostModel, &mem, &plan, &widen(&q, 1.5, 0.1)).unwrap();
        let phases = mem.table(q.n().max(2)).unwrap();
        let true_cost = expected_cost(&q, &PaperCostModel, &plan, &phases);
        let true_opt = crate::bushy::optimize(&q, &PaperCostModel, &mem)
            .unwrap()
            .0
            .cost;
        assert!(true_cost <= (1.0 + cert.epsilon) * true_opt + 1e-9);
        assert!(cert.optimal_lower <= true_opt + 1e-9);
        assert!(true_cost <= cert.chosen_upper + 1e-9);
    }

    #[test]
    fn malformed_intervals_are_rejected() {
        let q = query();
        let mem = memory();
        let plan = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap().0.plan;
        // Wrong shape.
        let mut iv = QueryIntervals::exact(&q);
        iv.predicate_selectivity.pop();
        assert!(certify_plan(&q, &PaperCostModel, &mem, &plan, &iv).is_err());
        // Interval that does not bracket the point.
        let mut iv = QueryIntervals::exact(&q);
        iv.relation_selectivity[0] = (0.5, 0.9);
        assert!(certify_plan(&q, &PaperCostModel, &mem, &plan, &iv).is_err());
        // Bad delta.
        let mut iv = QueryIntervals::exact(&q);
        iv.delta = 1.5;
        assert!(certify_plan(&q, &PaperCostModel, &mem, &plan, &iv).is_err());
        // Sampled interval on an unfiltered relation (statistic is exact).
        let mut iv = QueryIntervals::exact(&q);
        iv.relation_selectivity[1] = (0.5, 1.0);
        assert!(certify_plan(&q, &PaperCostModel, &mem, &plan, &iv).is_err());
    }

    #[test]
    fn certificate_surfaces_through_stats() {
        let q = query();
        let mem = memory();
        let (best, mut stats) = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap();
        let cert =
            certify_plan(&q, &PaperCostModel, &mem, &best.plan, &widen(&q, 1.3, 0.05)).unwrap();
        stats.certificate = Some(cert);
        let text = stats.render();
        assert!(text.contains("certificate:"), "{text}");
        assert!(text.contains("w.p. ≥ 0.950"), "{text}");
    }
}
