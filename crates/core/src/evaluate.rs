//! Costing *given* plans: deterministic, phased, expected, and full cost
//! distributions.
//!
//! These evaluators and the dynamic programs share the same step-accounting
//! helpers, so a plan's DP cost and its evaluated cost agree exactly — a
//! property the theorem tests rely on.

use crate::alg_d::SizeModel;
use crate::env::PhaseDists;
use crate::error::CoreError;
use lec_cost::{AccessMethod, CostModel};
use lec_plan::{JoinQuery, Plan, Relation};
use lec_stats::Distribution;

/// Cost of reading `rel` through `method` when the access emits
/// `out_pages` pages.
///
/// Plain full scans are free (the consuming join's formula reads the base
/// table); a selective scan reads every page and materializes the filtered
/// result; an index scan pays a random-access premium per output page plus
/// a fixed descend cost, which beats the full scan for selective predicates
/// on large tables.
pub(crate) fn access_cost(rel: &Relation, method: AccessMethod, out_pages: f64) -> f64 {
    match method {
        AccessMethod::FullScan => {
            if rel.local_selectivity >= 1.0 {
                0.0
            } else {
                rel.pages + out_pages
            }
        }
        AccessMethod::IndexScan => 2.0 + 3.0 * out_pages,
    }
}

/// Access-path step at the relation's estimated size: `(cost, output
/// pages)`.
pub(crate) fn access_step(rel: &Relation, method: AccessMethod) -> (f64, f64) {
    let out = rel.effective_pages();
    (access_cost(rel, method, out), out)
}

/// Access paths applicable to a relation: full scan always; index scan only
/// when an index exists and there is a local predicate to push into it.
pub(crate) fn access_choices(rel: &Relation) -> Vec<AccessMethod> {
    let mut v = vec![AccessMethod::FullScan];
    if rel.has_index && rel.local_selectivity < 1.0 {
        v.push(AccessMethod::IndexScan);
    }
    v
}

/// Join step cost on top of the children: the join formula plus
/// materializing the output.
pub(crate) fn join_step<M: CostModel + ?Sized>(
    model: &M,
    method: lec_cost::JoinMethod,
    left_pages: f64,
    right_pages: f64,
    out_pages: f64,
    memory: f64,
) -> f64 {
    model.join_cost(method, left_pages, right_pages, memory) + out_pages
}

/// Sort step cost: the sort formula plus materializing the output.
pub(crate) fn sort_step<M: CostModel + ?Sized>(model: &M, pages: f64, memory: f64) -> f64 {
    model.sort_cost(pages, memory) + pages
}

/// Cost of `plan` when every phase sees memory `mem_of(phase)`. Phases are
/// numbered in post-order over join and sort operators (§3.5).
pub fn plan_cost_phased<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    plan: &Plan,
    mem_of: &mut impl FnMut(usize) -> f64,
) -> f64 {
    fn walk<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        plan: &Plan,
        phase: &mut usize,
        mem_of: &mut impl FnMut(usize) -> f64,
    ) -> (f64, f64) {
        match plan {
            Plan::Access { rel, method } => access_step(query.relation(*rel), *method),
            Plan::Join {
                left,
                right,
                method,
                ..
            } => {
                let (lc, lp) = walk(query, model, left, phase, mem_of);
                let (rc, rp) = walk(query, model, right, phase, mem_of);
                let out = query.result_pages(plan.rel_set());
                let m = mem_of(*phase);
                *phase += 1;
                (lc + rc + join_step(model, *method, lp, rp, out, m), out)
            }
            Plan::Sort { input, .. } => {
                let (ic, ip) = walk(query, model, input, phase, mem_of);
                let m = mem_of(*phase);
                *phase += 1;
                (ic + sort_step(model, ip, m), ip)
            }
        }
    }
    let mut phase = 0;
    walk(query, model, plan, &mut phase, mem_of).0
}

/// Cost of `plan` under one constant memory value (the static §3.4 world).
pub fn plan_cost_at<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    plan: &Plan,
    memory: f64,
) -> f64 {
    plan_cost_phased(query, model, plan, &mut |_| memory)
}

/// Expected cost of `plan` under per-phase memory distributions.
///
/// Because plan cost is a *sum* of per-phase costs and each phase's cost
/// depends only on that phase's memory, linearity of expectation gives
/// `E[cost] = Σ_phase E_{marginal at phase}[phase cost]` — no enumeration
/// over the `b^{n-1}` memory sequences is needed. (The tests check this
/// against explicit sequence enumeration.)
pub fn expected_cost<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    plan: &Plan,
    phases: &PhaseDists,
) -> f64 {
    fn walk<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        plan: &Plan,
        phase: &mut usize,
        phases: &PhaseDists,
    ) -> (f64, f64) {
        match plan {
            Plan::Access { rel, method } => access_step(query.relation(*rel), *method),
            Plan::Join {
                left,
                right,
                method,
                ..
            } => {
                let (lc, lp) = walk(query, model, left, phase, phases);
                let (rc, rp) = walk(query, model, right, phase, phases);
                let out = query.result_pages(plan.rel_set());
                let dist = phases.at(*phase);
                *phase += 1;
                let step =
                    model.expected_join_step(*method, lp, rp, out, dist.values(), dist.probs());
                (lc + rc + step, out)
            }
            Plan::Sort { input, .. } => {
                let (ic, ip) = walk(query, model, input, phase, phases);
                let dist = phases.at(*phase);
                *phase += 1;
                (
                    ic + model.expected_sort_step(ip, dist.values(), dist.probs()),
                    ip,
                )
            }
        }
    }
    let mut phase = 0;
    walk(query, model, plan, &mut phase, phases).0
}

/// The static-case cost *profile*: the plan's cost at each memory value, in
/// the same order as `values`. This is the object the Pareto DP works with.
pub fn cost_profile<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    plan: &Plan,
    values: &[f64],
) -> Vec<f64> {
    values
        .iter()
        .map(|&m| plan_cost_at(query, model, plan, m))
        .collect()
}

/// The static-case cost distribution of a plan: the pushforward of the
/// memory distribution through the plan's cost function. Equal costs from
/// different memory values merge their mass.
pub fn cost_distribution_static<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    plan: &Plan,
    memory: &Distribution,
) -> Distribution {
    memory
        .map(|m| plan_cost_at(query, model, plan, m))
        .expect("finite costs from finite memory support") // lec-lint: allow(panic-reachability) — the cost model maps a finite memory support through finite arithmetic, so the min exists
}

/// Renders a plan as an indented tree with each operator's *expected* step
/// cost and estimated output size — EXPLAIN with uncertainty-aware numbers.
pub fn explain_with_costs<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    plan: &Plan,
    phases: &PhaseDists,
) -> String {
    fn walk<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        plan: &Plan,
        phase: &mut usize,
        phases: &PhaseDists,
        depth: usize,
        out: &mut String,
    ) -> (f64, f64) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match plan {
            Plan::Access { rel, method } => {
                let r = query.relation(*rel);
                let (cost, pages) = access_step(r, *method);
                let _ = writeln!(
                    out,
                    "{pad}{method} {}  [cost {cost:.0}, out {pages:.0} pages]",
                    r.name
                );
                (cost, pages)
            }
            Plan::Join {
                left,
                right,
                method,
                key,
            } => {
                // Children are rendered after the operator line, so stage
                // the subtree text.
                let mut left_txt = String::new();
                let (lc, lp) = walk(query, model, left, phase, phases, depth + 1, &mut left_txt);
                let mut right_txt = String::new();
                let (rc, rp) = walk(
                    query,
                    model,
                    right,
                    phase,
                    phases,
                    depth + 1,
                    &mut right_txt,
                );
                let out_pages = query.result_pages(plan.rel_set());
                let dist = phases.at(*phase);
                *phase += 1;
                let step = model.expected_join_step(
                    *method,
                    lp,
                    rp,
                    out_pages,
                    dist.values(),
                    dist.probs(),
                );
                let on = key.map_or("(cross)".to_string(), |k| format!("on {k}"));
                let _ = writeln!(
                    out,
                    "{pad}join[{method}] {on}  [E[step] {step:.0}, out {out_pages:.0} pages]"
                );
                out.push_str(&left_txt);
                out.push_str(&right_txt);
                (lc + rc + step, out_pages)
            }
            Plan::Sort { input, key } => {
                let mut in_txt = String::new();
                let (ic, ip) = walk(query, model, input, phase, phases, depth + 1, &mut in_txt);
                let dist = phases.at(*phase);
                *phase += 1;
                let step = model.expected_sort_step(ip, dist.values(), dist.probs());
                let _ = writeln!(out, "{pad}sort by {key}  [E[step] {step:.0}]");
                out.push_str(&in_txt);
                (ic + step, ip)
            }
        }
    }
    let mut out = String::new();
    let mut phase = 0;
    let (total, _) = walk(query, model, plan, &mut phase, phases, 0, &mut out);
    use std::fmt::Write;
    let _ = writeln!(out, "total expected cost: {total:.0}");
    out
}

/// One joint assignment of a [`SizeModel`]'s parameters, realized as a
/// query instance.
pub(crate) struct JointAssignment {
    /// Bucket index of every parameter: relation sizes first, then
    /// predicate selectivities, in index order.
    pub(crate) buckets: Vec<usize>,
    /// The assignment's probability: the parameters' bucket masses,
    /// multiplied in parameter order.
    pub(crate) prob: f64,
    /// The query with every statistic set to its assigned value.
    pub(crate) instance: JoinQuery,
}

/// Every joint assignment of the size model's parameters, in odometer order
/// (parameter 0 varies fastest). Fails with a typed error when the model
/// does not match the query's shape, or when an assigned value does not
/// realize a valid query — e.g. a finite size so large that rescaling it by
/// the relation's local selectivity overflows to ∞ pages.
pub(crate) fn joint_assignments(
    query: &JoinQuery,
    sizes: &SizeModel,
) -> Result<Vec<JointAssignment>, CoreError> {
    if sizes.rel_sizes.len() != query.n() || sizes.selectivities.len() != query.predicates().len() {
        return Err(CoreError::BadParameter(format!(
            "size model has {} sizes and {} selectivities for a query with {} relations and {} predicates",
            sizes.rel_sizes.len(),
            sizes.selectivities.len(),
            query.n(),
            query.predicates().len()
        )));
    }
    let dims: Vec<&Distribution> = sizes
        .rel_sizes
        .iter()
        .chain(sizes.selectivities.iter())
        .collect();
    let mut buckets = vec![0usize; dims.len()];
    let mut out = Vec::new();
    loop {
        let mut prob = 1.0;
        for (d, &i) in dims.iter().zip(&buckets) {
            prob *= d.probs()[i];
        }
        let mut values = dims.iter().zip(&buckets).map(|(d, &i)| d.values()[i]);
        // The size distribution models *effective* pages; realize it by
        // scaling the relation so effective_pages matches.
        let relations: Vec<Relation> = query
            .relations()
            .iter()
            .zip(values.by_ref())
            .map(|(rel, size)| {
                let mut out = rel.clone();
                out.pages = (size / rel.local_selectivity).max(1.0);
                out
            })
            .collect();
        let predicates: Vec<lec_plan::JoinPred> = query
            .predicates()
            .iter()
            .zip(values)
            .map(|(pred, selectivity)| {
                let mut out = *pred;
                out.selectivity = selectivity.clamp(1e-300, 1.0);
                out
            })
            .collect();
        let instance = JoinQuery::new(relations, predicates, query.required_order())?;
        out.push(JointAssignment {
            buckets: buckets.clone(),
            prob,
            instance,
        });

        // Advance the odometer.
        let mut k = 0;
        loop {
            if k == dims.len() {
                return Ok(out);
            }
            buckets[k] += 1;
            if buckets[k] < dims[k].len() {
                break;
            }
            buckets[k] = 0;
            k += 1;
        }
    }
}

/// `Σ prob · expected_cost(instance)` over the assignments, in their order.
pub(crate) fn expected_cost_over<M: CostModel + ?Sized>(
    assignments: &[JointAssignment],
    model: &M,
    plan: &Plan,
    phases: &PhaseDists,
) -> f64 {
    assignments.iter().fold(0.0, |total, a| {
        total + a.prob * expected_cost(&a.instance, model, plan, phases)
    })
}

/// Exact expected cost of a plan when relation sizes and predicate
/// selectivities are themselves distributed (the multi-parameter world of
/// §3.6), by *joint enumeration*: every combination of size and selectivity
/// values is priced and probability-weighted. Exponential in the number of
/// uncertain parameters — this is the ground truth Algorithm D's
/// independence-propagation approximation is judged against (X6), not a
/// production path. Fails when the size model does not match the query's
/// shape, or when an assigned value does not realize a valid query (e.g. a
/// finite size that rescales to ∞ pages).
pub fn expected_cost_joint<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    plan: &Plan,
    sizes: &SizeModel,
    phases: &PhaseDists,
) -> Result<f64, CoreError> {
    let assignments = joint_assignments(query, sizes)?;
    Ok(expected_cost_over(&assignments, model, plan, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemoryModel;
    use lec_cost::{JoinMethod, PaperCostModel};
    use lec_plan::{JoinPred, KeyId, Relation};
    use lec_stats::MarkovChain;

    /// Example 1.1's query: A(1e6 pages) ⋈ B(4e5 pages), result 3000 pages,
    /// ordered by the join column.
    fn example_1_1() -> JoinQuery {
        JoinQuery::new(
            vec![
                Relation::new("A", 1_000_000.0, 5e7),
                Relation::new("B", 400_000.0, 2e7),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 3000.0 / (1_000_000.0 * 400_000.0),
                key: KeyId(0),
            }],
            Some(KeyId(0)),
        )
        .unwrap()
    }

    fn plan1() -> Plan {
        // Sort-merge join: output already ordered.
        Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::SortMerge,
            Some(KeyId(0)),
        )
    }

    fn plan2() -> Plan {
        // Grace hash join + explicit sort.
        Plan::sort(
            Plan::join(
                Plan::scan(0),
                Plan::scan(1),
                JoinMethod::GraceHash,
                Some(KeyId(0)),
            ),
            KeyId(0),
        )
    }

    #[test]
    fn example_1_1_costs_at_fixed_memory() {
        let q = example_1_1();
        let m = PaperCostModel;
        // Plan 1 at 2000: join 2.8e6 + materialize 3000.
        assert_eq!(plan_cost_at(&q, &m, &plan1(), 2000.0), 2_803_000.0);
        // Plan 1 at 700: 5.6e6 + 3000.
        assert_eq!(plan_cost_at(&q, &m, &plan1(), 700.0), 5_603_000.0);
        // Plan 2 at both: join 2.8e6 + 3000 + sort 6000 + 3000.
        assert_eq!(plan_cost_at(&q, &m, &plan2(), 2000.0), 2_812_000.0);
        assert_eq!(plan_cost_at(&q, &m, &plan2(), 700.0), 2_812_000.0);
    }

    #[test]
    fn example_1_1_expected_costs() {
        let q = example_1_1();
        let m = PaperCostModel;
        let mem = Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).unwrap();
        let table = MemoryModel::Static(mem).table(2).unwrap();
        let e1 = expected_cost(&q, &m, &plan1(), &table);
        let e2 = expected_cost(&q, &m, &plan2(), &table);
        assert!((e1 - (0.8 * 2_803_000.0 + 0.2 * 5_603_000.0)).abs() < 1e-6);
        assert!((e2 - 2_812_000.0).abs() < 1e-6);
        assert!(e2 < e1, "Plan 2 must win in expectation");
    }

    #[test]
    fn expected_cost_equals_mixture_of_fixed_costs_static() {
        let q = example_1_1();
        let m = PaperCostModel;
        let mem = Distribution::new([(500.0, 0.3), (900.0, 0.3), (2000.0, 0.4)]).unwrap();
        let table = MemoryModel::Static(mem.clone()).table(4).unwrap();
        for plan in [plan1(), plan2()] {
            let direct: f64 = mem
                .iter()
                .map(|(v, p)| p * plan_cost_at(&q, &m, &plan, v))
                .sum();
            let e = expected_cost(&q, &m, &plan, &table);
            assert!((direct - e).abs() < 1e-6 * direct.max(1.0));
        }
    }

    #[test]
    fn dynamic_expected_cost_matches_sequence_enumeration() {
        // Theorem 3.4's accounting: E over memory *sequences* equals the
        // per-phase-marginal sum by linearity.
        let q = example_1_1();
        let m = PaperCostModel;
        let chain = MarkovChain::random_walk(vec![600.0, 1100.0, 2100.0], 0.6).unwrap();
        let initial = vec![0.3, 0.4, 0.3];
        let model = MemoryModel::dynamic(chain.clone(), initial.clone()).unwrap();
        for plan in [plan1(), plan2()] {
            let phases = plan.phase_count();
            let table = model.table(phases).unwrap();
            let by_marginals = expected_cost(&q, &m, &plan, &table);
            let by_sequences: f64 = chain
                .enumerate_sequences(&initial, phases)
                .into_iter()
                .map(|(seq, p)| {
                    let mems: Vec<f64> = seq.iter().map(|&i| chain.states()[i]).collect();
                    p * plan_cost_phased(&q, &m, &plan, &mut |k| mems[k])
                })
                .sum();
            assert!(
                (by_marginals - by_sequences).abs() < 1e-6 * by_sequences.max(1.0),
                "{by_marginals} vs {by_sequences}"
            );
        }
    }

    #[test]
    fn cost_profile_and_distribution_agree() {
        let q = example_1_1();
        let m = PaperCostModel;
        let mem = Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).unwrap();
        let profile = cost_profile(&q, &m, &plan1(), mem.values());
        assert_eq!(profile, vec![5_603_000.0, 2_803_000.0]);
        let dist = cost_distribution_static(&q, &m, &plan1(), &mem);
        assert!(
            (dist.mean()
                - mem
                    .iter()
                    .zip(&profile)
                    .map(|((_, p), c)| p * c)
                    .sum::<f64>())
            .abs()
                < 1e-6
        );
        // Plan 2's cost is memory-independent here: distribution collapses.
        let dist2 = cost_distribution_static(&q, &m, &plan2(), &mem);
        assert!(dist2.is_point());
    }

    #[test]
    fn explain_with_costs_totals_match_expected_cost() {
        let q = example_1_1();
        let model = PaperCostModel;
        let mem = Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).unwrap();
        let phases = MemoryModel::Static(mem).table(2).unwrap();
        for plan in [plan1(), plan2()] {
            let text = explain_with_costs(&q, &model, &plan, &phases);
            let expected = expected_cost(&q, &model, &plan, &phases);
            let total_line = text
                .lines()
                .find(|l| l.starts_with("total expected cost:"))
                .unwrap();
            let total: f64 = total_line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(
                (total - expected).abs() <= 1.0,
                "explain total {total} vs {expected}\n{text}"
            );
            assert!(text.contains("E[step]"));
            assert!(text.contains("scan A"));
        }
    }

    #[test]
    fn stats_footer_reports_the_search_counters() {
        let q = example_1_1();
        let mem = Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).unwrap();
        let (_, stats) =
            crate::alg_c::optimize(&q, &PaperCostModel, &MemoryModel::Static(mem)).unwrap();
        let footer = stats.render();
        assert!(footer.contains("-- optimizer stats (alg_c, n=2) --"));
        assert!(footer.contains("masks expanded:    1"));
        assert!(footer.contains("candidates priced:"));
        assert!(footer.contains("precompute:"));
    }

    #[test]
    fn joint_enumeration_reduces_to_expected_cost_for_point_sizes() {
        let q = example_1_1();
        let model = PaperCostModel;
        let mem = Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).unwrap();
        let phases = MemoryModel::Static(mem).table(2).unwrap();
        let sizes = SizeModel::certain(&q).unwrap();
        for plan in [plan1(), plan2()] {
            let joint = expected_cost_joint(&q, &model, &plan, &sizes, &phases).unwrap();
            let direct = expected_cost(&q, &model, &plan, &phases);
            assert!((joint - direct).abs() < 1e-6 * direct.max(1.0));
        }
    }

    #[test]
    fn joint_enumeration_weights_every_assignment() {
        // Two-point size distribution on B: the joint expectation must be
        // the probability mix of the two instantiated expectations.
        let q = example_1_1();
        let model = PaperCostModel;
        let mem = Distribution::point(2000.0).unwrap();
        let phases = MemoryModel::Static(mem).table(2).unwrap();
        let mut sizes = SizeModel::certain(&q).unwrap();
        sizes.rel_sizes[1] = Distribution::new([(200_000.0, 0.5), (600_000.0, 0.5)]).unwrap();
        let joint = expected_cost_joint(&q, &model, &plan1(), &sizes, &phases).unwrap();
        let mut manual = 0.0;
        for b in [200_000.0, 600_000.0] {
            let inst = JoinQuery::new(
                vec![
                    Relation::new("A", 1_000_000.0, 5e7),
                    Relation::new("B", b, 2e7),
                ],
                vec![JoinPred {
                    left: 0,
                    right: 1,
                    selectivity: 3000.0 / 4e11,
                    key: KeyId(0),
                }],
                Some(KeyId(0)),
            )
            .unwrap();
            manual += 0.5 * expected_cost(&inst, &model, &plan1(), &phases);
        }
        assert!((joint - manual).abs() < 1e-6 * manual);
    }

    #[test]
    fn access_paths_cost_as_documented() {
        let plain = Relation::new("r", 100.0, 1000.0);
        assert_eq!(access_step(&plain, AccessMethod::FullScan), (0.0, 100.0));
        assert_eq!(access_choices(&plain), vec![AccessMethod::FullScan]);

        let filtered = Relation::new("r", 100.0, 1000.0).with_local_selectivity(0.1);
        assert_eq!(
            access_step(&filtered, AccessMethod::FullScan),
            (110.0, 10.0)
        );

        let indexed = Relation::new("r", 100.0, 1000.0)
            .with_local_selectivity(0.1)
            .with_index();
        assert_eq!(access_step(&indexed, AccessMethod::IndexScan), (32.0, 10.0));
        assert_eq!(access_choices(&indexed).len(), 2);
    }
}
