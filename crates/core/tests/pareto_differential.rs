//! Differential battery for the utility DPs: `pareto::optimize`,
//! `pareto::scalar_dp` and `optimize_with_rule` for the frontier-only
//! utilities and selection rules, all running on one shared lattice sweep
//! over `QueryTables`, against verbatim copies of the two stand-alone
//! sweeps they replaced (module `oracle` below; the four small
//! access/join/sort step helpers they called are inlined there).
//!
//! Every case must agree to the bit: the chosen plan, the score's and the
//! cost distribution's `to_bits`, the root frontier's profiles in order,
//! `max_frontier`, and every `SearchCounters` field.
//!
//! Environments: seeded chain, star and cycle queries with n = 2–6, with
//! and without a required order, as generated and with a seeded subset of
//! relations filtered (some of them indexed); memory supports of 1, 2, 4
//! and 6 buckets; Linear, ±Exponential and Deadline utilities; and the
//! three frontier-only selection rules.
//!
//! Mutation canaries: the battery must fail against an oracle whose
//! dominance is strict `<`, whose root sort is applied after pruning, or
//! whose scalar DP keeps ties with `<=`.

use lec_core::pareto::{self, UtilityResult};
use lec_core::rules::optimize_with_rule;
use lec_core::OptStats;
use lec_cost::PaperCostModel;
use lec_plan::{JoinPred, JoinQuery, KeyId};
use lec_rules::Rule;
use lec_stats::{Distribution, Utility};
use lec_workload::{envs, QueryGen, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deliberate defect in the oracle, or none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Canary {
    None,
    /// Dominance `x < y` instead of `x <= y`.
    StrictDominance,
    /// The root sort completes the frontier's plans after pruning.
    SortAfterPruning,
    /// The scalar DP keeps a tied candidate (`<=` instead of `<`).
    ScalarKeepLe,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Chain,
    Star,
    Cycle,
}

/// A seeded query of `shape`; a cycle is a chain closed by one more
/// predicate between its ends. With `filtered`, each relation gets a local
/// selection with probability ½, and each selection an index with
/// probability ½.
fn query(shape: Shape, n: usize, require_order: bool, filtered: bool, seed: u64) -> JoinQuery {
    let gen = QueryGen {
        topology: match shape {
            Shape::Chain | Shape::Cycle => Topology::Chain,
            Shape::Star => Topology::Star,
        },
        n,
        require_order,
        ..QueryGen::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let q = gen.generate(&mut rng);
    let mut predicates = q.predicates().to_vec();
    if matches!(shape, Shape::Cycle) && n >= 3 {
        let (first, last) = (q.relation(0).pages, q.relation(n - 1).pages);
        predicates.push(JoinPred {
            left: n - 1,
            right: 0,
            selectivity: 2.0 / first.max(last),
            key: KeyId(n - 1),
        });
    }
    let relations = q
        .relations()
        .iter()
        .map(|r| {
            if !filtered || !rng.gen::<bool>() {
                return r.clone();
            }
            let r = r
                .clone()
                .with_local_selectivity(0.05 + 0.9 * rng.gen::<f64>());
            if rng.gen::<bool>() {
                r.with_index()
            } else {
                r
            }
        })
        .collect();
    JoinQuery::new(relations, predicates, q.required_order()).expect("query")
}

fn memories() -> Vec<Distribution> {
    [1, 2, 4, 6]
        .into_iter()
        .map(|b| {
            let d = envs::lognormal(300.0, 0.8, b);
            assert_eq!(d.len(), b, "memory support");
            d
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn dist_bits(d: &Distribution) -> (Vec<u64>, Vec<u64>) {
    (bits(d.values()), bits(d.probs()))
}

/// First difference between two utility results, if any.
fn diff_results(new: &UtilityResult, old: &UtilityResult) -> Option<String> {
    if new.best.plan != old.best.plan {
        return Some(format!("plan {:?} vs {:?}", new.best.plan, old.best.plan));
    }
    if new.best.cost.to_bits() != old.best.cost.to_bits() {
        return Some(format!("score {} vs {}", new.best.cost, old.best.cost));
    }
    if dist_bits(&new.cost_distribution) != dist_bits(&old.cost_distribution) {
        return Some("cost distribution".into());
    }
    if new.max_frontier != old.max_frontier {
        return Some(format!(
            "max_frontier {} vs {}",
            new.max_frontier, old.max_frontier
        ));
    }
    let profiles = |r: &UtilityResult| r.frontier_profiles.iter().map(|p| bits(p)).collect();
    let (a, b): (Vec<Vec<u64>>, Vec<Vec<u64>>) = (profiles(new), profiles(old));
    (a != b).then(|| "root frontier profiles or their order".into())
}

fn diff_stats(new: &OptStats, old: &OptStats) -> Option<String> {
    if new.counters != old.counters {
        return Some(format!("counters {:?} vs {:?}", new.counters, old.counters));
    }
    (new.algorithm != old.algorithm
        || new.relations != old.relations
        || new.rank_wall_ns.len() != old.rank_wall_ns.len())
    .then(|| "stats record shape".into())
}

/// Compares every entry point on one (query, memory) pair; returns the
/// number of environments checked, or the first difference.
fn check(q: &JoinQuery, mem: &Distribution, canary: Canary) -> Result<usize, String> {
    let model = PaperCostModel;
    let (linear, _) = oracle::optimize(q, &model, mem, Utility::Linear, canary);
    let deadline = linear.cost_distribution.quantile(0.5).expect("quantile");
    let utilities = [
        Utility::Linear,
        Utility::Exponential { gamma: 1e-5 },
        Utility::Exponential { gamma: -1e-5 },
        Utility::Deadline {
            threshold: deadline,
        },
    ];
    let mut checked = 0;
    for u in utilities {
        let (new, new_stats) = pareto::optimize(q, &model, mem, &u).expect("pareto");
        let (old, old_stats) = oracle::optimize(q, &model, mem, u, canary);
        if let Some(d) = diff_results(&new, &old).or_else(|| diff_stats(&new_stats, &old_stats)) {
            return Err(format!("{u:?}: pareto {d}"));
        }
        // Every frontier-only utility takes the same path through the
        // certified entry point (the linear one runs Algorithm C instead).
        if u != Utility::Linear {
            let new = optimize_with_rule(q, &model, mem, &u).expect("utility rule");
            if let Some(d) = diff_results(&new, &old) {
                return Err(format!("{u:?}: optimize_with_rule {d}"));
            }
        }
        let new = pareto::scalar_dp(q, &model, mem, u).expect("scalar");
        let old = oracle::scalar_dp(q, &model, mem, u, canary);
        if let Some(d) = diff_results(&new, &old) {
            return Err(format!("{u:?}: scalar {d}"));
        }
        checked += 1;
    }
    for rule in Rule::all() {
        if rule == Rule::LeastExpectedCost {
            continue;
        }
        let new = optimize_with_rule(q, &model, mem, &rule).expect("rule");
        let (plan, score, dist, candidates) =
            oracle::finalize_over_frontier(q, &model, mem, &rule, canary);
        if new.best.plan != plan
            || new.best.cost.to_bits() != score.to_bits()
            || dist_bits(&new.cost_distribution) != dist_bits(&dist)
            || new.frontier_profiles.len() != candidates
        {
            return Err(format!("{rule}: frontier finalize"));
        }
    }
    Ok(checked)
}

/// Runs every environment against the oracle; returns the number checked,
/// or the first difference.
fn battery(canary: Canary) -> Result<usize, String> {
    let mut checked = 0;
    let mut seed = 0xFA_0000;
    for shape in [Shape::Chain, Shape::Star, Shape::Cycle] {
        for n in 2..=6 {
            for require_order in [false, true] {
                for filtered in [false, true] {
                    for _ in 0..3 {
                        seed += 1;
                        let q = query(shape, n, require_order, filtered, seed);
                        for mem in memories() {
                            checked += check(&q, &mem, canary).map_err(|d| {
                                format!(
                                    "{shape:?} n={n} ordered={require_order} \
                                     filtered={filtered} seed={seed} b={}: {d}",
                                    mem.len()
                                )
                            })?;
                        }
                    }
                }
            }
        }
    }
    Ok(checked)
}

#[test]
fn shared_sweep_matches_the_stand_alone_sweeps_bitwise() {
    match battery(Canary::None) {
        Ok(checked) => assert_eq!(checked, 3 * 5 * 2 * 2 * 3 * 4 * 4),
        Err(d) => panic!("{d}"),
    }
}

#[test]
fn battery_catches_each_mutation_canary() {
    for canary in [
        Canary::StrictDominance,
        Canary::SortAfterPruning,
        Canary::ScalarKeepLe,
    ] {
        assert!(
            battery(canary).is_err(),
            "{canary:?}: the battery did not notice"
        );
    }
}

/// Verbatim copies of the stand-alone frontier and scalar sweeps (and the
/// `optimize` and rule-finalize code around them), with the step helpers
/// inlined and a [`Canary`] switch at the three mutation points.
mod oracle {
    use super::Canary;
    use lec_core::par;
    use lec_core::pareto::UtilityResult;
    use lec_core::{OptStats, Optimized};
    use lec_cost::{AccessMethod, CostModel, JoinMethod};
    use lec_plan::{JoinQuery, Plan, RelSet, Relation};
    use lec_rules::{argmin, SelectionRule};
    use lec_stats::{Distribution, Utility};

    fn access_cost(rel: &Relation, method: AccessMethod, out_pages: f64) -> f64 {
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

    fn access_step(rel: &Relation, method: AccessMethod) -> (f64, f64) {
        let out = rel.effective_pages();
        (access_cost(rel, method, out), out)
    }

    fn access_choices(rel: &Relation) -> Vec<AccessMethod> {
        let mut v = vec![AccessMethod::FullScan];
        if rel.has_index && rel.local_selectivity < 1.0 {
            v.push(AccessMethod::IndexScan);
        }
        v
    }

    fn join_step<M: CostModel + ?Sized>(
        model: &M,
        method: JoinMethod,
        left_pages: f64,
        right_pages: f64,
        out_pages: f64,
        memory: f64,
    ) -> f64 {
        model.join_cost(method, left_pages, right_pages, memory) + out_pages
    }

    fn sort_step<M: CostModel + ?Sized>(model: &M, pages: f64, memory: f64) -> f64 {
        model.sort_cost(pages, memory) + pages
    }

    #[derive(Debug, Clone)]
    pub(crate) struct ProfEntry {
        pub(crate) profile: Vec<f64>,
        pub(crate) plan: Plan,
    }

    fn dominates(a: &[f64], b: &[f64], canary: Canary) -> bool {
        if canary == Canary::StrictDominance {
            return a.iter().zip(b).all(|(x, y)| *x < *y);
        }
        a.iter().zip(b).all(|(x, y)| *x <= *y)
    }

    fn insert_frontier(frontier: &mut Vec<ProfEntry>, entry: ProfEntry, canary: Canary) {
        if frontier
            .iter()
            .any(|e| dominates(&e.profile, &entry.profile, canary))
        {
            return;
        }
        frontier.retain(|e| !dominates(&entry.profile, &e.profile, canary));
        frontier.push(entry);
    }

    pub(crate) fn optimize<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        memory: &Distribution,
        utility: Utility,
        canary: Canary,
    ) -> (UtilityResult, OptStats) {
        let (roots, max_frontier, stats) = root_frontier_with_stats(query, model, memory, canary);
        let best = roots
            .iter()
            .map(|e| {
                let dist = Distribution::new(
                    memory
                        .probs()
                        .iter()
                        .zip(e.profile.iter())
                        .map(|(&p, &c)| (c, p)),
                )
                .expect("profile costs are finite");
                (e, utility.score(&dist), dist)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("a root plan");

        let result = UtilityResult {
            best: Optimized {
                plan: best.0.plan.clone(),
                cost: best.1,
            },
            cost_distribution: best.2,
            max_frontier,
            frontier_profiles: roots.iter().map(|e| e.profile.clone()).collect(),
        };
        (result, stats)
    }

    pub(crate) fn root_frontier_with_stats<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        memory: &Distribution,
        canary: Canary,
    ) -> (Vec<ProfEntry>, usize, OptStats) {
        let n = query.n();
        let full = query.all();
        let values = memory.values();
        let b = values.len();
        let mut table: Vec<Vec<ProfEntry>> = vec![Vec::new(); (full.bits() + 1) as usize];
        let mut max_frontier = 1usize;
        let mut stats = OptStats::new("pareto", n);
        stats.counters.entries_written = n as u64;

        for i in 0..n {
            let rel = query.relation(i);
            // Access cost is memory-independent: a single cheapest entry.
            let (cost, method) = access_choices(rel)
                .into_iter()
                .map(|m| (access_step(rel, m).0, m))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least the full scan");
            table[RelSet::single(i).bits() as usize] = vec![ProfEntry {
                profile: vec![cost; b],
                plan: Plan::Access { rel: i, method },
            }];
        }

        // Rank-by-rank sweep: each mask depends only on strictly smaller
        // subsets, so grouping by popcount is bit-identical to the flat
        // numeric order while giving the stats layer per-rank wall times
        // and frontier sizes.
        for rank in &par::ranks(n)[1..] {
            let mut rank_frontier = 0usize;
            let ((), ns) = par::timed(|| {
                for &set in rank {
                    let out = query.result_pages(set);
                    let is_root = set == full;
                    let mut frontier: Vec<ProfEntry> = Vec::new();
                    for j in set.iter() {
                        let sub = set.remove(j);
                        let left_out = query.result_pages(sub);
                        let rel = query.relation(j);
                        let (acc_cost, acc_out, acc_method) = access_choices(rel)
                            .into_iter()
                            .map(|m| {
                                let (c, o) = access_step(rel, m);
                                (c, o, m)
                            })
                            .min_by(|a, b| a.0.total_cmp(&b.0))
                            .expect("at least the full scan");
                        let key = query.join_key_between(sub, RelSet::single(j));
                        // Borrow, don't clone: the sub-entry lives in a strictly
                        // lower rank, so it is never written while `set` is.
                        let left_list = &table[sub.bits() as usize];
                        for method in JoinMethod::ALL {
                            let step: Vec<f64> = values
                                .iter()
                                .map(|&m| join_step(model, method, left_out, acc_out, out, m))
                                .collect();
                            for left in left_list {
                                let mut profile: Vec<f64> = left
                                    .profile
                                    .iter()
                                    .zip(&step)
                                    .map(|(l, s)| l + acc_cost + s)
                                    .collect();
                                let mut plan = Plan::join(
                                    left.plan.clone(),
                                    Plan::Access {
                                        rel: j,
                                        method: acc_method,
                                    },
                                    method,
                                    key,
                                );
                                // At the root, complete plans that miss a required order
                                // *before* dominance pruning, so that ordered and sorted
                                // alternatives compete fairly.
                                if is_root && canary != Canary::SortAfterPruning {
                                    if let Some(required) = query.required_order() {
                                        if plan.output_order() != Some(required) {
                                            for (p, &m) in profile.iter_mut().zip(values) {
                                                *p += sort_step(model, out, m);
                                            }
                                            plan = Plan::sort(plan, required);
                                        }
                                    }
                                }
                                stats.counters.candidates_priced += 1;
                                insert_frontier(&mut frontier, ProfEntry { profile, plan }, canary);
                            }
                        }
                    }
                    if is_root && canary == Canary::SortAfterPruning {
                        if let Some(required) = query.required_order() {
                            for e in &mut frontier {
                                if e.plan.output_order() != Some(required) {
                                    for (p, &m) in e.profile.iter_mut().zip(values) {
                                        *p += sort_step(model, out, m);
                                    }
                                    e.plan = Plan::sort(e.plan.clone(), required);
                                }
                            }
                        }
                    }
                    stats.counters.masks_expanded += 1;
                    stats.counters.entries_written += frontier.len() as u64;
                    rank_frontier = rank_frontier.max(frontier.len());
                    max_frontier = max_frontier.max(frontier.len());
                    table[set.bits() as usize] = frontier;
                }
            });
            stats.counters.frontier_per_rank.push(rank_frontier);
            stats.rank_wall_ns.push(ns);
        }

        let roots = std::mem::take(&mut table[full.bits() as usize]);
        (roots, max_frontier, stats)
    }

    pub(crate) fn scalar_dp<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        memory: &Distribution,
        utility: Utility,
        canary: Canary,
    ) -> UtilityResult {
        let n = query.n();
        let full = query.all();
        let values = memory.values();
        let b = values.len();
        let score_of = |profile: &[f64]| -> f64 {
            let dist = Distribution::new(profile.iter().zip(memory.probs()).map(|(&c, &p)| (c, p)))
                .expect("finite costs");
            utility.score(&dist)
        };
        let mut table: Vec<Option<ProfEntry>> = vec![None; (full.bits() + 1) as usize];

        for i in 0..n {
            let rel = query.relation(i);
            let (cost, method) = access_choices(rel)
                .into_iter()
                .map(|m| (access_step(rel, m).0, m))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("at least the full scan");
            table[RelSet::single(i).bits() as usize] = Some(ProfEntry {
                profile: vec![cost; b],
                plan: Plan::Access { rel: i, method },
            });
        }

        for set in RelSet::all_subsets(n) {
            if set.len() < 2 {
                continue;
            }
            let out = query.result_pages(set);
            let is_root = set == full;
            let mut best: Option<(f64, ProfEntry)> = None;
            for j in set.iter() {
                let sub = set.remove(j);
                // Borrow, don't clone: sub-entries live in strictly lower ranks.
                let left = table[sub.bits() as usize]
                    .as_ref()
                    .expect("subset computed");
                let left_out = query.result_pages(sub);
                let rel = query.relation(j);
                let (acc_cost, acc_out, acc_method) = access_choices(rel)
                    .into_iter()
                    .map(|m| {
                        let (c, o) = access_step(rel, m);
                        (c, o, m)
                    })
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .expect("at least the full scan");
                let key = query.join_key_between(sub, RelSet::single(j));
                for method in JoinMethod::ALL {
                    let mut profile: Vec<f64> = values
                        .iter()
                        .zip(&left.profile)
                        .map(|(&m, l)| {
                            l + acc_cost + join_step(model, method, left_out, acc_out, out, m)
                        })
                        .collect();
                    let mut plan = Plan::join(
                        left.plan.clone(),
                        Plan::Access {
                            rel: j,
                            method: acc_method,
                        },
                        method,
                        key,
                    );
                    if is_root {
                        if let Some(required) = query.required_order() {
                            if plan.output_order() != Some(required) {
                                for (p, &m) in profile.iter_mut().zip(values) {
                                    *p += sort_step(model, out, m);
                                }
                                plan = Plan::sort(plan, required);
                            }
                        }
                    }
                    let score = score_of(&profile);
                    let keeps = match best.as_ref() {
                        Some((s, _)) if canary == Canary::ScalarKeepLe => score <= *s,
                        _ => best.as_ref().is_none_or(|(s, _)| score < *s),
                    };
                    if keeps {
                        best = Some((score, ProfEntry { profile, plan }));
                    }
                }
            }
            table[set.bits() as usize] = best.map(|(_, e)| e);
        }

        let root = table[full.bits() as usize].clone().expect("a root plan");
        let dist = Distribution::new(
            root.profile
                .iter()
                .zip(memory.probs())
                .map(|(&c, &p)| (c, p)),
        )
        .expect("finite costs");
        let score = utility.score(&dist);
        UtilityResult {
            best: Optimized {
                plan: root.plan,
                cost: score,
            },
            cost_distribution: dist,
            max_frontier: 1,
            frontier_profiles: vec![root.profile],
        }
    }

    /// The frontier-rule finalize: `(plan, score, distribution,
    /// candidates)` of the rule's pick over the oracle's root frontier.
    pub(crate) fn finalize_over_frontier<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        memory: &Distribution,
        rule: &dyn SelectionRule,
        canary: Canary,
    ) -> (Plan, f64, Distribution, usize) {
        let (roots, _max_frontier, _stats) = root_frontier_with_stats(query, model, memory, canary);
        let profiles: Vec<Vec<f64>> = roots.iter().map(|e| e.profile.clone()).collect();
        let scores = rule.scores(&profiles, memory.probs());
        let idx = argmin(&scores).expect("a root plan");
        let winner = &roots[idx];
        let dist = Distribution::new(
            memory
                .probs()
                .iter()
                .zip(winner.profile.iter())
                .map(|(&p, &c)| (c, p)),
        )
        .expect("finite costs");
        (winner.plan.clone(), scores[idx], dist, roots.len())
    }
}
