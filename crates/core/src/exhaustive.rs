//! Brute-force plan enumeration: the ground truth every theorem test and
//! regret experiment compares against.
//!
//! Exponential (`n! · 3^{n-1}` left-deep plans), intended for `n ≤ 6`.

use crate::dp::Optimized;
use crate::env::PhaseDists;
use crate::error::CoreError;
use crate::evaluate::{access_choices, expected_cost};
use crate::par;
use crate::stats::OptStats;
use lec_cost::{CostModel, JoinMethod};
use lec_plan::{JoinQuery, Plan, RelSet};

/// All left-deep plans for the query: every join permutation, every join-
/// method assignment, every access-path choice; when the query requires an
/// order, plans that do not already produce it are wrapped in a root sort.
pub fn enumerate_left_deep(query: &JoinQuery) -> Vec<Plan> {
    let n = query.n();
    let mut plans = Vec::new();
    if n == 1 {
        for method in access_choices(query.relation(0)) {
            plans.push(Plan::Access { rel: 0, method });
        }
        return plans;
    }
    let mut perm: Vec<usize> = (0..n).collect();
    permute(&mut perm, 0, &mut |order| {
        enumerate_methods_for_order(query, order, &mut plans);
    });
    plans
}

/// Heap-style recursive permutation generator.
fn permute(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

fn enumerate_methods_for_order(query: &JoinQuery, order: &[usize], plans: &mut Vec<Plan>) {
    let n = order.len();
    let joins = n - 1;
    let method_combos = 3usize.pow(joins as u32);
    for combo in 0..method_combos {
        let mut methods = Vec::with_capacity(joins);
        let mut c = combo;
        for _ in 0..joins {
            methods.push(JoinMethod::ALL[c % 3]);
            c /= 3;
        }
        enumerate_access_variants(query, order, &methods, plans);
    }
}

fn enumerate_access_variants(
    query: &JoinQuery,
    order: &[usize],
    methods: &[JoinMethod],
    plans: &mut Vec<Plan>,
) {
    // Relations with two access choices get a bit in the variant mask.
    let choice_rels: Vec<usize> = (0..query.n())
        .filter(|&i| access_choices(query.relation(i)).len() > 1)
        .collect();
    let variants = 1usize << choice_rels.len();
    for mask in 0..variants {
        let access_of = |rel: usize| {
            let choices = access_choices(query.relation(rel));
            match choice_rels.iter().position(|&r| r == rel) {
                Some(bit) if (mask >> bit) & 1 == 1 => choices[1],
                _ => choices[0],
            }
        };
        let mut set = RelSet::single(order[0]);
        let mut plan = Plan::Access {
            rel: order[0],
            method: access_of(order[0]),
        };
        for (k, &rel) in order[1..].iter().enumerate() {
            let key = query.join_key_between(set, RelSet::single(rel));
            plan = Plan::join(
                plan,
                Plan::Access {
                    rel,
                    method: access_of(rel),
                },
                methods[k],
                key,
            );
            set = set.insert(rel);
        }
        if let Some(required) = query.required_order() {
            if plan.output_order() != Some(required) {
                plan = Plan::sort(plan, required);
            }
        }
        plans.push(plan);
    }
}

/// All *bushy* plans for the query (every binary tree shape, both child
/// orders, every method assignment). Much larger than the left-deep space;
/// intended for `n ≤ 5`. Access paths are fixed to each relation's cheapest
/// choice (access cost is additive and independent, so this preserves the
/// optimum).
fn enumerate_bushy(query: &JoinQuery) -> Vec<Plan> {
    // lec-lint: allow(panic-reachability) — enumeration recurses only on non-empty sets whose subplans were just generated
    fn plans_for(query: &JoinQuery, set: RelSet) -> Vec<Plan> {
        if set.len() == 1 {
            let rel = set.iter().next().expect("singleton");
            let method = access_choices(query.relation(rel))
                .into_iter()
                .min_by(|a, b| {
                    let ca = crate::evaluate::access_step(query.relation(rel), *a).0;
                    let cb = crate::evaluate::access_step(query.relation(rel), *b).0;
                    ca.total_cmp(&cb)
                })
                .expect("at least the full scan");
            return vec![Plan::Access { rel, method }];
        }
        let members: Vec<usize> = set.iter().collect();
        let mut out = Vec::new();
        // Enumerate proper non-empty subsets containing the first member to
        // halve the split enumeration, then emit both child orders.
        let rest: Vec<usize> = members[1..].to_vec();
        for mask in 0..(1u32 << rest.len()) {
            let mut left = RelSet::single(members[0]);
            for (bit, &r) in rest.iter().enumerate() {
                if (mask >> bit) & 1 == 1 {
                    left = left.insert(r);
                }
            }
            let right = set.intersect(RelSet::from_bits(set.bits() & !left.bits()));
            if right.is_empty() {
                continue;
            }
            let left_plans = plans_for(query, left);
            let right_plans = plans_for(query, right);
            let key = query.join_key_between(left, right);
            for lp in &left_plans {
                for rp in &right_plans {
                    for method in JoinMethod::ALL {
                        out.push(Plan::join(lp.clone(), rp.clone(), method, key));
                        out.push(Plan::join(rp.clone(), lp.clone(), method, key));
                    }
                }
            }
        }
        out
    }
    let mut plans = plans_for(query, query.all());
    if let Some(required) = query.required_order() {
        plans = plans
            .into_iter()
            .map(|p| {
                if p.output_order() == Some(required) {
                    p
                } else {
                    Plan::sort(p, required)
                }
            })
            .collect();
    }
    plans
}

/// The exact LEC plan by brute force: minimum expected cost over all
/// left-deep plans, with its [`OptStats`]. The exhaustive enumerators do
/// not walk the subset lattice, so `masks_expanded` and `entries_written`
/// are zero; `candidates_priced` is the number of complete plans scored,
/// and `rank_wall_ns` holds a single total.
pub fn exhaustive_lec<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    phases: &PhaseDists,
) -> Result<(Optimized, OptStats), CoreError> {
    best_by_expected_cost(query, model, phases, enumerate_left_deep)
}

/// The exact LEC plan over the bushy space, with its [`OptStats`]
/// (counted as in [`exhaustive_lec`]).
pub fn exhaustive_lec_bushy<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    phases: &PhaseDists,
) -> Result<(Optimized, OptStats), CoreError> {
    best_by_expected_cost(query, model, phases, enumerate_bushy)
}

/// Enumerates the space and keeps the first plan of least expected cost.
fn best_by_expected_cost<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    phases: &PhaseDists,
    enumerate: fn(&JoinQuery) -> Vec<Plan>,
) -> Result<(Optimized, OptStats), CoreError> {
    let mut stats = OptStats::new("exhaustive", query.n());
    let (best, elapsed) = par::timed(|| {
        let plans = enumerate(query);
        stats.counters.candidates_priced = plans.len() as u64;
        plans
            .into_iter()
            .map(|plan| {
                let cost = expected_cost(query, model, &plan, phases);
                Optimized { plan, cost }
            })
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .ok_or(CoreError::NoPlanFound)
    });
    stats.rank_wall_ns.push(elapsed);
    let best = best?;
    crate::verify::debug_verify_plan(query, &best.plan, best.cost);
    Ok((best, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_plan::{JoinPred, KeyId, Relation};

    fn query(n: usize) -> JoinQuery {
        let relations = (0..n)
            .map(|i| Relation::new(format!("r{i}"), 50.0 + 25.0 * i as f64, 1e4))
            .collect();
        let predicates = (0..n - 1)
            .map(|i| JoinPred {
                left: i,
                right: i + 1,
                selectivity: 0.01,
                key: KeyId(i),
            })
            .collect();
        JoinQuery::new(relations, predicates, None).unwrap()
    }

    #[test]
    fn left_deep_count_matches_formula() {
        // n! · 3^(n-1) plans with single access choices and no ORDER BY.
        for n in 2..=4 {
            let q = query(n);
            let plans = enumerate_left_deep(&q);
            let expected = (1..=n).product::<usize>() * 3usize.pow(n as u32 - 1);
            assert_eq!(plans.len(), expected, "n = {n}");
            for p in &plans {
                assert!(p.is_left_deep());
                p.validate(&q).unwrap();
            }
        }
    }

    #[test]
    fn ordered_query_plans_all_satisfy_order() {
        let q = JoinQuery::new(
            vec![
                Relation::new("a", 100.0, 1e3),
                Relation::new("b", 200.0, 2e3),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 0.001,
                key: KeyId(0),
            }],
            Some(KeyId(0)),
        )
        .unwrap();
        for p in enumerate_left_deep(&q) {
            assert_eq!(p.output_order(), Some(KeyId(0)), "{}", p.explain(&q));
        }
    }

    #[test]
    fn bushy_space_is_superset_sized() {
        let q = query(4);
        let bushy = enumerate_bushy(&q);
        let left_deep = enumerate_left_deep(&q);
        // Bushy trees over 4 leaves: 4-leaf shapes with ordered children =
        // 5 shapes · 4! leaf orders... simply check it dwarfs the left-deep
        // count and all plans validate.
        assert!(bushy.len() > left_deep.len());
        for p in bushy.iter().take(500) {
            p.validate(&q).unwrap();
        }
    }

    #[test]
    fn access_variants_enumerated() {
        let q = JoinQuery::new(
            vec![
                Relation::new("a", 100.0, 1e3)
                    .with_local_selectivity(0.1)
                    .with_index(),
                Relation::new("b", 200.0, 2e3),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 0.001,
                key: KeyId(0),
            }],
            None,
        )
        .unwrap();
        let plans = enumerate_left_deep(&q);
        // 2 perms · 3 methods · 2 access choices for `a`.
        assert_eq!(plans.len(), 12);
    }

    #[test]
    fn stats_count_scored_plans() {
        use crate::env::MemoryModel;
        use lec_cost::PaperCostModel;
        use lec_stats::Distribution;

        let q = query(4);
        let mem = MemoryModel::Static(Distribution::new([(25.0, 0.4), (400.0, 0.6)]).unwrap());
        let phases = mem.table(q.n()).unwrap();
        let (_, sstats) = exhaustive_lec(&q, &PaperCostModel, &phases).unwrap();
        // 4! · 3^3 plans, no lattice walk.
        assert_eq!(sstats.counters.candidates_priced, 24 * 27);
        assert_eq!(sstats.counters.masks_expanded, 0);
        assert_eq!(sstats.counters.entries_written, 0);
    }

    #[test]
    fn single_relation() {
        let q = JoinQuery::new(vec![Relation::new("a", 10.0, 100.0)], vec![], None).unwrap();
        assert_eq!(enumerate_left_deep(&q).len(), 1);
    }
}
