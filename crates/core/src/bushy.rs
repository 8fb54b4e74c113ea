//! Bushy-tree LEC optimization (§4's future-work direction).
//!
//! The paper's algorithms inherit System R's left-deep restriction; §4
//! lists bushy join trees as the main un-handled generalization. The
//! expected-cost objective doesn't care about tree shape — Theorem 3.3's
//! proof only uses additivity — so the same idea extends to the full
//! DPsub-style dynamic program: for every relation subset, try every
//! 2-partition into smaller subsets, pricing the join step in expectation.
//!
//! Phases: a bushy plan's joins still execute in post-order; under *static*
//! memory every phase shares one distribution and the DP below is exact
//! (verified against bushy exhaustive enumeration). Under *dynamic* memory
//! a subtree's phase indices depend on where it lands in the final plan, so
//! subset-DP state is insufficient; [`optimize`] therefore rejects dynamic
//! models rather than silently approximating.

use crate::dp::Optimized;
use crate::env::MemoryModel;
use crate::error::CoreError;
use crate::par;
use crate::precompute::QueryTables;
use crate::stats::OptStats;
use lec_cost::{AccessMethod, CostModel, JoinMethod};
use lec_plan::{JoinQuery, Plan, RelSet};
use lec_stats::Distribution;

#[derive(Debug, Clone, Copy)]
enum Choice {
    Access(AccessMethod),
    Join {
        left: RelSet,
        method: JoinMethod,
        /// Join orientation: when false the split's complement is the
        /// left input (matters for the asymmetric nested loop).
        left_first: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    cost: f64,
    choice: Choice,
}

/// Prices every 2-partition of `set` against the filled lower ranks and
/// returns the best entry, plus (at the full set, when an order is
/// required) the best split whose join is a sort-merge on the required
/// key. Submask order and the strict-`<` winner rule fix the result.
// lec-lint: allow(panic-reachability) — DP induction: both halves of every split are priced in rank order before this set, and the candidate min covers at least one split
fn cost_mask_bushy<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    tabs: &QueryTables,
    mem: &Distribution,
    table: &[Option<Entry>],
    set: RelSet,
    full: RelSet,
) -> (Entry, Option<Entry>, u64) {
    let out = tabs.pages(set);
    let mut best: Option<Entry> = None;
    let mut best_ordered: Option<Entry> = None;
    let mut candidates = 0u64;
    // Enumerate 2-partitions: submasks containing the lowest member
    // (each unordered split once); both orientations are priced.
    let lowest = set.iter().next().expect("non-empty");
    let bits = set.bits();
    let rest = set.remove(lowest).bits();
    let mut sub = rest;
    loop {
        let left = RelSet::from_bits(sub | (1 << lowest));
        let right = RelSet::from_bits(bits & !left.bits());
        if !right.is_empty() {
            let le = table[left.bits() as usize].expect("computed");
            let re = table[right.bits() as usize].expect("computed");
            let (lp, rp) = (tabs.pages(left), tabs.pages(right));
            let key = query.join_key_between(left, right);
            for method in JoinMethod::ALL {
                for left_first in [true, false] {
                    let (a, b) = if left_first { (lp, rp) } else { (rp, lp) };
                    let step =
                        model.expected_join_step(method, a, b, out, mem.values(), mem.probs());
                    let cost = le.cost + re.cost + step;
                    candidates += 1;
                    let entry = Entry {
                        cost,
                        choice: Choice::Join {
                            left,
                            method,
                            left_first,
                        },
                    };
                    if best.is_none_or(|e| cost < e.cost) {
                        best = Some(entry);
                    }
                    if set == full
                        && method == JoinMethod::SortMerge
                        && query.required_order().is_some()
                        && key == query.required_order()
                        && best_ordered.is_none_or(|e| cost < e.cost)
                    {
                        best_ordered = Some(entry);
                    }
                }
            }
        }
        if sub == 0 {
            break;
        }
        sub = (sub - 1) & rest;
    }
    (
        best.expect("set has at least two members"),
        best_ordered,
        candidates,
    )
}

/// Plan reconstruction from backpointers.
// lec-lint: allow(panic-reachability) — plan_for only walks entries the forward pass has filled; singletons decompose to their only relation
fn plan_for(
    query: &JoinQuery,
    table: &[Option<Entry>],
    set: RelSet,
    override_root: Option<&Entry>,
) -> Plan {
    let entry = override_root
        .or(table[set.bits() as usize].as_ref())
        .expect("entry exists");
    match entry.choice {
        Choice::Access(method) => Plan::Access {
            rel: set.iter().next().expect("singleton"),
            method,
        },
        Choice::Join {
            left,
            method,
            left_first,
        } => {
            let right = RelSet::from_bits(set.bits() & !left.bits());
            let lp = plan_for(query, table, left, None);
            let rp = plan_for(query, table, right, None);
            let key = query.join_key_between(left, right);
            if left_first {
                Plan::join(lp, rp, method, key)
            } else {
                Plan::join(rp, lp, method, key)
            }
        }
    }
}

fn static_memory(memory: &MemoryModel) -> Result<&Distribution, CoreError> {
    match memory {
        MemoryModel::Static(mem) => Ok(mem),
        _ => Err(CoreError::BadParameter(
            "bushy LEC optimization supports static memory only \
             (phase indices are shape-dependent in bushy trees)"
                .into(),
        )),
    }
}

fn seed_singletons(tabs: &QueryTables, n: usize, table: &mut [Option<Entry>]) {
    for i in 0..n {
        let (cost, method, _) = tabs.access(i);
        table[RelSet::single(i).bits() as usize] = Some(Entry {
            cost,
            choice: Choice::Access(method),
        });
    }
}

fn finalize<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    tabs: &QueryTables,
    mem: &Distribution,
    table: &[Option<Entry>],
    best_ordered: Option<Entry>,
) -> Result<Optimized, CoreError> {
    let full = query.all();
    let root = table[full.bits() as usize]
        .as_ref()
        .ok_or(CoreError::NoPlanFound)?;
    let best = if query.required_order().is_some() {
        let out = tabs.pages(full);
        let sorted_cost = root.cost + model.expected_sort_step(out, mem.values(), mem.probs());
        match &best_ordered {
            Some(ord) if ord.cost <= sorted_cost => Optimized {
                plan: plan_for(query, table, full, Some(ord)),
                cost: ord.cost,
            },
            _ => {
                let key = query.required_order().expect("checked"); // lec-lint: allow(panic-reachability) — this arm only runs when required_order().is_some() held above
                Optimized {
                    plan: Plan::sort(plan_for(query, table, full, None), key),
                    cost: sorted_cost,
                }
            }
        }
    } else {
        Optimized {
            plan: plan_for(query, table, full, None),
            cost: root.cost,
        }
    };
    lec_plan::verify_costs("bushy winner", &[best.cost])?;
    crate::verify::debug_verify_plan(query, &best.plan, best.cost);
    Ok(best)
}

/// Computes the least-expected-cost *bushy* plan under static memory,
/// with its search-space [`OptStats`]. `candidates_priced` counts
/// (split × orientation × join-method) combinations — the `O(3^n)` term
/// made observable. A winner whose cost is not finite is
/// [`CoreError::Plan`] in every build.
pub fn optimize<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    memory: &MemoryModel,
) -> Result<(Optimized, OptStats), CoreError> {
    let mem = static_memory(memory)?;
    let n = query.n();
    let full = query.all();
    let tabs = QueryTables::new(query);
    let mut table: Vec<Option<Entry>> = vec![None; (full.bits() + 1) as usize];
    seed_singletons(&tabs, n, &mut table);

    let mut stats = OptStats::new("bushy", n);
    stats.precompute = tabs.sizes();
    stats.counters.entries_written = n as u64;

    let mut best_ordered: Option<Entry> = None;
    let ranks = par::ranks(n);
    for rank in &ranks[1..] {
        let ((), elapsed) = par::timed(|| {
            for &set in rank {
                let (best, ordered, candidates) =
                    cost_mask_bushy(query, model, &tabs, mem, &table, set, full);
                table[set.bits() as usize] = Some(best);
                if let Some(ord) = ordered {
                    best_ordered = Some(ord);
                }
                stats.counters.masks_expanded += 1;
                stats.counters.candidates_priced += candidates;
                stats.counters.entries_written += 1;
            }
        });
        stats.rank_wall_ns.push(elapsed);
    }

    let best = finalize(query, model, &tabs, mem, &table, best_ordered)?;
    Ok((best, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::expected_cost;
    use crate::{alg_c, exhaustive};
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};
    use lec_stats::{Distribution, MarkovChain};

    fn query(n: usize, seed: u64, star: bool) -> JoinQuery {
        let mut state = seed.wrapping_mul(0x5851F42D4C957F2D).wrapping_add(7);
        let mut next = || {
            state = state
                .wrapping_mul(0x5851F42D4C957F2D)
                .wrapping_add(0x14057B7EF767814F);
            ((state >> 33) % 9000 + 40) as f64
        };
        let relations = (0..n)
            .map(|i| Relation::new(format!("r{i}"), next(), 1e5))
            .collect();
        let predicates = (0..n - 1)
            .map(|i| JoinPred {
                left: if star { 0 } else { i },
                right: i + 1,
                selectivity: 1e-3,
                key: KeyId(i),
            })
            .collect();
        JoinQuery::new(relations, predicates, Some(KeyId(n - 2))).unwrap()
    }

    fn memory() -> MemoryModel {
        MemoryModel::Static(Distribution::new([(15.0, 0.3), (90.0, 0.4), (1200.0, 0.3)]).unwrap())
    }

    #[test]
    fn bushy_dp_matches_bushy_exhaustive() {
        for seed in 0..5 {
            for star in [false, true] {
                let q = query(4, seed, star);
                let mem = memory();
                let (dp, _) = optimize(&q, &PaperCostModel, &mem).unwrap();
                let phases = mem.table(q.n()).unwrap();
                let (truth, _) =
                    exhaustive::exhaustive_lec_bushy(&q, &PaperCostModel, &phases).unwrap();
                assert!(
                    (dp.cost - truth.cost).abs() <= 1e-6 * truth.cost,
                    "seed {seed} star {star}: dp {} vs exhaustive {}",
                    dp.cost,
                    truth.cost
                );
                dp.plan.validate(&q).unwrap();
                // DP cost is self-consistent with the evaluator.
                let scored = expected_cost(&q, &PaperCostModel, &dp.plan, &phases);
                assert!((dp.cost - scored).abs() <= 1e-6 * scored.max(1.0));
            }
        }
    }

    #[test]
    fn bushy_never_worse_than_left_deep() {
        for seed in 0..6 {
            let q = query(5, 100 + seed, seed % 2 == 0);
            let mem = memory();
            let (bushy, _) = optimize(&q, &PaperCostModel, &mem).unwrap();
            let (left_deep, _) = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap();
            assert!(
                bushy.cost <= left_deep.cost + 1e-9 * left_deep.cost,
                "seed {seed}: bushy {} vs left-deep {}",
                bushy.cost,
                left_deep.cost
            );
        }
    }

    #[test]
    fn stats_count_every_ordered_split() {
        let q = query(6, 11, false);
        let mem = memory();
        let (_, sstats) = optimize(&q, &PaperCostModel, &mem).unwrap();
        // Σ over masks of (2-partitions × 2 orientations × 3 methods):
        // the number of ordered splits of the lattice is 3^n - 2^(n+1) + 1,
        // and each ordered split is one (orientation) candidate per method.
        let n = 6u32;
        let ordered_splits = 3u64.pow(n) - 2u64.pow(n + 1) + 1;
        assert_eq!(sstats.counters.candidates_priced, ordered_splits * 3);
        assert_eq!(sstats.counters.masks_expanded, (1 << n) - 1 - n as u64);
    }

    #[test]
    fn rejects_dynamic_memory() {
        let q = query(3, 0, false);
        let chain = MarkovChain::random_walk(vec![10.0, 100.0], 0.5).unwrap();
        let mem = MemoryModel::dynamic(chain, vec![0.5, 0.5]).unwrap();
        assert!(matches!(
            optimize(&q, &PaperCostModel, &mem),
            Err(CoreError::BadParameter(_))
        ));
    }

    #[test]
    fn single_relation_and_pair() {
        let q = JoinQuery::new(vec![Relation::new("only", 50.0, 1e3)], vec![], None).unwrap();
        let (opt, _) = optimize(&q, &PaperCostModel, &memory()).unwrap();
        assert_eq!(opt.plan, Plan::scan(0));
        // For two relations, bushy == left-deep by construction.
        let q2 = query(2, 3, false);
        let mem = memory();
        let (b, _) = optimize(&q2, &PaperCostModel, &mem).unwrap();
        let (l, _) = alg_c::optimize(&q2, &PaperCostModel, &mem).unwrap();
        assert!((b.cost - l.cost).abs() <= 1e-9 * l.cost);
    }
}
