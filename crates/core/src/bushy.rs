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

/// The DP table: one entry per relation subset, absent until its rank is
/// priced. Every read and write goes through [`get`](Table::get) and
/// [`put`](Table::put), so a subset the table does not hold reads as
/// absent instead of panicking.
struct Table {
    slots: Vec<Option<Entry>>,
}

impl Table {
    /// An empty table over the subsets of `full`, with every singleton
    /// seeded from its cheapest access path.
    fn seeded(tabs: &QueryTables, full: RelSet) -> Self {
        let mut table = Table {
            slots: vec![None; full.bits() as usize + 1],
        };
        for i in full.iter() {
            let (cost, method, _) = tabs.access(i);
            let entry = Entry {
                cost,
                choice: Choice::Access(method),
            };
            table.put(RelSet::single(i), entry);
        }
        table
    }

    fn get(&self, set: RelSet) -> Option<Entry> {
        self.slots.get(set.bits() as usize).copied().flatten()
    }

    fn put(&mut self, set: RelSet, entry: Entry) {
        if let Some(slot) = self.slots.get_mut(set.bits() as usize) {
            *slot = Some(entry);
        }
    }
}

/// What pricing one subset yields: its best entry, the best split whose
/// join is a sort-merge on the required key (only at the full set of an
/// ordered query), and the candidates priced.
struct Priced {
    best: Entry,
    ordered: Option<Entry>,
    candidates: u64,
}

/// Prices every 2-partition of `set` against the filled lower ranks and
/// returns the best entry, plus (at the full set, when an order is
/// required) the best split whose join is a sort-merge on the required
/// key. Submask order and the strict-`<` winner rule fix the result.
/// `None` only if a half of some split was never priced or `set` has no
/// split — neither happens when ranks are priced in order and `set` has at
/// least two members.
fn cost_mask_bushy<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    tabs: &QueryTables,
    mem: &Distribution,
    table: &Table,
    set: RelSet,
    full: RelSet,
) -> Option<Priced> {
    let out = tabs.pages(set);
    let mut best: Option<Entry> = None;
    let mut best_ordered: Option<Entry> = None;
    let mut candidates = 0u64;
    // Enumerate 2-partitions: submasks containing the lowest member
    // (each unordered split once); both orientations are priced.
    let lowest = set.iter().next()?;
    let bits = set.bits();
    let rest = set.remove(lowest).bits();
    let mut sub = rest;
    loop {
        let left = RelSet::from_bits(sub | (1 << lowest));
        let right = RelSet::from_bits(bits & !left.bits());
        if !right.is_empty() {
            let (le, re) = (table.get(left)?, table.get(right)?);
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
    Some(Priced {
        best: best?,
        ordered: best_ordered,
        candidates,
    })
}

/// Plan reconstruction from backpointers: `root`, the entry of `set`,
/// and below it the table's entries. `None` if a backpointer names a
/// subset the forward pass did not fill, or a seed's set is empty.
fn plan_for(query: &JoinQuery, table: &Table, set: RelSet, root: Entry) -> Option<Plan> {
    match root.choice {
        Choice::Access(method) => Some(Plan::Access {
            rel: set.iter().next()?,
            method,
        }),
        Choice::Join {
            left,
            method,
            left_first,
        } => {
            let right = RelSet::from_bits(set.bits() & !left.bits());
            let lp = plan_for(query, table, left, table.get(left)?)?;
            let rp = plan_for(query, table, right, table.get(right)?)?;
            let key = query.join_key_between(left, right);
            Some(if left_first {
                Plan::join(lp, rp, method, key)
            } else {
                Plan::join(rp, lp, method, key)
            })
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

fn finalize<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    tabs: &QueryTables,
    mem: &Distribution,
    table: &Table,
    best_ordered: Option<Entry>,
) -> Result<Optimized, CoreError> {
    let full = query.all();
    let root = table.get(full).ok_or(CoreError::NoPlanFound)?;
    let (plan, cost) = match query.required_order() {
        None => (plan_for(query, table, full, root), root.cost),
        Some(key) => {
            let out = tabs.pages(full);
            let sorted_cost = root.cost + model.expected_sort_step(out, mem.values(), mem.probs());
            match best_ordered {
                Some(ord) if ord.cost <= sorted_cost => {
                    (plan_for(query, table, full, ord), ord.cost)
                }
                _ => (
                    plan_for(query, table, full, root).map(|p| Plan::sort(p, key)),
                    sorted_cost,
                ),
            }
        }
    };
    let best = Optimized {
        plan: plan.ok_or(CoreError::NoPlanFound)?,
        cost,
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
    let mut table = Table::seeded(&tabs, full);

    let mut stats = OptStats::new("bushy", n);
    stats.precompute = tabs.sizes();
    stats.counters.entries_written = n as u64;

    let mut best_ordered: Option<Entry> = None;
    let ranks = par::ranks(n);
    for rank in &ranks[1..] {
        let (priced, elapsed) = par::timed(|| {
            for &set in rank {
                let priced = cost_mask_bushy(query, model, &tabs, mem, &table, set, full)
                    .ok_or(CoreError::NoPlanFound)?;
                table.put(set, priced.best);
                if let Some(ord) = priced.ordered {
                    best_ordered = Some(ord);
                }
                stats.counters.masks_expanded += 1;
                stats.counters.candidates_priced += priced.candidates;
                stats.counters.entries_written += 1;
            }
            Ok::<(), CoreError>(())
        });
        priced?;
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
    fn an_unpriced_subset_reads_as_absent_instead_of_panicking() {
        let q = query(3, 0, false);
        let tabs = QueryTables::new(&q);
        let mem = Distribution::new([(90.0, 1.0)]).unwrap();
        let full = q.all();
        let price = |table: &Table, set: RelSet| {
            cost_mask_bushy(&q, &PaperCostModel, &tabs, &mem, table, set, full)
        };
        // No singleton priced: every split of the full set misses a half.
        let empty = Table {
            slots: vec![None; full.bits() as usize + 1],
        };
        assert!(price(&empty, full).is_none());
        // The empty set has no split; a subset past the table is absent.
        let seeded = Table::seeded(&tabs, full);
        assert!(price(&seeded, RelSet::from_bits(0)).is_none());
        assert!(seeded.get(RelSet::single(5)).is_none());
        // A backpointer into an unpriced pair reconstructs no plan.
        let join = Entry {
            cost: 1.0,
            choice: Choice::Join {
                left: RelSet::single(0).insert(1),
                method: JoinMethod::ALL[0],
                left_first: true,
            },
        };
        assert!(plan_for(&q, &seeded, full, join).is_none());
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
