//! The generic left-deep dynamic program (§2.2's dag walk).
//!
//! System R's LSC optimizer (Theorem 2.1), the LEC Algorithm C (Theorems
//! 3.3/3.4) and Algorithm D (§3.6) are the *same* dynamic program
//! instantiated with different step costers: LSC costs each join step at
//! one fixed memory value, Algorithm C costs it in expectation over the
//! phase's memory distribution, and Algorithm D also takes the expectation
//! over the input-size distributions it propagates up the dag. Correctness
//! of the DP only needs the step cost to be additive across the plan —
//! which expectations are, by linearity (that is the entire content of the
//! Theorem 3.3 proof).
//!
//! ### Interesting orders
//!
//! Only a final sort-merge join on the required key can satisfy an ORDER BY
//! without an explicit sort (no other operator produces or preserves
//! order in our model, and the paper's SM formula takes no discount for
//! pre-sorted inputs). The DP therefore keeps one best entry per subset and
//! additionally tracks, at the full set, the best plan whose *final* join
//! is a sort-merge on the required key; the root then compares that
//! against best-unordered-plus-sort. Disabling this via
//! [`DpOptions::ignore_orders`] is the X1 ablation.

use crate::env::PhaseDists;
use crate::error::CoreError;
use crate::evaluate::{join_step, sort_step};
use crate::par;
use crate::precompute::QueryTables;
use crate::stats::OptStats;
use lec_cost::{AccessMethod, CostModel, JoinMethod};
use lec_plan::{JoinQuery, KeyId, Plan, RelSet};

/// An optimized plan with its (expected) cost under the optimizing
/// objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Optimized {
    /// The chosen plan.
    pub plan: Plan,
    /// Its cost under the objective the algorithm minimized (specific cost
    /// for LSC, expected cost for the LEC algorithms).
    pub cost: f64,
}

/// One join candidate of the DP: the best plan for `sub = set \ {j}`
/// joined with relation `j`'s access path to form `set`, with the point
/// page estimates of [`QueryTables`] for the left input, the right input
/// and the output.
#[derive(Debug, Clone, Copy)]
pub struct JoinInputs {
    /// The left (outer) subset.
    pub sub: RelSet,
    /// The relation joined last.
    pub j: usize,
    /// The subset the join forms.
    pub set: RelSet,
    /// Estimated pages of `sub`'s result.
    pub left_pages: f64,
    /// Pages emitted by `j`'s access path.
    pub right_pages: f64,
    /// Estimated pages of `set`'s result.
    pub out_pages: f64,
}

/// Prices one plan *step* for the dynamic program. The phase index follows
/// §3.5: the join forming a `k`-relation result is phase `k - 2`; a final
/// sort is the last phase.
pub trait StepCoster {
    /// Candidate costs of the join `join`, one per method in
    /// [`JoinMethod::ALL`] order. `base` is the cost of the best plan for
    /// `join.sub` plus `join.j`'s access cost; the coster adds the join
    /// step (join formula plus output materialization) onto it, so it also
    /// fixes how the sum associates.
    fn join_all(&self, phase: usize, base: f64, join: JoinInputs) -> [f64; 3];

    /// Cost of a final sort of `set`'s result (`pages` estimated pages),
    /// including output materialization.
    fn sort(&self, phase: usize, set: RelSet, pages: f64) -> f64;
}

/// Step coster for a single fixed memory value (the LSC world).
#[derive(Debug, Clone, Copy)]
pub struct FixedMemoryCoster<'a, M: ?Sized> {
    model: &'a M,
    memory: f64,
}

impl<'a, M: CostModel + ?Sized> FixedMemoryCoster<'a, M> {
    /// Prices steps at the given memory value.
    pub fn new(model: &'a M, memory: f64) -> Self {
        Self { model, memory }
    }
}

impl<M: CostModel + ?Sized> StepCoster for FixedMemoryCoster<'_, M> {
    fn join_all(&self, _phase: usize, base: f64, join: JoinInputs) -> [f64; 3] {
        let (l, r, out) = (join.left_pages, join.right_pages, join.out_pages);
        JoinMethod::ALL.map(|method| base + join_step(self.model, method, l, r, out, self.memory))
    }

    fn sort(&self, _phase: usize, _set: RelSet, pages: f64) -> f64 {
        sort_step(self.model, pages, self.memory)
    }
}

/// Step coster taking expectations over per-phase memory distributions
/// (Algorithm C; with a static table every phase shares one distribution).
#[derive(Debug, Clone, Copy)]
pub struct ExpectedCoster<'a, M: ?Sized> {
    model: &'a M,
    phases: &'a PhaseDists,
}

impl<'a, M: CostModel + ?Sized> ExpectedCoster<'a, M> {
    /// Prices steps in expectation over `phases`.
    pub fn new(model: &'a M, phases: &'a PhaseDists) -> Self {
        Self { model, phases }
    }
}

impl<M: CostModel + ?Sized> StepCoster for ExpectedCoster<'_, M> {
    fn join_all(&self, phase: usize, base: f64, join: JoinInputs) -> [f64; 3] {
        // Routed through the model's fused expectation kernel (bit-identical
        // to `dist.expect(|m| join_step(...))` per method, with hoisted
        // overrides for the paper model) — this is the x18 hot path.
        let d = self.phases.at(phase);
        let (l, r, out) = (join.left_pages, join.right_pages, join.out_pages);
        self.model
            .expected_join_steps(l, r, out, d.values(), d.probs())
            .map(|step| base + step)
    }

    fn sort(&self, phase: usize, _set: RelSet, pages: f64) -> f64 {
        let d = self.phases.at(phase);
        self.model.expected_sort_step(pages, d.values(), d.probs())
    }
}

/// Options for the dynamic program.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpOptions {
    /// Ablation: drop order tracking and always sort at the root when the
    /// query requires an order.
    pub ignore_orders: bool,
}

/// One DP table entry: best cost plus the backpointer to reconstruct the
/// plan (`j` joined last with `method`).
#[derive(Debug, Clone, Copy)]
struct Entry {
    cost: f64,
    choice: Choice,
}

#[derive(Debug, Clone, Copy)]
enum Choice {
    Access(AccessMethod),
    Join { last: usize, method: JoinMethod },
}

/// Fills the depth-1 entries (best access path per relation) from the
/// precomputed tables.
fn seed_singletons(tabs: &QueryTables, n: usize, table: &mut [Option<Entry>]) {
    for i in 0..n {
        let (cost, method, _) = tabs.access(i);
        table[RelSet::single(i).bits() as usize] = Some(Entry {
            cost,
            choice: Choice::Access(method),
        });
    }
}

/// Prices every way of forming `set` by a last join and returns the best
/// entry, plus (at the full set, when an order is required) the best entry
/// whose final join is a sort-merge on the required key, plus the number of
/// candidate (subplan × access × join-method) combinations priced.
///
/// Iteration order is fixed — members of `set` ascending, then
/// [`JoinMethod::ALL`] — and the winner is kept under strict `<`.
// lec-lint: allow(panic-reachability) — DP induction: subsets are priced in rank order before supersets, and the candidate min covers at least the full scan
fn cost_mask<C: StepCoster>(
    tabs: &QueryTables,
    coster: &C,
    table: &[Option<Entry>],
    set: RelSet,
    full: RelSet,
    required: Option<KeyId>,
) -> (Entry, Option<Entry>, u64) {
    let out = tabs.pages(set);
    let phase = set.len() - 2;
    let mut best: Option<Entry> = None;
    let mut best_ordered: Option<Entry> = None;
    let mut candidates = 0u64;
    for j in set.iter() {
        let sub = set.remove(j);
        let left = table[sub.bits() as usize].expect("subset computed earlier");
        let (acc_cost, _, acc_out) = tabs.access(j);
        let key = tabs.join_key(sub, j);
        let join = JoinInputs {
            sub,
            j,
            set,
            left_pages: tabs.pages(sub),
            right_pages: acc_out,
            out_pages: out,
        };
        let costs = coster.join_all(phase, left.cost + acc_cost, join);
        for (method, cost) in JoinMethod::ALL.into_iter().zip(costs) {
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

/// Root handling: satisfy a required order either through the final join
/// or through an explicit sort, then reconstruct the winning plan.
fn finalize<C: StepCoster>(
    query: &JoinQuery,
    tabs: &QueryTables,
    coster: &C,
    table: &[Option<Entry>],
    best_ordered: Option<Entry>,
) -> Result<Optimized, CoreError> {
    let n = query.n();
    let full = query.all();
    let root = table[full.bits() as usize].ok_or(CoreError::NoPlanFound)?;

    let best = if query.required_order().is_some() {
        let sorted_cost = root.cost + coster.sort(n.saturating_sub(1), full, tabs.pages(full));
        match best_ordered {
            Some(ord) if ord.cost <= sorted_cost => Optimized {
                plan: reconstruct(tabs, table, full, Some(ord)),
                cost: ord.cost,
            },
            _ => {
                let inner = reconstruct(tabs, table, full, None);
                let key = query.required_order().expect("checked above"); // lec-lint: allow(panic-reachability) — this arm only runs when required_order().is_some() held above
                Optimized {
                    plan: Plan::sort(inner, key),
                    cost: sorted_cost,
                }
            }
        }
    } else {
        Optimized {
            plan: reconstruct(tabs, table, full, None),
            cost: root.cost,
        }
    };
    crate::verify::debug_verify_plan(query, &best.plan, best.cost);
    Ok(best)
}

/// Runs the left-deep dynamic program with the given step coster against
/// caller-built [`QueryTables`] (batch drivers build them once and share
/// them across algorithms), returning the winner and its search-space
/// [`OptStats`]. The subset sweep walks the lattice rank by rank (every
/// subset still precedes its supersets, so DP order is preserved and
/// results are bit-identical to a flat numeric sweep) so per-rank wall
/// time can be recorded; counters accumulate in mask order.
pub fn optimize_left_deep<C: StepCoster>(
    query: &JoinQuery,
    tabs: &QueryTables,
    coster: &C,
    options: DpOptions,
) -> Result<(Optimized, OptStats), CoreError> {
    let n = query.n();
    let full = query.all();
    let mut table: Vec<Option<Entry>> = vec![None; (full.bits() + 1) as usize];
    seed_singletons(tabs, n, &mut table);

    // The best full-set plan whose final join is a sort-merge on the
    // required key (satisfies the ORDER BY for free).
    let required = if options.ignore_orders {
        None
    } else {
        query.required_order()
    };
    let mut best_ordered: Option<Entry> = None;

    let mut stats = OptStats::new("dp", n);
    stats.precompute = tabs.sizes();
    stats.counters.entries_written = n as u64; // depth-1 seeds

    // Depths 2..n: each rank lists its masks in increasing numeric order.
    let ranks = par::ranks(n);
    for rank in &ranks[1..] {
        let ((), elapsed) = par::timed(|| {
            for &set in rank {
                let (best, ordered, candidates) =
                    cost_mask(tabs, coster, &table, set, full, required);
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

    let best = finalize(query, tabs, coster, &table, best_ordered)?;
    Ok((best, stats))
}

/// Rebuilds the plan tree from backpointers; `override_root` substitutes a
/// different final-join choice (the ordered alternative).
// lec-lint: allow(panic-reachability) — reconstruction only walks entries the forward pass has filled; singletons decompose to their only relation
fn reconstruct(
    tabs: &QueryTables,
    table: &[Option<Entry>],
    set: RelSet,
    override_root: Option<Entry>,
) -> Plan {
    let entry = override_root.unwrap_or_else(|| table[set.bits() as usize].expect("entry exists"));
    match entry.choice {
        Choice::Access(method) => {
            let rel = set.iter().next().expect("singleton");
            Plan::Access { rel, method }
        }
        Choice::Join { last, method } => {
            let sub = set.remove(last);
            let left = reconstruct(tabs, table, sub, None);
            let (_, access, _) = tabs.access(last);
            let key = tabs.join_key(sub, last);
            Plan::join(
                left,
                Plan::Access {
                    rel: last,
                    method: access,
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
    use crate::evaluate::plan_cost_at;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};

    fn chain_query(n: usize) -> JoinQuery {
        let relations = (0..n)
            .map(|i| Relation::new(format!("r{i}"), 100.0 * (i + 1) as f64, 1000.0))
            .collect();
        let predicates = (0..n - 1)
            .map(|i| JoinPred {
                left: i,
                right: i + 1,
                selectivity: 0.001,
                key: KeyId(i),
            })
            .collect();
        JoinQuery::new(relations, predicates, None).unwrap()
    }

    fn run<C: StepCoster>(q: &JoinQuery, coster: &C, options: DpOptions) -> (Optimized, OptStats) {
        optimize_left_deep(q, &QueryTables::new(q), coster, options).unwrap()
    }

    #[test]
    fn dp_cost_matches_evaluator() {
        let q = chain_query(4);
        let model = PaperCostModel;
        for memory in [5.0, 50.0, 500.0] {
            let coster = FixedMemoryCoster::new(&model, memory);
            let (opt, _) = run(&q, &coster, DpOptions::default());
            let evaluated = plan_cost_at(&q, &model, &opt.plan, memory);
            assert!(
                (opt.cost - evaluated).abs() < 1e-6 * evaluated.max(1.0),
                "DP says {}, evaluator says {evaluated}",
                opt.cost
            );
            assert!(opt.plan.is_left_deep());
            opt.plan.validate(&q).unwrap();
        }
    }

    #[test]
    fn single_relation_query() {
        let q = JoinQuery::new(vec![Relation::new("only", 50.0, 500.0)], vec![], None).unwrap();
        let model = PaperCostModel;
        let coster = FixedMemoryCoster::new(&model, 100.0);
        let (opt, _) = run(&q, &coster, DpOptions::default());
        assert_eq!(opt.plan, Plan::scan(0));
        assert_eq!(opt.cost, 0.0);
    }

    #[test]
    fn order_requirement_adds_sort_or_picks_sort_merge() {
        let q = JoinQuery::new(
            vec![
                Relation::new("a", 1000.0, 1e4),
                Relation::new("b", 800.0, 8e3),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 1e-4,
                key: KeyId(0),
            }],
            Some(KeyId(0)),
        )
        .unwrap();
        let model = PaperCostModel;
        let coster = FixedMemoryCoster::new(&model, 50.0);
        let (opt, _) = run(&q, &coster, DpOptions::default());
        // Whatever the winner, it must produce the required order.
        assert_eq!(opt.plan.output_order(), Some(KeyId(0)));
    }

    #[test]
    fn stats_count_the_lattice() {
        let q = chain_query(5);
        let model = PaperCostModel;
        let coster = FixedMemoryCoster::new(&model, 50.0);
        let (_, stats) = run(&q, &coster, DpOptions::default());

        // 2^5 - 1 subsets, minus 5 singletons, all expanded.
        assert_eq!(stats.counters.masks_expanded, 26);
        // Each mask prices |set| × |JoinMethod::ALL| combinations:
        // 3 · Σ_{k=2..5} k·C(5,k) = 3 · 75.
        assert_eq!(stats.counters.candidates_priced, 225);
        assert_eq!(stats.counters.entries_written, 5 + 26);
        assert_eq!(stats.precompute.access_entries, 5);
        assert_eq!(stats.precompute.pages_entries, 1 << 5);
        assert_eq!(stats.precompute.adjacency_entries, 8);
        assert_eq!(stats.rank_wall_ns.len(), 4); // ranks 2..=5
        assert!(stats.counters.frontier_per_rank.is_empty());
    }

    #[test]
    fn ignore_orders_ablation_always_sorts() {
        let q = JoinQuery::new(
            vec![
                Relation::new("a", 1000.0, 1e4),
                Relation::new("b", 800.0, 8e3),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 1e-4,
                key: KeyId(0),
            }],
            Some(KeyId(0)),
        )
        .unwrap();
        let model = PaperCostModel;
        let coster = FixedMemoryCoster::new(&model, 50.0);
        let (opt, _) = run(
            &q,
            &coster,
            DpOptions {
                ignore_orders: true,
            },
        );
        assert!(matches!(opt.plan, Plan::Sort { .. }));
    }
}
