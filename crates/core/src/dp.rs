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
//!
//! ### Bounding the search
//!
//! On chain, star and cycle graphs most subsets are cross products whose
//! result sizes make every plan through them hopeless. The sweep bounds
//! them out exactly instead of banning them (DeHaan & Tompa's
//! accumulated-cost bounding, with a DPccp-style incumbent found first):
//!
//! * **Incumbent.** Once every pair is priced, one complete plan is priced
//!   greedily — the cheapest pair, then repeatedly the cheapest next step —
//!   with the same [`StepCoster`] and base-add association, plus the root
//!   handling (sort, or an ordered final sort-merge). Its cost is `U`. The
//!   sweep reuses these priced steps wherever it prices the same candidate
//!   from the same base.
//! * **Lower bound.** For a subset `S` missing `k` relations, `LB(S)` is
//!   `best(S)`, plus the access cost of every relation outside `S`, plus
//!   `k − 1` floors of a step forming a result of at least one page, plus
//!   the floor of the last step, which forms the full set's `pages(full)`
//!   ([`StepCoster::join_floor`]). Every join step is its non-negative
//!   formula plus its output pages (`evaluate::join_step`), every result
//!   has at least one page, and a root sort costs at least zero, so every
//!   complete plan through `S` costs at least `LB(S)`.
//! * **Pruning.** A subset with `LB(S) > U · (1 + PRUNE_MARGIN)` keeps no
//!   entry. Before pricing `S`, the same test runs with `min over live
//!   subsets (best(sub) + access(j))` plus the floor of the step forming
//!   `S` in place of `best(S)`, so hopeless subsets are never priced; only
//!   candidates whose left input is live are priced. Each rank visits only
//!   the one-relation extensions of the rank below's live subsets, so a
//!   subset with no live input is pruned without being visited. The full
//!   set is never pruned. Every test is a `>` comparison, so NaN or an
//!   infinite `U` prunes nothing.
//!
//! **The winner's prefixes are never pruned**, by induction on rank. Let
//! the unbounded sweep's winner (the plan `finalize` returns, root
//! handling included) cost `W`, with prefixes `P₂ ⊂ … ⊂ Pₙ`. Suppose every
//! prefix below rank `k` is live with the unbounded sweep's entry. The
//! unbounded first minimum at `P_k` is a candidate through `P_{k−1}`, so the
//! bounded sweep prices it from the same entry and gets the same bits;
//! every other candidate it prices is built from an entry no cheaper than
//! its unbounded counterpart (steps are non-decreasing in the base), and
//! candidates through pruned subsets are skipped, so under strict-`<`
//! first-minimum `P_k` gets the same entry. Its bound satisfies
//! `LB(P_k) ≤ W ≤ U` in real arithmetic: `W` is one completion through
//! `P_k`, and the incumbent is a plan whose every step the unbounded sweep
//! prices from an entry at least as cheap. The floating-point bound can
//! exceed that real sum only by rounding — its summation order differs
//! from the DP's, and memory probabilities sum to one only up to rounding,
//! which shaves the `out · Σp` term of an expected step — and
//! `PRUNE_MARGIN` (a relative 1e-9) absorbs it, so `P_k` survives. At the
//! root the sorted alternative is computed from the same root entry; the
//! ordered alternative is the same candidate when it wins, and can only be
//! costlier when it loses. Plans and costs are therefore bit-identical to
//! the unbounded sweep; `crates/core/tests/bounded_dp_differential.rs`
//! checks this against a verbatim copy of it.

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

    /// A floor under every join step forming a result of at least
    /// `out_pages` pages: each entry of [`join_all`](Self::join_all) is at
    /// least `base + join_floor(join.out_pages)`, up to rounding within
    /// the DP's relative pruning margin. It must be non-negative and
    /// non-decreasing in `out_pages`. The default `0.0` is sound for any
    /// coster whose steps are non-negative.
    fn join_floor(&self, _out_pages: f64) -> f64 {
        0.0
    }
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

    /// A step is its non-negative join formula plus `out_pages`.
    fn join_floor(&self, out_pages: f64) -> f64 {
        out_pages
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

    /// A step is `Σ (formula + out_pages) · p` with non-negative formulas
    /// and probabilities summing to one up to rounding.
    fn join_floor(&self, out_pages: f64) -> f64 {
        out_pages
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

/// Relative slack on the incumbent's cost. A subset is pruned only when
/// its lower bound exceeds `U · (1 + PRUNE_MARGIN)`, which absorbs the
/// few-ulp differences between the bound's summation order and the DP's,
/// and memory probabilities that sum to one only up to rounding.
const PRUNE_MARGIN: f64 = 1e-9;

/// One step of the incumbent: the prefix it extended and, per relation `j`
/// joined onto it (indexed by `j`), the base and the three priced costs.
type IncumbentStep = (RelSet, Vec<Option<(f64, [f64; 3])>>);

/// The search bound: the incumbent's cost with its margin, the floor of
/// the steps that complete a plan from a subset, and the incumbent's
/// priced steps, which the sweep reuses instead of pricing them twice.
struct Bound {
    /// A subset whose lower bound exceeds this is pruned: `U · (1 +
    /// PRUNE_MARGIN)` once the incumbent is priced, `+∞` before. `∞` or
    /// NaN prunes nothing.
    limit: f64,
    /// `tail[k]`: floor of the `k` join steps that complete a plan from a
    /// subset missing `k` relations: `k − 1` steps forming results of at
    /// least one page, then the step forming the full set.
    tail: Vec<f64>,
    full: RelSet,
    /// The incumbent's steps, by prefix size − 2.
    steps: Vec<IncumbentStep>,
}

impl Bound {
    fn new<C: StepCoster>(tabs: &QueryTables, coster: &C, full: RelSet) -> Self {
        let step = coster.join_floor(1.0);
        let mut tail = vec![0.0];
        let mut floor = coster.join_floor(tabs.pages(full));
        for _ in 0..full.len() {
            tail.push(floor);
            floor += step;
        }
        Bound {
            limit: f64::INFINITY,
            tail,
            full,
            steps: Vec::new(),
        }
    }

    /// Floor of completing a plan from `set`: the access cost of every
    /// relation outside it plus the floors of the remaining join steps.
    /// `None` when nothing can be pruned (no finite incumbent yet, or `set`
    /// is the full set, whose best entry is the answer).
    fn completion(&self, tabs: &QueryTables, set: RelSet) -> Option<f64> {
        if !self.limit.is_finite() || set == self.full {
            return None;
        }
        let outside = RelSet::from_bits(self.full.bits() & !set.bits());
        let mut floor = self.tail[outside.len()];
        for j in outside.iter() {
            floor += tabs.access(j).0;
        }
        Some(floor)
    }

    /// True when `lower + completion` exceeds the limit.
    fn prunes(&self, lower: f64, completion: Option<f64>) -> bool {
        completion.is_some_and(|rest| lower + rest > self.limit)
    }

    /// The incumbent step that formed `set`, if any: the relation it
    /// joined last, its base and its costs.
    fn priced(&self, set: RelSet) -> Option<(usize, f64, [f64; 3])> {
        let (prefix, joins) = self.steps.get(set.len().checked_sub(3)?)?;
        if !prefix.is_subset_of(set) {
            return None;
        }
        let j = RelSet::from_bits(set.bits() & !prefix.bits())
            .iter()
            .next()?;
        let (base, costs) = (*joins.get(j)?)?;
        Some((j, base, costs))
    }
}

/// Prices every way of forming `set` by a last join from a live subset and
/// returns the best entry (`None` when `set` is pruned), plus (at the full
/// set, when an order is required) the best entry whose final join is a
/// sort-merge on the required key, plus the number of candidate (subplan ×
/// access × join-method) combinations priced.
///
/// Before pricing, `set` is pruned when even its cheapest live input plus
/// the floor of the join forming it cannot beat the incumbent; after
/// pricing, when its best entry cannot. A candidate the incumbent already
/// priced from the same base is reused, not priced again. Iteration order
/// is fixed — members of `set` ascending, then [`JoinMethod::ALL`] — and
/// the winner is kept under strict `<`.
fn cost_mask<C: StepCoster>(
    tabs: &QueryTables,
    coster: &C,
    table: &[Option<Entry>],
    set: RelSet,
    bound: &Bound,
    required: Option<KeyId>,
    live: &mut [(usize, f64)],
) -> (Option<Entry>, Option<Entry>, u64) {
    // The live inputs: each `j` whose remainder `set \ {j}` kept an entry,
    // with the candidate's base (that entry's cost plus `j`'s access
    // cost). Liveness follows no pattern a branch predictor could learn,
    // so it is collected without branching on it; a NaN base is sticky in
    // `cheapest`, so it never prunes.
    let mut count = 0;
    let mut cheapest = f64::INFINITY;
    for j in set.iter() {
        let left = table[set.remove(j).bits() as usize];
        let base = left.map_or(f64::INFINITY, |e| e.cost) + tabs.access(j).0;
        live[count] = (j, base);
        count += usize::from(left.is_some());
        cheapest = if base < cheapest || base.is_nan() {
            base
        } else {
            cheapest
        };
    }
    let out = tabs.pages(set);
    let rest = bound.completion(tabs, set);
    if bound.prunes(cheapest + coster.join_floor(out), rest) {
        return (None, None, 0);
    }
    let reuse = bound.priced(set);
    let phase = set.len() - 2;
    let mut best: Option<Entry> = None;
    let mut best_ordered: Option<Entry> = None;
    let mut candidates = 0u64;
    for &(j, base) in &live[..count] {
        let sub = set.remove(j);
        let costs = match reuse {
            Some((rj, rbase, costs)) if rj == j && rbase.to_bits() == base.to_bits() => costs,
            _ => {
                let join = JoinInputs {
                    sub,
                    j,
                    set,
                    left_pages: tabs.pages(sub),
                    right_pages: tabs.access(j).2,
                    out_pages: out,
                };
                let costs = coster.join_all(phase, base, join);
                candidates += costs.len() as u64;
                costs
            }
        };
        let key = tabs.join_key(sub, j);
        for (method, cost) in JoinMethod::ALL.into_iter().zip(costs) {
            let entry = Entry {
                cost,
                choice: Choice::Join { last: j, method },
            };
            if best.is_none_or(|b| cost < b.cost) {
                best = Some(entry);
            }
            if set == bound.full
                && method == JoinMethod::SortMerge
                && required.is_some()
                && key == required
                && best_ordered.is_none_or(|b| cost < b.cost)
            {
                best_ordered = Some(entry);
            }
        }
    }
    if best.is_some_and(|b| bound.prunes(b.cost, rest)) {
        return (None, None, candidates);
    }
    (best, best_ordered, candidates)
}

/// Prices one complete left-deep plan greedily — the cheapest pair (the
/// cheapest rank-2 entry), then repeatedly the cheapest next step — with
/// the DP's own step coster and association, plus the root handling
/// [`finalize`] would apply to it. Records its cost `U` (NaN when there is
/// no pair) and its priced steps in `bound`, and returns the candidates
/// priced. The DP's optimum can only be cheaper: every entry on this
/// plan's path is a candidate the sweep prices from an entry at least as
/// cheap.
fn incumbent<C: StepCoster>(
    query: &JoinQuery,
    tabs: &QueryTables,
    coster: &C,
    table: &[Option<Entry>],
    pairs: &[RelSet],
    required: Option<KeyId>,
    bound: &mut Bound,
) -> u64 {
    let full = query.all();
    let mut cheapest: Option<(f64, RelSet)> = None;
    for &pair in pairs {
        if let Some(e) = table[pair.bits() as usize] {
            if cheapest.is_none_or(|(c, _)| e.cost < c) {
                cheapest = Some((e.cost, pair));
            }
        }
    }
    let Some((mut cost, mut set)) = cheapest else {
        bound.limit = f64::NAN;
        return 0;
    };
    let mut candidates = 0u64;
    let mut ordered = None;
    while set != full {
        let mut joins = vec![None; query.n()];
        let mut next: Option<(f64, RelSet)> = None;
        for j in RelSet::from_bits(full.bits() & !set.bits()).iter() {
            let grown = set.insert(j);
            let (acc_cost, _, acc_out) = tabs.access(j);
            let base = cost + acc_cost;
            let join = JoinInputs {
                sub: set,
                j,
                set: grown,
                left_pages: tabs.pages(set),
                right_pages: acc_out,
                out_pages: tabs.pages(grown),
            };
            let costs = coster.join_all(grown.len() - 2, base, join);
            candidates += costs.len() as u64;
            joins[j] = Some((base, costs));
            for c in costs {
                if next.is_none_or(|(b, _)| c < b) {
                    next = Some((c, grown));
                }
            }
            if grown == full && required.is_some() && tabs.join_key(set, j) == required {
                ordered = JoinMethod::ALL
                    .into_iter()
                    .zip(costs)
                    .find_map(|(method, c)| (method == JoinMethod::SortMerge).then_some(c));
            }
        }
        bound.steps.push((set, joins));
        let Some(step) = next else {
            bound.limit = f64::NAN;
            return candidates;
        };
        (cost, set) = step;
    }
    if query.required_order().is_some() {
        let sorted = cost + coster.sort(query.n() - 1, full, tabs.pages(full));
        cost = match ordered {
            Some(o) if o <= sorted => o,
            _ => sorted,
        };
    }
    bound.limit = cost * (1.0 + PRUNE_MARGIN);
    candidates
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

/// Runs the bounded left-deep dynamic program with the given step coster
/// against caller-built [`QueryTables`] (batch drivers build them once and
/// share them across algorithms), returning the winner and its
/// search-space [`OptStats`].
///
/// The subset sweep walks the lattice rank by rank (every subset still
/// precedes its supersets, so DP order is preserved) so per-rank wall time
/// can be recorded. Once the pairs are priced, a greedy incumbent plan sets
/// the bound, and every later subset whose lower bound exceeds it is
/// pruned (see the module docs); the winner, its cost and its plan are
/// those of the unbounded sweep. Counters are sums over the lattice, so
/// they do not depend on the visiting order within a rank;
/// `masks_expanded + masks_pruned` is always `2ⁿ − n − 1`.
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
    let mut bound = Bound::new(tabs, coster, full);
    let mut live = vec![(0, 0.0); n];

    let mut stats = OptStats::new("dp", n);
    stats.precompute = tabs.sizes();
    stats.counters.entries_written = n as u64; // depth-1 seeds

    // Rank by rank, visit only the one-relation extensions of the live
    // masks one rank down: a subset with no live input has nothing to price
    // and is pruned unvisited. A mask's entry depends only on the rank
    // below, so the visiting order within a rank changes nothing.
    let mut frontier: Vec<RelSet> = (0..n).map(RelSet::single).collect();
    let mut queued = vec![false; table.len()];
    let mut rank_size = n as u64; // C(n, size), starting at size 1
    for size in 2..=n {
        rank_size = rank_size * (n + 1 - size) as u64 / size as u64;
        let ((), elapsed) = par::timed(|| {
            let mut rank = Vec::new();
            for &sub in &frontier {
                for j in RelSet::from_bits(full.bits() & !sub.bits()).iter() {
                    let set = sub.insert(j);
                    if !std::mem::replace(&mut queued[set.bits() as usize], true) {
                        rank.push(set);
                    }
                }
            }
            for &set in &rank {
                let (best, ordered, candidates) =
                    cost_mask(tabs, coster, &table, set, &bound, required, &mut live);
                table[set.bits() as usize] = best;
                if let Some(ord) = ordered {
                    best_ordered = Some(ord);
                }
                stats.counters.candidates_priced += candidates;
            }
            if size == 2 && n > 2 {
                // The pairs are priced: seed the bound from the incumbent
                // and drop the pairs it already rules out.
                stats.counters.candidates_priced +=
                    incumbent(query, tabs, coster, &table, &rank, required, &mut bound);
                for &pair in &rank {
                    let slot = &mut table[pair.bits() as usize];
                    if slot.is_some_and(|e| bound.prunes(e.cost, bound.completion(tabs, pair))) {
                        *slot = None;
                    }
                }
            }
            rank.retain(|s| table[s.bits() as usize].is_some());
            let kept = rank.len() as u64;
            stats.counters.masks_expanded += kept;
            stats.counters.entries_written += kept;
            stats.counters.masks_pruned += rank_size - kept;
            frontier = rank;
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

        // 2^5 - 1 subsets, minus 5 singletons, each expanded or pruned;
        // one entry per seed and per expanded mask.
        let c = &stats.counters;
        assert_eq!(c.masks_expanded + c.masks_pruned, 26);
        assert_eq!(c.entries_written, 5 + c.masks_expanded);
        // The chain's cross products are bounded out, so fewer candidates
        // are priced than the unbounded sweep's |set| × |JoinMethod::ALL|
        // per mask, 3 · Σ_{k=2..5} k·C(5,k) = 3 · 75, incumbent included.
        assert!(c.masks_pruned > 0);
        assert!(c.candidates_priced < 225);
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
