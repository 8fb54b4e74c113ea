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
//! [`optimize_left_deep`] is the one lattice loop. A [`SweepCoster`]
//! prices one or several *scenarios* per candidate: every [`StepCoster`]
//! is the one-scenario case, and parametric precompute prices all of its
//! memory scenarios in one sweep. Each subset keeps one entry per
//! scenario, and each scenario gets its own winner.
//!
//! ### Interesting orders
//!
//! Only a final sort-merge join on the required key can satisfy an ORDER BY
//! without an explicit sort (no other operator produces or preserves
//! order in our model, and the paper's SM formula takes no discount for
//! pre-sorted inputs). The DP therefore keeps one best entry per subset
//! (and scenario) and additionally tracks, at the full set, the best plan
//! whose *final* join is a sort-merge on the required key; the root then
//! compares that against best-unordered-plus-sort.
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
//!
//! ### Several scenarios in one sweep
//!
//! With several scenarios every live subset keeps one entry per scenario,
//! and each candidate is priced once for all of them. The completion floor
//! (access costs plus [`SweepCoster::step_floor`]) does not depend on the
//! scenario and is shared; each scenario has its own greedy incumbent, its
//! own `U` and its own test. Liveness is shared: a subset is dropped only
//! when *every* scenario's test prunes it, and while any keeps it, every
//! scenario prices it from all live inputs.
//!
//! **Each scenario's winner is still exact.** The induction above never
//! uses how many subsets are live, only two facts about the live set:
//! every entry is built from candidates of the unbounded sweep, so no
//! entry is cheaper than its unbounded counterpart, and the prefixes of
//! the unbounded winner stay live. Fix a scenario `s`. Its entries are
//! built from its own step costs over live inputs, so the first fact
//! holds for them. Its winner's prefix `P_k` passes `s`'s own test by the
//! argument above, and a subset is dropped only when every scenario's test
//! prunes it, so `P_k` stays live. Its plan and cost bits are therefore
//! those of its own unbounded sweep — those of a stand-alone run. (By the
//! same induction on rank, each scenario's live set contains the set its
//! own bounded sweep keeps: more live inputs only lower its entries and
//! its bounds.) `crates/core/tests/parametric_differential.rs` checks this
//! against a verbatim copy of the per-scenario loop the shared sweep
//! replaced.

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

/// What one lattice sweep prices: every live subset keeps one entry per
/// *scenario*. Every [`StepCoster`] is the one-scenario case (a blanket
/// impl); a coster over several memory scenarios prices each candidate once
/// for all of them (parametric precompute), and the sweep returns one
/// winner per scenario.
pub trait SweepCoster {
    /// What the sweep returns: the single winner of a [`StepCoster`], or
    /// the per-scenario winners.
    type Output;

    /// Number of scenarios priced per candidate (at least one).
    fn scenarios(&self) -> usize;

    /// Prices `join` for every scenario: `out[s]` receives scenario `s`'s
    /// costs, one per method in [`JoinMethod::ALL`] order, each the base
    /// `bases[s]` plus the step, as [`StepCoster::join_all`] adds them.
    fn join_each(&self, phase: usize, bases: &[f64], join: JoinInputs, out: &mut [[f64; 3]]);

    /// Prices `join` for scenario `s` alone, bit-identical to that
    /// scenario's entry of [`join_each`](Self::join_each). The incumbents'
    /// greedy walks use it.
    fn join_one(&self, phase: usize, s: usize, base: f64, join: JoinInputs) -> [f64; 3];

    /// Scenario `s`'s final sort, as [`StepCoster::sort`].
    fn sort_one(&self, phase: usize, s: usize, set: RelSet, pages: f64) -> f64;

    /// A floor under every scenario's join step, as
    /// [`StepCoster::join_floor`]. Shared by all scenarios.
    fn step_floor(&self, out_pages: f64) -> f64;

    /// Packages the winners, in scenario order.
    fn output(winners: Vec<Optimized>) -> Result<Self::Output, CoreError>;
}

impl<C: StepCoster> SweepCoster for C {
    type Output = Optimized;

    fn scenarios(&self) -> usize {
        1
    }

    fn join_each(&self, phase: usize, bases: &[f64], join: JoinInputs, out: &mut [[f64; 3]]) {
        if let (Some(&base), Some(slot)) = (bases.first(), out.first_mut()) {
            *slot = self.join_all(phase, base, join);
        }
    }

    fn join_one(&self, phase: usize, _s: usize, base: f64, join: JoinInputs) -> [f64; 3] {
        self.join_all(phase, base, join)
    }

    fn sort_one(&self, phase: usize, _s: usize, set: RelSet, pages: f64) -> f64 {
        self.sort(phase, set, pages)
    }

    fn step_floor(&self, out_pages: f64) -> f64 {
        self.join_floor(out_pages)
    }

    fn output(winners: Vec<Optimized>) -> Result<Optimized, CoreError> {
        winners.into_iter().next().ok_or(CoreError::NoPlanFound)
    }
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

/// The DP table: a row of one entry per scenario for every subset. A row
/// is all present (the subset is live) or all absent (pruned or not
/// reached).
struct Table {
    /// Scenarios per row.
    k: usize,
    slots: Vec<Option<Entry>>,
}

impl Table {
    fn new(full: RelSet, k: usize) -> Self {
        Table {
            k,
            slots: vec![None; (full.bits() as usize + 1) * k],
        }
    }

    /// `set`'s row; `k` is the table's scenario count, passed in so the
    /// hot loop can use the coster's compile-time count.
    fn row(&self, set: RelSet, k: usize) -> &[Option<Entry>] {
        let start = set.bits() as usize * k;
        self.slots.get(start..start + k).unwrap_or_default()
    }

    fn row_mut(&mut self, set: RelSet) -> &mut [Option<Entry>] {
        let start = set.bits() as usize * self.k;
        self.slots
            .get_mut(start..start + self.k)
            .unwrap_or_default()
    }

    fn live(&self, set: RelSet) -> bool {
        self.row(set, self.k).first().is_some_and(Option::is_some)
    }

    fn entry(&self, set: RelSet, s: usize) -> Option<Entry> {
        self.row(set, self.k).get(s).copied().flatten()
    }
}

/// Fills the depth-1 rows (best access path per relation) from the
/// precomputed tables.
fn seed_singletons(tabs: &QueryTables, n: usize, table: &mut Table) {
    for i in 0..n {
        let (cost, method, _) = tabs.access(i);
        table.row_mut(RelSet::single(i)).fill(Some(Entry {
            cost,
            choice: Choice::Access(method),
        }));
    }
}

/// Relative slack on the incumbent's cost. A subset is pruned only when
/// its lower bound exceeds `U · (1 + PRUNE_MARGIN)`, which absorbs the
/// few-ulp differences between the bound's summation order and the DP's,
/// and memory probabilities that sum to one only up to rounding.
const PRUNE_MARGIN: f64 = 1e-9;

/// One step of an incumbent: the prefix it extended and, per relation `j`
/// joined onto it (indexed by `j`), the base and the three priced costs.
type IncumbentStep = (RelSet, Vec<Option<(f64, [f64; 3])>>);

/// A priced incumbent step a candidate may reuse: the relation it joined
/// last, its base and its costs.
type Reuse = Option<(usize, f64, [f64; 3])>;

/// The search bound: each scenario's incumbent cost with its margin and
/// its priced steps, which the sweep reuses instead of pricing them twice,
/// plus the floor of the steps that complete a plan from a subset, which
/// no scenario changes.
struct Bound {
    /// Per scenario: a subset whose lower bound exceeds this is pruned for
    /// that scenario: `U · (1 + PRUNE_MARGIN)` once its incumbent is
    /// priced, `+∞` before. `∞` or NaN prunes nothing.
    limits: Vec<f64>,
    /// Whether any limit is finite, so a subset can be pruned at all.
    active: bool,
    /// `tail[k]`: floor of the `k` join steps that complete a plan from a
    /// subset missing `k` relations: `k − 1` steps forming results of at
    /// least one page, then the step forming the full set.
    tail: Vec<f64>,
    full: RelSet,
    /// Per scenario, its incumbent's steps by prefix size − 2.
    steps: Vec<Vec<IncumbentStep>>,
}

impl Bound {
    fn new<C: SweepCoster>(tabs: &QueryTables, coster: &C, full: RelSet, k: usize) -> Self {
        let step = coster.step_floor(1.0);
        let mut tail = vec![0.0];
        let mut floor = coster.step_floor(tabs.pages(full));
        for _ in 0..full.len() {
            tail.push(floor);
            floor += step;
        }
        Bound {
            limits: vec![f64::INFINITY; k],
            active: false,
            tail,
            full,
            steps: vec![Vec::new(); k],
        }
    }

    /// Records scenario `s`'s incumbent: its limit and its priced steps.
    fn seed(&mut self, s: usize, limit: f64, steps: Vec<IncumbentStep>) {
        if let (Some(l), Some(st)) = (self.limits.get_mut(s), self.steps.get_mut(s)) {
            (*l, *st) = (limit, steps);
        }
        self.active = self.limits.iter().any(|l| l.is_finite());
    }

    /// Floor of completing a plan from `set`: the access cost of every
    /// relation outside it plus the floors of the remaining join steps.
    /// `None` when nothing can be pruned (no finite incumbent yet, or `set`
    /// is the full set, whose best entries are the answers).
    fn completion(&self, tabs: &QueryTables, set: RelSet) -> Option<f64> {
        if !self.active || set == self.full {
            return None;
        }
        let outside = RelSet::from_bits(self.full.bits() & !set.bits());
        let mut floor = self.tail.get(outside.len()).copied()?;
        for j in outside.iter() {
            floor += tabs.access(j).0;
        }
        Some(floor)
    }

    /// True when scenario `s`'s lower bound `lower` plus `completion`
    /// exceeds its limit. A subset stays live while any scenario's test
    /// keeps it. A NaN bound prunes nothing.
    fn prunes(&self, s: usize, lower: f64, completion: Option<f64>) -> bool {
        completion.is_some_and(|rest| {
            self.limits
                .get(s)
                .is_some_and(|&limit| lower + rest > limit)
        })
    }

    /// Scenario `s`'s incumbent step that formed `set`, if any.
    fn priced(&self, s: usize, set: RelSet) -> Reuse {
        let (prefix, joins) = self.steps.get(s)?.get(set.len().checked_sub(3)?)?;
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

/// Per-mask working buffers of the sweep, allocated once per run.
struct Scratch {
    /// The live inputs of the mask being priced: each `j` whose remainder
    /// `set \ {j}` is live.
    live: Vec<usize>,
    /// Their bases, `k` per live input: the remainder's entry cost plus
    /// `j`'s access cost, per scenario.
    bases: Vec<f64>,
    /// Their priced costs, `k` per live input.
    costs: Vec<[f64; 3]>,
    /// Per scenario, the incumbent step forming the mask.
    reuse: Vec<Reuse>,
    /// Per scenario, the mask's best entry.
    best: Vec<Option<Entry>>,
    /// Per scenario, the mask's best ordered entry (full set only).
    ordered: Vec<Option<Entry>>,
}

impl Scratch {
    fn new(n: usize, k: usize) -> Self {
        Scratch {
            live: vec![0; n],
            bases: vec![0.0; n * k],
            costs: vec![[0.0; 3]; n * k],
            reuse: vec![None; k],
            best: vec![None; k],
            ordered: vec![None; k],
        }
    }
}

/// Prices every way of forming `set` by a last join from a live subset,
/// leaving each scenario's best entry in `sc.best` (and, at the full set
/// when an order is required, its best entry whose final join is a
/// sort-merge on the required key in `sc.ordered`). Returns whether `set`
/// stays live and the number of candidate (subplan × access × join-method)
/// combinations priced, counted once however many scenarios share them.
///
/// Before pricing, `set` is pruned when for every scenario even its
/// cheapest live input plus the floor of the join forming it cannot beat
/// that scenario's incumbent; after pricing, when no scenario's best entry
/// can. A candidate every scenario's incumbent already priced from the
/// same bases is reused, not priced again. Iteration order is fixed —
/// members of `set` ascending, then [`JoinMethod::ALL`] — and each
/// scenario keeps its winner under strict `<`. Candidates are priced for
/// all scenarios first and each scenario then picks its winner in a pass
/// of its own, so the per-scenario loops run over candidates, not inside
/// them.
fn cost_mask<C: SweepCoster>(
    tabs: &QueryTables,
    coster: &C,
    table: &Table,
    set: RelSet,
    bound: &Bound,
    required: Option<KeyId>,
    sc: &mut Scratch,
) -> (bool, u64) {
    // The scenario count comes from the coster, not the table, so a
    // one-scenario coster compiles to straight-line code.
    let k = coster.scenarios();
    let Scratch {
        live,
        bases,
        costs,
        reuse,
        best,
        ordered,
    } = sc;
    // Liveness follows no pattern a branch predictor could learn, so the
    // live inputs are collected without branching on it: a dead input's
    // slot is overwritten.
    let mut count = 0;
    for j in set.iter() {
        if let Some(slot) = live.get_mut(count) {
            *slot = j;
        }
        let left = table.row(set.remove(j), k);
        count += usize::from(left.first().is_some_and(Option::is_some));
    }
    let live = live.get(..count).unwrap_or_default();
    let out = tabs.pages(set);
    let rest = bound.completion(tabs, set);
    let floor = coster.step_floor(out);
    // Each scenario's bases and pre-pricing test. A NaN base is sticky in
    // `cheapest`, so it never prunes.
    let mut open = false;
    for s in 0..k {
        let mut cheapest = f64::INFINITY;
        for (i, &j) in live.iter().enumerate() {
            let entry = table.row(set.remove(j), k).get(s).copied().flatten();
            let base = entry.map_or(f64::INFINITY, |e| e.cost) + tabs.access(j).0;
            if let Some(slot) = bases.get_mut(i * k + s) {
                *slot = base;
            }
            cheapest = if base < cheapest || base.is_nan() {
                base
            } else {
                cheapest
            };
        }
        open |= !bound.prunes(s, cheapest + floor, rest);
    }
    if !open {
        return (false, 0);
    }
    for (s, reuse) in reuse.iter_mut().enumerate() {
        *reuse = bound.priced(s, set);
    }
    let phase = set.len() - 2;
    let mut candidates = 0u64;
    for (i, &j) in live.iter().enumerate() {
        let start = i * k;
        let (Some(bases), Some(costs)) =
            (bases.get(start..start + k), costs.get_mut(start..start + k))
        else {
            continue;
        };
        let reused = reuse.iter().zip(bases).all(|(reuse, base)| {
            reuse.is_some_and(|(rj, rbase, _)| rj == j && rbase.to_bits() == base.to_bits())
        });
        if reused {
            for (costs, (_, _, priced)) in costs.iter_mut().zip(reuse.iter().flatten()) {
                *costs = *priced;
            }
        } else {
            let sub = set.remove(j);
            let join = JoinInputs {
                sub,
                j,
                set,
                left_pages: tabs.pages(sub),
                right_pages: tabs.access(j).2,
                out_pages: out,
            };
            coster.join_each(phase, bases, join, costs);
            candidates += JoinMethod::ALL.len() as u64;
        }
    }
    let ordered_root = set == bound.full && required.is_some();
    let mut kept = false;
    for (s, (best, ordered)) in best.iter_mut().zip(ordered.iter_mut()).enumerate() {
        *best = None;
        *ordered = None;
        for (i, &j) in live.iter().enumerate() {
            let Some(costs) = costs.get(i * k + s) else {
                continue;
            };
            let ordered_join = ordered_root && tabs.join_key(set.remove(j), j) == required;
            for (method, &cost) in JoinMethod::ALL.into_iter().zip(costs) {
                let entry = Entry {
                    cost,
                    choice: Choice::Join { last: j, method },
                };
                if best.is_none_or(|b| cost < b.cost) {
                    *best = Some(entry);
                }
                if ordered_join
                    && method == JoinMethod::SortMerge
                    && ordered.is_none_or(|b| cost < b.cost)
                {
                    *ordered = Some(entry);
                }
            }
        }
        kept |= best.is_some_and(|b| !bound.prunes(s, b.cost, rest));
    }
    (kept, candidates)
}

/// Prices scenario `s`'s incumbent: one complete left-deep plan priced
/// greedily — the cheapest pair (the cheapest rank-2 entry), then
/// repeatedly the cheapest next step — with the DP's own step costs and
/// association, plus the root handling [`finalize`] would apply to it.
/// Returns its limit `U · (1 + PRUNE_MARGIN)` (NaN when there is no pair),
/// its priced steps and the candidates priced. The scenario's optimum can
/// only be cheaper: every entry on this plan's path is a candidate the
/// sweep prices from an entry at least as cheap.
fn incumbent<C: SweepCoster>(
    query: &JoinQuery,
    tabs: &QueryTables,
    coster: &C,
    table: &Table,
    pairs: &[RelSet],
    s: usize,
) -> (f64, Vec<IncumbentStep>, u64) {
    let required = query.required_order();
    let full = query.all();
    let mut cheapest: Option<(f64, RelSet)> = None;
    for &pair in pairs {
        if let Some(e) = table.entry(pair, s) {
            if cheapest.is_none_or(|(c, _)| e.cost < c) {
                cheapest = Some((e.cost, pair));
            }
        }
    }
    let Some((mut cost, mut set)) = cheapest else {
        return (f64::NAN, Vec::new(), 0);
    };
    let mut steps = Vec::new();
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
            let costs = coster.join_one(grown.len() - 2, s, base, join);
            candidates += costs.len() as u64;
            if let Some(slot) = joins.get_mut(j) {
                *slot = Some((base, costs));
            }
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
        steps.push((set, joins));
        let Some(step) = next else {
            return (f64::NAN, steps, candidates);
        };
        (cost, set) = step;
    }
    if query.required_order().is_some() {
        let sorted = cost + coster.sort_one(query.n() - 1, s, full, tabs.pages(full));
        cost = match ordered {
            Some(o) if o <= sorted => o,
            _ => sorted,
        };
    }
    (cost * (1.0 + PRUNE_MARGIN), steps, candidates)
}

/// Root handling for scenario `s`: satisfy a required order either through
/// the final join or through an explicit sort, then reconstruct the
/// winning plan. A winner whose cost is not finite and non-negative is a
/// typed error in every build.
fn finalize<C: SweepCoster>(
    query: &JoinQuery,
    tabs: &QueryTables,
    coster: &C,
    table: &Table,
    s: usize,
    best_ordered: Option<Entry>,
) -> Result<Optimized, CoreError> {
    let n = query.n();
    let full = query.all();
    let root = table.entry(full, s).ok_or(CoreError::NoPlanFound)?;

    let best = if let Some(key) = query.required_order() {
        let sorted_cost =
            root.cost + coster.sort_one(n.saturating_sub(1), s, full, tabs.pages(full));
        match best_ordered {
            Some(ord) if ord.cost <= sorted_cost => Optimized {
                plan: reconstruct(tabs, table, s, full, Some(ord)),
                cost: ord.cost,
            },
            _ => Optimized {
                plan: Plan::sort(reconstruct(tabs, table, s, full, None), key),
                cost: sorted_cost,
            },
        }
    } else {
        Optimized {
            plan: reconstruct(tabs, table, s, full, None),
            cost: root.cost,
        }
    };
    lec_plan::verify_costs("left-deep winner", &[best.cost])?;
    crate::verify::debug_verify_plan(query, &best.plan, best.cost);
    Ok(best)
}

/// Runs the bounded left-deep dynamic program with the given coster
/// against caller-built [`QueryTables`], returning the winner — one per
/// scenario for a multi-scenario [`SweepCoster`] — and its search-space
/// [`OptStats`]. This is the only left-deep lattice loop: LSC, Algorithm C
/// and Algorithm D run it with one scenario, parametric precompute with
/// all of its scenarios at once.
///
/// The subset sweep walks the lattice rank by rank (every subset still
/// precedes its supersets, so DP order is preserved) so per-rank wall time
/// can be recorded. Once the pairs are priced, each scenario's greedy
/// incumbent sets its bound, and every later subset that every scenario's
/// bound exceeds is pruned (see the module docs); each scenario's winner,
/// its cost and its plan are those of the unbounded sweep. A winner whose
/// cost is not finite is [`CoreError::Plan`]. Counters are sums over the
/// lattice, so they do not depend on the visiting order within a rank, and
/// count each candidate once however many scenarios share it;
/// `masks_expanded + masks_pruned` is always `2ⁿ − n − 1`.
pub fn optimize_left_deep<C: SweepCoster>(
    query: &JoinQuery,
    tabs: &QueryTables,
    coster: &C,
) -> Result<(C::Output, OptStats), CoreError> {
    let n = query.n();
    let k = coster.scenarios().max(1);
    let full = query.all();
    let mut table = Table::new(full, k);
    seed_singletons(tabs, n, &mut table);

    // Per scenario, the best full-set plan whose final join is a
    // sort-merge on the required key (satisfies the ORDER BY for free).
    let required = query.required_order();
    let mut best_ordered: Vec<Option<Entry>> = vec![None; k];
    let mut bound = Bound::new(tabs, coster, full, k);
    let mut sc = Scratch::new(n, k);

    let mut stats = OptStats::new("dp", n);
    stats.precompute = tabs.sizes();
    stats.counters.entries_written = n as u64; // depth-1 seeds

    // Rank by rank, visit only the one-relation extensions of the live
    // masks one rank down: a subset with no live input has nothing to price
    // and is pruned unvisited. A mask's entries depend only on the rank
    // below, so the visiting order within a rank changes nothing.
    let mut frontier: Vec<RelSet> = (0..n).map(RelSet::single).collect();
    let mut queued = vec![false; (full.bits() + 1) as usize];
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
                let (kept, candidates) =
                    cost_mask(tabs, coster, &table, set, &bound, required, &mut sc);
                if kept {
                    for (slot, best) in table.row_mut(set).iter_mut().zip(&sc.best) {
                        *slot = *best;
                    }
                    for (slot, ordered) in best_ordered.iter_mut().zip(&sc.ordered) {
                        if ordered.is_some() {
                            *slot = *ordered;
                        }
                    }
                }
                stats.counters.candidates_priced += candidates;
            }
            if size == 2 && n > 2 {
                // The pairs are priced: seed each scenario's bound from its
                // incumbent and drop the pairs every bound rules out.
                for s in 0..k {
                    let (limit, steps, candidates) =
                        incumbent(query, tabs, coster, &table, &rank, s);
                    bound.seed(s, limit, steps);
                    stats.counters.candidates_priced += candidates;
                }
                for &pair in &rank {
                    let rest = bound.completion(tabs, pair);
                    let row = table.row(pair, k);
                    let kept = row
                        .iter()
                        .enumerate()
                        .any(|(s, e)| e.is_some_and(|e| !bound.prunes(s, e.cost, rest)));
                    if !kept {
                        table.row_mut(pair).fill(None);
                    }
                }
            }
            rank.retain(|s| table.live(*s));
            let kept = rank.len() as u64;
            stats.counters.masks_expanded += kept;
            stats.counters.entries_written += kept;
            stats.counters.masks_pruned += rank_size - kept;
            frontier = rank;
        });
        stats.rank_wall_ns.push(elapsed);
    }

    let winners = best_ordered
        .iter()
        .enumerate()
        .map(|(s, &ordered)| finalize(query, tabs, coster, &table, s, ordered))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((C::output(winners)?, stats))
}

/// Rebuilds scenario `s`'s plan tree from backpointers; `override_root`
/// substitutes a different final-join choice (the ordered alternative).
// lec-lint: allow(panic-reachability) — reconstruction only walks entries the forward pass has filled; singletons decompose to their only relation
fn reconstruct(
    tabs: &QueryTables,
    table: &Table,
    s: usize,
    set: RelSet,
    override_root: Option<Entry>,
) -> Plan {
    let entry = override_root.unwrap_or_else(|| table.entry(set, s).expect("entry exists"));
    match entry.choice {
        Choice::Access(method) => {
            let rel = set.iter().next().expect("singleton");
            Plan::Access { rel, method }
        }
        Choice::Join { last, method } => {
            let sub = set.remove(last);
            let left = reconstruct(tabs, table, s, sub, None);
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

    fn run<C: StepCoster>(q: &JoinQuery, coster: &C) -> (Optimized, OptStats) {
        optimize_left_deep(q, &QueryTables::new(q), coster).unwrap()
    }

    #[test]
    fn dp_cost_matches_evaluator() {
        let q = chain_query(4);
        let model = PaperCostModel;
        for memory in [5.0, 50.0, 500.0] {
            let coster = FixedMemoryCoster::new(&model, memory);
            let (opt, _) = run(&q, &coster);
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
        let (opt, _) = run(&q, &coster);
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
        let (opt, _) = run(&q, &coster);
        // Whatever the winner, it must produce the required order.
        assert_eq!(opt.plan.output_order(), Some(KeyId(0)));
    }

    #[test]
    fn stats_count_the_lattice() {
        let q = chain_query(5);
        let model = PaperCostModel;
        let coster = FixedMemoryCoster::new(&model, 50.0);
        let (_, stats) = run(&q, &coster);

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
}
