//! The generic left-deep dynamic program (§2.2's dag walk).
//!
//! System R's LSC optimizer (Theorem 2.1), the LEC Algorithm C (Theorems
//! 3.3/3.4) and Algorithm D (§3.6) are the *same* dynamic program
//! instantiated with different costers. Algorithm C prices each join step
//! in expectation over the phase's memory distribution, and LSC is its
//! one-point case; both run [`MemoryCoster`]. Algorithm D also takes the
//! expectation over the input-size distributions it propagates up the dag.
//! Correctness of the DP only needs the step cost to be additive across
//! the plan — which expectations are, by linearity (that is the entire
//! content of the Theorem 3.3 proof).
//!
//! ### What a subset keeps
//!
//! One rank loop walks the lattice for every left-deep enumerator; they
//! differ only in what a subset keeps:
//!
//! * **Per-scenario best** ([`optimize_left_deep`]): one entry per scenario
//!   of a [`SweepCoster`] — one for LSC and Algorithms C and D, one per
//!   memory scenario for parametric precompute — bounded by each
//!   scenario's incumbent (below).
//! * **Frontier** ([`crate::pareto::optimize`]): every profile no other is
//!   `<=` at every memory value; of an exact tie the first is kept.
//! * **Best score** ([`crate::pareto::scalar_dp`]): the one entry of least
//!   utility score, strict `<`.
//! * **Top `c`** ([`crate::topc::top_c_plans`]): the `c` cheapest, by a
//!   stable sort then truncate. Left entry `i` pairs with `j`'s access path
//!   `k`, both cost-sorted, only on Proposition 3.1's cut `(i + 1)(k + 1)
//!   ≤ c`.
//!
//! The last three are *list keeps*, priced through [`MemoryCoster`] with
//! one point scenario per memory value: a step is priced once per value
//! with zero bases (`0 + (formula + out) · 1` keeps the step's bits) and
//! added to each pair's `left + access`. They run unbounded: the incumbent
//! bound is proved for one entry per scenario only. A list entry is its
//! profile plus a backpointer: its left entry's index in `set \ {j}`'s
//! list, `j`, the access method and the join method. A per-scenario entry
//! stores only `j` and the join method: its left entry is the same
//! scenario's, and `j` is read through its cheapest access path. Plans are
//! built from backpointers once, at the root. There, with a required
//! order, the frontier and best-score keeps sort every candidate not
//! ending in a sort-merge on the key before keeping it; top-`c` sorts its
//! `c` cheapest and lets the `c` cheapest ordered candidates compete.
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
//!   with the same [`SweepCoster`] and base-add association, plus the root
//!   handling (sort, or an ordered final sort-merge). Its cost is `U`. The
//!   sweep reuses these priced steps wherever it prices the same candidate
//!   from the same base.
//! * **Lower bound.** Every join step is its formula plus its output pages
//!   (`evaluate::join_step`), and every formula is at least the model's
//!   [`CostModel::join_floor`] of its inputs: every method reads both
//!   (`l + r` for the paper and detailed models). [`SweepCoster::step_floor`]
//!   `(l, r, o)` floors a step; it splits into a left-input, a right-input
//!   and an output part, and is non-decreasing in each. For a subset `S`
//!   missing `k` relations, a plan through `S` completes with `k` steps:
//!   the first reads `S`'s result of `pages(S)` pages, each later one a
//!   result of at least one page (`QueryTables` clamps result pages); each
//!   relation outside `S` is read once, through its cheapest access path,
//!   as one step's right input of `access(j).out` pages (possibly below a
//!   page); every step but the last forms a result of at least one page,
//!   and the last forms `pages(full)`. So `LB(S)` is `best(S)`, plus, per
//!   relation outside `S`, its access cost and the right-input floor of its
//!   output, plus the left-input floor of `pages(S)` and `k − 1` of one
//!   page, plus `k − 1` output floors of one page and the output floor of
//!   `pages(full)`. A root sort costs at least zero, so every complete plan
//!   through `S` costs at least `LB(S)`.
//! * **Pruning.** A subset with `LB(S) > U · (1 + PRUNE_MARGIN)` keeps no
//!   entry. Before pricing `S`, the same test runs with `min over live
//!   subsets (best(sub) + access(j) + step_floor(pages(sub), access(j).out,
//!   pages(S)))` — a floor under every candidate it would price — in place
//!   of `best(S)`, so hopeless subsets are never priced; only candidates
//!   whose left input is live are priced. Each rank visits only the
//!   one-relation extensions of the rank below's live subsets, so a subset
//!   with no live input is pruned without being visited. The full set is
//!   never pruned. Every test is a `>` comparison, so NaN or an infinite
//!   `U` prunes nothing.
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
//! `P_k`, whose steps the lower bound floors term by term (each remaining
//! step is at least its `step_floor`, which is at least its three parts,
//! and each part at least the one `LB` charges for it), and the incumbent
//! is a plan whose every step the unbounded sweep prices from an entry at
//! least as cheap. The pre-pricing test floors `P_k`'s own winning
//! candidate the same way. The floating-point bound can exceed that real
//! sum only by rounding — its summation order differs from the DP's, and
//! memory probabilities sum to one only up to rounding, which shaves the
//! `(formula + out) · Σp` of an expected step — and `PRUNE_MARGIN` (a
//! relative 1e-9) absorbs it, so `P_k` survives. At the
//! root the sorted alternative is computed from the same root entry; the
//! ordered alternative is the same candidate when it wins, and can only be
//! costlier when it loses. Plans and costs are therefore bit-identical to
//! the unbounded sweep; `crates/core/tests/bounded_dp_differential.rs`
//! checks this against a verbatim copy of it.
//!
//! ### Several scenarios in one sweep
//!
//! With several scenarios every live subset keeps one entry per scenario,
//! and each candidate is priced once for all of them ([`MemoryCoster`]
//! evaluates its formulas once per distinct memory value of its phase, and
//! each scenario folds its own expectation). The completion floor
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

use crate::env::{MemoryModel, PhaseDists};
use crate::error::CoreError;
use crate::evaluate::{access_choices, access_step, profile_distribution};
use crate::par;
use crate::precompute::QueryTables;
use crate::stats::OptStats;
use lec_cost::{AccessMethod, CostModel, JoinMethod};
use lec_plan::{JoinQuery, KeyId, Plan, RelSet};
use lec_stats::{Distribution, Utility};
use std::cell::Cell;

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

/// What one lattice sweep prices: every live subset keeps one entry per
/// *scenario*, and the sweep returns one winner per scenario. The phase
/// index follows §3.5: the join forming a `k`-relation result is phase
/// `k - 2`; a final sort is the last phase.
pub trait SweepCoster {
    /// Number of scenarios priced per candidate (at least one).
    fn scenarios(&self) -> usize {
        1
    }

    /// Prices `join` for every scenario: `out[s]` receives scenario `s`'s
    /// costs, as [`join_one`](Self::join_one) prices them. The default
    /// prices each scenario on its own; a coster whose scenarios share
    /// work overrides it.
    fn join_each(&self, phase: usize, bases: &[f64], join: JoinInputs, out: &mut [[f64; 3]]) {
        for (s, (&base, slot)) in bases.iter().zip(out).enumerate() {
            *slot = self.join_one(phase, s, base, join);
        }
    }

    /// Scenario `s`'s costs of the join `join`, one per method in
    /// [`JoinMethod::ALL`] order. `base` is the cost of the best plan for
    /// `join.sub` plus `join.j`'s access cost; the coster adds the join
    /// step (join formula plus output materialization) onto it, so it also
    /// fixes how the sum associates.
    fn join_one(&self, phase: usize, s: usize, base: f64, join: JoinInputs) -> [f64; 3];

    /// Scenario `s`'s cost of a final sort of `set`'s result (`pages`
    /// estimated pages), including output materialization.
    fn sort_one(&self, phase: usize, s: usize, set: RelSet, pages: f64) -> f64;

    /// A floor under every scenario's join step from a left input of at
    /// least `left_pages >= 1` pages and a right input of at least
    /// `right_pages` pages to a result of at least `out_pages` pages: each
    /// entry of [`join_one`](Self::join_one) is at least `base +
    /// step_floor(join.left_pages, join.right_pages, join.out_pages)`, up
    /// to rounding within the DP's relative pruning margin. It must be
    /// non-negative, non-decreasing in each argument (also at `0`), and
    /// split into its three parts: `step_floor(l, r, o) >= step_floor(l, 0,
    /// 0) + step_floor(0, r, 0) + step_floor(0, 0, o)`, so the lower bound
    /// can charge a plan's remaining left inputs, right inputs and outputs
    /// each on its own. The default `0.0` is sound for any coster whose
    /// steps are non-negative.
    fn step_floor(&self, _left_pages: f64, _right_pages: f64, _out_pages: f64) -> f64 {
        0.0
    }
}

/// One phase of every scenario: the distinct memory values, in
/// first-appearance order, and per scenario its buckets in order, as the
/// index of the bucket's value and its probability.
type PhaseTable = (Vec<f64>, Vec<Vec<(usize, f64)>>);

/// The memory coster of LSC, Algorithm C and parametric precompute: each
/// scenario is a [`PhaseDists`], and each join step is priced in
/// expectation over the scenario's memory distribution in that step's
/// phase (Theorems 3.3/3.4). LSC is the one-point case, Algorithm C one
/// scenario, parametric precompute one scenario per stored distribution.
///
/// A candidate's join formulas are evaluated once per distinct memory value
/// of its phase, over all scenarios ([`CostModel::join_costs_at`]), and
/// each scenario folds them in its own bucket order, `acc += (formula +
/// out) · p`, exactly as [`CostModel::expected_join_step`] sums each
/// method. With one point, `0 + (formula + out) · 1` is `formula + out`,
/// so LSC keeps the bits of a step priced at its one memory value.
pub struct MemoryCoster<'a, M: ?Sized> {
    model: &'a M,
    scenarios: &'a [PhaseDists],
    /// Per phase, clamped to the last, so a static model has one.
    phases: Vec<PhaseTable>,
    /// The per-value formulas of the candidate being priced.
    formulas: Cell<Vec<[f64; 3]>>,
}

impl<'a, M: CostModel + ?Sized> MemoryCoster<'a, M> {
    /// Prices steps in expectation over each scenario's phases.
    pub fn new(model: &'a M, scenarios: &'a [PhaseDists]) -> Self {
        let stored = scenarios.iter().map(|d| d.stored().len()).max();
        let phases: Vec<_> = (0..stored.unwrap_or(1))
            .map(|phase| {
                let mut values: Vec<f64> = Vec::new();
                let buckets = scenarios
                    .iter()
                    .map(|d| {
                        let d = d.at(phase);
                        d.values()
                            .iter()
                            .zip(d.probs())
                            .map(|(&v, &p)| {
                                let i = values
                                    .iter()
                                    .position(|u| u.to_bits() == v.to_bits())
                                    .unwrap_or_else(|| {
                                        values.push(v);
                                        values.len() - 1
                                    });
                                (i, p)
                            })
                            .collect()
                    })
                    .collect();
                (values, buckets)
            })
            .collect();
        let widest = phases.iter().map(|(v, _)| v.len()).max().unwrap_or(0);
        MemoryCoster {
            model,
            scenarios,
            phases,
            formulas: Cell::new(vec![[0.0; 3]; widest]),
        }
    }
}

impl<M: CostModel + ?Sized> SweepCoster for MemoryCoster<'_, M> {
    fn scenarios(&self) -> usize {
        self.scenarios.len()
    }

    fn join_each(&self, phase: usize, bases: &[f64], join: JoinInputs, out: &mut [[f64; 3]]) {
        let Some((values, buckets)) = self.phases.get(phase).or(self.phases.last()) else {
            return;
        };
        let mut formulas = self.formulas.take();
        self.model
            .join_costs_at(join.left_pages, join.right_pages, values, &mut formulas);
        let o = join.out_pages;
        for ((buckets, &base), slot) in buckets.iter().zip(bases).zip(out) {
            let mut acc = [0.0; 3];
            for &(i, p) in buckets {
                for (a, f) in acc.iter_mut().zip(formulas[i]) {
                    *a += (f + o) * p;
                }
            }
            *slot = acc.map(|step| base + step);
        }
        self.formulas.set(formulas);
    }

    fn join_one(&self, phase: usize, s: usize, base: f64, join: JoinInputs) -> [f64; 3] {
        let Some(d) = self.scenarios.get(s).map(|d| d.at(phase)) else {
            return [f64::NAN; 3];
        };
        let mut formulas = self.formulas.take();
        self.model
            .join_costs_at(join.left_pages, join.right_pages, d.values(), &mut formulas);
        let mut acc = [0.0; 3];
        for (f, &p) in formulas.iter().zip(d.probs()) {
            for (a, f) in acc.iter_mut().zip(f) {
                *a += (f + join.out_pages) * p;
            }
        }
        self.formulas.set(formulas);
        acc.map(|step| base + step)
    }

    fn sort_one(&self, phase: usize, s: usize, _set: RelSet, pages: f64) -> f64 {
        self.scenarios.get(s).map_or(f64::NAN, |d| {
            let d = d.at(phase);
            self.model.expected_sort_step(pages, d.values(), d.probs())
        })
    }

    /// A step is `Σ (formula + out_pages) · p` with every formula at least
    /// [`CostModel::join_floor`] and probabilities summing to one up to
    /// rounding. The model's floor splits, so this one does.
    fn step_floor(&self, left_pages: f64, right_pages: f64, out_pages: f64) -> f64 {
        self.model.join_floor(left_pages, right_pages) + out_pages
    }
}

/// One DP table entry: best cost plus the backpointer to reconstruct the
/// plan (`j` joined last with `method`), a compact [`Back`].
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
/// reached). `ONE` marks a one-scenario table, whose rows the compiler
/// then sizes at compile time, so a one-scenario sweep (LSC, Algorithm C,
/// Algorithm D) folds its per-scenario loops away.
struct Table<const ONE: bool> {
    /// Scenarios per row.
    k: usize,
    slots: Vec<Option<Entry>>,
}

impl<const ONE: bool> Table<ONE> {
    fn new(full: RelSet, k: usize) -> Self {
        Table {
            k,
            slots: vec![None; (full.bits() as usize + 1) * k],
        }
    }

    /// Scenarios per row.
    fn k(&self) -> usize {
        if ONE {
            1
        } else {
            self.k
        }
    }

    fn row(&self, set: RelSet) -> &[Option<Entry>] {
        let (k, start) = (self.k(), set.bits() as usize * self.k());
        self.slots.get(start..start + k).unwrap_or_default()
    }

    fn row_mut(&mut self, set: RelSet) -> &mut [Option<Entry>] {
        let (k, start) = (self.k(), set.bits() as usize * self.k());
        self.slots.get_mut(start..start + k).unwrap_or_default()
    }

    fn live(&self, set: RelSet) -> bool {
        self.row(set).first().is_some_and(Option::is_some)
    }

    fn entry(&self, set: RelSet, s: usize) -> Option<Entry> {
        self.row(set).get(s).copied().flatten()
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
    /// `tail[k]`: the parts of the floor of the `k` join steps completing
    /// a plan from a subset missing `k` relations that depend only on `k`:
    /// every left input after the first (at least one page each), and every
    /// output (at least one page each, then `pages(full)`).
    tail: Vec<f64>,
    /// Per relation, the floor it adds while outside a subset: its access
    /// cost plus the right-input part of the step that joins it.
    outside: Vec<f64>,
    full: RelSet,
    /// Per scenario, its incumbent's steps by prefix size − 2.
    steps: Vec<Vec<IncumbentStep>>,
}

impl Bound {
    fn new<C: SweepCoster>(tabs: &QueryTables, coster: &C, full: RelSet, k: usize) -> Self {
        let step = coster.step_floor(1.0, 0.0, 0.0) + coster.step_floor(0.0, 0.0, 1.0);
        let mut tail = vec![0.0];
        let mut floor = coster.step_floor(0.0, 0.0, tabs.pages(full));
        for _ in 0..full.len() {
            tail.push(floor);
            floor += step;
        }
        let outside = full
            .iter()
            .map(|j| {
                let (cost, _, out) = tabs.access(j);
                cost + coster.step_floor(0.0, out, 0.0)
            })
            .collect();
        Bound {
            limits: vec![f64::INFINITY; k],
            active: false,
            tail,
            outside,
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
    /// relation outside it plus the floors of the remaining join steps —
    /// the next step reads `set`'s result, every later step a result of at
    /// least one page, and each relation outside `set` is one step's right
    /// input. `None` when nothing can be pruned (no finite incumbent yet,
    /// or `set` is the full set, whose best entries are the answers).
    fn completion<C: SweepCoster>(
        &self,
        tabs: &QueryTables,
        coster: &C,
        set: RelSet,
    ) -> Option<f64> {
        if !self.active || set == self.full {
            return None;
        }
        let outside = RelSet::from_bits(self.full.bits() & !set.bits());
        let mut floor =
            self.tail.get(outside.len()).copied()? + coster.step_floor(tabs.pages(set), 0.0, 0.0);
        for j in outside.iter() {
            floor += self.outside.get(j).copied()?;
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
/// cheapest live input plus the floor of its join forming `set` cannot beat
/// that scenario's incumbent; after pricing, when no scenario's best entry
/// can. A candidate every scenario's incumbent already priced from the
/// same bases is reused, not priced again. Iteration order is fixed —
/// members of `set` ascending, then [`JoinMethod::ALL`] — and each
/// scenario keeps its winner under strict `<`. Candidates are priced for
/// all scenarios first and each scenario then picks its winner in a pass
/// of its own, so the per-scenario loops run over candidates, not inside
/// them.
fn cost_mask<C: SweepCoster, const ONE: bool>(
    tabs: &QueryTables,
    coster: &C,
    table: &Table<ONE>,
    set: RelSet,
    bound: &Bound,
    required: Option<KeyId>,
    sc: &mut Scratch,
) -> (bool, u64) {
    let k = table.k();
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
        let left = table.row(set.remove(j));
        count += usize::from(left.first().is_some_and(Option::is_some));
    }
    let live = live.get(..count).unwrap_or_default();
    let out = tabs.pages(set);
    let rest = bound.completion(tabs, coster, set);
    // Each scenario's bases and pre-pricing test: the cheapest base plus
    // the floor of its step. A NaN bound is sticky in `cheapest`, so it
    // never prunes.
    let mut open = false;
    for s in 0..k {
        let mut cheapest = f64::INFINITY;
        for (i, &j) in live.iter().enumerate() {
            let sub = set.remove(j);
            let (access, _, right) = tabs.access(j);
            let entry = table.row(sub).get(s).copied().flatten();
            let base = entry.map_or(f64::INFINITY, |e| e.cost) + access;
            if let Some(slot) = bases.get_mut(i * k + s) {
                *slot = base;
            }
            let lower = base + coster.step_floor(tabs.pages(sub), right, out);
            cheapest = if lower < cheapest || lower.is_nan() {
                lower
            } else {
                cheapest
            };
        }
        open |= !bound.prunes(s, cheapest, rest);
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
fn incumbent<C: SweepCoster, const ONE: bool>(
    query: &JoinQuery,
    tabs: &QueryTables,
    coster: &C,
    table: &Table<ONE>,
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
fn finalize<C: SweepCoster, const ONE: bool>(
    query: &JoinQuery,
    tabs: &QueryTables,
    coster: &C,
    table: &Table<ONE>,
    s: usize,
    best_ordered: Option<Entry>,
) -> Result<Optimized, CoreError> {
    let n = query.n();
    let full = query.all();
    let root = table.entry(full, s).ok_or(CoreError::NoPlanFound)?;
    let (entry, sort) = match query.required_order() {
        Some(key) => {
            let sorted =
                root.cost + coster.sort_one(n.saturating_sub(1), s, full, tabs.pages(full));
            match best_ordered {
                Some(ord) if ord.cost <= sorted => (ord, None),
                _ => (root, Some((key, sorted))),
            }
        }
        None => (root, None),
    };
    let lookup = |set, s| table.back(tabs, set, s, table.entry(set, s)?);
    let plan = table.back(tabs, full, s, entry);
    let plan = plan.and_then(|back| reconstruct(tabs, full, back, &lookup));
    let plan = plan.ok_or(CoreError::NoPlanFound)?;
    let best = match sort {
        Some((key, cost)) => Optimized {
            plan: Plan::sort(plan, key),
            cost,
        },
        None => Optimized {
            plan,
            cost: entry.cost,
        },
    };
    lec_plan::verify_costs("left-deep winner", &[best.cost])?;
    crate::verify::debug_verify_plan(query, &best.plan, best.cost);
    Ok(best)
}

/// Runs the bounded left-deep dynamic program with the given coster
/// against caller-built [`QueryTables`], returning one winner per scenario,
/// in scenario order, and the search-space [`OptStats`]. LSC, Algorithm C
/// and Algorithm D run it with one scenario, parametric precompute with all
/// of its scenarios at once; every subset keeps one entry per scenario.
///
/// Once the pairs are priced, each scenario's greedy incumbent sets its
/// bound, and every later subset that every scenario's bound exceeds is
/// pruned (see the module docs); each scenario's winner, its cost and its
/// plan are those of the unbounded sweep. A winner whose cost is not
/// finite is [`CoreError::Plan`]. Counters count each candidate once
/// however many scenarios share it; `masks_expanded + masks_pruned` is
/// always `2ⁿ − n − 1`.
pub fn optimize_left_deep<C: SweepCoster>(
    query: &JoinQuery,
    tabs: &QueryTables,
    coster: &C,
) -> Result<(Vec<Optimized>, OptStats), CoreError> {
    match coster.scenarios() {
        0 => Err(CoreError::BadParameter("need at least one scenario".into())),
        1 => sweep::<C, true>(query, tabs, coster, 1),
        k => sweep::<C, false>(query, tabs, coster, k),
    }
}

/// [`optimize_left_deep`] over `k` scenarios; `ONE` is `k == 1`.
fn sweep<C: SweepCoster, const ONE: bool>(
    query: &JoinQuery,
    tabs: &QueryTables,
    coster: &C,
    k: usize,
) -> Result<(Vec<Optimized>, OptStats), CoreError> {
    let n = query.n();
    let full = query.all();
    let mut rows: Scenarios<C, ONE> = Scenarios {
        coster,
        table: Table::new(full, k),
        bound: Bound::new(tabs, coster, full, k),
        sc: Scratch::new(n, k),
        required: query.required_order(),
        ordered: vec![None; k],
    };
    for i in 0..n {
        let (cost, method, _) = tabs.access(i);
        let choice = Choice::Access(method);
        rows.table
            .row_mut(RelSet::single(i))
            .fill(Some(Entry { cost, choice }));
    }
    let stats = walk(query, tabs, &mut rows, "dp", false)?;
    let winners = rows
        .ordered
        .iter()
        .enumerate()
        .map(|(s, &ordered)| finalize(query, tabs, coster, &rows.table, s, ordered))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((winners, stats))
}

/// What one sweep keeps at each subset: the per-scenario rows of
/// [`optimize_left_deep`] or the lists of [`sweep_lists`], which `walk`
/// drives through the lattice.
trait Rows {
    /// Prices every way of forming `set` from the rows one rank down and
    /// stores what `set` keeps. Returns the candidates priced.
    fn expand(&mut self, tabs: &QueryTables, set: RelSet) -> Result<u64, CoreError>;

    /// Entries kept at `set`: zero when it is pruned or not reached.
    fn entries(&self, set: RelSet) -> usize;

    /// Runs once the pairs are priced, when `n > 2`; returns the candidates
    /// priced.
    fn pairs_priced(&mut self, _query: &JoinQuery, _tabs: &QueryTables, _pairs: &[RelSet]) -> u64 {
        0
    }
}

/// The one left-deep rank loop. From the seeded singletons it visits, rank
/// by rank, only the one-relation extensions of the live subsets one rank
/// down (a subset with no live input is pruned unvisited), times each rank
/// and counts the search; with `widths` it records each rank's longest row
/// in `frontier_per_rank`. A subset's entries depend only on the rank
/// below, so the visiting order within a rank changes nothing.
fn walk<R: Rows>(
    query: &JoinQuery,
    tabs: &QueryTables,
    rows: &mut R,
    algorithm: &'static str,
    widths: bool,
) -> Result<OptStats, CoreError> {
    let n = query.n();
    let full = query.all();
    let mut stats = OptStats::new(algorithm, n);
    stats.precompute = tabs.sizes();
    let mut frontier: Vec<RelSet> = (0..n).map(RelSet::single).collect();
    stats.counters.entries_written = frontier.iter().map(|&s| rows.entries(s) as u64).sum();
    let mut queued = vec![false; (full.bits() + 1) as usize];
    let mut rank_size = n as u64; // C(n, size), starting at size 1
    for size in 2..=n {
        rank_size = rank_size * (n + 1 - size) as u64 / size as u64;
        let (rank, elapsed) = par::timed(|| -> Result<Vec<RelSet>, CoreError> {
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
                stats.counters.candidates_priced += rows.expand(tabs, set)?;
            }
            if size == 2 && n > 2 {
                stats.counters.candidates_priced += rows.pairs_priced(query, tabs, &rank);
            }
            let (mut written, mut widest) = (0, 0);
            rank.retain(|&set| {
                let entries = rows.entries(set);
                written += entries as u64;
                widest = widest.max(entries);
                entries > 0
            });
            let kept = rank.len() as u64;
            stats.counters.masks_expanded += kept;
            stats.counters.entries_written += written;
            stats.counters.masks_pruned += rank_size - kept;
            if widths {
                stats.counters.frontier_per_rank.push(widest);
            }
            Ok(rank)
        });
        frontier = rank?;
        stats.rank_wall_ns.push(elapsed);
    }
    Ok(stats)
}

/// The per-scenario rows: one best entry per scenario at every live
/// subset, bounded by each scenario's incumbent.
struct Scenarios<'a, C, const ONE: bool> {
    coster: &'a C,
    table: Table<ONE>,
    bound: Bound,
    sc: Scratch,
    required: Option<KeyId>,
    /// Per scenario, the best full-set entry whose final join is a
    /// sort-merge on the required key (satisfies the ORDER BY for free).
    ordered: Vec<Option<Entry>>,
}

impl<C: SweepCoster, const ONE: bool> Rows for Scenarios<'_, C, ONE> {
    fn expand(&mut self, tabs: &QueryTables, set: RelSet) -> Result<u64, CoreError> {
        let (kept, candidates) = cost_mask(
            tabs,
            self.coster,
            &self.table,
            set,
            &self.bound,
            self.required,
            &mut self.sc,
        );
        if kept {
            for (slot, best) in self.table.row_mut(set).iter_mut().zip(&self.sc.best) {
                *slot = *best;
            }
            for (slot, ordered) in self.ordered.iter_mut().zip(&self.sc.ordered) {
                if ordered.is_some() {
                    *slot = *ordered;
                }
            }
        }
        Ok(candidates)
    }

    fn entries(&self, set: RelSet) -> usize {
        usize::from(self.table.live(set))
    }

    /// Seeds each scenario's bound from its incumbent and drops the pairs
    /// every bound rules out.
    fn pairs_priced(&mut self, query: &JoinQuery, tabs: &QueryTables, pairs: &[RelSet]) -> u64 {
        let mut candidates = 0;
        for s in 0..self.table.k() {
            let (limit, steps, priced) = incumbent(query, tabs, self.coster, &self.table, pairs, s);
            self.bound.seed(s, limit, steps);
            candidates += priced;
        }
        for &pair in pairs {
            let rest = self.bound.completion(tabs, self.coster, pair);
            let kept = self
                .table
                .row(pair)
                .iter()
                .enumerate()
                .any(|(s, e)| e.is_some_and(|e| !self.bound.prunes(s, e.cost, rest)));
            if !kept {
                self.table.row_mut(pair).fill(None);
            }
        }
        candidates
    }
}

/// A backpointer: how an entry was formed. A seed (`join` is `None`)
/// reads relation `last` through `access`; any other entry joins entry
/// `left` of `set \ {last}` with `last` read through `access`, by `join`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Back {
    left: usize,
    last: usize,
    access: AccessMethod,
    join: Option<JoinMethod>,
}

impl<const ONE: bool> Table<ONE> {
    /// Scenario `s`'s `entry` of `set` as a [`Back`].
    fn back(&self, tabs: &QueryTables, set: RelSet, s: usize, entry: Entry) -> Option<Back> {
        let (last, access, join) = match entry.choice {
            Choice::Access(access) => (set.iter().next()?, access, None),
            Choice::Join { last, method } => (last, tabs.access(last).1, Some(method)),
        };
        Some(Back {
            left: s,
            last,
            access,
            join,
        })
    }
}

/// Builds the plan of the entry of `set` formed as `back`; `lookup(sub, i)`
/// is entry `i` of `sub`'s backpointer. It follows one entry per rank, so
/// each returned plan is built once, at the root. `None` when a backpointer
/// names an entry the sweep did not keep.
fn reconstruct(
    tabs: &QueryTables,
    set: RelSet,
    back: Back,
    lookup: &impl Fn(RelSet, usize) -> Option<Back>,
) -> Option<Plan> {
    let right = Plan::Access {
        rel: back.last,
        method: back.access,
    };
    let Some(method) = back.join else {
        return Some(right);
    };
    let sub = set.remove(back.last);
    let left = reconstruct(tabs, sub, lookup(sub, back.left)?, lookup)?;
    let key = tabs.join_key(sub, back.last);
    Some(Plan::join(left, right, method, key))
}

/// What each subset keeps in a list sweep (see "What a subset keeps").
#[derive(Debug, Clone, Copy)]
pub(crate) enum ListKeep<'a> {
    /// Every entry no other entry [`dominates`].
    Frontier,
    /// The entry of least utility score over the memory distribution.
    BestScore(Utility, &'a Distribution),
    /// The `c` cheapest entries.
    TopC(usize),
}

/// A list entry: its cost profile (one cost per scenario) and backpointer.
#[derive(Debug, Clone)]
struct Kept {
    profile: Vec<f64>,
    back: Back,
}

/// The `c` entries of least first cost: a stable sort, then truncate.
fn cheapest(mut list: Vec<Kept>, c: usize) -> Vec<Kept> {
    let first = |e: &Kept| e.profile.first().copied().unwrap_or(f64::NAN);
    list.sort_by(|a, b| first(a).total_cmp(&first(b)));
    list.truncate(c);
    list
}

/// `a` dominates `b` when it is at least as cheap at every memory value.
/// The comparison is exact (an epsilon breaks antisymmetry), so two
/// profiles dominate each other only when equal, [`insert_frontier`] keeps
/// the first of them, and the frontier is insertion-order independent as a
/// set of profiles.
fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| *x <= *y)
}

fn insert_frontier(frontier: &mut Vec<Kept>, entry: Kept) {
    if frontier
        .iter()
        .any(|e| dominates(&e.profile, &entry.profile))
    {
        return;
    }
    frontier.retain(|e| !dominates(&entry.profile, &e.profile));
    frontier.push(entry);
}

/// The list rows: every subset keeps the list its [`ListKeep`] says, one
/// cost per scenario of `coster`, indexed by `RelSet::bits()`. Unbounded.
struct Lists<'a, C> {
    coster: &'a C,
    keep: ListKeep<'a>,
    full: RelSet,
    required: Option<KeyId>,
    lists: Vec<Vec<Kept>>,
    /// Top-`c` at the full set: every candidate whose final join is a
    /// sort-merge on the required key.
    pool: Vec<Kept>,
    /// Top-`c`'s `combos_naive`: per `(set, j, join method)`, the left
    /// list's length times `j`'s access list's.
    naive: u64,
}

impl<C: SweepCoster> Rows for Lists<'_, C> {
    /// Offers every pair of a left entry of `set \ {j}` and an access path
    /// of `j` under each join method to the keep, in the order `j`, method,
    /// access path, left entry. Each step is priced once with zero bases
    /// and added to every pair's `left + access`.
    fn expand(&mut self, tabs: &QueryTables, set: RelSet) -> Result<u64, CoreError> {
        let width = self.coster.scenarios();
        let out = tabs.pages(set);
        let root_order = self.required.filter(|_| set == self.full);
        let cut = match self.keep {
            ListKeep::TopC(c) => Some(c),
            ListKeep::Frontier | ListKeep::BestScore(..) => None,
        };
        let (zeros, mut steps) = (vec![0.0; width], vec![[0.0; 3]; width]);
        let (mut kept, mut best) = (Vec::new(), None);
        let mut candidates = 0;
        for j in set.iter() {
            let sub = set.remove(j);
            let left = &self.lists[sub.bits() as usize];
            let right = &self.lists[RelSet::single(j).bits() as usize];
            if left.is_empty() {
                continue;
            }
            let join = JoinInputs {
                sub,
                j,
                set,
                left_pages: tabs.pages(sub),
                right_pages: tabs.access(j).2,
                out_pages: out,
            };
            self.coster
                .join_each(set.len() - 2, &zeros, join, &mut steps);
            let key = tabs.join_key(sub, j);
            for (m, method) in JoinMethod::ALL.into_iter().enumerate() {
                self.naive += (left.len() * right.len()) as u64;
                let ordered = method == JoinMethod::SortMerge && key == root_order;
                for (k, access) in right.iter().enumerate() {
                    for (i, l) in left.iter().enumerate() {
                        // Proposition 3.1: with both lists cost-sorted, a
                        // pair outside `(i + 1)(k + 1) ≤ c` has at least
                        // `c` pairs at least as cheap.
                        if cut.is_some_and(|c| (i + 1) * (k + 1) > c) {
                            break;
                        }
                        candidates += 1;
                        let profile = l.profile.iter().zip(&access.profile).zip(&steps);
                        let mut entry = Kept {
                            profile: profile.map(|((l, a), step)| l + a + step[m]).collect(),
                            back: Back {
                                left: i,
                                last: j,
                                access: access.back.access,
                                join: Some(method),
                            },
                        };
                        if let ListKeep::TopC(_) = self.keep {
                            if root_order.is_some() && ordered {
                                self.pool.push(entry.clone());
                            }
                            kept.push(entry);
                            continue;
                        }
                        if root_order.is_some() && !ordered {
                            for (s, p) in entry.profile.iter_mut().enumerate() {
                                *p += self.coster.sort_one(set.len() - 1, s, set, out);
                            }
                        }
                        match self.keep {
                            ListKeep::BestScore(utility, memory) => {
                                let score =
                                    utility.score(&profile_distribution(memory, &entry.profile)?);
                                if best.is_none_or(|best| score < best) {
                                    best = Some(score);
                                    kept = vec![entry];
                                }
                            }
                            _ => insert_frontier(&mut kept, entry),
                        }
                    }
                }
            }
        }
        if let Some(c) = cut {
            kept = cheapest(kept, c);
        }
        self.lists[set.bits() as usize] = kept;
        Ok(candidates)
    }

    fn entries(&self, set: RelSet) -> usize {
        self.lists[set.bits() as usize].len()
    }
}

/// A list sweep's root entries, in order: each plan and its cost profile.
pub(crate) type Roots = Vec<(Plan, Vec<f64>)>;

/// Runs a list keep over `query`'s left-deep lattice with one point
/// scenario per memory value of `values`. Returns the root's entries in
/// order, each a plan and its cost profile (root sort included), top-`c`'s
/// `combos_naive`, and the search counters: `candidates_priced` counts
/// every candidate offered to the keep. Seeds are each relation's access
/// paths, cost-sorted and truncated to `c` for top-`c`, to the cheapest
/// otherwise.
pub(crate) fn sweep_lists<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    values: &[f64],
    keep: ListKeep<'_>,
) -> Result<(Roots, u64, OptStats), CoreError> {
    let points = values
        .iter()
        .map(|&v| MemoryModel::Static(Distribution::point(v)?).table(1))
        .collect::<Result<Vec<_>, CoreError>>()?;
    let coster = MemoryCoster::new(model, &points);
    let full = query.all();
    let tabs = QueryTables::new(query);
    let (seeds, algorithm, widths) = match keep {
        ListKeep::TopC(c) => (c, "topc", false),
        ListKeep::Frontier | ListKeep::BestScore(..) => (1, "pareto", true),
    };
    let mut lists = vec![Vec::new(); (full.bits() + 1) as usize];
    for i in 0..query.n() {
        let rel = query.relation(i);
        let seed = access_choices(rel).into_iter().map(|access| Kept {
            profile: vec![access_step(rel, access).0; values.len()],
            back: Back {
                left: 0,
                last: i,
                access,
                join: None,
            },
        });
        lists[RelSet::single(i).bits() as usize] = cheapest(seed.collect(), seeds);
    }
    let mut rows = Lists {
        coster: &coster,
        keep,
        full,
        required: query.required_order(),
        lists,
        pool: Vec::new(),
        naive: 0,
    };
    let stats = walk(query, &tabs, &mut rows, algorithm, widths)?;

    let mut root = std::mem::take(&mut rows.lists[full.bits() as usize]);
    if let (ListKeep::TopC(c), Some(_)) = (keep, rows.required) {
        let sort = coster.sort_one(query.n() - 1, 0, full, tabs.pages(full));
        for e in &mut root {
            let ordered = e.back.join == Some(JoinMethod::SortMerge)
                && tabs.join_key(full.remove(e.back.last), e.back.last) == rows.required;
            if !ordered {
                e.profile.iter_mut().for_each(|p| *p += sort);
            }
        }
        for e in cheapest(std::mem::take(&mut rows.pool), c) {
            if !root.iter().any(|r| r.back == e.back) {
                root.push(e);
            }
        }
        root = cheapest(root, c);
    }
    let lookup = |set: RelSet, i: usize| Some(rows.lists[set.bits() as usize].get(i)?.back);
    let roots = root
        .into_iter()
        .map(|e| {
            let plan = reconstruct(&tabs, full, e.back, &lookup).ok_or(CoreError::NoPlanFound)?;
            let plan = match rows.required {
                Some(key) if plan.output_order() != Some(key) => Plan::sort(plan, key),
                _ => plan,
            };
            Ok((plan, e.profile))
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    Ok((roots, rows.naive, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MemoryModel;
    use crate::evaluate::plan_cost_at;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};
    use lec_stats::Distribution;

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

    /// The LSC run at `memory`: one scenario of one point.
    fn run(q: &JoinQuery, model: &PaperCostModel, memory: f64) -> (Optimized, OptStats) {
        let phases = [MemoryModel::Static(Distribution::point(memory).unwrap())
            .table(q.n().max(2))
            .unwrap()];
        let coster = MemoryCoster::new(model, &phases);
        let (mut winners, stats) = optimize_left_deep(q, &QueryTables::new(q), &coster).unwrap();
        assert_eq!(winners.len(), 1);
        (winners.remove(0), stats)
    }

    #[test]
    fn dp_cost_matches_evaluator() {
        let q = chain_query(4);
        let model = PaperCostModel;
        for memory in [5.0, 50.0, 500.0] {
            let (opt, _) = run(&q, &model, memory);
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
        let (opt, _) = run(&q, &model, 100.0);
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
        let (opt, _) = run(&q, &model, 50.0);
        // Whatever the winner, it must produce the required order.
        assert_eq!(opt.plan.output_order(), Some(KeyId(0)));
    }

    #[test]
    fn stats_count_the_lattice() {
        let q = chain_query(5);
        let model = PaperCostModel;
        let (_, stats) = run(&q, &model, 50.0);

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

    fn seed(rel: usize, profile: &[f64]) -> Kept {
        Kept {
            profile: profile.to_vec(),
            back: Back {
                left: 0,
                last: rel,
                access: AccessMethod::FullScan,
                join: None,
            },
        }
    }

    fn sorted_profiles(frontier: &[Kept]) -> Vec<Vec<f64>> {
        let mut v: Vec<Vec<f64>> = frontier.iter().map(|e| e.profile.clone()).collect();
        v.sort_by(|x, y| x.partial_cmp(y).unwrap());
        v
    }

    #[test]
    fn frontier_is_insertion_order_independent() {
        // Near-tied incomparable profiles. Under the old epsilon-tolerant
        // dominance each "dominated" the other, so whichever was inserted
        // first evicted the second and the frontier — hence the chosen
        // plan — depended on insertion order. Exact dominance keeps both.
        let a = [1.0, 2.0 + 1e-13];
        let c = [1.0 + 1e-13, 2.0];
        // A genuinely dominated profile must still be evicted either way.
        let d = [1.5, 2.5];

        let mut fwd = Vec::new();
        for (i, p) in [&a, &c, &d].into_iter().enumerate() {
            insert_frontier(&mut fwd, seed(i, p));
        }
        let mut rev = Vec::new();
        for (i, p) in [&d, &c, &a].into_iter().enumerate() {
            insert_frontier(&mut rev, seed(i, p));
        }

        assert_eq!(fwd.len(), 2, "near-ties are incomparable, both survive");
        assert_eq!(sorted_profiles(&fwd), sorted_profiles(&rev));

        // With identical frontier contents, the root pick (min utility
        // score with a total-order comparator) is order-independent too.
        let pick = |f: &[Kept]| {
            f.iter()
                .map(|e| e.profile.iter().sum::<f64>())
                .min_by(f64::total_cmp)
                .unwrap()
        };
        assert_eq!(pick(&fwd).to_bits(), pick(&rev).to_bits());
    }

    #[test]
    fn frontier_keeps_first_inserted_of_exact_ties() {
        let p = [3.0, 4.0];
        let mut frontier = Vec::new();
        insert_frontier(&mut frontier, seed(0, &p));
        insert_frontier(&mut frontier, seed(1, &p));
        assert_eq!(frontier.len(), 1);
        assert_eq!(
            frontier[0].back.last, 0,
            "first-inserted entry wins an exact profile tie"
        );
    }

    #[test]
    fn cheapest_is_a_stable_sort_then_truncate() {
        let list = [5.0, 2.0, 5.0, 1.0, 2.0]
            .into_iter()
            .enumerate()
            .map(|(i, cost)| seed(i, &[cost]))
            .collect();
        let top = cheapest(list, 4);
        let order: Vec<usize> = top.iter().map(|e| e.back.last).collect();
        assert_eq!(order, [3, 1, 4, 0]);
    }
}
