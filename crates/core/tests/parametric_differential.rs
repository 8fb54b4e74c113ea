//! Differential battery for parametric precompute: the one bounded sweep
//! that prices every memory scenario (`ParametricPlans::precompute_with_stats`)
//! against the per-scenario loop it replaced (module `oracle` below), one
//! bounded left-deep DP with `ExpectedCoster` per scenario.
//!
//! Sharing the sweep must change no result, so every case asserts, for
//! every scenario, the same plan and the same `cost.to_bits()` as the
//! oracle, plus the counter identities `masks_expanded + masks_pruned =
//! 2ⁿ − n − 1` and `entries_written = n + masks_expanded`.
//!
//! Cases:
//! - the shapes of `bounded_dp_differential.rs`: seeded chain, star, cycle
//!   and clique queries with n = 2–12, with and without a required order;
//! - `miss_storm`-shaped queries: chains, stars and cycles of 6-page
//!   tables whose joins keep results near six pages, n = 8–11, some with a
//!   filtered relation, with and without a required order.
//!
//! Scenario sets: the serving benchmark's two; X15's four bimodal mixes,
//! which share one support; a duplicated scenario; a single scenario; a
//! one-point scenario; and multi-bucket scenarios whose supports overlap in
//! part, where a fold in the wrong order rounds differently.
//!
//! The battery is checked against two mutations of the sweep: folding a
//! scenario's per-value costs in reversed bucket order, and pruning a
//! subset as soon as *any* scenario's bound rules it out instead of when
//! all do. Each makes some case here fail.

use lec_core::parametric::ParametricPlans;
use lec_core::{OptStats, Optimized};
use lec_cost::PaperCostModel;
use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
use lec_stats::Distribution;
use lec_workload::{envs, QueryGen, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn dist(points: &[(f64, f64)]) -> Distribution {
    Distribution::new(points.iter().copied()).expect("valid distribution")
}

/// The scenario sets of the battery, by name.
fn scenario_sets() -> Vec<(&'static str, Vec<Distribution>)> {
    let bench = vec![
        dist(&[(4.0, 0.6), (40.0, 0.4)]),
        dist(&[(16.0, 0.5), (80.0, 0.5)]),
    ];
    let x15 = [0.0, 0.2, 0.5, 0.8]
        .iter()
        .map(|&p_lo| envs::bimodal(700.0, 2000.0, p_lo))
        .collect();
    let overlapping = vec![
        dist(&[(4.0, 0.15), (16.0, 0.35), (40.0, 0.3), (300.0, 0.2)]),
        dist(&[(16.0, 0.25), (40.0, 0.1), (80.0, 0.45), (900.0, 0.2)]),
        envs::lognormal(300.0, 0.8, 4),
    ];
    vec![
        ("bench", bench.clone()),
        ("x15", x15),
        (
            "duplicated",
            vec![bench[0].clone(), bench[1].clone(), bench[0].clone()],
        ),
        ("single", vec![bench[1].clone()]),
        (
            "one-point",
            vec![Distribution::point(40.0).expect("point"), bench[1].clone()],
        ),
        ("overlapping", overlapping),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Chain,
    Star,
    Cycle,
    Clique,
}

/// A seeded query of `shape`, as `bounded_dp_differential.rs` builds them:
/// a cycle is a chain closed by one more predicate between its ends.
fn generated(shape: Shape, n: usize, require_order: bool, seed: u64) -> JoinQuery {
    let topology = match shape {
        Shape::Chain | Shape::Cycle => Topology::Chain,
        Shape::Star => Topology::Star,
        Shape::Clique => Topology::Clique,
    };
    let gen = QueryGen {
        topology,
        n,
        require_order,
        ..QueryGen::default()
    };
    let q = gen.generate(&mut ChaCha8Rng::seed_from_u64(seed));
    if !matches!(shape, Shape::Cycle) || n < 3 {
        return q;
    }
    let mut predicates = q.predicates().to_vec();
    let (first, last) = (q.relation(0).pages, q.relation(n - 1).pages);
    predicates.push(JoinPred {
        left: n - 1,
        right: 0,
        selectivity: 2.0 / first.max(last),
        key: KeyId(n - 1),
    });
    JoinQuery::new(q.relations().to_vec(), predicates, q.required_order()).expect("cycle")
}

/// A `miss_storm`-shaped query: 6-page tables of 384 rows whose join-key
/// domains exceed the row count by a small offset, so every join's result
/// stays near six pages; every fourth relation carries a filter.
fn miss_storm(shape: Shape, n: usize, require_order: bool, seed: u64) -> JoinQuery {
    let rows = 384.0;
    let relations = (0..n)
        .map(|i| {
            let r = Relation::new(format!("t{i}"), 6.0, rows);
            if (i as u64 + seed).is_multiple_of(4) {
                r.with_local_selectivity(0.25 + 0.125 * (seed % 3) as f64)
            } else {
                r
            }
        })
        .collect();
    let edges: Vec<(usize, usize)> = match shape {
        Shape::Chain => (1..n).map(|i| (i - 1, i)).collect(),
        Shape::Star => (1..n).map(|i| (0, i)).collect(),
        Shape::Cycle => (1..n).map(|i| (i - 1, i)).chain([(n - 1, 0)]).collect(),
        Shape::Clique => (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect(),
    };
    let predicates = edges
        .iter()
        .enumerate()
        .map(|(k, &(left, right))| JoinPred {
            left,
            right,
            selectivity: 64.0 / (rows + ((k as u64 * 7 + seed * 13) % 60) as f64),
            key: KeyId(k),
        })
        .collect();
    JoinQuery::new(relations, predicates, require_order.then_some(KeyId(0))).expect("query")
}

/// Runs the shared sweep and the per-scenario oracle on `q` under
/// `scenarios` and asserts identical per-scenario results and consistent
/// counters. Returns the shared run's stats and the oracle's summed stats.
fn check(q: &JoinQuery, scenarios: &[Distribution], label: &str) -> (OptStats, OptStats) {
    let (shared, stats) =
        ParametricPlans::precompute_with_stats(q, &PaperCostModel, scenarios).expect("shared");
    let (oracle, oracle_stats) =
        oracle::precompute_with_stats(q, &PaperCostModel, scenarios).expect("oracle");
    assert_eq!(shared.len(), scenarios.len(), "{label}");
    for (s, ((ds, new), (dold, old))) in shared.scenarios().iter().zip(&oracle).enumerate() {
        assert!(
            ds.approx_eq(dold, 0.0),
            "{label} scenario {s}: distribution"
        );
        assert_same(new, old, &format!("{label} scenario {s}"));
    }
    let n = q.n() as u64;
    let c = &stats.counters;
    assert_eq!(
        c.masks_expanded + c.masks_pruned,
        (1u64 << n) - n - 1,
        "{label}: masks"
    );
    assert_eq!(c.entries_written, n + c.masks_expanded, "{label}: entries");
    (stats, oracle_stats)
}

fn assert_same(new: &Optimized, old: &Optimized, label: &str) {
    assert_eq!(new.plan, old.plan, "{label}: plan");
    assert_eq!(
        new.cost.to_bits(),
        old.cost.to_bits(),
        "{label}: cost {} vs oracle {}",
        new.cost,
        old.cost
    );
}

/// Every scenario set on `q`; returns the masks the shared sweeps pruned,
/// the candidates they priced and the candidates the oracle priced.
fn check_all_sets(q: &JoinQuery, label: &str) -> (u64, u64, u64) {
    let mut totals = (0, 0, 0);
    for (name, scenarios) in scenario_sets() {
        let (stats, oracle) = check(q, &scenarios, &format!("{label} {name}"));
        totals.0 += stats.counters.masks_pruned;
        totals.1 += stats.counters.candidates_priced;
        totals.2 += oracle.counters.candidates_priced;
    }
    totals
}

#[test]
fn shared_sweep_matches_the_per_scenario_loop_bitwise() {
    let mut seed = 0x5CE0;
    for shape in [Shape::Chain, Shape::Star, Shape::Cycle, Shape::Clique] {
        let mut pruned = 0;
        for n in 2..=12 {
            for require_order in [false, true] {
                seed += 1;
                let q = generated(shape, n, require_order, seed);
                let label = format!("{shape:?} n={n} ordered={require_order}");
                pruned += check_all_sets(&q, &label).0;
            }
        }
        assert!(pruned > 0, "{shape:?}: the bound never pruned");
    }
}

/// The serving benchmark's miss path: most subsets are hopeless cross
/// products of six-page tables, so the bound does most of the work, and
/// the shared sweep must price fewer candidates than the loop did.
#[test]
fn miss_storm_shapes_match_the_per_scenario_loop_bitwise() {
    let (mut shared, mut looped) = (0, 0);
    for shape in [Shape::Chain, Shape::Star, Shape::Cycle] {
        for n in 8..=11 {
            for require_order in [false, true] {
                for seed in 0..3 {
                    let q = miss_storm(shape, n, require_order, seed);
                    let label =
                        format!("miss_storm {shape:?} n={n} ordered={require_order} #{seed}");
                    let (pruned, new, old) = check_all_sets(&q, &label);
                    assert!(pruned > 0, "{label}: the bound never pruned");
                    (shared, looped) = (shared + new, looped + old);
                }
            }
        }
    }
    assert!(
        shared < looped,
        "shared sweeps priced {shared} candidates, the loop {looped}"
    );
}

mod oracle {
    //! Parametric precompute as it stood before its scenarios shared one
    //! sweep: one bounded left-deep DP per scenario with `ExpectedCoster`,
    //! each copied verbatim except for what living outside the crate needs:
    //! public-API imports, crate-visible entry points and no lint pragmas.

    use lec_core::dp::{ExpectedCoster, JoinInputs, Optimized, StepCoster};
    use lec_core::error::CoreError;
    use lec_core::par;
    use lec_core::precompute::QueryTables;
    use lec_core::stats::OptStats;
    use lec_core::MemoryModel;
    use lec_cost::{AccessMethod, CostModel, JoinMethod};
    use lec_plan::{JoinQuery, KeyId, Plan, RelSet};
    use lec_stats::Distribution;

    /// The per-scenario loop of `ParametricPlans::precompute_with_stats`,
    /// returning the scenarios with their plans and the aggregate stats.
    #[allow(clippy::type_complexity)]
    pub(crate) fn precompute_with_stats<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        scenarios: &[Distribution],
    ) -> Result<(Vec<(Distribution, Optimized)>, OptStats), CoreError> {
        if scenarios.is_empty() {
            return Err(CoreError::BadParameter("need at least one scenario".into()));
        }
        let tabs = QueryTables::new(query);
        let mut out = Vec::with_capacity(scenarios.len());
        let mut aggregate = OptStats::new("parametric", query.n());
        for s in scenarios {
            let phases = MemoryModel::Static(s.clone()).table(query.n().max(2))?;
            let coster = ExpectedCoster::new(model, &phases);
            let (opt, stats) = optimize_left_deep(query, &tabs, &coster)?;
            aggregate.absorb(&stats);
            out.push((s.clone(), opt));
        }
        aggregate.precompute = tabs.sizes();
        Ok((out, aggregate))
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
                    let key = query.required_order().expect("checked above");
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
        lec_core::verify::debug_verify_plan(query, &best.plan, best.cost);
        Ok(best)
    }

    /// Runs the bounded left-deep dynamic program with the given step coster
    /// against caller-built [`QueryTables`] (parametric precompute builds them
    /// once and shares them across scenarios), returning the winner and its
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
    pub(crate) fn optimize_left_deep<C: StepCoster>(
        query: &JoinQuery,
        tabs: &QueryTables,
        coster: &C,
    ) -> Result<(Optimized, OptStats), CoreError> {
        let n = query.n();
        let full = query.all();
        let mut table: Vec<Option<Entry>> = vec![None; (full.bits() + 1) as usize];
        seed_singletons(tabs, n, &mut table);

        // The best full-set plan whose final join is a sort-merge on the
        // required key (satisfies the ORDER BY for free).
        let required = query.required_order();
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
                        if slot.is_some_and(|e| bound.prunes(e.cost, bound.completion(tabs, pair)))
                        {
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
    fn reconstruct(
        tabs: &QueryTables,
        table: &[Option<Entry>],
        set: RelSet,
        override_root: Option<Entry>,
    ) -> Plan {
        let entry =
            override_root.unwrap_or_else(|| table[set.bits() as usize].expect("entry exists"));
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
}
