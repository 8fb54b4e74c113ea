//! Differential battery for the bounded left-deep DP: `dp::optimize_left_deep`
//! (an incumbent plus an exact lower bound that prunes subsets) against a
//! verbatim copy of the unbounded sweep it replaced (module `oracle` below).
//!
//! Pruning must never change a result, so every case asserts the same plan
//! and the same `cost.to_bits()` as the oracle, that no more candidates
//! were priced than the oracle priced, and the counter identities
//! `masks_expanded + masks_pruned = 2ⁿ − n − 1` and
//! `entries_written = n + masks_expanded`.
//!
//! Cases:
//! - seeded chain, star, cycle and clique queries with n = 2–13, with and
//!   without a required order, under static and random-walk memory;
//! - step costers: `FixedMemoryCoster`, `ExpectedCoster` (paper and
//!   detailed models), and a forwarding coster that keeps the default
//!   zero `join_floor`, the floor Algorithm D's coster uses (Algorithm D
//!   itself is checked against its stand-alone implementation in
//!   `alg_d_differential.rs`);
//! - a zero-formula cost model, under which the lower bound is tight: a
//!   step costs exactly its output pages, so a bound that is a page too
//!   high, has no rounding margin, or prunes on ties shows up here;
//! - adversarial queries: an optimum that joins a cross product first,
//!   many exact cost ties, and relations so large that every cost is ∞.

use lec_core::dp::{self, ExpectedCoster, FixedMemoryCoster, JoinInputs, StepCoster};
use lec_core::exhaustive;
use lec_core::{expected_cost, MemoryModel, OptStats, Optimized, QueryTables};
use lec_cost::{CostModel, DetailedCostModel, JoinMethod, PaperCostModel};
use lec_plan::{JoinPred, JoinQuery, KeyId, Plan, RelSet, Relation};
use lec_stats::MarkovChain;
use lec_workload::{envs, QueryGen, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The memory world of the cases: a 4-bucket lognormal (mean 300, cv 0.8),
/// held static or walked between phases.
fn memories() -> [MemoryModel; 2] {
    let d = envs::lognormal(300.0, 0.8, 4);
    let chain = MarkovChain::random_walk(d.values().to_vec(), 0.4).expect("valid walk");
    let dynamic = MemoryModel::dynamic(chain, d.probs().to_vec()).expect("matching initial");
    [MemoryModel::Static(d), dynamic]
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Chain,
    Star,
    Cycle,
    Clique,
}

/// A seeded query of `shape`; a cycle is a chain closed by one more
/// predicate between its ends.
fn query(shape: Shape, n: usize, require_order: bool, seed: u64) -> JoinQuery {
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

/// A model whose join and sort formulas are all zero: every step costs
/// exactly its output pages, so the DP's floor is tight.
struct FreeSteps;

impl CostModel for FreeSteps {
    fn join_cost(&self, _: JoinMethod, _: f64, _: f64, _: f64) -> f64 {
        0.0
    }
    fn sort_cost(&self, _: f64, _: f64) -> f64 {
        0.0
    }
    fn join_breakpoints(&self, _: JoinMethod, _: f64, _: f64) -> Vec<f64> {
        Vec::new()
    }
    fn sort_breakpoints(&self, _: f64) -> Vec<f64> {
        Vec::new()
    }
}

/// Forwards a coster's prices but keeps the trait's default (zero)
/// `join_floor`, as Algorithm D's coster does.
struct NoFloor<C>(C);

impl<C: StepCoster> StepCoster for NoFloor<C> {
    fn join_all(&self, phase: usize, base: f64, join: JoinInputs) -> [f64; 3] {
        self.0.join_all(phase, base, join)
    }
    fn sort(&self, phase: usize, set: RelSet, pages: f64) -> f64 {
        self.0.sort(phase, set, pages)
    }
}

/// Runs the bounded DP and the oracle on `q` and asserts identical results,
/// consistent counters, and no more candidates priced than the oracle
/// priced; returns the bounded run's stats.
fn check<C: StepCoster>(q: &JoinQuery, coster: &C, label: &str) -> OptStats {
    let (stats, oracle_stats) = check_results(q, coster, label);
    assert!(
        stats.counters.candidates_priced <= oracle_stats.counters.candidates_priced,
        "{label}: {} candidates priced vs the oracle's {}",
        stats.counters.candidates_priced,
        oracle_stats.counters.candidates_priced
    );
    stats
}

/// [`check`] without the work comparison: the plan, the cost bits and the
/// counter identities. Returns the bounded and the oracle stats.
fn check_results<C: StepCoster>(q: &JoinQuery, coster: &C, label: &str) -> (OptStats, OptStats) {
    let tabs = QueryTables::new(q);
    let (new, stats) = dp::optimize_left_deep(q, &tabs, coster).expect("bounded");
    let (old, old_stats) = oracle::optimize_left_deep(q, &tabs, coster).expect("oracle");
    assert_same(&new, &old, label);
    let n = q.n() as u64;
    let c = &stats.counters;
    let lattice = (1u64 << n) - n - 1;
    assert_eq!(old_stats.counters.masks_expanded, lattice, "{label}");
    assert_eq!(c.masks_expanded + c.masks_pruned, lattice, "{label}: masks");
    assert_eq!(c.entries_written, n + c.masks_expanded, "{label}: entries");
    (stats, old_stats)
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

/// Every coster of the battery on `q`: the expected-cost costers under
/// both memory models, the fixed-memory ones at the lognormal's extreme
/// buckets. Returns the masks pruned over all of them.
fn check_all_costers(q: &JoinQuery, label: &str) -> u64 {
    let mut pruned = 0;
    for (m, memory) in memories().iter().enumerate() {
        let phases = memory.table(q.n().max(2)).expect("phases");
        let label = format!("{label} memory#{m}");
        let paper = ExpectedCoster::new(&PaperCostModel, &phases);
        let runs = [
            check(q, &paper, &format!("{label} expected/paper")),
            check(q, &NoFloor(paper), &format!("{label} no-floor")),
            check(
                q,
                &ExpectedCoster::new(&DetailedCostModel, &phases),
                &format!("{label} expected/detailed"),
            ),
            check(
                q,
                &ExpectedCoster::new(&FreeSteps, &phases),
                &format!("{label} expected/free"),
            ),
        ];
        pruned += runs.iter().map(|s| s.counters.masks_pruned).sum::<u64>();
    }
    let [memory, _] = memories();
    let values = memory.table(1).expect("phases").at(0).values().to_vec();
    for m in [values[0], values[values.len() - 1]] {
        for (name, model) in [
            ("paper", &PaperCostModel as &dyn CostModel),
            ("free", &FreeSteps),
        ] {
            let stats = check(
                q,
                &FixedMemoryCoster::new(model, m),
                &format!("{label} fixed/{name} m={m}"),
            );
            pruned += stats.counters.masks_pruned;
        }
    }
    pruned
}

#[test]
fn bounded_dp_matches_the_unbounded_sweep_bitwise() {
    let mut seed = 0xB0B0;
    for shape in [Shape::Chain, Shape::Star, Shape::Cycle, Shape::Clique] {
        let mut pruned = 0;
        for n in 2..=13 {
            for require_order in [false, true] {
                seed += 1;
                let q = query(shape, n, require_order, seed);
                pruned +=
                    check_all_costers(&q, &format!("{shape:?} n={n} ordered={require_order}"));
            }
        }
        assert!(pruned > 0, "{shape:?}: the bound never pruned");
    }
}

/// `q` with a seeded local selection on every relation, so access paths
/// cost fractional, non-representable amounts and the bound's summation
/// order rounds differently from the DP's.
fn with_selections(q: &JoinQuery, seed: u64) -> JoinQuery {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let relations = q
        .relations()
        .iter()
        .map(|r| {
            let s = 0.05 + 0.9 * rand::Rng::gen::<f64>(&mut rng);
            let r = r.clone().with_local_selectivity(s);
            if rand::Rng::gen::<bool>(&mut rng) {
                r.with_index()
            } else {
                r
            }
        })
        .collect();
    JoinQuery::new(relations, q.predicates().to_vec(), q.required_order()).expect("query")
}

/// A step coster under which every join and sort is free: every plan costs
/// the sum of its access costs, zero for plain scans.
struct FreeJoins;

impl StepCoster for FreeJoins {
    fn join_all(&self, _phase: usize, base: f64, _join: JoinInputs) -> [f64; 3] {
        [base; 3]
    }
    fn sort(&self, _phase: usize, _set: RelSet, _pages: f64) -> f64 {
        0.0
    }
}

/// Tight-bound cases. Under the zero-formula model a step costs exactly
/// its output pages, which the floor matches on the last step, so the
/// bound of the winner's last prefix equals its cost up to summation
/// order; fractional access costs make the two orders round apart. Under
/// free joins every plan ties with the incumbent, at zero for plain scans,
/// so the bound equals the limit exactly.
///
/// Free joins with selections tie every plan up to rounding, so nothing
/// can be pruned, and the sweep may reach an incumbent prefix by a path a
/// rounding step cheaper and price the incumbent's later steps again: those
/// runs are held to identical results, not to the work bound.
#[test]
fn tight_bound_never_prunes_the_winner() {
    for seed in 0..120u64 {
        let shape = [Shape::Chain, Shape::Star, Shape::Cycle, Shape::Clique][seed as usize % 4];
        let n = 3 + (seed as usize / 4) % 6;
        let plain = query(shape, n, seed % 3 == 0, 0x71 + seed);
        let label = format!("{shape:?} n={n} seed={seed}");
        check(&plain, &FreeJoins, &format!("{label} free"));
        let q = with_selections(&plain, seed);
        check_results(&q, &FreeJoins, &format!("{label} free/selected"));
        for memory in memories() {
            let phases = memory.table(n).expect("phases");
            check(
                &q,
                &ExpectedCoster::new(&FreeSteps, &phases),
                &format!("{label} expected"),
            );
            for &m in phases.at(0).values() {
                check(
                    &q,
                    &FixedMemoryCoster::new(&FreeSteps, m),
                    &format!("{label} fixed m={m}"),
                );
            }
        }
    }
}

/// Two one-page dimensions around a large fact table, with predicates that
/// barely filter: joining the dimensions to each other first (a cross
/// product of two pages) is the exact optimum, so the bound must leave
/// cross products in the search, not ban them.
#[test]
fn an_optimal_cross_product_is_kept() {
    let q = JoinQuery::new(
        vec![
            Relation::new("fact", 50_000.0, 5e6),
            Relation::new("dim_a", 1.0, 40.0),
            Relation::new("dim_b", 1.0, 40.0),
        ],
        vec![
            JoinPred {
                left: 0,
                right: 1,
                selectivity: 0.5,
                key: KeyId(0),
            },
            JoinPred {
                left: 0,
                right: 2,
                selectivity: 0.5,
                key: KeyId(1),
            },
        ],
        None,
    )
    .expect("query");
    let [memory, _] = memories();
    let phases = memory.table(q.n()).expect("phases");
    let coster = ExpectedCoster::new(&PaperCostModel, &phases);
    check(&q, &coster, "cross product");
    let tabs = QueryTables::new(&q);
    let (best, _) = dp::optimize_left_deep(&q, &tabs, &coster).unwrap();
    let (truth, _) = exhaustive::exhaustive_lec(&q, &PaperCostModel, &phases).expect("oracle");
    assert_eq!(
        expected_cost(&q, &PaperCostModel, &best.plan, &phases).to_bits(),
        truth.cost.to_bits()
    );
    let Plan::Join { left, .. } = &best.plan else {
        panic!("expected a join root, got {:?}", best.plan);
    };
    assert_eq!(
        left.rel_set(),
        RelSet::single(1).insert(2),
        "the optimum joins the two dimensions first:\n{}",
        best.plan.explain(&q)
    );
}

/// Identical relations and selectivities: every plan shape has many
/// bit-identical twins, so the first-minimum tie-breaking must survive
/// pruning.
#[test]
fn exact_ties_keep_the_first_minimum() {
    for shape in [Shape::Chain, Shape::Star, Shape::Cycle, Shape::Clique] {
        for n in [4, 7, 10] {
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
                .map(|&(left, right)| JoinPred {
                    left,
                    right,
                    selectivity: 1e-3,
                    key: KeyId(0),
                })
                .collect();
            let relations = (0..n)
                .map(|i| Relation::new(format!("r{i}"), 500.0, 5e4))
                .collect();
            let q = JoinQuery::new(relations, predicates, Some(KeyId(0))).expect("query");
            check_all_costers(&q, &format!("ties {shape:?} n={n}"));
        }
    }
}

/// Relations of 1e300 pages: every multi-relation result overflows to ∞
/// pages, so every plan, the incumbent included, costs ∞. The bounded
/// sweep answers with a typed error, in every build and never by a panic,
/// exactly when the oracle's winner is non-finite (the oracle returns it in
/// release builds; its debug-build verifier panics on it). The same chains
/// over 1,000-page relations have finite winners, which both sweeps agree
/// on.
#[test]
fn infinite_costs_prune_nothing() {
    for n in [3, 5, 8] {
        for pages in [1e300, 1e3] {
            let q = query(Shape::Chain, n, true, 0xF00 + n as u64);
            let relations = (0..n)
                .map(|i| Relation::new(format!("r{i}"), pages, pages))
                .collect();
            let q = JoinQuery::new(relations, q.predicates().to_vec(), q.required_order())
                .expect("query");
            let [memory, _] = memories();
            let phases = memory.table(n).expect("phases");
            let coster = ExpectedCoster::new(&PaperCostModel, &phases);
            let tabs = QueryTables::new(&q);
            let label = format!("n={n} pages={pages}");
            let new = std::panic::catch_unwind(|| dp::optimize_left_deep(&q, &tabs, &coster))
                .unwrap_or_else(|_| panic!("{label}: the bounded sweep panicked"));
            let old = std::panic::catch_unwind(|| oracle::optimize_left_deep(&q, &tabs, &coster));
            let old = match old {
                Ok(old) => Some(old.expect("oracle").0),
                Err(_) if cfg!(debug_assertions) => None,
                Err(_) => panic!("{label}: the oracle panicked in a release build"),
            };
            let oracle_finite = old.as_ref().is_some_and(|o| o.cost.is_finite());
            assert_eq!(
                oracle_finite,
                pages < 1e10,
                "{label}: the case lost its point"
            );
            match (new, old) {
                (Ok((new, _)), Some(old)) if oracle_finite => assert_same(&new, &old, &label),
                (Err(lec_core::CoreError::Plan(lec_plan::PlanError::BadCost { value, .. })), _)
                    if !oracle_finite =>
                {
                    assert!(!value.is_finite(), "{label}: rejected cost {value}");
                }
                (new, _) => panic!("{label}: oracle finite: {oracle_finite}, bounded: {new:?}"),
            }
        }
    }
}

mod oracle {
    //! The left-deep DP as it stood before it bounded its search, copied
    //! verbatim except for what living outside the crate needs: public-API
    //! imports, a crate-visible entry point and no lint pragmas.

    use lec_core::dp::{JoinInputs, Optimized, StepCoster};
    use lec_core::error::CoreError;
    use lec_core::par;
    use lec_core::precompute::QueryTables;
    use lec_core::stats::OptStats;
    use lec_cost::{AccessMethod, JoinMethod};
    use lec_plan::{JoinQuery, KeyId, Plan, RelSet};

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

    /// Runs the left-deep dynamic program with the given step coster against
    /// caller-built [`QueryTables`] (batch drivers build them once and share
    /// them across algorithms), returning the winner and its search-space
    /// [`OptStats`]. The subset sweep walks the lattice rank by rank (every
    /// subset still precedes its supersets, so DP order is preserved and
    /// results are bit-identical to a flat numeric sweep) so per-rank wall
    /// time can be recorded; counters accumulate in mask order.
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
