//! Differential battery for the bounded left-deep DP: `dp::optimize_left_deep`
//! (an incumbent plus an exact lower bound that prunes subsets) priced by
//! the one memory coster `dp::MemoryCoster`, against a verbatim copy of the
//! unbounded sweep it replaced priced by verbatim copies of the step
//! costers it replaced (module `oracle` below).
//!
//! Neither pruning nor the coster may change a result, so every case
//! asserts the same plan and the same `cost.to_bits()` as the oracle, that
//! no more candidates were priced than the oracle priced, and the counter
//! identities `masks_expanded + masks_pruned = 2ⁿ − n − 1` and
//! `entries_written = n + masks_expanded`. On queries of up to eight
//! relations every join step and root sort the two costers price is also
//! compared bit for bit.
//!
//! Cases:
//! - seeded chain, star, cycle and clique queries with n = 2–13, with and
//!   without a required order, under static and random-walk memory (from
//!   a uniform and from a skewed start);
//! - costers: `MemoryCoster` against the old `ExpectedCoster` (paper and
//!   detailed models, both of which state a join floor) and, on one-point
//!   memory, against the old `FixedMemoryCoster`; and a forwarding coster
//!   with a zero `step_floor`, the floor Algorithm D's coster uses
//!   (Algorithm D itself is checked against its stand-alone implementation
//!   in `alg_d_differential.rs`);
//! - the join floor against the output-only floor it replaced and the zero
//!   floor, on filtered queries: each prunes at least as much as the next,
//!   and the join floor strictly more somewhere;
//! - a zero-formula cost model, under which the lower bound is tight: a
//!   step costs exactly its output pages, so a bound that is a page too
//!   high, has no rounding margin, or prunes on ties shows up here;
//! - adversarial queries: an optimum that joins a cross product first,
//!   many exact cost ties, and relations so large that every cost is ∞.
//!
//! The battery is checked against two mutations of the coster: folding a
//! step as `formula · p + out · p`, and pricing every phase with phase 0's
//! distribution. Each makes some case here fail.

use lec_core::dp::{self, JoinInputs, MemoryCoster, SweepCoster};
use lec_core::exhaustive;
use lec_core::{expected_cost, MemoryModel, OptStats, Optimized, PhaseDists, QueryTables};
use lec_cost::{CostModel, DetailedCostModel, JoinMethod, PaperCostModel};
use lec_plan::{JoinPred, JoinQuery, KeyId, Plan, RelSet, Relation};
use lec_stats::{Distribution, MarkovChain};
use lec_workload::{envs, QueryGen, Topology};
use oracle::StepCoster;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The memory world of the cases: a 4-bucket lognormal (mean 300, cv 0.8),
/// held static or walked between phases. Its buckets are equally likely
/// and stay so under the walk, so a third model walks the same support
/// from a skewed start: probabilities that are no powers of two, and that
/// change from phase to phase.
fn memories() -> [MemoryModel; 3] {
    let d = envs::lognormal(300.0, 0.8, 4);
    let chain = MarkovChain::random_walk(d.values().to_vec(), 0.4).expect("valid walk");
    let dynamic = MemoryModel::dynamic(chain.clone(), d.probs().to_vec()).expect("matching");
    let skewed = MemoryModel::dynamic(chain, vec![0.1, 0.2, 0.3, 0.4]).expect("matching");
    [MemoryModel::Static(d), dynamic, skewed]
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

/// Forwards a coster's prices but floors each step with its own
/// `step_floor`: [`no_floor`], the zero floor Algorithm D's coster keeps,
/// or [`output_floor`], the memory coster's floor before cost models
/// stated a join floor.
struct Floored<C>(C, fn(f64, f64, f64) -> f64);

fn no_floor(_left: f64, _right: f64, _out: f64) -> f64 {
    0.0
}

fn output_floor(_left: f64, _right: f64, out: f64) -> f64 {
    out
}

impl<C: SweepCoster> SweepCoster for Floored<C> {
    fn scenarios(&self) -> usize {
        self.0.scenarios()
    }
    fn join_each(&self, phase: usize, bases: &[f64], join: JoinInputs, out: &mut [[f64; 3]]) {
        self.0.join_each(phase, bases, join, out)
    }
    fn join_one(&self, phase: usize, s: usize, base: f64, join: JoinInputs) -> [f64; 3] {
        self.0.join_one(phase, s, base, join)
    }
    fn sort_one(&self, phase: usize, s: usize, set: RelSet, pages: f64) -> f64 {
        self.0.sort_one(phase, s, set, pages)
    }
    fn step_floor(&self, left: f64, right: f64, out: f64) -> f64 {
        (self.1)(left, right, out)
    }
}

/// The one-scenario memory table of a fixed memory value: the LSC world.
fn point(memory: f64, n: usize) -> PhaseDists {
    let d = Distribution::point(memory).expect("positive memory");
    MemoryModel::Static(d).table(n.max(2)).expect("phases")
}

/// Runs the bounded DP with the live coster and the oracle with the old
/// one on `q` and asserts identical results, consistent counters, and no
/// more candidates priced than the oracle priced; returns the bounded
/// run's stats.
fn check<C: SweepCoster, O: StepCoster>(q: &JoinQuery, live: &C, old: &O, label: &str) -> OptStats {
    let (stats, oracle_stats) = check_results(q, live, old, label);
    assert!(
        stats.counters.candidates_priced <= oracle_stats.counters.candidates_priced,
        "{label}: {} candidates priced vs the oracle's {}",
        stats.counters.candidates_priced,
        oracle_stats.counters.candidates_priced
    );
    stats
}

/// [`check`] without the work comparison: the plan, the cost bits and the
/// counter identities, plus every step of both costers on small queries.
/// Returns the bounded and the oracle stats.
fn check_results<C: SweepCoster, O: StepCoster>(
    q: &JoinQuery,
    live: &C,
    old: &O,
    label: &str,
) -> (OptStats, OptStats) {
    let tabs = QueryTables::new(q);
    if q.n() <= 8 {
        check_steps(q, &tabs, live, old, label);
    }
    let (new, stats) = dp::optimize_left_deep(q, &tabs, live).expect("bounded");
    let [new] = new.as_slice() else {
        panic!("{label}: {} winners for one scenario", new.len());
    };
    let (old, old_stats) = oracle::optimize_left_deep(q, &tabs, old).expect("oracle");
    assert_same(new, &old, label);
    let n = q.n() as u64;
    let c = &stats.counters;
    let lattice = (1u64 << n) - n - 1;
    assert_eq!(old_stats.counters.masks_expanded, lattice, "{label}");
    assert_eq!(c.masks_expanded + c.masks_pruned, lattice, "{label}: masks");
    assert_eq!(c.entries_written, n + c.masks_expanded, "{label}: entries");
    (stats, old_stats)
}

/// Every join step of the lattice, from a fractional base, and a root sort
/// of every subset at every phase: the live coster (through both
/// `join_one` and `join_each`) and the old one price them to the same bits.
fn check_steps<C: SweepCoster, O: StepCoster>(
    q: &JoinQuery,
    tabs: &QueryTables,
    live: &C,
    old: &O,
    label: &str,
) {
    for set in RelSet::all_subsets(q.n()).filter(|s| s.len() >= 2) {
        let phase = set.len() - 2;
        for j in set.iter() {
            let sub = set.remove(j);
            let join = JoinInputs {
                sub,
                j,
                set,
                left_pages: tabs.pages(sub),
                right_pages: tabs.access(j).2,
                out_pages: tabs.pages(set),
            };
            let base = 1.0 / 3.0 + tabs.access(j).0;
            let want = old.join_all(phase, base, join).map(f64::to_bits);
            let mut each = [[f64::NAN; 3]];
            live.join_each(phase, &[base], join, &mut each);
            assert_eq!(
                each[0].map(f64::to_bits),
                want,
                "{label}: join_each {set:?}/{j}"
            );
            let one = live.join_one(phase, 0, base, join).map(f64::to_bits);
            assert_eq!(one, want, "{label}: join_one {set:?}/{j}");
        }
        let pages = tabs.pages(set);
        for phase in 0..q.n() {
            assert_eq!(
                live.sort_one(phase, 0, set, pages).to_bits(),
                old.sort(phase, set, pages).to_bits(),
                "{label}: sort {set:?} at phase {phase}"
            );
        }
    }
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

/// Every coster of the battery on `q`: the memory coster against the old
/// expected-cost costers under both memory models, and against the old
/// fixed-memory ones at the lognormal's extreme buckets. Returns the masks
/// pruned over all of them.
fn check_all_costers(q: &JoinQuery, label: &str) -> u64 {
    let mut pruned = 0;
    for (m, memory) in memories().iter().enumerate() {
        let phases = [memory.table(q.n().max(2)).expect("phases")];
        let label = format!("{label} memory#{m}");
        let paper = MemoryCoster::new(&PaperCostModel, &phases);
        let old_paper = oracle::ExpectedCoster::new(&PaperCostModel, &phases[0]);
        let runs = [
            check(q, &paper, &old_paper, &format!("{label} expected/paper")),
            check(
                q,
                &Floored(paper, no_floor),
                &old_paper,
                &format!("{label} no-floor"),
            ),
            check(
                q,
                &MemoryCoster::new(&DetailedCostModel, &phases),
                &oracle::ExpectedCoster::new(&DetailedCostModel, &phases[0]),
                &format!("{label} expected/detailed"),
            ),
            check(
                q,
                &MemoryCoster::new(&FreeSteps, &phases),
                &oracle::ExpectedCoster::new(&FreeSteps, &phases[0]),
                &format!("{label} expected/free"),
            ),
        ];
        pruned += runs.iter().map(|s| s.counters.masks_pruned).sum::<u64>();
    }
    let [memory, ..] = memories();
    let values = memory.table(1).expect("phases").at(0).values().to_vec();
    for m in [values[0], values[values.len() - 1]] {
        let phases = [point(m, q.n())];
        for (name, model) in [
            ("paper", &PaperCostModel as &dyn CostModel),
            ("free", &FreeSteps),
        ] {
            let stats = check(
                q,
                &MemoryCoster::new(model, &phases),
                &oracle::FixedMemoryCoster::new(model, m),
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

impl SweepCoster for FreeJoins {
    fn join_one(&self, _phase: usize, _s: usize, base: f64, _join: JoinInputs) -> [f64; 3] {
        [base; 3]
    }
    fn sort_one(&self, _phase: usize, _s: usize, _set: RelSet, _pages: f64) -> f64 {
        0.0
    }
}

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
        check(&plain, &FreeJoins, &FreeJoins, &format!("{label} free"));
        let q = with_selections(&plain, seed);
        check_results(
            &q,
            &FreeJoins,
            &FreeJoins,
            &format!("{label} free/selected"),
        );
        for memory in memories() {
            let phases = [memory.table(n).expect("phases")];
            check(
                &q,
                &MemoryCoster::new(&FreeSteps, &phases),
                &oracle::ExpectedCoster::new(&FreeSteps, &phases[0]),
                &format!("{label} expected"),
            );
            for &m in phases[0].at(0).values() {
                check(
                    &q,
                    &MemoryCoster::new(&FreeSteps, &[point(m, n)]),
                    &oracle::FixedMemoryCoster::new(&FreeSteps, m),
                    &format!("{label} fixed m={m}"),
                );
            }
        }
    }
}

/// The join floor against the floors it tightens, under `model` and the
/// skewed random-walk memory of [`memories`]: the memory coster's own
/// floor (`join_floor + out`), the output-only floor and the zero floor all
/// give the oracle's plan and cost bits. The incumbent does not depend on
/// the floor and a tighter floor only raises every bound, so no floor keeps
/// a subset a looser one prunes, nor prices a candidate it does not.
/// Returns whether the join floor pruned strictly more than the output
/// floor.
fn check_floors<M: oracle::ExpectedJoinSteps>(q: &JoinQuery, model: &M, label: &str) -> bool {
    let [.., skewed] = memories();
    let phases = [skewed.table(q.n()).expect("phases")];
    let old = &oracle::ExpectedCoster::new(model, &phases[0]);
    let coster = || MemoryCoster::new(model, &phases);
    let joined = check(q, &coster(), old, &format!("{label} join floor"));
    let output = check(
        q,
        &Floored(coster(), output_floor),
        old,
        &format!("{label} output floor"),
    );
    let zero = check(
        q,
        &Floored(coster(), no_floor),
        old,
        &format!("{label} no floor"),
    );
    for (tight, loose) in [(&joined, &output), (&output, &zero)] {
        let (t, l) = (&tight.counters, &loose.counters);
        assert!(
            t.masks_pruned >= l.masks_pruned,
            "{label}: pruned {} < {}",
            t.masks_pruned,
            l.masks_pruned
        );
        assert!(
            t.candidates_priced <= l.candidates_priced,
            "{label}: priced {} > {}",
            t.candidates_priced,
            l.candidates_priced
        );
    }
    joined.counters.masks_pruned > output.counters.masks_pruned
}

/// Filtered chains, stars, cycles and cliques of 5 to 11 relations, one of
/// whose relations a filter cuts below one page (its access path emits the
/// one page `effective_pages` clamps that to): the paper and detailed
/// models' join floor prunes at least as much as the output floor on every
/// case and strictly more on some, with the zero floor as the control.
#[test]
fn join_floor_prunes_more_than_the_output_floor() {
    let (mut paper_gains, mut detailed_gains) = (0, 0);
    for seed in 0..28u64 {
        let shape = [Shape::Chain, Shape::Star, Shape::Cycle, Shape::Clique][seed as usize % 4];
        let n = 5 + (seed as usize / 4) % 7;
        let q = with_selections(&query(shape, n, seed % 2 == 0, 0xF1 + seed), seed);
        let tiny = seed as usize % n;
        let mut relations = q.relations().to_vec();
        relations[tiny] = Relation::new("tiny", 4.0, 200.0).with_local_selectivity(0.05);
        let q =
            JoinQuery::new(relations, q.predicates().to_vec(), q.required_order()).expect("query");
        let filtered = q.relation(tiny);
        assert!(filtered.pages * filtered.local_selectivity < 1.0);
        assert_eq!(QueryTables::new(&q).access(tiny).2, 1.0);
        let label = format!("{shape:?} n={n} seed={seed}");
        paper_gains += usize::from(check_floors(&q, &PaperCostModel, &format!("{label} paper")));
        detailed_gains += usize::from(check_floors(
            &q,
            &DetailedCostModel,
            &format!("{label} detailed"),
        ));
    }
    assert!(paper_gains > 0, "the paper join floor never pruned more");
    assert!(
        detailed_gains > 0,
        "the detailed join floor never pruned more"
    );
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
    let [memory, ..] = memories();
    let phases = [memory.table(q.n()).expect("phases")];
    let coster = MemoryCoster::new(&PaperCostModel, &phases);
    let old = oracle::ExpectedCoster::new(&PaperCostModel, &phases[0]);
    check(&q, &coster, &old, "cross product");
    let tabs = QueryTables::new(&q);
    let (winners, _) = dp::optimize_left_deep(&q, &tabs, &coster).unwrap();
    let best = &winners[0];
    let phases = &phases[0];
    let (truth, _) = exhaustive::exhaustive_lec(&q, &PaperCostModel, phases).expect("oracle");
    assert_eq!(
        expected_cost(&q, &PaperCostModel, &best.plan, phases).to_bits(),
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
            let [memory, ..] = memories();
            let phases = [memory.table(n).expect("phases")];
            let old_coster = oracle::ExpectedCoster::new(&PaperCostModel, &phases[0]);
            let tabs = QueryTables::new(&q);
            let label = format!("n={n} pages={pages}");
            let new = std::panic::catch_unwind(|| {
                let coster = MemoryCoster::new(&PaperCostModel, &phases);
                dp::optimize_left_deep(&q, &tabs, &coster)
            })
            .unwrap_or_else(|_| panic!("{label}: the bounded sweep panicked"));
            let old =
                std::panic::catch_unwind(|| oracle::optimize_left_deep(&q, &tabs, &old_coster));
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
                (Ok((new, _)), Some(old)) if oracle_finite => assert_same(&new[0], &old, &label),
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
    //! The left-deep DP as it stood before it bounded its search, and the
    //! step costers it ran before one memory coster replaced them
    //! (`StepCoster`, `FixedMemoryCoster`, `ExpectedCoster`, and the cost
    //! model's fused `expected_join_steps` with the paper model's
    //! override), copied verbatim except for what living outside the crates
    //! needs: public-API imports, crate-visible items, the fused kernel as
    //! an extension trait, and no lint pragmas.

    use lec_core::dp::{JoinInputs, Optimized};
    use lec_core::error::CoreError;
    use lec_core::par;
    use lec_core::precompute::QueryTables;
    use lec_core::stats::OptStats;
    use lec_core::PhaseDists;
    use lec_cost::{AccessMethod, CostModel, DetailedCostModel, JoinMethod, PaperCostModel};
    use lec_plan::{JoinQuery, KeyId, Plan, RelSet};

    /// Prices one plan *step* for the dynamic program. The phase index follows
    /// §3.5: the join forming a `k`-relation result is phase `k - 2`; a final
    /// sort is the last phase.
    pub(crate) trait StepCoster {
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

    /// Join step cost: the join formula plus materializing the output.
    fn join_step<M: CostModel + ?Sized>(
        model: &M,
        method: lec_cost::JoinMethod,
        left_pages: f64,
        right_pages: f64,
        out_pages: f64,
        memory: f64,
    ) -> f64 {
        model.join_cost(method, left_pages, right_pages, memory) + out_pages
    }

    /// Sort step cost: the sort formula plus materializing the output.
    fn sort_step<M: CostModel + ?Sized>(model: &M, pages: f64, memory: f64) -> f64 {
        model.sort_cost(pages, memory) + pages
    }

    /// Step coster for a single fixed memory value (the LSC world).
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct FixedMemoryCoster<'a, M: ?Sized> {
        model: &'a M,
        memory: f64,
    }

    impl<'a, M: CostModel + ?Sized> FixedMemoryCoster<'a, M> {
        /// Prices steps at the given memory value.
        pub(crate) fn new(model: &'a M, memory: f64) -> Self {
            Self { model, memory }
        }
    }

    impl<M: CostModel + ?Sized> StepCoster for FixedMemoryCoster<'_, M> {
        fn join_all(&self, _phase: usize, base: f64, join: JoinInputs) -> [f64; 3] {
            let (l, r, out) = (join.left_pages, join.right_pages, join.out_pages);
            JoinMethod::ALL
                .map(|method| base + join_step(self.model, method, l, r, out, self.memory))
        }

        fn sort(&self, _phase: usize, _set: RelSet, pages: f64) -> f64 {
            sort_step(self.model, pages, self.memory)
        }
    }

    /// Step coster taking expectations over per-phase memory distributions
    /// (Algorithm C; with a static table every phase shares one distribution).
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct ExpectedCoster<'a, M: ?Sized> {
        model: &'a M,
        phases: &'a PhaseDists,
    }

    impl<'a, M: CostModel + ?Sized> ExpectedCoster<'a, M> {
        /// Prices steps in expectation over `phases`.
        pub(crate) fn new(model: &'a M, phases: &'a PhaseDists) -> Self {
            Self { model, phases }
        }
    }

    impl<M: ExpectedJoinSteps + ?Sized> StepCoster for ExpectedCoster<'_, M> {
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

    /// `CostModel::expected_join_steps`: the trait default, overridden by
    /// the paper model.
    pub(crate) trait ExpectedJoinSteps: CostModel {
        /// Expected join-step costs for **all three** join methods at once, in
        /// [`JoinMethod::ALL`] order. The default defers to
        /// [`CostModel::expected_join_step`] per method; models may override
        /// with a single fused bucket pass, provided each method's accumulator
        /// receives exactly the per-method sequence of adds (bit-identity, as
        /// above). The DP inner loop prices every candidate under all three
        /// methods, so fusing shares the bucket loads and loop overhead.
        fn expected_join_steps(
            &self,
            left_pages: f64,
            right_pages: f64,
            out_pages: f64,
            mem_values: &[f64],
            mem_probs: &[f64],
        ) -> [f64; 3] {
            JoinMethod::ALL.map(|method| {
                self.expected_join_step(
                    method,
                    left_pages,
                    right_pages,
                    out_pages,
                    mem_values,
                    mem_probs,
                )
            })
        }
    }

    impl ExpectedJoinSteps for DetailedCostModel {}
    impl ExpectedJoinSteps for super::FreeSteps {}

    impl ExpectedJoinSteps for PaperCostModel {
        fn expected_join_steps(
            &self,
            a: f64,
            b: f64,
            out: f64,
            mem_values: &[f64],
            mem_probs: &[f64],
        ) -> [f64; 3] {
            debug_assert!(a > 0.0 && b > 0.0);
            // One fused bucket pass. Each accumulator sees exactly the adds its
            // per-method kernel would produce, in the same order, so the result
            // is bit-identical to three separate `expected_join_step` calls
            // (pinned by `fused_join_steps_match_per_method_bitwise`).
            let l = a.max(b);
            let (sl, ss) = (l.sqrt(), a.min(b).sqrt());
            let (ql, qs) = (sl.sqrt(), ss.sqrt());
            let ab = a + b;
            let nl_threshold = a.min(b) + 2.0;
            let nl_cached = a + b;
            let nl_quadratic = a + a * b;
            let (mut sm, mut gh, mut nl) = (0.0, 0.0, 0.0);
            for (&m, &p) in mem_values.iter().zip(mem_probs) {
                let c_sm = if m > sl {
                    2.0
                } else if m > ql {
                    4.0
                } else {
                    6.0
                };
                sm += (c_sm * ab + out) * p;
                let c_gh = if m > ss {
                    2.0
                } else if m > qs {
                    4.0
                } else {
                    6.0
                };
                gh += (c_gh * ab + out) * p;
                let c_nl = if m >= nl_threshold {
                    nl_cached
                } else {
                    nl_quadratic
                };
                nl += (c_nl + out) * p;
            }
            [sm, gh, nl]
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
