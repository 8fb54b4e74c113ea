//! Integration tests: the optimizers are pure functions of the logical
//! query. Running them on worker threads, on an isomorphic renumbering, or
//! on the canonical form the plan cache stores must not change the optimum,
//! and their search counters must aggregate exactly. The concurrent server
//! and the serving layer's fingerprint-keyed plan cache rely on all three.

use lecopt::core::{alg_c, bushy, evaluate, lsc, MemoryModel, OptStats};
use lecopt::cost::PaperCostModel;
use lecopt::plan::fingerprint::{canonicalize, fingerprint};
use lecopt::plan::{JoinPred, JoinQuery, KeyId};
use lecopt::stats::Distribution;
use lecopt::workload::queries::{QueryGen, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn query(n: usize, seed: u64, topology: Topology) -> JoinQuery {
    QueryGen {
        topology,
        n,
        ..QueryGen::default()
    }
    .generate(&mut ChaCha8Rng::seed_from_u64(seed))
}

fn queries() -> Vec<JoinQuery> {
    let mut qs = Vec::new();
    for (i, topology) in [Topology::Chain, Topology::Star, Topology::Clique]
        .into_iter()
        .enumerate()
    {
        for n in 3..=6 {
            qs.push(query(n, 40 + 10 * i as u64 + n as u64, topology));
        }
    }
    qs
}

fn memory() -> Distribution {
    Distribution::new([(30.0, 0.3), (300.0, 0.45), (3000.0, 0.25)]).unwrap()
}

/// `q` with relation `i` renumbered to `n - 1 - i`, the predicate list
/// reversed and every key id shifted by 5 (the required order with it).
fn renumbered(q: &JoinQuery) -> JoinQuery {
    let n = q.n();
    let relations = (0..n).map(|i| q.relation(n - 1 - i).clone()).collect();
    let predicates = q
        .predicates()
        .iter()
        .rev()
        .map(|p| JoinPred {
            left: n - 1 - p.left,
            right: n - 1 - p.right,
            selectivity: p.selectivity,
            key: KeyId(p.key.0 + 5),
        })
        .collect();
    let order = q.required_order().map(|k| KeyId(k.0 + 5));
    JoinQuery::new(relations, predicates, order).unwrap()
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
        "{what}: {a} vs {b}"
    );
}

/// Algorithm C, LSC and the bushy optimizer return bit-identical plans,
/// costs and search counters whether they run serially or on scoped
/// worker threads: no optimizer keeps state across calls.
#[test]
fn optimizers_agree_serially_and_across_threads() {
    let qs = queries();
    let mem = memory();
    let memory = MemoryModel::Static(mem.clone());
    let model = PaperCostModel;
    let run = |q: &JoinQuery| {
        let c = alg_c::optimize(q, &model, &memory).unwrap();
        let l = lsc::optimize_at(q, &model, mem.mode()).unwrap();
        let b = bushy::optimize(q, &model, &memory).unwrap();
        [c, l, b].map(|(opt, stats)| (opt.plan, opt.cost.to_bits(), stats.counters))
    };
    let serial: Vec<_> = qs.iter().map(run).collect();
    let threaded: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = qs
            .chunks(4)
            .map(|chunk| s.spawn(move || chunk.iter().map(run).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    assert_eq!(serial, threaded);
}

/// An isomorphic renumbering has the same fingerprint and, under every
/// optimizer, the same optimal cost up to float reassociation.
#[test]
fn isomorphic_renumberings_share_one_optimum() {
    let mem = memory();
    let memory = MemoryModel::Static(mem.clone());
    let model = PaperCostModel;
    for q in queries() {
        let r = renumbered(&q);
        assert_eq!(fingerprint(&q), fingerprint(&r));
        let (a, _) = alg_c::optimize(&q, &model, &memory).unwrap();
        let (b, _) = alg_c::optimize(&r, &model, &memory).unwrap();
        b.plan.validate(&r).unwrap();
        assert_close(a.cost, b.cost, "Algorithm C");
        let (a, _) = lsc::optimize_at(&q, &model, mem.mode()).unwrap();
        let (b, _) = lsc::optimize_at(&r, &model, mem.mode()).unwrap();
        assert_close(a.cost, b.cost, "LSC");
        let (a, _) = bushy::optimize(&q, &model, &memory).unwrap();
        let (b, _) = bushy::optimize(&r, &model, &memory).unwrap();
        assert_close(a.cost, b.cost, "bushy");
    }
}

/// The plan cache's path: optimize the canonical form, map the plan back
/// to the caller's numbering. The mapped plan is valid for the original
/// query and its expected cost there is the direct optimum.
#[test]
fn canonical_plans_map_back_to_the_original_optimum() {
    let memory = MemoryModel::Static(memory());
    let model = PaperCostModel;
    for q in queries().iter().flat_map(|q| [q.clone(), renumbered(q)]) {
        let canon = canonicalize(&q);
        let (cached, _) = alg_c::optimize(&canon.query, &model, &memory).unwrap();
        let mapped = canon.plan_to_original(&cached.plan);
        mapped.validate(&q).unwrap();
        let phases = memory.table(q.n().max(2)).unwrap();
        let (direct, _) = alg_c::optimize(&q, &model, &memory).unwrap();
        assert_close(
            evaluate::expected_cost(&q, &model, &mapped, &phases),
            direct.cost,
            "mapped canonical plan",
        );
        assert_eq!(canon.plan_to_canonical(&mapped), cached.plan);
    }
}

/// Absorbing per-query statistics sums every search counter, keeps the
/// largest relation count, and is deterministic for a fixed input order.
#[test]
fn absorbed_stats_equal_the_sum_of_solo_runs() {
    let memory = MemoryModel::Static(memory());
    let runs: Vec<OptStats> = queries()
        .iter()
        .map(|q| alg_c::optimize(q, &PaperCostModel, &memory).unwrap().1)
        .collect();
    let fold = || {
        let mut total = OptStats::new("total", 0);
        for s in &runs {
            total.absorb(s);
        }
        total
    };
    let total = fold();
    let sum = |f: fn(&OptStats) -> u64| runs.iter().map(f).sum::<u64>();
    assert_eq!(total.relations, 6);
    assert_eq!(
        total.counters.masks_expanded,
        sum(|s| s.counters.masks_expanded)
    );
    assert_eq!(
        total.counters.masks_pruned,
        sum(|s| s.counters.masks_pruned)
    );
    assert_eq!(
        total.counters.candidates_priced,
        sum(|s| s.counters.candidates_priced)
    );
    assert_eq!(
        total.counters.entries_written,
        sum(|s| s.counters.entries_written)
    );
    assert!(total.counters.candidates_priced > 0);
    assert_eq!(total.counters, fold().counters);
    assert_eq!(total.precompute, fold().precompute);
}
