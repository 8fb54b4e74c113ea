//! Integration tests: every theorem and proposition in the paper, checked
//! through the public facade against brute force.

use lecopt::core::topc::{frontier_bound, frontier_merge, top_c_plans, MergeStrategy};
use lecopt::core::{alg_a, alg_b, alg_c, evaluate, exhaustive, lsc, MemoryModel};
use lecopt::cost::PaperCostModel;
use lecopt::stats::{Distribution, MarkovChain};
use lecopt::workload::queries::{QueryGen, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn query(n: usize, seed: u64, topology: Topology) -> lecopt::plan::JoinQuery {
    QueryGen {
        topology,
        n,
        ..QueryGen::default()
    }
    .generate(&mut ChaCha8Rng::seed_from_u64(seed))
}

fn spread() -> Distribution {
    Distribution::new([(18.0, 0.25), (120.0, 0.4), (700.0, 0.2), (4000.0, 0.15)]).unwrap()
}

/// Theorem 2.1: System R DP = least specific cost among left-deep plans.
#[test]
fn theorem_2_1_lsc_optimality() {
    for seed in 0..6 {
        for topology in [Topology::Chain, Topology::Star] {
            let q = query(4, seed, topology);
            for memory in [25.0, 300.0, 2500.0] {
                let opt = lsc::optimize_at(&q, &PaperCostModel, memory).unwrap().0;
                let best = exhaustive::enumerate_left_deep(&q)
                    .iter()
                    .map(|p| evaluate::plan_cost_at(&q, &PaperCostModel, p, memory))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    (opt.cost - best).abs() <= 1e-6 * best,
                    "seed {seed} {topology:?} M={memory}: {} vs {best}",
                    opt.cost
                );
            }
        }
    }
}

/// Theorem 3.3: Algorithm C = least expected cost among left-deep plans.
#[test]
fn theorem_3_3_lec_optimality_static() {
    for seed in 0..6 {
        let q = query(4, 100 + seed, Topology::Chain);
        let mem = MemoryModel::Static(spread());
        let lec = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap().0;
        let phases = mem.table(q.n()).unwrap();
        let truth = exhaustive::exhaustive_lec(&q, &PaperCostModel, &phases)
            .unwrap()
            .0;
        assert!(
            (lec.cost - truth.cost).abs() <= 1e-6 * truth.cost,
            "seed {seed}: {} vs {}",
            lec.cost,
            truth.cost
        );
    }
}

/// Theorem 3.4: Algorithm C stays exact with Markov-dynamic memory.
#[test]
fn theorem_3_4_lec_optimality_dynamic() {
    for seed in 0..4 {
        let q = query(4, 200 + seed, Topology::Chain);
        let chain = MarkovChain::random_walk(vec![20.0, 150.0, 1200.0], 0.5).unwrap();
        let mem = MemoryModel::dynamic(chain, vec![0.3, 0.4, 0.3]).unwrap();
        let lec = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap().0;
        let phases = mem.table(q.n()).unwrap();
        let truth = exhaustive::exhaustive_lec(&q, &PaperCostModel, &phases)
            .unwrap()
            .0;
        assert!(
            (lec.cost - truth.cost).abs() <= 1e-6 * truth.cost,
            "seed {seed}: {} vs {}",
            lec.cost,
            truth.cost
        );
    }
}

/// Contribution 1: the LEC plan is at least as good, in expectation, as the
/// plan chosen for ANY specific parameter value — and the algorithm family
/// is totally ordered: C ≤ B ≤ A ≤ LSC summaries.
#[test]
fn lec_dominates_every_specific_choice() {
    for seed in 0..8 {
        let q = query(5, 300 + seed, Topology::Chain);
        let dist = spread();
        let mem = MemoryModel::Static(dist.clone());
        let phases = mem.table(q.n()).unwrap();
        let c = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap().0;
        let b = alg_b::optimize(&q, &PaperCostModel, &mem, 4).unwrap();
        let a = alg_a::optimize(&q, &PaperCostModel, &mem).unwrap();
        let tol = 1e-9 * c.cost.max(1.0);
        assert!(c.cost <= b.best.cost + tol, "seed {seed}");
        assert!(b.best.cost <= a.best.cost + tol, "seed {seed}");
        for &m in dist.values() {
            let specific = lsc::optimize_at(&q, &PaperCostModel, m).unwrap().0;
            let e = evaluate::expected_cost(&q, &PaperCostModel, &specific.plan, &phases);
            assert!(a.best.cost <= e + tol, "seed {seed}, m {m}");
        }
    }
}

/// §3.7: one bucket reduces every LEC algorithm to the standard optimizer.
#[test]
fn one_bucket_degenerates_to_system_r() {
    for seed in 0..4 {
        let q = query(5, 400 + seed, Topology::Chain);
        for m in [30.0, 500.0] {
            let mem = MemoryModel::Static(Distribution::point(m).unwrap());
            let lec = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap().0;
            let std = lsc::optimize_at(&q, &PaperCostModel, m).unwrap().0;
            assert_eq!(lec.plan, std.plan, "seed {seed}, m {m}");
        }
    }
}

/// Proposition 3.1, both halves: the frontier merge is exact and within
/// the `c + c·ln c` bound, at the DP level and at the primitive level.
#[test]
fn proposition_3_1_frontier() {
    // Primitive level.
    let left: Vec<f64> = (0..48).map(|i| 1.5 * (i * i) as f64).collect();
    let right: Vec<f64> = (0..48).map(|i| 11.0 * i as f64 + 2.0).collect();
    for c in [2usize, 5, 13, 48] {
        let (fast, examined) = frontier_merge(&left, &right, c);
        let mut naive: Vec<f64> = left
            .iter()
            .flat_map(|l| right.iter().map(move |r| l + r))
            .collect();
        naive.sort_by(f64::total_cmp);
        naive.truncate(c);
        assert_eq!(fast, naive, "c = {c}");
        assert!(examined as f64 <= frontier_bound(c) + 1e-9);
    }
    // DP level: frontier and naive top-c DP agree.
    let q = query(4, 777, Topology::Chain);
    for c in [2usize, 6] {
        let f = top_c_plans(&q, &PaperCostModel, 90.0, c, MergeStrategy::Frontier)
            .unwrap()
            .0;
        let n = top_c_plans(&q, &PaperCostModel, 90.0, c, MergeStrategy::Naive)
            .unwrap()
            .0;
        let fc: Vec<f64> = f.plans.iter().map(|p| p.cost).collect();
        let nc: Vec<f64> = n.plans.iter().map(|p| p.cost).collect();
        for (a, b) in fc.iter().zip(&nc) {
            assert!((a - b).abs() < 1e-9 * a.max(1.0));
        }
    }
}

/// The dynamic-parameter accounting: expected cost via per-phase marginals
/// equals the expectation over explicit memory sequences (§3.5's
/// `b_M^{n-1}` space), by linearity of expectation.
#[test]
fn sequence_space_equals_marginal_accounting() {
    let q = query(4, 888, Topology::Chain);
    let chain = MarkovChain::random_walk(vec![15.0, 90.0, 650.0], 0.7).unwrap();
    let initial = [0.5, 0.3, 0.2];
    let mem = MemoryModel::dynamic(chain.clone(), initial.to_vec()).unwrap();
    for plan in exhaustive::enumerate_left_deep(&q).into_iter().take(40) {
        let phases_n = plan.phase_count();
        let table = mem.table(phases_n).unwrap();
        let by_marginals = evaluate::expected_cost(&q, &PaperCostModel, &plan, &table);
        let by_sequences: f64 = chain
            .enumerate_sequences(&initial, phases_n)
            .into_iter()
            .map(|(seq, p)| {
                let mems: Vec<f64> = seq.iter().map(|&i| chain.states()[i]).collect();
                p * evaluate::plan_cost_phased(&q, &PaperCostModel, &plan, &mut |k| mems[k])
            })
            .sum();
        assert!(
            (by_marginals - by_sequences).abs() <= 1e-6 * by_sequences.max(1.0),
            "{by_marginals} vs {by_sequences}"
        );
    }
}
