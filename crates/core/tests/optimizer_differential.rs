//! Differential battery: every optimizer in the family against the
//! exhaustively enumerated oracle, on small seeded environments (n ≤ 6).
//!
//! The comparison rules are **exact**, not epsilon. Every plan any
//! optimizer returns is repriced through the one shared evaluator
//! ([`lec_core::expected_cost`]) under the same phase table, and the
//! oracle ([`exhaustive::exhaustive_lec`]) is itself the `total_cmp`
//! minimum of that evaluator over every left-deep plan. On that common
//! scale:
//!
//! * **Exact algorithms** (Algorithm C, the bushy DPsub against the bushy
//!   oracle) must land on the oracle's cost *bit for bit* — no plan in the
//!   enumerated space prices below the oracle, so `==` is the correct
//!   assertion and any ULP of disagreement is a real argmin bug.
//! * **Heuristics** (LSC at mode/mean, Algorithms A and B, top-c) obey an
//!   exact sandwich: their repriced cost is `>=` the oracle (they return
//!   plans from the space the oracle minimized over) and `<=` a named
//!   dominating candidate (A is at most its mode candidate; B at most A,
//!   because B's per-bucket top-c pool contains A's per-bucket winner).
//!
//! `lec-core` deliberately has no RNG dependency, so environments come
//! from an in-file splitmix64 generator: deterministic, seeded, and
//! identical on every run and platform.

use lec_core::alg_d::{self, AlgDConfig, SizeModel};
use lec_core::evaluate::expected_cost;
use lec_core::topc;
use lec_core::{alg_a, alg_b, alg_c, bushy, exhaustive, lsc, MemoryModel};
use lec_cost::PaperCostModel;
use lec_plan::{JoinPred, JoinQuery, KeyId, Plan, Relation};
use lec_stats::Distribution;

/// splitmix64: the whole battery's only randomness, seeded per environment.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A value in `[lo, hi)` with 1/1000 granularity (exactly
    /// representable arithmetic keeps runs reproducible in decimal too).
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() % 1000) as f64 / 1000.0
    }
}

/// Chain (0), star (1), or clique (2) over `n` relations with seeded page
/// counts, selectivities, and index/filter flags.
fn build_query(topo: usize, n: usize, seed: u64, ordered: bool) -> JoinQuery {
    let mut rng = SplitMix64(seed ^ (topo as u64) << 32 ^ (n as u64) << 48);
    let relations = (0..n)
        .map(|i| {
            let pages = (rng.next() % 7000 + 50) as f64;
            let mut rel = Relation::new(format!("r{i}"), pages, pages * 40.0);
            if rng.next().is_multiple_of(3) {
                rel = rel
                    .with_local_selectivity(rng.range(0.05, 0.95))
                    .with_index();
            }
            rel
        })
        .collect();
    let mut predicates = Vec::new();
    let push = |preds: &mut Vec<JoinPred>, l: usize, r: usize, rng: &mut SplitMix64| {
        let key = preds.len();
        preds.push(JoinPred {
            left: l,
            right: r,
            selectivity: rng.range(1e-5, 1e-2),
            key: KeyId(key),
        });
    };
    match topo {
        0 => (0..n - 1).for_each(|i| push(&mut predicates, i, i + 1, &mut rng)),
        1 => (1..n).for_each(|i| push(&mut predicates, 0, i, &mut rng)),
        _ => (0..n).for_each(|i| {
            (i + 1..n).for_each(|j| push(&mut predicates, i, j, &mut rng));
        }),
    }
    let required = ordered.then(|| predicates[predicates.len() - 1].key);
    JoinQuery::new(relations, predicates, required).expect("valid differential query")
}

/// Two- or three-point memory distributions with seeded support.
fn build_memory(seed: u64) -> Distribution {
    let mut rng = SplitMix64(seed.wrapping_mul(0xA24BAED4963EE407));
    let lo = rng.range(5.0, 80.0);
    let hi = rng.range(150.0, 3000.0);
    if rng.next().is_multiple_of(2) {
        let p = rng.range(0.1, 0.9);
        Distribution::new([(lo, p), (hi, 1.0 - p)]).expect("two-point memory")
    } else {
        let mid = rng.range(90.0, 140.0);
        Distribution::new([(lo, 0.25), (mid, 0.4), (hi, 0.35)]).expect("three-point memory")
    }
}

/// Every seeded environment the battery runs: (query, memory, label).
fn environments() -> Vec<(JoinQuery, Distribution, String)> {
    let mut envs = Vec::new();
    for topo in 0..3 {
        for n in 2..=5 {
            for seed in 0..4 {
                let ordered = seed % 2 == 1;
                envs.push((
                    build_query(topo, n, seed, ordered),
                    build_memory(seed * 31 + topo as u64 * 7 + n as u64),
                    format!("topo {topo} n {n} seed {seed} ordered {ordered}"),
                ));
            }
        }
    }
    // One n = 6 chain per seed: the battery's stated ceiling.
    for seed in 0..3 {
        envs.push((
            build_query(0, 6, 100 + seed, false),
            build_memory(500 + seed),
            format!("topo 0 n 6 seed {} ordered false", 100 + seed),
        ));
    }
    envs
}

#[test]
fn exact_algorithms_match_the_exhaustive_oracle_bit_for_bit() {
    let model = PaperCostModel;
    for (q, mem, label) in environments() {
        let static_mem = MemoryModel::Static(mem.clone());
        let phases = static_mem.table(q.n().max(2)).expect("phase table");
        let reprice = |p: &Plan| expected_cost(&q, &model, p, &phases);

        let oracle = exhaustive::exhaustive_lec(&q, &model, &phases)
            .expect("oracle")
            .0;
        assert_eq!(
            reprice(&oracle.plan).to_bits(),
            oracle.cost.to_bits(),
            "{label}: the oracle's cost must be the shared evaluator's output"
        );

        // Algorithm C is the exact left-deep LEC plan: repriced, it must
        // hit the oracle's minimum exactly.
        let c_serial = alg_c::optimize(&q, &model, &static_mem).expect("alg_c").0;
        assert_eq!(
            reprice(&c_serial.plan).to_bits(),
            oracle.cost.to_bits(),
            "{label}: alg_c repriced {} vs oracle {}",
            reprice(&c_serial.plan),
            oracle.cost
        );

        // The bushy DPsub against the bushy-space oracle, same rule; and
        // the wider space can only improve on the left-deep minimum.
        if q.n() <= 5 {
            let bushy_oracle = exhaustive::exhaustive_lec_bushy(&q, &model, &phases)
                .expect("bushy oracle")
                .0;
            let b_serial = bushy::optimize(&q, &model, &static_mem).expect("bushy").0;
            assert_eq!(
                reprice(&b_serial.plan).to_bits(),
                bushy_oracle.cost.to_bits(),
                "{label}: bushy repriced {} vs bushy oracle {}",
                reprice(&b_serial.plan),
                bushy_oracle.cost
            );
            assert!(
                bushy_oracle.cost.total_cmp(&oracle.cost).is_le(),
                "{label}: bushy oracle above the left-deep oracle"
            );
        }
    }
}

#[test]
fn heuristics_obey_the_exact_oracle_sandwich() {
    let model = PaperCostModel;
    for (q, mem, label) in environments() {
        let static_mem = MemoryModel::Static(mem.clone());
        let phases = static_mem.table(q.n().max(2)).expect("phase table");
        let reprice = |p: &Plan| expected_cost(&q, &model, p, &phases);
        let oracle = exhaustive::exhaustive_lec(&q, &model, &phases)
            .expect("oracle")
            .0;
        let at_least_oracle = |cost: f64, who: &str| {
            assert!(
                oracle.cost.total_cmp(&cost).is_le(),
                "{label}: {who} repriced {cost} below the oracle {} — impossible \
                 unless it left the enumerated space",
                oracle.cost
            );
        };

        // LSC at mode and mean: legal plans, so never below the oracle.
        let lsc_mode = lsc::optimize_at(&q, &model, mem.mode())
            .expect("lsc mode")
            .0;
        at_least_oracle(reprice(&lsc_mode.plan), "lsc(mode)");
        let lsc_mean = lsc::optimize_at(&q, &model, mem.mean())
            .expect("lsc mean")
            .0;
        at_least_oracle(reprice(&lsc_mean.plan), "lsc(mean)");

        // Algorithm A: sandwiched between the oracle and its own mode
        // candidate (the mode is always a support point, hence always a
        // candidate, and A picks the expected-cost minimum of candidates).
        let a = alg_a::optimize(&q, &model, &static_mem).expect("alg_a");
        at_least_oracle(a.best.cost, "alg_a");
        assert_eq!(
            a.best.cost.to_bits(),
            reprice(&a.best.plan).to_bits(),
            "{label}: alg_a's reported cost must already be the shared evaluator's"
        );
        assert!(
            a.best.cost.total_cmp(&reprice(&lsc_mode.plan)).is_le(),
            "{label}: alg_a must be at most its own mode candidate"
        );

        // Algorithm B: its per-bucket top-c pool contains each bucket's
        // LSC winner, so B can never do worse than A — and never better
        // than the oracle.
        let b = alg_b::optimize(&q, &model, &static_mem, 3).expect("alg_b");
        at_least_oracle(b.best.cost, "alg_b");
        assert!(
            b.best.cost.total_cmp(&a.best.cost).is_le(),
            "{label}: alg_b (c=3) worse than alg_a: {} vs {}",
            b.best.cost,
            a.best.cost
        );

        // Top-c at the mode: every ranked plan is a legal left-deep plan.
        let ranked = topc::top_c_plans(&q, &model, mem.mode(), 3)
            .expect("topc")
            .0;
        for (i, p) in ranked.plans.iter().enumerate() {
            at_least_oracle(reprice(&p.plan), &format!("topc[{i}]"));
        }

        // Algorithm D under certainty degenerates to a legal left-deep
        // plan.
        let sizes = SizeModel::certain(&q).expect("certain sizes");
        let d = alg_d::optimize(
            &q,
            &PaperCostModel,
            &static_mem,
            &sizes,
            AlgDConfig::default(),
        )
        .expect("alg_d")
        .0;
        at_least_oracle(reprice(&d.best.plan), "alg_d");
    }
}
