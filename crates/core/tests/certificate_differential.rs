//! Differential battery for the (ε, δ) suboptimality certificates.
//!
//! Over the same 51 seeded environments as `optimizer_differential.rs`
//! (chain/star/clique, splitmix64 statistics), every run:
//!
//! 1. samples each unknown statistic from its *truth* value (seeded
//!    Bernoulli draws through the real catalog interval estimator),
//! 2. optimizes the sampled point query and certifies the chosen plan
//!    against the sampled intervals ([`certify_plan`]),
//! 3. reprices both the certified plan and the exhaustive (bushy) oracle
//!    plan under the **truth** statistics, and
//! 4. checks the certificate's claim: `true cost ≤ (1 + ε) · true
//!    optimum`.
//!
//! The battery asserts the (ε, δ) contract empirically — the violation
//! rate stays within δ plus slack — and asserts the underlying theorem
//! exactly: an environment whose truth lies inside the sampled interval
//! box can *never* violate its certificate. When validation fails, the
//! harness shrinks to the smallest offending environment (fewest
//! relations, then label order) and reports its seed and topology, so a
//! certificate-math regression prints a replayable witness.
//!
//! The mutation check inverts the harness: collapsing every interval to
//! its sampled point (zero width — "sampling has no uncertainty") must
//! make validation fail and name a witness. A battery that cannot detect
//! that perturbation would be vacuous.

use lec_catalog::sampling::sample_interval_hoeffding;
use lec_core::certificate::{certify_plan, QueryIntervals};
use lec_core::evaluate::expected_cost;
use lec_core::{bushy, MemoryModel};
use lec_cost::PaperCostModel;
use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
use lec_stats::Distribution;
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Total certificate failure probability per environment (δ); split
/// uniformly across the environment's sampled statistics.
const DELTA: f64 = 0.05;

/// Bernoulli draws per statistic.
const DRAWS: u64 = 2048;

/// Allowed empirical violation slack on top of δ: 51 environments give a
/// coarse rate estimate, and Hoeffding's conservatism keeps the true
/// rate far below δ anyway.
const SLACK: f64 = 0.05;

// ---------------------------------------------------------------------------
// The differential battery's environment generator, replicated bit for bit.
// ---------------------------------------------------------------------------

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() % 1000) as f64 / 1000.0
    }
}

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

fn environments() -> Vec<(JoinQuery, Distribution, String)> {
    let mut envs = Vec::new();
    for topo in 0..3 {
        for n in 2..=5 {
            for seed in 0..4 {
                let ordered = seed % 2 == 1;
                envs.push((
                    build_query(topo, n, seed, ordered),
                    build_memory(seed * 31 + topo as u64 * 7 + n as u64),
                    format!("topo {topo} n {n} seed {seed}"),
                ));
            }
        }
    }
    for seed in 0..3 {
        envs.push((
            build_query(0, 6, 100 + seed, false),
            build_memory(500 + seed),
            format!("topo 0 n 6 seed {}", 100 + seed),
        ));
    }
    envs
}

// ---------------------------------------------------------------------------
// Sampling + certification of one environment.
// ---------------------------------------------------------------------------

/// How the sampled intervals are (mis)handled before certification.
#[derive(Clone, Copy, PartialEq)]
enum Mutation {
    /// Faithful: intervals exactly as the estimator returned them.
    None,
    /// Certificate-math perturbation: every interval collapses to its
    /// sampled point, as if sampling carried no uncertainty. The claimed
    /// ε becomes 0 while the estimates are still wrong — the battery
    /// must catch this.
    ZeroWidth,
}

const SEL_FLOOR: f64 = 1e-9;
const SEL_CEIL: f64 = 1.0 - f64::EPSILON;

fn bernoulli(rng: &mut ChaCha8Rng, p: f64, draws: u64) -> u64 {
    let threshold = (p * u64::MAX as f64) as u64;
    (0..draws).filter(|_| rng.next_u64() <= threshold).count() as u64
}

/// Samples every unknown statistic of `truth`, returning the point query
/// the optimizer sees and the interval box the certificate rests on.
fn sample_env(
    truth: &JoinQuery,
    env_idx: usize,
    mutation: Mutation,
) -> (JoinQuery, QueryIntervals) {
    let filtered = truth
        .relations()
        .iter()
        .filter(|r| r.local_selectivity < 1.0)
        .count();
    let k = (filtered + truth.predicates().len()).max(1);
    let per_delta = DELTA / k as f64;
    let mut rng = ChaCha8Rng::seed_from_u64(0xCE47 + env_idx as u64);

    let mut relation_selectivity = Vec::new();
    let relations: Vec<Relation> = truth
        .relations()
        .iter()
        .map(|r| {
            let mut r = r.clone();
            if r.local_selectivity < 1.0 {
                let iv = sample_interval_hoeffding(
                    bernoulli(&mut rng, r.local_selectivity, DRAWS),
                    DRAWS,
                    per_delta,
                )
                .expect("relation interval");
                r.local_selectivity = iv.point.clamp(SEL_FLOOR, SEL_CEIL);
                relation_selectivity.push(match mutation {
                    Mutation::None => (
                        iv.lo.min(r.local_selectivity),
                        iv.hi.max(r.local_selectivity),
                    ),
                    Mutation::ZeroWidth => (r.local_selectivity, r.local_selectivity),
                });
            } else {
                relation_selectivity.push((1.0, 1.0));
            }
            r
        })
        .collect();
    let mut predicate_selectivity = Vec::new();
    let predicates: Vec<JoinPred> = truth
        .predicates()
        .iter()
        .map(|p| {
            let mut p = *p;
            let iv = sample_interval_hoeffding(
                bernoulli(&mut rng, p.selectivity, DRAWS),
                DRAWS,
                per_delta,
            )
            .expect("predicate interval");
            p.selectivity = iv.point.clamp(SEL_FLOOR, 1.0);
            predicate_selectivity.push(match mutation {
                Mutation::None => (iv.lo.min(p.selectivity), iv.hi.max(p.selectivity)),
                Mutation::ZeroWidth => (p.selectivity, p.selectivity),
            });
            p
        })
        .collect();
    let q_point = JoinQuery::new(relations, predicates, truth.required_order())
        .expect("sampled point query is valid");
    (
        q_point,
        QueryIntervals {
            relation_selectivity,
            predicate_selectivity,
            delta: DELTA,
        },
    )
}

struct EnvReport {
    label: String,
    n: usize,
    epsilon: f64,
    violated: bool,
}

/// Runs the full battery, returning per-environment reports, or — when
/// the (ε, δ) contract fails empirically — an `Err` naming the smallest
/// offending environment (the shrunk witness).
fn validate(mutation: Mutation) -> Result<Vec<EnvReport>, String> {
    let model = PaperCostModel;
    let mut reports = Vec::new();
    for (idx, (truth, mem, label)) in environments().into_iter().enumerate() {
        let static_mem = MemoryModel::Static(mem);
        let phases = static_mem.table(truth.n().max(2)).expect("phase table");
        let (q_point, intervals) = sample_env(&truth, idx, mutation);

        // The certified choice: our strongest exact optimizer on the
        // sampled statistics.
        let chosen = bushy::optimize(&q_point, &model, &static_mem)
            .expect("bushy optimizes the sampled query")
            .0
            .plan;
        let cert = certify_plan(&q_point, &model, &static_mem, &chosen, &intervals)
            .expect("certification succeeds");

        // Reprice the certified plan and the truth oracle under truth.
        let true_chosen = expected_cost(&truth, &model, &chosen, &phases);
        let true_optimum = bushy::optimize(&truth, &model, &static_mem)
            .expect("truth oracle")
            .0
            .cost;
        let violated = true_chosen > (1.0 + cert.epsilon) * true_optimum * (1.0 + 1e-9);

        // The exact theorem, not the statistical contract: truth inside
        // the sampled box makes violation impossible.
        let in_box = truth
            .relations()
            .iter()
            .zip(&intervals.relation_selectivity)
            .all(|(r, &(lo, hi))| lo <= r.local_selectivity && r.local_selectivity <= hi)
            && truth
                .predicates()
                .iter()
                .zip(&intervals.predicate_selectivity)
                .all(|(p, &(lo, hi))| lo <= p.selectivity && p.selectivity <= hi);
        assert!(
            !(in_box && violated),
            "{label}: truth inside the sampled interval box but the certificate was \
             violated — the (ε, δ) math itself is broken"
        );

        reports.push(EnvReport {
            label,
            n: truth.n(),
            epsilon: cert.epsilon,
            violated,
        });
    }

    let violations = reports.iter().filter(|r| r.violated).count();
    let rate = violations as f64 / reports.len() as f64;
    if rate > DELTA + SLACK {
        // Shrink: report the smallest environment that violates — the
        // cheapest replay for whoever has to debug this.
        let witness = reports
            .iter()
            .filter(|r| r.violated)
            .min_by(|a, b| (a.n, &a.label).cmp(&(b.n, &b.label)))
            .expect("rate > 0 implies a violating environment");
        return Err(format!(
            "certificate violation rate {rate:.3} exceeds δ + slack = {:.3} \
             ({violations}/{} environments); smallest witness: {} (n = {}, claimed \
             ε = {:.6})",
            DELTA + SLACK,
            reports.len(),
            witness.label,
            witness.n,
            witness.epsilon
        ));
    }
    Ok(reports)
}

#[test]
fn certificates_hold_empirically_across_the_battery() {
    let reports = validate(Mutation::None).unwrap_or_else(|witness| panic!("{witness}"));
    assert_eq!(reports.len(), 51, "the full differential battery must run");
    for r in &reports {
        assert!(
            r.epsilon.is_finite() && r.epsilon >= 0.0,
            "{}: unusable ε {}",
            r.label,
            r.epsilon
        );
    }
    // Determinism: a second pass under the same seeds is bit-identical.
    let again = validate(Mutation::None).expect("second pass");
    for (a, b) in reports.iter().zip(&again) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.epsilon.to_bits(), b.epsilon.to_bits());
        assert_eq!(a.violated, b.violated);
    }
}

#[test]
fn zero_width_mutation_is_caught_with_a_shrunk_witness() {
    let err = validate(Mutation::ZeroWidth)
        .err()
        .expect("collapsing intervals to points must break the (ε, δ) contract");
    // The witness must be replayable: it names the environment (topology,
    // size, seed) and the failure arithmetic.
    println!("mutation witness: {err}");
    assert!(
        err.contains("violation rate"),
        "witness missing the rate: {err}"
    );
    assert!(err.contains("seed"), "witness missing the seed: {err}");
    assert!(err.contains("topo"), "witness missing the topology: {err}");
}
