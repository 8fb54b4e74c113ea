//! Differential test for the single-pass EVPI analysis.
//!
//! [`voi::analyze`] prices every left-deep plan once per joint parameter
//! assignment and folds committed, informed and per-parameter costs out of
//! that one pass. The oracle below is the analysis it replaced, kept
//! verbatim: one exact joint-LEC search per conditioning (the committed
//! model, every full assignment, every bucket of every parameter), each
//! built on its own copy of the joint-enumeration expected cost. The two
//! must agree to the bit on every reported cost and on the committed plan,
//! across chain, star and clique queries with access-path and sort
//! variants, 1–3 uncertain parameters of 1–3 buckets, and static and
//! dynamic memory; on the serving loop's drift-event shape; and on a query
//! whose cheapest plans tie to the bit, which pins the committed plan to
//! the first minimum in `enumerate_left_deep`'s order.
//!
//! Mutation checks: weighting a partial's collapsed parameter by its own
//! bucket probability instead of exactly 1.0 (the mass of
//! `Distribution::point`) makes `single_pass_matches_per_conditioning_oracle`
//! fail; committing on `<=`, or visiting join orders lexicographically,
//! makes `committed_tie_break_is_first_in_enumeration_order` fail.

use lec_core::alg_d::SizeModel;
use lec_core::env::PhaseDists;
use lec_core::evaluate::{expected_cost, expected_cost_joint};
use lec_core::exhaustive::enumerate_left_deep;
use lec_core::{voi, CoreError, MemoryModel};
use lec_cost::{CostModel, PaperCostModel};
use lec_plan::{JoinPred, JoinQuery, KeyId, Plan, Relation};
use lec_stats::{Distribution, MarkovChain};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// The oracle: the per-conditioning EVPI analysis, verbatim.
// ---------------------------------------------------------------------------

struct OracleReport {
    committed_cost: f64,
    committed_plan: Plan,
    informed_cost: f64,
    partial: Vec<f64>,
}

fn oracle_expected_cost_joint<M: CostModel + ?Sized>(
    query: &JoinQuery,
    model: &M,
    plan: &Plan,
    sizes: &SizeModel,
    phases: &PhaseDists,
) -> f64 {
    let n = query.n();
    let dims: Vec<&Distribution> = sizes
        .rel_sizes
        .iter()
        .chain(sizes.selectivities.iter())
        .collect();
    let mut idx = vec![0usize; dims.len()];
    let mut total = 0.0;
    loop {
        let mut prob = 1.0;
        for (d, &i) in dims.iter().zip(&idx) {
            prob *= d.probs()[i];
        }
        let relations: Vec<Relation> = query
            .relations()
            .iter()
            .enumerate()
            .map(|(r, rel)| {
                let pages = dims[r].values()[idx[r]] / rel.local_selectivity;
                let mut out = rel.clone();
                out.pages = pages.max(1.0);
                out
            })
            .collect();
        let predicates: Vec<JoinPred> = query
            .predicates()
            .iter()
            .enumerate()
            .map(|(p, pred)| {
                let mut out = *pred;
                out.selectivity = dims[n + p].values()[idx[n + p]].clamp(1e-300, 1.0);
                out
            })
            .collect();
        let instance = JoinQuery::new(relations, predicates, query.required_order())
            .expect("instance stays valid");
        let e = expected_cost(&instance, model, plan, phases);
        total += prob * e;

        let mut k = 0;
        loop {
            if k == dims.len() {
                return total;
            }
            idx[k] += 1;
            if idx[k] < dims[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

fn n_params(sizes: &SizeModel) -> usize {
    sizes.rel_sizes.len() + sizes.selectivities.len()
}

fn param(sizes: &SizeModel, k: usize) -> &Distribution {
    let n = sizes.rel_sizes.len();
    if k < n {
        &sizes.rel_sizes[k]
    } else {
        &sizes.selectivities[k - n]
    }
}

fn condition(sizes: &SizeModel, k: usize, value: f64) -> Result<SizeModel, CoreError> {
    let mut out = sizes.clone();
    let n = out.rel_sizes.len();
    let point = Distribution::point(value)?;
    if k < n {
        out.rel_sizes[k] = point;
    } else {
        out.selectivities[k - n] = point;
    }
    Ok(out)
}

fn oracle_joint_lec(
    query: &JoinQuery,
    model: &(impl CostModel + ?Sized),
    memory: &MemoryModel,
    sizes: &SizeModel,
) -> Result<(Plan, f64), CoreError> {
    let phases = memory.table(query.n().max(2))?;
    enumerate_left_deep(query)
        .into_iter()
        .map(|plan| {
            let cost = oracle_expected_cost_joint(query, model, &plan, sizes, &phases);
            (plan, cost)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or(CoreError::NoPlanFound)
}

fn oracle_analyze(
    query: &JoinQuery,
    model: &(impl CostModel + ?Sized),
    memory: &MemoryModel,
    sizes: &SizeModel,
) -> Result<OracleReport, CoreError> {
    let (committed_plan, committed_cost) = oracle_joint_lec(query, model, memory, sizes)?;

    let informed_cost = expected_over_assignments(sizes, &mut |conditioned| {
        oracle_joint_lec(query, model, memory, conditioned).map(|(_, c)| c)
    })?;

    let mut partial = Vec::with_capacity(n_params(sizes));
    for k in 0..n_params(sizes) {
        let dist = param(sizes, k).clone();
        let mut with_k = 0.0;
        for (v, p) in dist.iter() {
            let conditioned = condition(sizes, k, v)?;
            let (_, best) = oracle_joint_lec(query, model, memory, &conditioned)?;
            with_k += p * best;
        }
        partial.push((committed_cost - with_k).max(0.0));
    }

    Ok(OracleReport {
        committed_cost,
        committed_plan,
        informed_cost,
        partial,
    })
}

fn expected_over_assignments(
    sizes: &SizeModel,
    f: &mut impl FnMut(&SizeModel) -> Result<f64, CoreError>,
) -> Result<f64, CoreError> {
    let dims: Vec<Distribution> = sizes
        .rel_sizes
        .iter()
        .chain(sizes.selectivities.iter())
        .cloned()
        .collect();
    let mut idx = vec![0usize; dims.len()];
    let mut total = 0.0;
    loop {
        let mut prob = 1.0;
        let mut conditioned = sizes.clone();
        for (k, (d, &i)) in dims.iter().zip(&idx).enumerate() {
            prob *= d.probs()[i];
            conditioned = condition(&conditioned, k, d.values()[i])?;
        }
        total += prob * f(&conditioned)?;

        let mut k = 0;
        loop {
            if k == dims.len() {
                return Ok(total);
            }
            idx[k] += 1;
            if idx[k] < dims[k].len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Environments.
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

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A chain (0), star (1) or clique (2) query over `n` relations. Roughly
/// one relation in three is filtered and indexed (index-scan variants);
/// half the queries require the last predicate's order (root sorts).
fn build_query(rng: &mut SplitMix64, topo: usize, n: usize) -> JoinQuery {
    let relations = (0..n)
        .map(|i| {
            let pages = rng.uniform(40.0, 9_000.0).round();
            let rel = Relation::new(format!("r{i}"), pages, pages * 40.0);
            if rng.below(3) == 0 {
                rel.with_local_selectivity(rng.uniform(0.05, 0.95))
                    .with_index()
            } else {
                rel
            }
        })
        .collect();
    let pairs: Vec<(usize, usize)> = match topo {
        0 => (1..n).map(|i| (i - 1, i)).collect(),
        1 => (1..n).map(|i| (0, i)).collect(),
        _ => (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect(),
    };
    let predicates: Vec<JoinPred> = pairs
        .into_iter()
        .enumerate()
        .map(|(key, (left, right))| JoinPred {
            left,
            right,
            selectivity: rng.uniform(1e-4, 1e-2),
            key: KeyId(key),
        })
        .collect();
    let required = if rng.below(2) == 0 {
        predicates.last().map(|p| p.key)
    } else {
        None
    };
    JoinQuery::new(relations, predicates, required).expect("valid query")
}

/// The query's point statistics with `uncertain` parameters (distinct,
/// chosen at random) widened to `1..=3`-bucket distributions around them.
fn build_sizes(rng: &mut SplitMix64, query: &JoinQuery, uncertain: usize) -> SizeModel {
    let mut sizes = SizeModel::certain(query).expect("point model");
    let n = sizes.rel_sizes.len();
    let mut free: Vec<usize> = (0..n + sizes.selectivities.len()).collect();
    for _ in 0..uncertain.min(free.len()) {
        let k = free.swap_remove(rng.below(free.len()));
        let buckets = 1 + rng.below(3);
        let slot = if k < n {
            &mut sizes.rel_sizes[k]
        } else {
            &mut sizes.selectivities[k - n]
        };
        let center = slot.mean();
        let points: Vec<(f64, f64)> = (0..buckets)
            .map(|_| {
                let v = center * rng.uniform(0.2, 4.0);
                let v = if k < n { v.max(1.0) } else { v.min(1.0) };
                (v, rng.uniform(0.1, 1.0))
            })
            .collect();
        *slot = Distribution::from_weights(points).expect("positive weights");
    }
    sizes
}

/// Static memory with 1–3 buckets, or a 2–3 state random-walk chain.
fn build_memory(rng: &mut SplitMix64, dynamic: bool) -> MemoryModel {
    if dynamic {
        let states: Vec<f64> = (0..2 + rng.below(2))
            .map(|i| 20.0 * 8f64.powi(i as i32))
            .collect();
        let m = states.len();
        let chain = MarkovChain::random_walk(states, rng.uniform(0.1, 0.9)).expect("valid chain");
        MemoryModel::dynamic(chain, vec![1.0 / m as f64; m]).expect("valid initial vector")
    } else {
        let points: Vec<(f64, f64)> = (0..1 + rng.below(3))
            .map(|_| (rng.uniform(8.0, 3_000.0).round(), rng.uniform(0.1, 1.0)))
            .collect();
        MemoryModel::Static(Distribution::from_weights(points).expect("positive weights"))
    }
}

fn assert_bit_identical(
    query: &JoinQuery,
    memory: &MemoryModel,
    sizes: &SizeModel,
) -> Result<(), TestCaseError> {
    let got = voi::analyze(query, &PaperCostModel, memory, sizes).expect("analyze");
    let want = oracle_analyze(query, &PaperCostModel, memory, sizes).expect("oracle");
    prop_assert_eq!(
        got.committed_cost.to_bits(),
        want.committed_cost.to_bits(),
        "committed {} vs {}",
        got.committed_cost,
        want.committed_cost
    );
    prop_assert_eq!(&got.committed_plan, &want.committed_plan);
    prop_assert_eq!(
        got.informed_cost.to_bits(),
        want.informed_cost.to_bits(),
        "informed {} vs {}",
        got.informed_cost,
        want.informed_cost
    );
    prop_assert_eq!(got.partial.len(), want.partial.len());
    for (k, (g, w)) in got.partial.iter().zip(&want.partial).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "partial[{}]: {} vs {}", k, g, w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The single pass reproduces every per-conditioning search to the bit.
    #[test]
    fn single_pass_matches_per_conditioning_oracle(
        topo in 0usize..3,
        n in 2usize..=4,
        uncertain in 1usize..=3,
        dynamic in prop::bool::ANY,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64(seed);
        let query = build_query(&mut rng, topo, n);
        let sizes = build_sizes(&mut rng, &query, uncertain);
        let memory = build_memory(&mut rng, dynamic);
        assert_bit_identical(&query, &memory, &sizes)?;
    }
}

/// The serving loop's shape: a 4-relation chain with one two-point
/// selectivity, under 2-bucket static memory.
#[test]
fn serve_shape_matches_oracle() {
    let mut rng = SplitMix64(7);
    let query = build_query(&mut rng, 0, 4);
    let mut sizes = SizeModel::certain(&query).unwrap();
    let s = sizes.selectivities[1].mean();
    sizes.selectivities[1] = Distribution::new([(s, 0.5), (s * 3.0, 0.5)]).unwrap();
    let memory = MemoryModel::Static(Distribution::new([(30.0, 0.5), (400.0, 0.5)]).unwrap());
    assert_bit_identical(&query, &memory, &sizes).unwrap();
}

/// The drift-event shape: a 4-relation chain or star with one filtered,
/// indexed relation (two access choices), one statistic widened to a
/// two-point distribution (the estimate and the observed value, as the
/// serving loop builds it), static two-bucket memory, and half the time a
/// required order.
fn drift_event_case(seed: u64) -> (JoinQuery, SizeModel, MemoryModel) {
    let mut rng = SplitMix64(seed);
    let n = 4;
    let filtered = rng.below(n);
    let relations = (0..n)
        .map(|i| {
            let pages = rng.uniform(40.0, 9_000.0).round();
            let rel = Relation::new(format!("r{i}"), pages, pages * 40.0);
            if i == filtered {
                rel.with_local_selectivity(rng.uniform(0.05, 0.6))
                    .with_index()
            } else {
                rel
            }
        })
        .collect();
    let star = rng.below(2) == 1;
    let predicates: Vec<JoinPred> = (1..n)
        .map(|i| JoinPred {
            left: if star { 0 } else { i - 1 },
            right: i,
            selectivity: rng.uniform(1e-4, 1e-2),
            key: KeyId(i - 1),
        })
        .collect();
    let required = (rng.below(2) == 0).then(|| KeyId(rng.below(n - 1)));
    let query = JoinQuery::new(relations, predicates, required).expect("valid query");
    let mut sizes = SizeModel::certain(&query).expect("point model");
    let k = rng.below(n + n - 1);
    let slot = if k < n {
        &mut sizes.rel_sizes[k]
    } else {
        &mut sizes.selectivities[k - n]
    };
    let est = slot.mean();
    let obs = if k < n {
        (est * rng.uniform(0.1, 8.0)).max(1.0)
    } else {
        (est * rng.uniform(0.1, 8.0)).min(1.0)
    };
    *slot = Distribution::new([(est, 0.5), (obs, 0.5)]).expect("two-point");
    let low = rng.uniform(4.0, 60.0).round();
    let memory = MemoryModel::Static(
        Distribution::new([(low, 0.5), (low + rng.uniform(20.0, 400.0).round(), 0.5)])
            .expect("two-bucket memory"),
    );
    (query, sizes, memory)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drift events, one uncertain statistic each, match the oracle.
    #[test]
    fn drift_event_shapes_match_oracle(seed in any::<u64>()) {
        let (query, sizes, memory) = drift_event_case(seed);
        assert_bit_identical(&query, &memory, &sizes)?;
    }
}

/// A star around relation 0 whose spokes 1 and 2 are identical, so
/// swapping them in a join order gives a plan of bit-identical cost
/// under every assignment. The cheapest plans join 0 and 3 first, then
/// the spokes: `[0, 3, 2, 1]` comes before its twin `[0, 3, 1, 2]` in
/// `enumerate_left_deep`'s order, but after it in lexicographic order.
/// The committed plan must be the first minimum in enumeration order.
///
/// Mutation check: committing on `<=` (the last minimum), or visiting
/// join orders lexicographically (a depth-first walk over shared
/// prefixes) instead of in `enumerate_left_deep`'s order, commits the
/// twin and fails this test.
#[test]
fn committed_tie_break_is_first_in_enumeration_order() {
    let spoke = |name: &str| Relation::new(name, 5_000.0, 2e5);
    let query = JoinQuery::new(
        vec![
            Relation::new("hub", 2_000.0, 8e4),
            spoke("s1"),
            spoke("s2"),
            Relation::new("dim", 3_000.0, 1.2e5)
                .with_local_selectivity(0.0625)
                .with_index(),
        ],
        vec![
            JoinPred {
                left: 0,
                right: 1,
                selectivity: 1e-3,
                key: KeyId(0),
            },
            JoinPred {
                left: 0,
                right: 2,
                selectivity: 1e-3,
                key: KeyId(1),
            },
            JoinPred {
                left: 0,
                right: 3,
                selectivity: 1e-5,
                key: KeyId(2),
            },
        ],
        None,
    )
    .unwrap();
    let mut sizes = SizeModel::certain(&query).unwrap();
    sizes.selectivities[2] = Distribution::new([(1e-5, 0.5), (4e-5, 0.5)]).unwrap();
    let memory = MemoryModel::Static(Distribution::new([(16.0, 0.5), (200.0, 0.5)]).unwrap());
    assert_bit_identical(&query, &memory, &sizes).unwrap();

    // The tie is real: at least two plans share the minimum, and the
    // committed one comes first.
    let phases = memory.table(query.n()).unwrap();
    let report = voi::analyze(&query, &PaperCostModel, &memory, &sizes).unwrap();
    let tied: Vec<Plan> = enumerate_left_deep(&query)
        .into_iter()
        .filter(|plan| {
            let cost = oracle_expected_cost_joint(&query, &PaperCostModel, plan, &sizes, &phases);
            cost.to_bits() == report.committed_cost.to_bits()
        })
        .collect();
    assert!(tied.len() >= 2, "{} plans at the minimum", tied.len());
    assert_eq!(report.committed_plan, tied[0]);
    fn order(plan: &Plan) -> Vec<usize> {
        match plan {
            Plan::Access { rel, .. } => vec![*rel],
            Plan::Join { left, right, .. } => [order(left), order(right)].concat(),
            Plan::Sort { input, .. } => order(input),
        }
    }
    assert_eq!(order(&tied[0]), vec![0, 3, 2, 1]);
    assert!(
        tied.iter().any(|p| order(p) < order(&tied[0])),
        "a lexicographically earlier twin is tied"
    );
}

/// A finite size whose rescale to raw pages (`value / local_selectivity`)
/// overflows to ∞ is a typed error from both public entry points, not a
/// panic.
#[test]
fn overflowing_size_is_an_error_not_a_panic() {
    let query = JoinQuery::new(
        vec![
            Relation::new("a", 1_000.0, 5e4).with_local_selectivity(0.01),
            Relation::new("b", 200.0, 1e4),
        ],
        vec![JoinPred {
            left: 0,
            right: 1,
            selectivity: 1e-3,
            key: KeyId(0),
        }],
        None,
    )
    .unwrap();
    let mut sizes = SizeModel::certain(&query).unwrap();
    sizes.rel_sizes[0] = Distribution::new([(10.0, 0.5), (1e307, 0.5)]).unwrap();
    let memory = MemoryModel::Static(Distribution::point(100.0).unwrap());
    let phases = memory.table(2).unwrap();
    let plan = enumerate_left_deep(&query).remove(0);

    let joint = expected_cost_joint(&query, &PaperCostModel, &plan, &sizes, &phases);
    assert!(
        matches!(joint, Err(CoreError::Plan(_))),
        "expected_cost_joint: {joint:?}"
    );
    let report = voi::analyze(&query, &PaperCostModel, &memory, &sizes);
    assert!(
        matches!(report, Err(CoreError::Plan(_))),
        "voi::analyze: {:?}",
        report.map(|r| r.committed_cost)
    );
}
