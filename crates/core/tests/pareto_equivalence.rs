//! Properties of the Pareto-frontier utility DP.
//!
//! Two promises are checked over randomized small queries:
//!
//! * **Exactness** — `pareto::optimize` matches the brute-force
//!   [`lec_core::pareto::exhaustive_utility`] optimum for every monotone
//!   utility implemented (`Linear`, risk-averse and risk-seeking
//!   `Exponential`, and `Deadline`), as Theorem-level correctness of the
//!   profile DP requires.
//! * **Renumbering invariance** — the surviving root frontier is a
//!   property of the *query*, not of the relation numbering: permuting
//!   relation indices (and remapping predicates accordingly) must yield
//!   the same set of cost profiles. This is the observable face of the
//!   order-independent dominance fix: with the old epsilon-tolerant
//!   `dominates`, near-tied profiles survived or died depending on the
//!   order the enumeration happened to reach them in, and renumbering
//!   changed exactly that order.
//!
//! Profiles are compared after sorting with a small *relative* tolerance:
//! renumbering reorders the floating-point products inside
//! `result_pages`, so logically identical costs can differ in the last
//! few ULPs.

use lec_core::pareto;
use lec_cost::PaperCostModel;
use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
use lec_stats::{Distribution, Utility};
use proptest::prelude::*;

/// Deterministic pseudo-random query parts: per-relation page counts and
/// chain or star predicates. Generated *before* any renumbering so the
/// same seed describes the same logical query under every permutation.
fn query_parts(star: bool, n: usize, seed: u64) -> (Vec<f64>, Vec<(usize, usize, f64)>) {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(0x5851F42D4C957F2D)
            .wrapping_add(0x14057B7EF767814F);
        state >> 33
    };
    let pages: Vec<f64> = (0..n).map(|_| (next() % 6000 + 60) as f64).collect();
    let preds: Vec<(usize, usize, f64)> = (0..n - 1)
        .map(|i| {
            let sel = (next() % 900 + 10) as f64 * 1e-5;
            if star {
                (0, i + 1, sel)
            } else {
                (i, i + 1, sel)
            }
        })
        .collect();
    (pages, preds)
}

/// Builds the query with relation `i` renumbered to `perm[i]`. Key ids
/// and predicate order are left alone, so the logical query — join graph,
/// sizes, required order — is unchanged.
fn build_permuted(
    parts: &(Vec<f64>, Vec<(usize, usize, f64)>),
    perm: &[usize],
    ordered: bool,
) -> JoinQuery {
    let (pages, preds) = parts;
    let n = pages.len();
    let mut rel_pages = vec![0.0; n];
    for (i, &p) in pages.iter().enumerate() {
        rel_pages[perm[i]] = p;
    }
    let relations = rel_pages
        .iter()
        .enumerate()
        .map(|(i, &p)| Relation::new(format!("r{i}"), p, p * 40.0))
        .collect();
    let predicates = preds
        .iter()
        .enumerate()
        .map(|(k, &(l, r, sel))| JoinPred {
            left: perm[l],
            right: perm[r],
            selectivity: sel,
            key: KeyId(k),
        })
        .collect();
    let required = ordered.then(|| KeyId(preds.len() - 1));
    JoinQuery::new(relations, predicates, required).expect("valid query")
}

fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Rotation composed with a front swap: hits every index for rot > 0.
fn permutation(n: usize, rot: usize, swap: bool) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).map(|i| (i + rot) % n).collect();
    if swap && n > 1 {
        perm.swap(0, n - 1);
    }
    perm
}

fn memory() -> Distribution {
    Distribution::new([(15.0, 0.25), (70.0, 0.35), (450.0, 0.25), (2200.0, 0.15)]).unwrap()
}

fn close(a: f64, b: f64, rel_tol: f64) -> bool {
    (a - b).abs() <= rel_tol * a.abs().max(b.abs()).max(1e-9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The profile DP is exact: it matches brute force for every
    /// implemented utility family on random 3–4 relation queries.
    #[test]
    fn pareto_matches_exhaustive_for_every_utility(
        star in proptest::bool::ANY,
        n in 3usize..=4,
        seed in 0u64..1_000_000,
        ordered in proptest::bool::ANY,
        gamma in 1e-6f64..1e-4,
    ) {
        let parts = query_parts(star, n, seed);
        let q = build_permuted(&parts, &identity(n), ordered);
        let mem = memory();
        // Deadline placed at the linear optimum's mean cost, so the miss
        // probability is non-trivial.
        let probe =
            pareto::exhaustive_utility(&q, &PaperCostModel, &mem, Utility::Linear).unwrap();
        let utilities = [
            Utility::Linear,
            Utility::Exponential { gamma },
            Utility::Exponential { gamma: -gamma },
            Utility::Deadline { threshold: probe.cost_distribution.mean() },
        ];
        for u in utilities {
            let p = pareto::optimize(&q, &PaperCostModel, &mem, &u).unwrap().0;
            let e = pareto::exhaustive_utility(&q, &PaperCostModel, &mem, u).unwrap();
            prop_assert!(
                (p.best.cost - e.best.cost).abs() <= 1e-6 * e.best.cost.abs().max(1e-9),
                "{u:?}: pareto {} vs exhaustive {}", p.best.cost, e.best.cost
            );
        }
    }

    /// Renumbering the relations leaves the surviving root frontier — as
    /// a sorted set of cost profiles — unchanged (up to float
    /// re-association inside the size estimates).
    #[test]
    fn frontier_is_invariant_under_relation_renumbering(
        star in proptest::bool::ANY,
        n in 3usize..=4,
        seed in 0u64..1_000_000,
        ordered in proptest::bool::ANY,
        rot in 1usize..=3,
        swap in proptest::bool::ANY,
        gamma in 1e-6f64..1e-4,
    ) {
        let parts = query_parts(star, n, seed);
        let mem = memory();
        let u = Utility::Exponential { gamma };
        let base = build_permuted(&parts, &identity(n), ordered);
        let renum = build_permuted(&parts, &permutation(n, rot % n, swap), ordered);

        let a = pareto::optimize(&base, &PaperCostModel, &mem, &u).unwrap().0;
        let b = pareto::optimize(&renum, &PaperCostModel, &mem, &u).unwrap().0;

        prop_assert!(close(a.best.cost, b.best.cost, 1e-9),
            "best score {} vs {}", a.best.cost, b.best.cost);
        prop_assert_eq!(a.max_frontier, b.max_frontier);
        prop_assert_eq!(a.frontier_profiles.len(), b.frontier_profiles.len());

        let sorted = |mut profs: Vec<Vec<f64>>| {
            profs.sort_by(|x, y| x.partial_cmp(y).unwrap());
            profs
        };
        let pa = sorted(a.frontier_profiles);
        let pb = sorted(b.frontier_profiles);
        for (x, y) in pa.iter().zip(&pb) {
            for (&cx, &cy) in x.iter().zip(y) {
                prop_assert!(close(cx, cy, 1e-9), "profile cost {cx} vs {cy}");
            }
        }
    }
}
