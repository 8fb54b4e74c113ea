//! Canonical-fingerprint invariance properties.
//!
//! A fingerprint must be a function of the *logical* query alone: random
//! relation renumberings, predicate-list shuffles, key relabelings, and
//! renamings all preserve it, while perturbing any statistic breaks it.
//! These are exactly the guarantees the `lec-serve` plan cache and the
//! concurrent server's in-window deduplication rely on.

use lec_plan::fingerprint::{canonicalize, fingerprint};
use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
use proptest::prelude::*;

/// Deterministic pseudo-random query parts, generated before any
/// renumbering so one seed names one logical query.
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

/// Builds the query with relation `i` renumbered to `perm[i]`, the
/// predicate list rotated by `rot`, and every key id shifted by
/// `key_shift` (the required order shifted to match).
fn build(
    parts: &(Vec<f64>, Vec<(usize, usize, f64)>),
    perm: &[usize],
    rot: usize,
    key_shift: usize,
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
    let mut predicates: Vec<JoinPred> = preds
        .iter()
        .enumerate()
        .map(|(k, &(l, r, sel))| JoinPred {
            left: perm[l],
            right: perm[r],
            selectivity: sel,
            key: KeyId(k + key_shift),
        })
        .collect();
    let len = predicates.len();
    predicates.rotate_left(rot % len.max(1));
    let required = ordered.then(|| KeyId(preds.len() - 1 + key_shift));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Renumbering relations, shuffling the predicate list, and
    /// relabeling keys all preserve the fingerprint; and the canonical
    /// maps really translate between the two numberings.
    #[test]
    fn fingerprint_is_invariant_under_isomorphism(
        star in proptest::bool::ANY,
        n in 2usize..=6,
        seed in 0u64..1_000_000,
        ordered in proptest::bool::ANY,
        rot in 0usize..=4,
        swap in proptest::bool::ANY,
        pred_rot in 0usize..=4,
        key_shift in 0usize..=9,
    ) {
        let parts = query_parts(star, n, seed);
        let base = build(&parts, &identity(n), 0, 0, ordered);
        let iso = build(&parts, &permutation(n, rot % n, swap), pred_rot, key_shift, ordered);

        let (ca, cb) = (canonicalize(&base), canonicalize(&iso));
        prop_assert_eq!(&ca.fingerprint, &cb.fingerprint);
        // The canonical queries agree on everything but display names.
        prop_assert_eq!(ca.query.predicates(), cb.query.predicates());
        prop_assert_eq!(ca.query.required_order(), cb.query.required_order());
        for (a, b) in ca.query.relations().iter().zip(cb.query.relations()) {
            prop_assert_eq!(a.pages.to_bits(), b.pages.to_bits());
            prop_assert_eq!(a.rows.to_bits(), b.rows.to_bits());
            prop_assert_eq!(a.local_selectivity.to_bits(), b.local_selectivity.to_bits());
            prop_assert_eq!(a.has_index, b.has_index);
        }
        // perm/inverse are mutually inverse permutations.
        for i in 0..n {
            prop_assert_eq!(ca.inverse[ca.perm[i]], i);
            prop_assert_eq!(cb.inverse[cb.perm[i]], i);
            // And perm really maps original statistics onto canonical slots.
            prop_assert_eq!(
                base.relation(i).pages.to_bits(),
                ca.query.relation(ca.perm[i]).pages.to_bits()
            );
        }
    }

    /// Perturbing any statistic — a page count or a join selectivity —
    /// changes the fingerprint.
    #[test]
    fn fingerprint_distinguishes_statistics(
        star in proptest::bool::ANY,
        n in 2usize..=5,
        seed in 0u64..1_000_000,
        ordered in proptest::bool::ANY,
        which in 0usize..=9,
    ) {
        let parts = query_parts(star, n, seed);
        let base = build(&parts, &identity(n), 0, 0, ordered);

        let mut bumped_parts = parts.clone();
        if which.is_multiple_of(2) {
            bumped_parts.0[which % n] += 1.0;
        } else {
            bumped_parts.1[which % (n - 1)].2 *= 1.5;
        }
        let bumped = build(&bumped_parts, &identity(n), 0, 0, ordered);
        prop_assert_ne!(fingerprint(&base), fingerprint(&bumped));
    }
}
