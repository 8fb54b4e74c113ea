//! Differential test for the histogram builder's distinct counting.
//!
//! `Histogram::equi_width` / `equi_depth` count each bucket's distinct
//! values with one pass over the sorted sample, one per run of equal bits.
//! The oracle (`common/mod.rs`) is the builder it replaced, kept
//! verbatim: it inserts every value's bits into a per-bucket `BTreeSet`.
//! Both must agree to the bit on boundaries, fractions and per-bucket
//! distinct counts, for seeded random samples, heavy duplicates, values
//! exactly on boundaries, `-0.0` beside `+0.0`, a single repeated value,
//! one and many buckets, equi-depth quantiles that collapse, and
//! magnitudes from subnormals to 1e300.
//!
//! Mutation check: counting one distinct value per sampled value instead
//! of per run of equal bits makes `heavy_duplicates_match_oracle` (and
//! most other cases) fail.

use lec_catalog::{CatalogError, Histogram};
use proptest::prelude::*;

mod common;
use common::oracle_build;

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Builds both ways and compares every field to the bit; returns the
/// distinct counts so a case can also pin what it was built to show.
fn check(values: &[f64], buckets: usize, depth: bool) -> Vec<u64> {
    let got: Result<Histogram, CatalogError> = if depth {
        Histogram::equi_depth(values, buckets)
    } else {
        Histogram::equi_width(values, buckets)
    };
    let want = oracle_build(values, buckets, depth);
    let (got, want) = match (got, want) {
        (Ok(g), Ok(w)) => (g, w),
        (Err(_), Err(_)) => return Vec::new(),
        (g, w) => panic!(
            "depth {depth}, {buckets} buckets: builder {:?} vs oracle {:?}",
            g.map(|h| h.buckets()),
            w.map(|h| h.distinct.len())
        ),
    };
    let ctx = format!("depth {depth}, {buckets} buckets, {} values", values.len());
    assert_eq!(
        bits(got.boundaries()),
        bits(&want.boundaries),
        "boundaries: {ctx}"
    );
    assert_eq!(
        bits(got.fractions()),
        bits(&want.fractions),
        "fractions: {ctx}"
    );
    let distinct: Vec<u64> = (0..got.buckets()).map(|b| got.distinct_in(b)).collect();
    assert_eq!(distinct, want.distinct, "distinct: {ctx}");
    distinct
}

fn check_both(values: &[f64], buckets: usize) {
    check(values, buckets, false);
    check(values, buckets, true);
}

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

// ---------------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seeded samples: continuous values, rounded values (duplicates) or
    /// a mix, one to many buckets.
    #[test]
    fn seeded_samples_match_oracle(
        seed in any::<u64>(),
        len in 1usize..600,
        buckets in 1usize..40,
        shape in 0usize..3,
    ) {
        let mut rng = SplitMix64(seed);
        let values: Vec<f64> = (0..len)
            .map(|_| {
                let v = rng.uniform(-500.0, 500.0);
                match shape {
                    0 => v,
                    1 => v.round(),
                    _ => if rng.below(2) == 0 { v } else { (v / 50.0).round() * 50.0 },
                }
            })
            .collect();
        check_both(&values, buckets);
    }
}

/// The sampler's shape: 4,096 draws into 8 buckets, every value on a
/// small grid so each bucket holds long runs.
#[test]
fn heavy_duplicates_match_oracle() {
    let mut rng = SplitMix64(17);
    let values: Vec<f64> = (0..4096).map(|_| rng.below(40) as f64).collect();
    for depth in [false, true] {
        let distinct = check(&values, 8, depth);
        assert_eq!(distinct.iter().sum::<u64>(), 40, "depth {depth}");
    }
}

/// Values sitting exactly on equi-width boundaries (0, 10, …, 80 with 8
/// buckets over [0, 80]) land in the upper bucket, the maximum in the
/// last one.
#[test]
fn values_on_boundaries_match_oracle() {
    let mut values: Vec<f64> = (0..=8).map(|i| f64::from(i) * 10.0).collect();
    values.extend((0..=8).map(|i| f64::from(i) * 10.0));
    values.extend([5.0, 15.0, 15.0, 79.0]);
    let distinct = check(&values, 8, false);
    assert_eq!(distinct, vec![2, 2, 1, 1, 1, 1, 1, 3]);
    check(&values, 8, true);
    check_both(&values, 3);
}

/// `-0.0` sorts just before `+0.0` and lands in the same bucket; the two
/// bit patterns count as two distinct values.
#[test]
fn signed_zeros_match_oracle() {
    let values = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.0];
    for depth in [false, true] {
        let distinct = check(&values, 1, depth);
        assert_eq!(distinct.iter().sum::<u64>(), 4, "depth {depth}");
    }
    check_both(&values, 2);
    check_both(&values, 5);
    check_both(&[-0.0, 0.0], 4);
    check_both(&[0.0, -0.0, -0.0], 1);
}

/// One value repeated: a single degenerate bucket with one distinct value.
#[test]
fn single_repeated_value_matches_oracle() {
    for buckets in [1, 3, 64] {
        for depth in [false, true] {
            let distinct = check(&[7.25; 300], buckets, depth);
            assert_eq!(distinct, vec![1], "depth {depth}, {buckets} buckets");
        }
    }
    check_both(&[42.0], 5);
}

/// One bucket and more buckets than values.
#[test]
fn bucket_count_extremes_match_oracle() {
    let mut rng = SplitMix64(3);
    let values: Vec<f64> = (0..200).map(|_| rng.uniform(0.0, 1.0)).collect();
    for buckets in [1, 2, 199, 200, 1_000] {
        check_both(&values, buckets);
    }
}

/// Equi-depth quantiles that repeat collapse into one boundary, leaving
/// fewer buckets than asked for.
#[test]
fn collapsing_equi_depth_matches_oracle() {
    let mut values = vec![1.0; 90];
    values.extend([2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
    let h = Histogram::equi_depth(&values, 10).unwrap();
    assert!(h.buckets() < 10, "{} buckets", h.buckets());
    check(&values, 10, true);
    let mut skewed = vec![0.0; 500];
    skewed.extend((0..50).map(f64::from));
    skewed.extend(vec![49.0; 300]);
    for buckets in [2, 4, 16] {
        check(&skewed, buckets, true);
    }
}

/// Values whose equi-width span `hi − lo` overflows to ∞.
const OVERFLOWING: [f64; 8] = [
    1e300, -1e300, 5e299, 1e300, 7.5e299, -1e300, 1.7e308, -1.7e308,
];

/// Huge magnitudes (the equi-width step near 1e300) and subnormals (a
/// step that underflows). Over a span that overflows, equi-depth
/// boundaries are still sample values and match the oracle; equi-width
/// ones are checked by `overflowing_equi_width_span_stays_finite`, since
/// the oracle's are NaN there.
#[test]
fn extreme_magnitudes_match_oracle() {
    let finite_span = &OVERFLOWING[..6];
    check_both(finite_span, 4);
    check_both(finite_span, 7);
    check(&OVERFLOWING, 4, true);
    check(&OVERFLOWING, 7, true);
    let tiny = f64::from_bits(1);
    let sub = [
        tiny,
        0.0,
        tiny,
        tiny * 3.0,
        -tiny,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        -0.0,
    ];
    check_both(&sub, 3);
    check_both(&sub, 8);
    check_both(&[0.0, tiny, tiny, 0.0], 8);
}

/// An equi-width histogram over a span wider than `f64::MAX` has finite,
/// non-decreasing boundaries with exact ends, puts each extreme value in
/// its end bucket, and estimates finite range selectivities: the whole
/// span selects every row.
#[test]
fn overflowing_equi_width_span_stays_finite() {
    let (lo, hi) = (-1.7e308, 1.7e308);
    assert_eq!(hi - lo, f64::INFINITY);
    for buckets in [1, 2, 4, 7, 1_000] {
        let h = Histogram::equi_width(&OVERFLOWING, buckets).unwrap();
        let b = h.boundaries();
        assert_eq!(b.len(), buckets + 1);
        assert!(b.iter().all(|x| x.is_finite()), "{buckets}: {b:?}");
        assert!(b.windows(2).all(|w| w[0] <= w[1]), "{buckets}: {b:?}");
        assert_eq!((b[0], b[buckets]), (lo, hi));
        let f = h.fractions();
        assert!(
            f[0] >= 1.0 / 8.0 && f[buckets - 1] >= 1.0 / 8.0,
            "{buckets}: {f:?}"
        );
        assert!(
            (f.iter().sum::<f64>() - 1.0).abs() < 1e-12,
            "{buckets}: {f:?}"
        );
        let middle = h.selectivity_range(-1.0, 1.0);
        assert!((0.0..=1.0).contains(&middle), "{buckets}: {middle}");
        let all = h.selectivity_range(lo, hi);
        assert!((all - 1.0).abs() < 1e-12, "{buckets}: {all}");
    }
}
