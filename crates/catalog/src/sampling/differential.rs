//! Differential battery for the row-wise sampler.
//!
//! `SampleEstimator` draws each row through three layers: ChaCha8's
//! `next_u64`, which reads both words of a pair in one step when they sit
//! in the current block; `sample_bucket`, which counts the CDF entries at
//! or below `u` instead of scanning for the first one above it; and
//! `Histogram::equi_width`, which sorts order-preserving integer keys
//! instead of calling `f64::total_cmp`. The oracle below is the sampler
//! those replaced, kept verbatim: `next_u64` as two `next_u32` calls, the
//! `position` scan, and the `total_cmp` builder with its per-bucket
//! `BTreeSet`, shared with `tests/histogram_differential.rs` through
//! `tests/common/mod.rs`. Both must agree to the bit on every
//! `StatInterval`, every sampled histogram (boundaries, fractions,
//! distinct counts), `draws_made`, and the next RNG word the estimator
//! would draw after each call.
//!
//! The battery is a child module of `sampling`, so it reads the bucket
//! pick and the estimator's generator without either being public.
//!
//! A uniform `u` lands exactly on a CDF entry, or at or above a last
//! entry that rounding left below 1, with probability near 2⁻⁵³ per
//! draw, so random draws alone never reach the edges of the bucket pick.
//! `bucket_pick_matches_position_scan` therefore checks `sample_bucket`
//! against the scan on crafted `u` at, just below and just above every
//! entry.
//!
//! Mutation check: `acc < u` in `sample_bucket`'s count, dropping its
//! `.min(last)` clamp, or a two-word read at index 15 that takes the
//! high word from the current block's word 0 each make this battery fail.

use super::{
    sample_bucket, sample_interval, BoundKind, SampleConfig, SampleEstimator, StatInterval,
};
use crate::{Catalog, CatalogError, ColumnMeta, Histogram, Predicate, TableMeta};
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[path = "../../tests/common/mod.rs"]
mod common;
use common::{oracle_build, OracleHistogram};

// ---------------------------------------------------------------------------
// The oracle: the sampler's draw loops as they were, verbatim.
// ---------------------------------------------------------------------------

/// `next_u64` as two `next_u32` calls, low word first.
fn oracle_next_u64(rng: &mut ChaCha8Rng) -> u64 {
    let lo = rng.next_u32() as u64;
    let hi = rng.next_u32() as u64;
    lo | (hi << 32)
}

/// `Rng::gen::<f64>()`: uniform in `[0, 1)` with 53 random mantissa bits.
fn oracle_f64(rng: &mut ChaCha8Rng) -> f64 {
    (oracle_next_u64(rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `Rng::gen_range(0..span)` for `u64`: a widening multiply.
fn oracle_below(rng: &mut ChaCha8Rng, span: u64) -> u64 {
    assert!(0 < span, "empty range in gen_range");
    ((oracle_next_u64(rng) as u128 * span as u128) >> 64) as u64
}

/// The first bucket whose cumulative fraction exceeds `u`; the last
/// bucket takes any rounding shortfall.
fn oracle_bucket(cdf: &[f64], u: f64) -> Option<usize> {
    cdf.iter()
        .position(|&acc| u < acc)
        .or(cdf.len().checked_sub(1))
}

struct OracleModel<'c> {
    col: &'c ColumnMeta,
    cdf: Vec<f64>,
}

impl<'c> OracleModel<'c> {
    fn new(col: &'c ColumnMeta) -> Self {
        let mut acc = 0.0;
        let cdf = col.histogram.as_ref().map_or_else(Vec::new, |h| {
            h.fractions()
                .iter()
                .map(|f| {
                    acc += f;
                    acc
                })
                .collect()
        });
        OracleModel { col, cdf }
    }
}

struct OracleEstimator<'a> {
    truth: &'a Catalog,
    config: SampleConfig,
    rng: ChaCha8Rng,
    draws_made: u64,
}

impl<'a> OracleEstimator<'a> {
    fn new(truth: &'a Catalog, config: SampleConfig, seed: u64) -> Self {
        OracleEstimator {
            truth,
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            draws_made: 0,
        }
    }

    fn peek_u64(&self) -> u64 {
        oracle_next_u64(&mut self.rng.clone())
    }

    fn sample_selectivity(&mut self, pred: &Predicate) -> Result<StatInterval, CatalogError> {
        let draws = self.config.draws.max(1);
        let mut successes = 0u64;
        match pred {
            Predicate::Range {
                table,
                column,
                lo,
                hi,
            } => {
                let col = OracleModel::new(self.truth.table(table)?.column(column)?);
                for _ in 0..draws {
                    let v = self.draw_value(&col);
                    if *lo <= v && v <= *hi {
                        successes += 1;
                    }
                }
            }
            Predicate::Eq {
                table,
                column,
                value,
            } => {
                let col = OracleModel::new(self.truth.table(table)?.column(column)?);
                for _ in 0..draws {
                    if self.draw_eq_hit(&col, *value) {
                        successes += 1;
                    }
                }
            }
            Predicate::EquiJoin {
                left_table,
                left_column,
                right_table,
                right_column,
            } => {
                let d_left = self
                    .truth
                    .table(left_table)?
                    .column(left_column)?
                    .distinct
                    .max(1);
                let d_right = self
                    .truth
                    .table(right_table)?
                    .column(right_column)?
                    .distinct
                    .max(1);
                let (d_min, d_max) = (d_left.min(d_right), d_left.max(d_right));
                for _ in 0..draws {
                    let small = oracle_below(&mut self.rng, d_min);
                    let large = oracle_below(&mut self.rng, d_max);
                    if small == large {
                        successes += 1;
                    }
                }
            }
        }
        self.draws_made += draws;
        sample_interval(successes, draws, &self.config)
    }

    fn sample_distinct(&mut self, table: &str, column: &str) -> Result<StatInterval, CatalogError> {
        let meta = self.truth.table(table)?;
        let d = meta.column(column)?.distinct.max(1);
        let rows = meta.rows.max(1) as f64;
        let draws = self.config.draws.max(1);
        let mut collisions = 0u64;
        for _ in 0..draws {
            let a = oracle_below(&mut self.rng, d);
            let b = oracle_below(&mut self.rng, d);
            if a == b {
                collisions += 1;
            }
        }
        self.draws_made += 2 * draws;
        let q = sample_interval(collisions, draws, &self.config)?;
        let lo = if q.hi > 0.0 {
            (1.0 / q.hi).max(1.0)
        } else {
            1.0
        };
        let hi = if q.lo > 0.0 {
            (1.0 / q.lo).min(rows)
        } else {
            rows
        };
        let point = if q.point > 0.0 {
            (1.0 / q.point).clamp(lo, hi)
        } else {
            hi
        };
        Ok(StatInterval {
            point,
            lo: lo.min(point),
            hi: hi.max(point),
            delta: q.delta,
            draws,
        })
    }

    fn sample_histogram(
        &mut self,
        table: &str,
        column: &str,
    ) -> Result<OracleHistogram, CatalogError> {
        let col = OracleModel::new(self.truth.table(table)?.column(column)?);
        let draws = self.config.draws.max(1);
        let mut values = Vec::with_capacity(draws as usize);
        for _ in 0..draws {
            values.push(self.draw_value(&col));
        }
        self.draws_made += draws;
        oracle_build(&values, self.config.buckets.max(1), false)
            .map_err(CatalogError::MalformedHistogram)
    }

    fn draw_value(&mut self, model: &OracleModel) -> f64 {
        let col = model.col;
        match &col.histogram {
            Some(h) => {
                let u: f64 = oracle_f64(&mut self.rng);
                let Some(i) = oracle_bucket(&model.cdf, u) else {
                    return col.min;
                };
                let bounds = h.boundaries();
                let lo = bounds.get(i).copied().unwrap_or(col.min);
                let hi = bounds.get(i + 1).copied().unwrap_or(col.max);
                let w: f64 = oracle_f64(&mut self.rng);
                lo + (hi - lo) * w
            }
            None => {
                let w: f64 = oracle_f64(&mut self.rng);
                col.min + (col.max - col.min) * w
            }
        }
    }

    fn draw_eq_hit(&mut self, model: &OracleModel, value: f64) -> bool {
        let col = model.col;
        match &col.histogram {
            Some(h) => {
                let v = self.draw_value(model);
                let bounds = h.boundaries();
                let bucket = oracle_bucket_index(bounds, value);
                if bucket != oracle_bucket_index(bounds, v) {
                    return false;
                }
                let distinct_in_bucket = h.distinct_in(bucket).max(1);
                oracle_below(&mut self.rng, distinct_in_bucket) == 0
            }
            None => {
                let d = col.distinct.max(1);
                oracle_below(&mut self.rng, d) == 0
            }
        }
    }
}

/// Bucket index of `v` under `boundaries` (clamped to the valid range).
fn oracle_bucket_index(boundaries: &[f64], v: f64) -> usize {
    if boundaries.len() < 2 {
        return 0;
    }
    let nb = boundaries.len() - 2;
    boundaries
        .iter()
        .skip(1)
        .take(nb)
        .filter(|&&b| v >= b)
        .count()
        .min(nb)
}

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn interval_bits(iv: &StatInterval) -> [u64; 5] {
    [
        iv.point.to_bits(),
        iv.lo.to_bits(),
        iv.hi.to_bits(),
        iv.delta.to_bits(),
        iv.draws,
    ]
}

/// One estimator call, run on both sides.
enum Call<'p> {
    Selectivity(&'p Predicate),
    Distinct(&'p str, &'p str),
    Histogram(&'p str, &'p str),
}

/// Runs `calls` in order on a fresh estimator and a fresh oracle, both
/// seeded `seed`, and after every call compares the result, `draws_made`
/// and the next RNG word to the bit. Returns the number of calls.
fn check(truth: &Catalog, config: SampleConfig, seed: u64, calls: &[Call]) -> usize {
    let mut est = SampleEstimator::new(truth, config, seed);
    let mut oracle = OracleEstimator::new(truth, config, seed);
    assert_eq!(
        next_word(&est),
        oracle.peek_u64(),
        "seed {seed}: first word"
    );
    for (k, call) in calls.iter().enumerate() {
        let ctx = format!("seed {seed}, {} draws, call {k}", config.draws);
        match call {
            Call::Selectivity(pred) => {
                let got = est.sample_selectivity(pred).map(|iv| interval_bits(&iv));
                let want = oracle.sample_selectivity(pred).map(|iv| interval_bits(&iv));
                assert_eq!(
                    got.map_err(|e| e.to_string()),
                    want.map_err(|e| e.to_string()),
                    "selectivity: {ctx}"
                );
            }
            Call::Distinct(table, column) => {
                let got = est
                    .sample_distinct(table, column)
                    .map(|iv| interval_bits(&iv));
                let want = oracle
                    .sample_distinct(table, column)
                    .map(|iv| interval_bits(&iv));
                assert_eq!(
                    got.map_err(|e| e.to_string()),
                    want.map_err(|e| e.to_string()),
                    "distinct: {ctx}"
                );
            }
            Call::Histogram(table, column) => {
                let got = est.sample_histogram(table, column).expect("histogram");
                let want = oracle.sample_histogram(table, column).expect("oracle");
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
            }
        }
        assert_eq!(est.draws_made(), oracle.draws_made, "draws_made: {ctx}");
        assert_eq!(next_word(&est), oracle.peek_u64(), "next word: {ctx}");
    }
    calls.len()
}

/// The next 64-bit word `est`'s generator would produce, read from a
/// copy: the stream position an estimate leaves behind.
fn next_word(est: &SampleEstimator) -> u64 {
    est.rng.clone().next_u64()
}

fn config(draws: u64) -> SampleConfig {
    SampleConfig {
        draws,
        ..SampleConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Catalogs.
// ---------------------------------------------------------------------------

/// Per-bucket mass of a filter column `v` over `[0, 100]` (8 buckets).
type Profile = [f64; 8];

/// The serving benchmark's uniform filter column.
const UNIFORM: Profile = [0.125; 8];
/// The serving benchmark's drifted filter column: mass on the low buckets.
const HOT: Profile = [0.70, 0.10, 0.04, 0.04, 0.03, 0.03, 0.03, 0.03];

/// The histogram of `v` realizing `profile` from an 800-value sample, as
/// the serving benchmark builds its `drift_certify` columns.
fn v_histogram(profile: &Profile) -> Histogram {
    let values: Vec<f64> = profile
        .iter()
        .enumerate()
        .flat_map(|(b, &mass)| {
            let n = (mass * 800.0).round() as usize;
            (0..n).map(move |i| b as f64 * 12.5 + 12.5 * (i as f64 + 0.5) / n.max(1) as f64)
        })
        .collect();
    Histogram::equi_width(&values, 8).expect("profiles carry positive mass")
}

/// The histogram's cumulative fractions, summed in bucket order.
fn cdf(h: &Histogram) -> Vec<f64> {
    let mut acc = 0.0;
    h.fractions()
        .iter()
        .map(|f| {
            acc += f;
            acc
        })
        .collect()
}

/// One table per column shape:
/// * `uniform`, `hot`: the `drift_certify` 8-bucket `v` columns;
/// * `gaps`: values only in the outer buckets of 8, so six buckets hold
///   no mass and the CDF repeats entries;
/// * `tenths`: ten buckets of 0.1, whose CDF ends at `1 − 2⁻⁵³`;
/// * `single`: one bucket;
/// * `plain`: no histogram.
///
/// Every table also has a join key `k`.
fn truth() -> Catalog {
    let mut c = Catalog::new();
    let mut add = |name: &str, rows: u64, v: ColumnMeta| {
        c.register(
            TableMeta::new(name, rows, 6)
                .expect("positive rows and pages")
                .with_column(ColumnMeta::new("k", rows + 7, 0.0, rows as f64 + 6.0))
                .with_column(v),
        )
        .expect("fresh table names");
    };
    let hist_col = |h: Histogram| {
        let mut col = ColumnMeta::new("v", 800, 0.0, 100.0);
        col.histogram = Some(h);
        col
    };
    add("uniform", 384, hist_col(v_histogram(&UNIFORM)));
    add("hot", 384, hist_col(v_histogram(&HOT)));
    let mut gaps: Vec<f64> = (0..60).map(|i| f64::from(i) / 10.0).collect();
    gaps.extend((0..40).map(|i| 90.0 + f64::from(i) / 4.0));
    add(
        "gaps",
        500,
        ColumnMeta::new("v", 100, 0.0, 100.0)
            .with_histogram(Histogram::equi_width(&gaps, 8).expect("gaps")),
    );
    let tenths: Vec<f64> = (0..100).map(f64::from).collect();
    add(
        "tenths",
        1_000,
        ColumnMeta::new("v", 100, 0.0, 99.0)
            .with_histogram(Histogram::equi_width(&tenths, 10).expect("tenths")),
    );
    add(
        "single",
        50,
        ColumnMeta::new("v", 3, 2.0, 2.0)
            .with_histogram(Histogram::equi_width(&[2.0, 2.0, 2.0], 4).expect("single")),
    );
    add("plain", 2_000, ColumnMeta::new("v", 40, -5.0, 35.0));
    c
}

/// The filter column `v` of `table`.
fn v_column<'c>(c: &'c Catalog, table: &str) -> &'c ColumnMeta {
    c.table(table)
        .and_then(|t| t.column("v"))
        .expect("every table has `v`")
}

const TABLES: [&str; 6] = ["uniform", "hot", "gaps", "tenths", "single", "plain"];

fn range(table: &str, lo: f64, hi: f64) -> Predicate {
    Predicate::Range {
        table: table.into(),
        column: "v".into(),
        lo,
        hi,
    }
}

fn eq(table: &str, value: f64) -> Predicate {
    Predicate::Eq {
        table: table.into(),
        column: "v".into(),
        value,
    }
}

fn join(left: &str, right: &str) -> Predicate {
    Predicate::EquiJoin {
        left_table: left.into(),
        left_column: "k".into(),
        right_table: right.into(),
        right_column: "k".into(),
    }
}

// ---------------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------------

/// The column shapes the cases below rely on.
#[test]
fn catalog_shapes_are_as_described() {
    let c = truth();
    let h = |t: &str| {
        v_column(&c, t)
            .histogram
            .clone()
            .expect("every table but `plain` has a histogram")
    };
    let gaps = cdf(&h("gaps"));
    assert!(
        gaps.windows(2).filter(|w| w[0] == w[1]).count() >= 5,
        "{gaps:?}"
    );
    let tenths = cdf(&h("tenths"));
    assert_eq!(tenths.len(), 10);
    assert!(tenths[9] < 1.0, "{tenths:?}");
    assert_eq!(h("single").buckets(), 1);
    assert!(v_column(&c, "plain").histogram.is_none());
    assert!(h("hot").fractions()[0] > 0.6);
}

/// One `drift_certify` selection resample, as the serving loop makes it:
/// the filter's selectivity, then the belief histogram, at 4,096 draws,
/// on both profiles and every filter range of the workload.
#[test]
fn drift_certify_resample_matches_oracle() {
    let c = truth();
    for table in ["uniform", "hot"] {
        for (seed, hi) in [(0x5A17, 25.0), (1, 37.5), (2, 50.0)] {
            let pred = range(table, 0.0, hi);
            check(
                &c,
                config(4096),
                seed,
                &[Call::Selectivity(&pred), Call::Histogram(table, "v")],
            );
        }
    }
}

/// Every column shape, every estimator call, and equality on bucket
/// boundaries, inside and at the ends of the domain, in one stream per
/// seed, so a divergence anywhere shifts everything after it.
#[test]
fn every_shape_and_call_matches_oracle() {
    let c = truth();
    let mut preds = Vec::new();
    for table in TABLES {
        let col = v_column(&c, table);
        let (min, max) = (col.min, col.max);
        preds.push(range(table, min, min + (max - min) / 3.0));
        preds.push(range(table, min + (max - min) / 4.0, max));
        let mut values = vec![min, max, (min + max) / 2.0, min.floor() + 1.0];
        if let Some(h) = &col.histogram {
            values.extend_from_slice(h.boundaries());
        }
        preds.extend(values.into_iter().map(|v| eq(table, v)));
    }
    preds.push(join("uniform", "hot"));
    preds.push(join("plain", "single"));
    preds.push(join("tenths", "tenths"));
    for seed in [0, 0x5A17, u64::MAX, 77] {
        for draws in [1, 3, 16, 257, 4096] {
            let mut calls: Vec<Call> = preds.iter().map(Call::Selectivity).collect();
            for table in TABLES {
                calls.push(Call::Histogram(table, "v"));
                calls.push(Call::Distinct(table, "k"));
                calls.push(Call::Distinct(table, "v"));
            }
            check(&c, config(draws), seed, &calls);
        }
    }
}

/// Draw counts from 1 through 4,097, dense where a call's words end near
/// a block boundary: each row of a range draw takes two `u64` (four
/// words), so the stream crosses a 16-word block every four rows.
#[test]
fn draw_counts_across_block_ends_match_oracle() {
    let c = truth();
    let mut counts: Vec<u64> = (1..=40).collect();
    counts.extend([
        63, 64, 65, 127, 128, 129, 1023, 1024, 1025, 2047, 4095, 4096, 4097,
    ]);
    let pred = range("hot", 0.0, 25.0);
    let eq_pred = eq("hot", 12.5);
    let join_pred = join("uniform", "plain");
    for draws in counts {
        check(
            &c,
            config(draws),
            draws,
            &[
                Call::Selectivity(&pred),
                Call::Histogram("hot", "v"),
                Call::Selectivity(&eq_pred),
                Call::Selectivity(&join_pred),
                Call::Distinct("uniform", "k"),
                Call::Histogram("plain", "v"),
            ],
        );
    }
}

/// Wilson intervals and other bucket counts go through the same draws.
#[test]
fn bound_and_bucket_settings_match_oracle() {
    let c = truth();
    let pred = range("gaps", 5.0, 95.0);
    for buckets in [1, 3, 8, 40] {
        let cfg = SampleConfig {
            draws: 1000,
            delta: 0.01,
            bound: BoundKind::Wilson,
            buckets,
        };
        check(
            &c,
            cfg,
            buckets as u64,
            &[
                Call::Selectivity(&pred),
                Call::Histogram("gaps", "v"),
                Call::Histogram("tenths", "v"),
                Call::Distinct("gaps", "k"),
            ],
        );
    }
}

/// Missing tables and columns fail the same way on both sides and draw
/// nothing.
#[test]
fn missing_statistics_match_oracle() {
    let c = truth();
    let missing_table = range("nope", 0.0, 1.0);
    let missing_column = Predicate::Range {
        table: "hot".into(),
        column: "w".into(),
        lo: 0.0,
        hi: 1.0,
    };
    check(
        &c,
        config(64),
        5,
        &[
            Call::Selectivity(&missing_table),
            Call::Selectivity(&missing_column),
            Call::Distinct("hot", "w"),
            Call::Selectivity(&range("hot", 0.0, 1.0)),
        ],
    );
}

/// Every float next to `x`: below, at and above.
fn around(x: f64) -> [f64; 3] {
    [
        f64::from_bits(x.to_bits().saturating_sub(1)).max(0.0),
        x,
        f64::from_bits(x.to_bits() + 1),
    ]
}

/// `sample_bucket` against the `position` scan, on every crafted `u` at,
/// just below and just above each CDF entry, and at the ends of `[0, 1)`:
/// the edges a uniform draw reaches with probability near 2⁻⁵³.
#[test]
fn bucket_pick_matches_position_scan() {
    let c = truth();
    let mut cdfs: Vec<Vec<f64>> = TABLES
        .iter()
        .filter_map(|t| v_column(&c, t).histogram.as_ref())
        .map(cdf)
        .collect();
    cdfs.extend([
        vec![],
        vec![1.0],
        vec![0.0, 0.0, 1.0],
        vec![0.25, 0.25, 0.25, 0.75, 1.0],
        vec![0.5, 0.5, 0.5],
        vec![0.3, 0.6, 0.9],
        vec![0.0, 0.0],
    ]);
    let below_one = 1.0 - f64::EPSILON / 2.0;
    for cdf in &cdfs {
        let mut us = vec![0.0, 0.5, below_one];
        for &acc in cdf {
            us.extend(around(acc).into_iter().filter(|&u| u < 1.0));
        }
        for u in us {
            assert_eq!(
                sample_bucket(cdf, u),
                oracle_bucket(cdf, u),
                "cdf {cdf:?}, u {u:e}"
            );
        }
    }
    // The shortfall takes the last bucket, and a repeated entry is skipped.
    assert_eq!(sample_bucket(&[0.3, 0.6, 0.9], 0.95), Some(2));
    assert_eq!(sample_bucket(&[0.5, 0.5, 0.5, 1.0], 0.5), Some(3));
    assert_eq!(sample_bucket(&[], 0.5), None);
}

/// `next_u64` against two `next_u32` calls from every word offset of a
/// block, including 15 (one word left) and 16 (block used up), and from
/// a clone taken at each offset.
#[test]
fn next_u64_matches_two_next_u32_at_every_offset() {
    for seed in [0, 0x5A17, u64::MAX] {
        for offset in 0..=32 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..offset {
                rng.next_u32();
            }
            let mut oracle = rng.clone();
            for step in 0..40 {
                assert_eq!(
                    rng.next_u64(),
                    oracle_next_u64(&mut oracle),
                    "seed {seed:#x}, offset {offset}, step {step}"
                );
                if step % 7 == 3 {
                    rng.next_u32();
                    oracle.next_u32();
                }
            }
        }
    }
}
