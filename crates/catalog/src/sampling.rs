//! Sampling-backed estimation with per-statistic confidence intervals.
//!
//! Instead of trusting the catalog's point statistics, a seeded
//! [`SampleEstimator`] draws row samples from a *truth* [`Catalog`] and
//! turns every selectivity and distinct-count estimate into a
//! [`StatInterval`]: a point estimate plus a `[lo, hi]` confidence interval
//! that contains the true statistic with probability at least `1 − δ`
//! (Hoeffding or Wilson bounds — [`BoundKind`]). Intervals feed two
//! consumers (DESIGN.md §11):
//!
//! * [`StatInterval::widened`] propagates the interval into the bucketed
//!   [`Distribution`]s the LEC machinery consumes, so estimation
//!   uncertainty becomes extra spread rather than a side channel; and
//! * `lec_core::certificate` combines the intervals of every statistic a
//!   query touches into a per-plan (ε, δ) suboptimality certificate
//!   (Trummer & Koch, "Probably Approximately Optimal Query Optimization").
//!
//! ### Sampling model
//!
//! The truth catalog describes columns, not rows, so a "row draw" samples
//! the column's value model: histogram bucket by recorded fraction then
//! uniform within the bucket (exactly the uniform-within-bucket assumption
//! `selectivity_range` estimates under), or uniform over `[min, max]`
//! without a histogram. Join and equality draws use the System R uniform
//! distinct-value model, so each sampled indicator is Bernoulli with
//! success probability equal to the catalog's own truth estimate — which
//! is what makes the coverage guarantees of the bounds testable.
//!
//! Every public entry point here is prefixed `sample*`: the lec-lint
//! `--audit` panic-reachability pass roots a BFS at these functions with a
//! zero budget, certifying the sampling path panic-free.

use crate::catalog::Catalog;
use crate::error::CatalogError;
use crate::histogram::Histogram;
use crate::selectivity::Predicate;
use crate::table::ColumnMeta;
use lec_stats::families::{interval_widened, normal_quantile};
use lec_stats::Distribution;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which concentration bound converts a sampled proportion into a
/// confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundKind {
    /// Distribution-free Hoeffding bound: half-width `sqrt(ln(2/δ) / 2n)`.
    /// Conservative (coverage well above nominal) but independent of the
    /// estimate, so interval width is deterministic in `n` and `δ`.
    #[default]
    Hoeffding,
    /// Wilson score interval at level `1 − δ`. Much tighter for
    /// proportions far from 1/2 (the common case for selectivities), at
    /// near-nominal coverage.
    Wilson,
}

/// Configuration for one sampling pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// Row draws per estimated statistic.
    pub draws: u64,
    /// Per-statistic failure probability δ of the attached interval.
    pub delta: f64,
    /// Concentration bound used for the intervals.
    pub bound: BoundKind,
    /// Bucket count for sample-backed histograms and widened distributions.
    pub buckets: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            draws: 4096,
            delta: 0.05,
            bound: BoundKind::Hoeffding,
            buckets: 8,
        }
    }
}

/// A sampled statistic: point estimate plus a `1 − δ` confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatInterval {
    /// The point estimate (always inside `[lo, hi]`).
    pub point: f64,
    /// Lower confidence limit.
    pub lo: f64,
    /// Upper confidence limit.
    pub hi: f64,
    /// Failure probability: `P(truth ∉ [lo, hi]) ≤ delta`.
    pub delta: f64,
    /// Sample size behind the estimate (0 for exact statistics).
    pub draws: u64,
}

impl StatInterval {
    /// An exact statistic: zero-width interval, zero failure probability.
    pub fn exact(value: f64) -> Self {
        StatInterval {
            point: value,
            lo: value,
            hi: value,
            delta: 0.0,
            draws: 0,
        }
    }

    /// Interval width `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// The interval-widened bucketed distribution (DESIGN.md §11): mean
    /// pinned to the point estimate, support spread over `[lo, hi]`.
    pub fn widened(&self, buckets: usize) -> Result<Distribution, CatalogError> {
        Ok(interval_widened(self.point, self.lo, self.hi, buckets)?)
    }
}

/// Hoeffding confidence interval for a Bernoulli proportion: `successes`
/// hits out of `draws` trials, failure probability `delta`.
pub fn sample_interval_hoeffding(
    successes: u64,
    draws: u64,
    delta: f64,
) -> Result<StatInterval, CatalogError> {
    check_trials(successes, draws, delta)?;
    let n = draws as f64;
    let p = successes as f64 / n;
    let half = ((2.0 / delta).ln() / (2.0 * n)).sqrt();
    Ok(StatInterval {
        point: p,
        lo: (p - half).max(0.0),
        hi: (p + half).min(1.0),
        delta,
        draws,
    })
}

/// Wilson score interval for a Bernoulli proportion at level `1 − delta`.
pub fn sample_interval_wilson(
    successes: u64,
    draws: u64,
    delta: f64,
) -> Result<StatInterval, CatalogError> {
    check_trials(successes, draws, delta)?;
    let n = draws as f64;
    let p = successes as f64 / n;
    let z = normal_quantile(1.0 - delta / 2.0);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    Ok(StatInterval {
        point: p,
        lo: (center - half).clamp(0.0, 1.0).min(p),
        hi: (center + half).clamp(0.0, 1.0).max(p),
        delta,
        draws,
    })
}

/// Proportion interval under the configured bound.
pub fn sample_interval(
    successes: u64,
    draws: u64,
    config: &SampleConfig,
) -> Result<StatInterval, CatalogError> {
    match config.bound {
        BoundKind::Hoeffding => sample_interval_hoeffding(successes, draws, config.delta),
        BoundKind::Wilson => sample_interval_wilson(successes, draws, config.delta),
    }
}

fn check_trials(successes: u64, draws: u64, delta: f64) -> Result<(), CatalogError> {
    if draws == 0 {
        return Err(CatalogError::InvalidStatistic(
            "confidence interval needs at least one draw".into(),
        ));
    }
    if successes > draws {
        return Err(CatalogError::InvalidStatistic(format!(
            "{successes} successes out of {draws} draws"
        )));
    }
    if !(delta.is_finite() && delta > 0.0 && delta < 1.0) {
        return Err(CatalogError::InvalidStatistic(format!(
            "confidence failure probability {delta} outside (0, 1)"
        )));
    }
    Ok(())
}

/// A seeded sampler over a truth catalog: every estimate is a Bernoulli
/// proportion over fresh row draws, returned with its confidence interval.
#[derive(Debug)]
pub struct SampleEstimator<'a> {
    truth: &'a Catalog,
    config: SampleConfig,
    rng: ChaCha8Rng,
    draws_made: u64,
}

impl<'a> SampleEstimator<'a> {
    /// A sampler over `truth`, deterministic in `seed`.
    pub fn new(truth: &'a Catalog, config: SampleConfig, seed: u64) -> Self {
        SampleEstimator {
            truth,
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
            draws_made: 0,
        }
    }

    /// The sampling configuration in force.
    pub fn config(&self) -> &SampleConfig {
        &self.config
    }

    /// Total row draws made so far (across all estimates).
    pub fn draws_made(&self) -> u64 {
        self.draws_made
    }

    /// Samples the selectivity of `pred`: `draws` Bernoulli indicator
    /// draws whose success probability equals the truth catalog's
    /// selectivity for the predicate, summarized as a [`StatInterval`].
    pub fn sample_selectivity(&mut self, pred: &Predicate) -> Result<StatInterval, CatalogError> {
        let draws = self.config.draws.max(1);
        let mut successes = 0u64;
        match pred {
            Predicate::Range {
                table,
                column,
                lo,
                hi,
            } => {
                let col = ValueModel::new(self.truth.table(table)?.column(column)?);
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
                let col = ValueModel::new(self.truth.table(table)?.column(column)?);
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
                // System R containment: the smaller side's values are a
                // subset of the larger side's, both uniform, so a random
                // pair matches with probability 1 / max(d_left, d_right).
                let (d_min, d_max) = (d_left.min(d_right), d_left.max(d_right));
                for _ in 0..draws {
                    let small = self.rng.gen_range(0..d_min);
                    let large = self.rng.gen_range(0..d_max);
                    if small == large {
                        successes += 1;
                    }
                }
            }
        }
        self.draws_made += draws;
        sample_interval(successes, draws, &self.config)
    }

    /// Samples a column's distinct count via the collision estimator: the
    /// probability that two independent row draws agree on the value is
    /// `q = 1/d` under the uniform distinct-value model, so a proportion
    /// interval on `q` inverts to a distinct-count interval `[1/q_hi, 1/q_lo]`
    /// (upper limit capped at the table's row count — a column can never
    /// have more distinct values than rows).
    pub fn sample_distinct(
        &mut self,
        table: &str,
        column: &str,
    ) -> Result<StatInterval, CatalogError> {
        let meta = self.truth.table(table)?;
        let d = meta.column(column)?.distinct.max(1);
        let rows = meta.rows.max(1) as f64;
        let draws = self.config.draws.max(1);
        let mut collisions = 0u64;
        for _ in 0..draws {
            let a = self.rng.gen_range(0..d);
            let b = self.rng.gen_range(0..d);
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

    /// Builds a sample-backed histogram for a column: `draws` row draws
    /// from the truth column's value model, bucketed equi-width.
    pub fn sample_histogram(
        &mut self,
        table: &str,
        column: &str,
    ) -> Result<Histogram, CatalogError> {
        let col = ValueModel::new(self.truth.table(table)?.column(column)?);
        let draws = self.config.draws.max(1);
        let mut values = Vec::with_capacity(draws as usize);
        for _ in 0..draws {
            values.push(self.draw_value(&col));
        }
        self.draws_made += draws;
        Histogram::equi_width(&values, self.config.buckets.max(1))
    }

    /// One row draw from a column's value model.
    fn draw_value(&mut self, model: &ValueModel) -> f64 {
        let col = model.col;
        match &col.histogram {
            Some(h) => {
                let u: f64 = self.rng.gen();
                // The first bucket whose cumulative fraction exceeds `u`;
                // the last bucket takes any rounding shortfall.
                let Some(i) = model
                    .cdf
                    .iter()
                    .position(|&acc| u < acc)
                    .or(model.cdf.len().checked_sub(1))
                else {
                    return col.min;
                };
                let bounds = h.boundaries();
                let lo = bounds.get(i).copied().unwrap_or(col.min);
                let hi = bounds.get(i + 1).copied().unwrap_or(col.max);
                let w: f64 = self.rng.gen();
                lo + (hi - lo) * w
            }
            None => {
                let w: f64 = self.rng.gen();
                col.min + (col.max - col.min) * w
            }
        }
    }

    /// One equality-indicator draw: lands in the value's histogram bucket
    /// and then on the specific value with probability `1/distinct_bucket`
    /// (matching `Histogram::selectivity_eq`), or `1/distinct` without a
    /// histogram (matching the coarse estimate).
    fn draw_eq_hit(&mut self, model: &ValueModel, value: f64) -> bool {
        let col = model.col;
        match &col.histogram {
            Some(h) => {
                let v = self.draw_value(model);
                let bounds = h.boundaries();
                let bucket = bucket_index(bounds, value);
                if bucket != bucket_index(bounds, v) {
                    return false;
                }
                let distinct_in_bucket = h.distinct_in(bucket).max(1);
                self.rng.gen_range(0..distinct_in_bucket) == 0
            }
            None => {
                let d = col.distinct.max(1);
                self.rng.gen_range(0..d) == 0
            }
        }
    }
}

/// A truth column's value model, borrowed for one sampled statistic: the
/// column and its histogram's cumulative bucket fractions, summed once in
/// bucket order (`acc += f`) rather than on every draw.
struct ValueModel<'c> {
    col: &'c ColumnMeta,
    cdf: Vec<f64>,
}

impl<'c> ValueModel<'c> {
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
        ValueModel { col, cdf }
    }
}

/// Bucket index of `v` under `boundaries` (clamped to the valid range).
fn bucket_index(boundaries: &[f64], v: f64) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableMeta;

    fn truth() -> Catalog {
        let vals: Vec<f64> = (0..512).map(|i| (i % 64) as f64).collect();
        let mut c = Catalog::new();
        c.register(TableMeta::new("t", 10_000, 100).unwrap().with_column({
            let mut col = ColumnMeta::new("v", 64, 0.0, 63.0)
                .with_histogram(Histogram::equi_width(&vals, 8).unwrap());
            col.distinct = 64;
            col
        }))
        .unwrap();
        c.register(
            TableMeta::new("u", 40_000, 400)
                .unwrap()
                .with_column(ColumnMeta::new("v", 256, 0.0, 255.0)),
        )
        .unwrap();
        c
    }

    #[test]
    fn hoeffding_and_wilson_bracket_the_point() {
        for (s, n) in [(0u64, 100u64), (3, 100), (50, 100), (100, 100)] {
            for make in [sample_interval_hoeffding, sample_interval_wilson] {
                let iv = make(s, n, 0.05).unwrap();
                let p = s as f64 / n as f64;
                assert!((iv.point - p).abs() < 1e-12);
                assert!(iv.lo <= iv.point && iv.point <= iv.hi, "{iv:?}");
                assert!((0.0..=1.0).contains(&iv.lo) && (0.0..=1.0).contains(&iv.hi));
            }
        }
    }

    #[test]
    fn wilson_is_tighter_than_hoeffding_off_center() {
        let h = sample_interval_hoeffding(20, 2000, 0.05).unwrap();
        let w = sample_interval_wilson(20, 2000, 0.05).unwrap();
        assert!(w.width() < h.width(), "wilson {w:?} vs hoeffding {h:?}");
    }

    #[test]
    fn invalid_trials_are_rejected() {
        assert!(sample_interval_hoeffding(1, 0, 0.05).is_err());
        assert!(sample_interval_hoeffding(5, 3, 0.05).is_err());
        assert!(sample_interval_wilson(1, 2, 0.0).is_err());
        assert!(sample_interval_wilson(1, 2, 1.0).is_err());
    }

    #[test]
    fn sampled_range_interval_covers_truth_and_is_deterministic() {
        let c = truth();
        let pred = Predicate::Range {
            table: "t".into(),
            column: "v".into(),
            lo: 0.0,
            hi: 16.0,
        };
        let true_sel = pred.estimate(&c).unwrap();
        let cfg = SampleConfig {
            draws: 2048,
            ..SampleConfig::default()
        };
        let a = SampleEstimator::new(&c, cfg, 7)
            .sample_selectivity(&pred)
            .unwrap();
        let b = SampleEstimator::new(&c, cfg, 7)
            .sample_selectivity(&pred)
            .unwrap();
        assert_eq!(a, b, "same seed must reproduce the interval");
        assert!(a.lo <= true_sel && true_sel <= a.hi, "{a:?} vs {true_sel}");
        assert!(a.draws == 2048);
    }

    #[test]
    fn sampled_join_interval_covers_containment_truth() {
        let c = truth();
        let pred = Predicate::EquiJoin {
            left_table: "t".into(),
            left_column: "v".into(),
            right_table: "u".into(),
            right_column: "v".into(),
        };
        let true_sel = pred.estimate(&c).unwrap(); // 1/256
        let cfg = SampleConfig {
            draws: 8192,
            bound: BoundKind::Wilson,
            ..SampleConfig::default()
        };
        let iv = SampleEstimator::new(&c, cfg, 11)
            .sample_selectivity(&pred)
            .unwrap();
        assert!(
            iv.lo <= true_sel && true_sel <= iv.hi,
            "{iv:?} vs {true_sel}"
        );
    }

    #[test]
    fn distinct_interval_covers_truth_and_caps_at_rows() {
        let c = truth();
        let cfg = SampleConfig {
            draws: 4096,
            bound: BoundKind::Wilson,
            ..SampleConfig::default()
        };
        let iv = SampleEstimator::new(&c, cfg, 13)
            .sample_distinct("t", "v")
            .unwrap();
        assert!(iv.lo <= 64.0 && 64.0 <= iv.hi, "{iv:?}");
        assert!(iv.hi <= 10_000.0);
    }

    #[test]
    fn widened_belief_has_point_mean_and_unit_clamp() {
        let iv = StatInterval {
            point: 0.3,
            lo: 0.1,
            hi: 0.6,
            delta: 0.05,
            draws: 100,
        };
        let d = iv.widened(8).unwrap();
        assert!((d.mean() - 0.3).abs() < 1e-9);
        let exact = StatInterval::exact(0.5);
        assert_eq!(exact.width(), 0.0);
        assert!(exact.widened(8).unwrap().is_point());
    }
}
