//! Column histograms for selectivity estimation.
//!
//! Equality and range selectivities are estimated from bucketed value
//! frequencies, following the classic histogram line of work the paper cites
//! (\[PHS96\]). Buckets assume uniform value spread *within* a bucket (the
//! "continuous values" assumption), which is the standard estimation model.

use crate::error::CatalogError;

/// A histogram over a numeric column: `boundaries.len() == fractions.len() + 1`,
/// bucket `i` covers `[boundaries[i], boundaries[i+1])` (the last bucket is
/// closed on the right) and holds `fractions[i]` of the rows. Each bucket
/// also records its number of distinct values for equality estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    boundaries: Vec<f64>,
    fractions: Vec<f64>,
    distinct: Vec<u64>,
}

impl Histogram {
    /// Builds an equi-width histogram with `buckets` buckets from raw values.
    pub fn equi_width(values: &[f64], buckets: usize) -> Result<Self, CatalogError> {
        Self::build(values, buckets, false)
    }

    /// Builds an equi-depth histogram with `buckets` buckets from raw values.
    pub fn equi_depth(values: &[f64], buckets: usize) -> Result<Self, CatalogError> {
        Self::build(values, buckets, true)
    }

    /// Sorts the values, places the boundaries (equal-width steps from
    /// the minimum, or quantiles whose duplicates collapse into one
    /// boundary), and counts rows and distinct values per bucket in one
    /// pass over the sorted values. Distinct means distinct bits: the
    /// values are finite and `total_cmp`-sorted, so equal bits sit side by
    /// side and each run of them adds one distinct value to its bucket
    /// (`-0.0` and `+0.0` are two values, like any other pair of
    /// bit patterns).
    fn build(values: &[f64], buckets: usize, depth: bool) -> Result<Self, CatalogError> {
        if values.is_empty() {
            return Err(CatalogError::MalformedHistogram("no values".into()));
        }
        if buckets == 0 {
            return Err(CatalogError::MalformedHistogram("zero buckets".into()));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(CatalogError::MalformedHistogram("non-finite value".into()));
        }
        let mut sorted = values.to_vec();
        // `total_cmp` ties only identical bits, so an unstable sort gives
        // the same slice as a stable one.
        sorted.sort_unstable_by(f64::total_cmp);
        let (lo, hi) = (sorted[0], *sorted.last().expect("non-empty")); // lec-lint: allow(panic-reachability) — `values` emptiness is rejected at fn entry, so `sorted` is non-empty here

        let boundaries: Vec<f64> = if depth {
            // Quantile boundaries; duplicates collapse buckets below.
            let mut b: Vec<f64> = (0..=buckets)
                .map(|i| {
                    let pos = (i * (sorted.len() - 1)) / buckets;
                    sorted[pos]
                })
                .collect();
            b.dedup();
            if b.len() < 2 {
                // All values identical: one degenerate bucket.
                vec![lo, hi]
            } else {
                b
            }
        } else if lo == hi {
            vec![lo, hi]
        } else {
            let width = (hi - lo) / buckets as f64;
            if width.is_finite() {
                (0..=buckets).map(|i| lo + width * i as f64).collect()
            } else {
                // The span overflows, so `lo` and `hi` have opposite signs:
                // each end's share of a boundary is finite, and so is their
                // sum. The ends stay exact.
                let n = buckets as f64;
                (0..=buckets)
                    .map(|i| match i {
                        0 => lo,
                        i if i == buckets => hi,
                        i => lo / n * (buckets - i) as f64 + hi / n * i as f64,
                    })
                    .collect()
            }
        };

        let nb = boundaries.len() - 1;
        let mut counts = vec![0u64; nb];
        let mut distinct = vec![0u64; nb];
        let mut prev = None;
        for &v in &sorted {
            let b = bucket_of(&boundaries, v);
            counts[b] += 1;
            if prev != Some(v.to_bits()) {
                distinct[b] += 1;
                prev = Some(v.to_bits());
            }
        }
        let n = sorted.len() as f64;
        Ok(Self {
            boundaries,
            fractions: counts.iter().map(|&c| c as f64 / n).collect(),
            distinct,
        })
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.fractions.len()
    }

    /// Bucket boundaries (length `buckets() + 1`).
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Row fractions per bucket (sum to 1).
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// Total number of distinct values across buckets.
    pub fn distinct_total(&self) -> u64 {
        self.distinct.iter().sum()
    }

    /// Distinct values recorded in one bucket (0 for an out-of-range index).
    pub fn distinct_in(&self, bucket: usize) -> u64 {
        self.distinct.get(bucket).copied().unwrap_or(0)
    }

    /// Estimated selectivity of `column = value`: the bucket's row fraction
    /// spread uniformly over its distinct values.
    pub fn selectivity_eq(&self, value: f64) -> f64 {
        let lo = self.boundaries[0];
        let hi = *self.boundaries.last().expect("non-empty"); // lec-lint: allow(panic-reachability) — `build` always produces at least two boundaries (degenerate case emits `[lo, hi]`)
        if value < lo || value > hi {
            return 0.0;
        }
        let b = bucket_of(&self.boundaries, value);
        let d = self.distinct[b].max(1) as f64;
        self.fractions[b] / d
    }

    /// Folds observed `(value, count)` feedback into the bucket fractions
    /// without a full rebuild — the recalibration primitive of the
    /// `lec-serve` drift loop.
    ///
    /// The observed counts are bucketed against the current boundaries and
    /// blended with the stored fractions: each bucket's new fraction is
    /// `(1 - blend) · old + blend · observed`. `blend` in `(0, 1]` is the
    /// trust placed in the feedback (1.0 replaces the histogram's shape
    /// outright). Values outside the current domain widen the first/last
    /// boundary so the edge buckets absorb them — after drift pushes the
    /// true distribution past the believed domain, estimates must stop
    /// returning zero. Per-bucket distinct counts only grow (feedback can
    /// reveal values, never un-see them). Boundaries otherwise stay fixed:
    /// this is deliberately an O(observations + buckets) *merge*, not a
    /// rebuild.
    ///
    /// # Examples
    ///
    /// ```
    /// use lec_catalog::Histogram;
    ///
    /// let values: Vec<f64> = (0..100).map(f64::from).collect();
    /// let mut h = Histogram::equi_width(&values, 4)?;
    /// // Execution reveals the data is actually concentrated low.
    /// h.merge_observations(&[(10.0, 900), (80.0, 100)], 0.5)?;
    /// assert!(h.fractions()[0] > h.fractions()[3]);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn merge_observations(
        &mut self,
        observations: &[(f64, u64)],
        blend: f64,
    ) -> Result<(), CatalogError> {
        if !(blend.is_finite() && blend > 0.0 && blend <= 1.0) {
            return Err(CatalogError::MalformedHistogram(format!(
                "blend {blend} outside (0, 1]"
            )));
        }
        if observations.iter().any(|(v, _)| !v.is_finite()) {
            return Err(CatalogError::MalformedHistogram(
                "non-finite observed value".into(),
            ));
        }
        let total: u64 = observations.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return Err(CatalogError::MalformedHistogram("no observed rows".into()));
        }

        // Widen the domain to cover everything observed.
        for &(v, c) in observations {
            if c == 0 {
                continue;
            }
            if v < self.boundaries[0] {
                self.boundaries[0] = v;
            }
            let last = self.boundaries.len() - 1;
            if v > self.boundaries[last] {
                self.boundaries[last] = v;
            }
        }

        let nb = self.buckets();
        let mut observed = vec![0.0f64; nb];
        let mut uniques: Vec<std::collections::BTreeSet<u64>> =
            vec![std::collections::BTreeSet::new(); nb];
        for &(v, c) in observations {
            if c == 0 {
                continue;
            }
            let b = bucket_of(&self.boundaries, v);
            observed[b] += c as f64 / total as f64;
            uniques[b].insert(v.to_bits());
        }
        for i in 0..nb {
            self.fractions[i] = (1.0 - blend) * self.fractions[i] + blend * observed[i];
            self.distinct[i] = self.distinct[i].max(uniques[i].len() as u64);
        }
        // Blending two unit vectors is a unit vector up to rounding; pin
        // the invariant exactly so repeated merges cannot drift.
        let sum: f64 = self.fractions.iter().sum();
        if sum > 0.0 {
            for f in &mut self.fractions {
                *f /= sum;
            }
        }
        Ok(())
    }

    /// Estimated selectivity of `lo <= column <= hi` under the uniform-
    /// within-bucket assumption.
    pub fn selectivity_range(&self, lo: f64, hi: f64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        let mut total = 0.0;
        // `boundaries` has `buckets() + 1` entries, so each window pairs a
        // bucket's lower and upper boundary with the matching fraction.
        for (i, pair) in self.boundaries.windows(2).enumerate() {
            let (bl, bh) = (pair[0], pair[1]);
            let width = bh - bl;
            let overlap_lo = lo.max(bl);
            let overlap_hi = hi.min(bh);
            if overlap_hi <= overlap_lo && width > 0.0 {
                continue;
            }
            let frac_of_bucket = if width <= 0.0 {
                // Degenerate single-value bucket.
                if lo <= bl && bl <= hi {
                    1.0
                } else {
                    0.0
                }
            } else if width.is_finite() {
                ((overlap_hi - overlap_lo) / width).clamp(0.0, 1.0)
            } else {
                // A bucket wider than `f64::MAX`: halving both ends keeps
                // both differences finite.
                ((overlap_hi / 2.0 - overlap_lo / 2.0) / (bh / 2.0 - bl / 2.0)).clamp(0.0, 1.0)
            };
            total += self.fractions[i] * frac_of_bucket;
        }
        total.clamp(0.0, 1.0)
    }
}

/// Index of the bucket containing `v` (clamped to the ends).
fn bucket_of(boundaries: &[f64], v: f64) -> usize {
    let nb = boundaries.len() - 1;
    // partition_point over inner boundaries [1..nb]: first bucket whose
    // upper boundary is > v.
    let mut idx = boundaries[1..nb].partition_point(|&b| b <= v);
    if idx >= nb {
        idx = nb - 1;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_values(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn equi_width_fractions_sum_to_one() {
        let h = Histogram::equi_width(&uniform_values(1000), 8).unwrap();
        assert_eq!(h.buckets(), 8);
        assert!((h.fractions().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equi_depth_balances_rows() {
        // Skewed data: equi-depth buckets should still hold ~equal fractions.
        let mut vals: Vec<f64> = uniform_values(900);
        vals.extend(std::iter::repeat_n(5.0, 100));
        let h = Histogram::equi_depth(&vals, 4).unwrap();
        for &f in h.fractions() {
            assert!(f > 0.1, "bucket fraction {f} too small");
        }
    }

    #[test]
    fn range_selectivity_uniform_data() {
        let h = Histogram::equi_width(&uniform_values(10_000), 16).unwrap();
        // Query covering ~30% of the domain.
        let s = h.selectivity_range(1000.0, 4000.0);
        assert!((s - 0.3).abs() < 0.02, "selectivity {s}");
        // Full domain.
        assert!((h.selectivity_range(-1.0, 1e9) - 1.0).abs() < 1e-9);
        // Empty range.
        assert_eq!(h.selectivity_range(5.0, 1.0), 0.0);
    }

    #[test]
    fn eq_selectivity_uniform_data() {
        let vals = uniform_values(1000);
        let h = Histogram::equi_width(&vals, 10).unwrap();
        let s = h.selectivity_eq(500.0);
        assert!((s - 0.001).abs() < 2e-4, "selectivity {s}");
        assert_eq!(h.selectivity_eq(-5.0), 0.0);
        assert_eq!(h.selectivity_eq(1e9), 0.0);
    }

    #[test]
    fn degenerate_single_value_column() {
        let vals = vec![7.0; 64];
        let h = Histogram::equi_width(&vals, 4).unwrap();
        assert!((h.selectivity_eq(7.0) - 1.0).abs() < 1e-12);
        assert!((h.selectivity_range(7.0, 7.0) - 1.0).abs() < 1e-12);
        assert_eq!(h.selectivity_range(8.0, 9.0), 0.0);
        assert_eq!(h.distinct_total(), 1);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Histogram::equi_width(&[], 4).is_err());
        assert!(Histogram::equi_width(&[1.0], 0).is_err());
        assert!(Histogram::equi_width(&[f64::NAN], 2).is_err());
    }

    #[test]
    fn out_of_bounds_estimates() {
        let h = Histogram::equi_width(&uniform_values(100), 5).unwrap();
        // Equality outside the domain, including exactly at the ends.
        assert_eq!(h.selectivity_eq(-0.001), 0.0);
        assert_eq!(h.selectivity_eq(100.0), 0.0);
        assert!(h.selectivity_eq(0.0) > 0.0);
        assert!(h.selectivity_eq(99.0) > 0.0);
        // Ranges entirely below / above the domain.
        assert_eq!(h.selectivity_range(-50.0, -1.0), 0.0);
        assert_eq!(h.selectivity_range(200.0, 300.0), 0.0);
        // Ranges straddling a domain edge clamp to the covered part.
        let low = h.selectivity_range(-50.0, 49.5);
        assert!((low - 0.5).abs() < 0.05, "selectivity {low}");
        let high = h.selectivity_range(49.5, 1e6);
        assert!((high - 0.5).abs() < 0.05, "selectivity {high}");
        // An inverted range is empty even when out of bounds.
        assert_eq!(h.selectivity_range(300.0, 200.0), 0.0);
    }

    #[test]
    fn merge_observations_shifts_mass() {
        let mut h = Histogram::equi_width(&uniform_values(1000), 4).unwrap();
        let before = h.selectivity_range(0.0, 250.0);
        assert!((before - 0.25).abs() < 0.01);
        // Feedback says ~all rows live in the first quarter.
        h.merge_observations(&[(100.0, 950), (600.0, 50)], 1.0)
            .unwrap();
        let after = h.selectivity_range(0.0, 250.0);
        assert!((after - 0.95).abs() < 0.01, "selectivity {after}");
        assert!((h.fractions().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_blend_interpolates() {
        let mut h = Histogram::equi_width(&uniform_values(1000), 4).unwrap();
        h.merge_observations(&[(100.0, 100)], 0.5).unwrap();
        // Old fraction 0.25, observed 1.0, blend 0.5 → 0.625.
        assert!((h.fractions()[0] - 0.625).abs() < 1e-9);
        assert!((h.fractions().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_widens_domain_for_outliers() {
        let mut h = Histogram::equi_width(&uniform_values(100), 4).unwrap();
        assert_eq!(h.selectivity_eq(150.0), 0.0);
        h.merge_observations(&[(150.0, 50), (-10.0, 50)], 0.5)
            .unwrap();
        // Edge buckets widened; the outliers are now inside the domain.
        assert!(h.selectivity_eq(150.0) > 0.0);
        assert!(h.selectivity_eq(-10.0) > 0.0);
        assert_eq!(h.boundaries()[0], -10.0);
        assert_eq!(*h.boundaries().last().unwrap(), 150.0);
        assert_eq!(h.buckets(), 4);
    }

    #[test]
    fn merge_into_zero_width_bucket_histogram() {
        // A degenerate sample (every value identical) builds a single
        // zero-width bucket [7, 7]; merging must neither divide by the
        // zero width nor lose the mass invariant.
        let mut h = Histogram::equi_width(&[7.0; 5], 3).unwrap();
        assert_eq!(h.buckets(), 1);
        assert_eq!(h.boundaries(), &[7.0, 7.0]);
        h.merge_observations(&[(7.0, 10)], 0.8).unwrap();
        assert_eq!(h.fractions(), &[1.0]);
        assert!(h.selectivity_eq(7.0) > 0.0);
        // An outlier widens the degenerate domain into a real interval,
        // still carrying all the mass.
        h.merge_observations(&[(12.0, 10)], 0.8).unwrap();
        assert_eq!(h.boundaries(), &[7.0, 12.0]);
        assert_eq!(h.fractions(), &[1.0]);
        assert!((h.selectivity_range(7.0, 12.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_observation_blend_is_exact() {
        // One observed row is still a full observed distribution (all its
        // mass in one bucket): the blend arithmetic must match the closed
        // form exactly, not merely qualitatively shift mass.
        let mut h = Histogram::equi_width(&uniform_values(1000), 4).unwrap();
        h.merge_observations(&[(900.0, 1)], 0.8).unwrap();
        // fractions = 0.2·[0.25, …] + 0.8·[0, 0, 0, 1], already unit-sum.
        for i in 0..3 {
            assert!((h.fractions()[i] - 0.05).abs() < 1e-12, "bucket {i}");
        }
        assert!((h.fractions()[3] - 0.85).abs() < 1e-12);
        assert!((h.fractions().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // The single observation can only grow the distinct count.
        assert!(h.distinct_total() >= 1);
    }

    #[test]
    fn merge_grows_distinct_counts_monotonically() {
        let vals = vec![1.0, 1.0, 2.0, 2.0];
        let mut h = Histogram::equi_width(&vals, 1).unwrap();
        assert_eq!(h.distinct_total(), 2);
        h.merge_observations(&[(1.0, 1), (1.5, 1), (1.75, 1)], 0.5)
            .unwrap();
        assert_eq!(h.distinct_total(), 3);
        // A merge that reveals fewer distinct values does not shrink.
        h.merge_observations(&[(1.0, 10)], 0.5).unwrap();
        assert_eq!(h.distinct_total(), 3);
    }

    #[test]
    fn merge_rejects_bad_input() {
        let mut h = Histogram::equi_width(&uniform_values(10), 2).unwrap();
        assert!(h.merge_observations(&[(1.0, 1)], 0.0).is_err());
        assert!(h.merge_observations(&[(1.0, 1)], 1.5).is_err());
        assert!(h.merge_observations(&[(f64::NAN, 1)], 0.5).is_err());
        assert!(h.merge_observations(&[(1.0, 0)], 0.5).is_err());
        assert!(h.merge_observations(&[], 0.5).is_err());
    }

    #[test]
    fn distinct_counts_drive_eq_estimates() {
        // Two distinct values in one bucket: eq selectivity halves.
        let vals = vec![1.0, 1.0, 2.0, 2.0];
        let h = Histogram::equi_width(&vals, 1).unwrap();
        assert_eq!(h.distinct_total(), 2);
        assert!((h.selectivity_eq(1.0) - 0.5).abs() < 1e-12);
    }
}
