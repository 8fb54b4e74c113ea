//! Bucketing strategies for parameter distributions (paper §3.2 and §3.7).
//!
//! The complexity of every LEC algorithm is linear (or worse) in the number
//! of buckets per parameter, so how the parameter space is partitioned is a
//! first-class design decision. This module implements:
//!
//! * **equi-width** — buckets of equal value-range,
//! * **equi-depth** — buckets of (approximately) equal probability mass,
//! * **breakpoint-driven** ("level-set") — bucket boundaries placed exactly
//!   at the discontinuities of the cost formulas, the strategy §3.7 argues
//!   for (a sort-merge join needs only three memory buckets, a nested-loop
//!   join only two);
//!
//! plus [`rebucket`], the §3.6.3 reduction that caps a distribution at `b`
//! support points while preserving total mass and the mean *exactly*.

use crate::dist::Distribution;
use crate::error::StatsError;

/// A strategy for partitioning a parameter's value space into buckets.
///
/// # Examples
///
/// Level-set bucketing at the Example 1.1 breakpoints (√400000 ≈ 632 and
/// √1000000 = 1000):
///
/// ```
/// use lec_stats::{Bucketing, Distribution};
///
/// let fine = Distribution::uniform_over((1..=100).map(|i| 20.0 * i as f64))?;
/// let coarse = Bucketing::Breakpoints(vec![632.46, 1000.0]).apply(&fine)?;
/// assert_eq!(coarse.len(), 3);                       // one bucket per level set
/// assert!((coarse.mean() - fine.mean()).abs() < 1e-9); // mean preserved exactly
/// # Ok::<(), lec_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Bucketing {
    /// `b` buckets of equal width spanning the observed value range.
    EquiWidth(usize),
    /// `b` buckets of (approximately) equal probability mass.
    EquiDepth(usize),
    /// Buckets delimited by the given boundaries: `(-inf, b0], (b0, b1], ...`.
    /// Boundaries are sorted and deduplicated internally; `k` boundaries
    /// yield at most `k + 1` buckets (empty buckets are dropped).
    Breakpoints(Vec<f64>),
}

impl Bucketing {
    /// Applies this strategy to a fine-grained distribution, producing a
    /// coarser one. Each bucket is represented by its conditional mean and
    /// carries its probability mass, so the overall mean is preserved
    /// exactly for every strategy.
    pub fn apply(&self, fine: &Distribution) -> Result<Distribution, StatsError> {
        match self {
            Bucketing::EquiWidth(b) => equi_width(fine, *b),
            Bucketing::EquiDepth(b) => equi_depth(fine, *b),
            Bucketing::Breakpoints(bps) => by_breakpoints(fine, bps),
        }
    }
}

/// Groups contiguous runs of support points; each group becomes one bucket
/// at its conditional mean. `group_of(i)` assigns a non-decreasing group id.
fn group_contiguous(
    fine: &Distribution,
    mut group_of: impl FnMut(usize, f64) -> usize,
) -> Result<Distribution, StatsError> {
    let mut pts: Vec<(f64, f64)> = Vec::new();
    let mut cur_group = usize::MAX;
    let mut mass = 0.0;
    let mut weighted = 0.0;
    for (i, (v, p)) in fine.iter().enumerate() {
        let g = group_of(i, v);
        if g != cur_group && mass > 0.0 {
            pts.push((weighted / mass, mass));
            mass = 0.0;
            weighted = 0.0;
        }
        cur_group = g;
        mass += p;
        weighted += v * p;
    }
    if mass > 0.0 {
        pts.push((weighted / mass, mass));
    }
    Distribution::new(pts)
}

fn equi_width(fine: &Distribution, b: usize) -> Result<Distribution, StatsError> {
    if b == 0 {
        return Err(StatsError::ZeroBuckets);
    }
    let lo = fine.min();
    let hi = fine.max();
    if hi == lo || b == 1 {
        return Distribution::point(fine.mean());
    }
    let width = (hi - lo) / b as f64;
    group_contiguous(fine, |_, v| {
        (((v - lo) / width).floor() as usize).min(b - 1)
    })
}

fn equi_depth(fine: &Distribution, b: usize) -> Result<Distribution, StatsError> {
    if b == 0 {
        return Err(StatsError::ZeroBuckets);
    }
    if b == 1 {
        return Distribution::point(fine.mean());
    }
    // Walk the support accumulating mass; close a bucket once cumulative
    // mass reaches the next multiple of 1/b.
    let target = 1.0 / b as f64;
    let mut cum = 0.0;
    let probs = fine.probs();
    let mut next_idx = 0usize;
    group_contiguous(fine, move |i, _| {
        let g = next_idx;
        cum += probs[i];
        if cum >= target * (next_idx + 1) as f64 - 1e-12 {
            next_idx += 1;
        }
        g
    })
}

fn by_breakpoints(fine: &Distribution, breakpoints: &[f64]) -> Result<Distribution, StatsError> {
    let mut bps: Vec<f64> = breakpoints
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    bps.sort_by(f64::total_cmp);
    bps.dedup();
    group_contiguous(fine, |_, v| bps.partition_point(|&b| b < v))
}

/// Reduces a distribution to at most `b` support points while preserving the
/// total mass (exactly 1) and the mean exactly: adjacent points are grouped
/// into equal-mass runs and each run is replaced by its conditional mean.
///
/// This is the §3.6.3 strategy: after an independent product blows the
/// support up to `b_A · b_B · b_σ` points, rebucket back down so the result-
/// size distribution carried to the parent node stays at `b` buckets.
pub fn rebucket(dist: &Distribution, b: usize) -> Result<Distribution, StatsError> {
    if b == 0 {
        return Err(StatsError::ZeroBuckets);
    }
    if dist.len() <= b {
        return Ok(dist.clone());
    }
    equi_depth(dist, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fine() -> Distribution {
        Distribution::uniform_over((0..100).map(f64::from)).unwrap()
    }

    #[test]
    fn equi_width_preserves_mass_and_mean() {
        let d = fine();
        let c = Bucketing::EquiWidth(4).apply(&d).unwrap();
        assert_eq!(c.len(), 4);
        assert!((c.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((c.mean() - d.mean()).abs() < 1e-9);
    }

    #[test]
    fn equi_depth_balances_mass() {
        let d = fine();
        let c = Bucketing::EquiDepth(5).apply(&d).unwrap();
        assert_eq!(c.len(), 5);
        for &p in c.probs() {
            assert!((p - 0.2).abs() < 0.011, "bucket mass {p}");
        }
        assert!((c.mean() - d.mean()).abs() < 1e-9);
    }

    #[test]
    fn equi_depth_skewed_masses() {
        // 90% of mass on one point: equi-depth cannot split a point, so the
        // heavy point forms one bucket and the rest are grouped.
        let d = Distribution::new([(1.0, 0.9), (2.0, 0.05), (3.0, 0.05)]).unwrap();
        let c = Bucketing::EquiDepth(2).apply(&d).unwrap();
        assert!((c.mean() - d.mean()).abs() < 1e-12);
        assert!((c.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn breakpoints_split_where_told() {
        // Memory breakpoints at 633 and 1000 (Example 1.1's buckets).
        let d = Distribution::uniform_over([100.0, 500.0, 700.0, 900.0, 1500.0, 2500.0]).unwrap();
        let c = Bucketing::Breakpoints(vec![633.0, 1000.0])
            .apply(&d)
            .unwrap();
        assert_eq!(c.len(), 3);
        // [0,633]: {100,500} mass 1/3 mean 300; (633,1000]: {700,900}; (1000,inf): rest.
        assert!((c.values()[0] - 300.0).abs() < 1e-9);
        assert!((c.values()[1] - 800.0).abs() < 1e-9);
        assert!((c.values()[2] - 2000.0).abs() < 1e-9);
        assert!((c.mean() - d.mean()).abs() < 1e-9);
    }

    #[test]
    fn breakpoints_outside_support_are_harmless() {
        let d = fine();
        let c = Bucketing::Breakpoints(vec![-5.0, 1e9]).apply(&d).unwrap();
        assert_eq!(c.len(), 1);
        assert!((c.values()[0] - d.mean()).abs() < 1e-9);
    }

    #[test]
    fn one_bucket_degenerates_to_mean() {
        let d = fine();
        for strat in [Bucketing::EquiWidth(1), Bucketing::EquiDepth(1)] {
            let c = strat.apply(&d).unwrap();
            assert!(c.is_point());
            assert!((c.values()[0] - d.mean()).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_buckets_rejected() {
        let d = fine();
        assert_eq!(
            Bucketing::EquiWidth(0).apply(&d),
            Err(StatsError::ZeroBuckets)
        );
        assert_eq!(rebucket(&d, 0), Err(StatsError::ZeroBuckets));
    }

    #[test]
    fn rebucket_caps_support_and_preserves_mean() {
        let a = fine();
        let b = fine();
        let prod = a.product_with(&b, |x, y| x * y).unwrap();
        assert!(prod.len() > 1000);
        let r = rebucket(&prod, 10).unwrap();
        assert!(r.len() <= 10);
        assert!((r.mean() - prod.mean()).abs() < 1e-6 * prod.mean().max(1.0));
        assert!((r.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rebucket_noop_when_small() {
        let d = Distribution::new([(1.0, 0.5), (2.0, 0.5)]).unwrap();
        let r = rebucket(&d, 8).unwrap();
        assert_eq!(r, d);
    }
}
