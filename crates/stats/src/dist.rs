//! Discrete distributions over `f64` values.
//!
//! A [`Distribution`] is the paper's "bucketed" parameter model: a small set
//! of representative values, each carrying the probability mass of its
//! bucket. The invariants, enforced at construction and preserved by every
//! operation, are:
//!
//! * the support is non-empty, finite, strictly increasing;
//! * every probability is in `(0, 1]` (zero-mass points are dropped);
//! * probabilities sum to 1 (renormalized if within a small tolerance).

use crate::error::StatsError;
use crate::smallbuf::SmallBuf;
use rand::Rng;

/// Relative tolerance within which total mass is silently renormalized.
const MASS_TOLERANCE: f64 = 1e-6;

/// A discrete probability distribution over finitely many `f64` values.
///
/// The support is kept sorted and deduplicated, which makes prefix scans
/// (used by the linear-time expected-cost kernels of §3.6.1–3.6.2) and
/// quantile queries cheap.
///
/// # Examples
///
/// The paper's Example 1.1 memory model — 2000 pages 80% of the time, 700
/// pages otherwise:
///
/// ```
/// use lec_stats::Distribution;
///
/// let memory = Distribution::new([(2000.0, 0.8), (700.0, 0.2)])?;
/// assert_eq!(memory.mode(), 2000.0);
/// assert_eq!(memory.mean(), 1740.0);
///
/// // Expected pass count of a join whose cost steps at 1000 pages:
/// let passes = memory.expect(|m| if m > 1000.0 { 2.0 } else { 4.0 });
/// assert!((passes - 2.4).abs() < 1e-12);
/// # Ok::<(), lec_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    values: SmallBuf,
    probs: SmallBuf,
}

impl Distribution {
    /// Builds a distribution from `(value, probability)` pairs.
    ///
    /// Pairs may be unsorted and may repeat values (masses are merged).
    /// Probabilities must be non-negative and sum to 1 within a small
    /// tolerance; the sum is renormalized exactly.
    pub fn new(points: impl IntoIterator<Item = (f64, f64)>) -> Result<Self, StatsError> {
        let mut pairs: Vec<(f64, f64)> = Vec::new();
        for (v, p) in points {
            if !v.is_finite() {
                return Err(StatsError::NonFiniteValue(v));
            }
            if !p.is_finite() || p < 0.0 {
                return Err(StatsError::InvalidProbability(p));
            }
            if p > 0.0 {
                pairs.push((v, p));
            }
        }
        if pairs.is_empty() {
            return Err(StatsError::EmptySupport);
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut values = Vec::with_capacity(pairs.len());
        let mut probs = Vec::with_capacity(pairs.len());
        for (v, p) in pairs {
            if values.last() == Some(&v) {
                *probs.last_mut().expect("non-empty") += p; // lec-lint: allow(panic-reachability) — values and probs grow in lockstep, and this branch requires a previous push
            } else {
                values.push(v);
                probs.push(p);
            }
        }

        let total: f64 = probs.iter().sum();
        if !(total.is_finite() && (total - 1.0).abs() <= MASS_TOLERANCE * total.max(1.0)) {
            return Err(StatsError::MassNotNormalizable(total));
        }
        // Skip the renormalizing divide for exactly-unit mass: division by
        // 1.0 is exact in IEEE 754, so this changes no bits — it only avoids
        // `b` needless divides on the (common) already-normalized path. The
        // `normalized_input_probs_are_bit_stable` test pins both halves of
        // that claim.
        if total != 1.0 {
            for p in &mut probs {
                *p /= total;
            }
        }
        Ok(Self {
            values: SmallBuf::from_vec(values),
            probs: SmallBuf::from_vec(probs),
        })
    }

    /// Builds a distribution from unnormalized non-negative weights.
    pub fn from_weights(points: impl IntoIterator<Item = (f64, f64)>) -> Result<Self, StatsError> {
        let pts: Vec<(f64, f64)> = points.into_iter().collect();
        let total: f64 = pts.iter().map(|&(_, w)| w).sum();
        if !(total.is_finite() && total > 0.0) {
            return Err(StatsError::MassNotNormalizable(total));
        }
        Self::new(pts.into_iter().map(|(v, w)| (v, w / total)))
    }

    /// The degenerate (deterministic) distribution concentrated on `value`.
    pub fn point(value: f64) -> Result<Self, StatsError> {
        Self::new([(value, 1.0)])
    }

    /// A uniform distribution over the given values (duplicates merge mass).
    pub fn uniform_over(values: impl IntoIterator<Item = f64>) -> Result<Self, StatsError> {
        let vs: Vec<f64> = values.into_iter().collect();
        if vs.is_empty() {
            return Err(StatsError::EmptySupport);
        }
        let p = 1.0 / vs.len() as f64;
        Self::new(vs.into_iter().map(|v| (v, p)))
    }

    /// Number of support points (buckets), written `b` in the paper.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the distribution is a single point mass.
    pub fn is_point(&self) -> bool {
        self.values.len() == 1
    }

    /// Always false: distributions cannot be empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted support values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The probabilities, aligned with [`Self::values`].
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Iterates over `(value, probability)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values.iter().copied().zip(self.probs.iter().copied())
    }

    /// Smallest support value.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Largest support value.
    pub fn max(&self) -> f64 {
        *self.values.last().expect("non-empty") // lec-lint: allow(panic-reachability) — the constructor rejects empty supports
    }

    /// The mean `E[X]`.
    pub fn mean(&self) -> f64 {
        self.iter().map(|(v, p)| v * p).sum()
    }

    /// The variance `E[(X - E[X])^2]`, computed stably around the mean.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.iter().map(|(v, p)| (v - m) * (v - m) * p).sum()
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The modal value (largest probability; ties broken toward the smaller
    /// value). This is the "modal value" an LSC optimizer would plug in.
    pub fn mode(&self) -> f64 {
        let mut best = 0;
        for i in 1..self.len() {
            if self.probs[i] > self.probs[best] {
                best = i;
            }
        }
        self.values[best]
    }

    /// Expectation of an arbitrary function: `E[f(X)]`.
    pub fn expect(&self, mut f: impl FnMut(f64) -> f64) -> f64 {
        self.iter().map(|(v, p)| f(v) * p).sum()
    }

    /// Probability of an arbitrary event: `Pr[pred(X)]`.
    pub fn pr(&self, mut pred: impl FnMut(f64) -> bool) -> f64 {
        self.iter().filter(|&(v, _)| pred(v)).map(|(_, p)| p).sum()
    }

    /// `Pr[X <= x]`.
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.values.partition_point(|&v| v <= x);
        self.probs[..idx].iter().sum()
    }

    /// The `q`-quantile (smallest support value `v` with `Pr[X <= v] >= q`).
    pub fn quantile(&self, q: f64) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(StatsError::QuantileOutOfRange(q));
        }
        let mut acc = 0.0;
        for (v, p) in self.iter() {
            acc += p;
            if acc >= q - 1e-12 {
                return Ok(v);
            }
        }
        Ok(self.max())
    }

    /// Pushforward under `f`: the distribution of `f(X)`. Equal outputs have
    /// their masses merged.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Result<Self, StatsError> {
        Self::new(self.iter().map(|(v, p)| (f(v), p)))
    }

    /// Distribution of `f(X, Y)` for independent `X` (self) and `Y`.
    ///
    /// The result has up to `self.len() * other.len()` support points; callers
    /// that need to bound growth should follow with [`crate::rebucket`]
    /// (the §3.6.3 strategy).
    pub fn product_with(
        &self,
        other: &Distribution,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Self, StatsError> {
        let mut pts = Vec::with_capacity(self.len() * other.len());
        for (x, px) in self.iter() {
            for (y, py) in other.iter() {
                pts.push((f(x, y), px * py));
            }
        }
        Self::new(pts)
    }

    /// Distribution of `X + Y` for independent `X` and `Y` (convolution).
    pub fn convolve(&self, other: &Distribution) -> Result<Self, StatsError> {
        self.product_with(other, |x, y| x + y)
    }

    /// Conditions on an event: the distribution of `X` given `pred(X)`,
    /// renormalized. Errors with [`StatsError::MassNotNormalizable`] when
    /// the event has zero probability.
    ///
    /// This is the start-up-time operation: the compile-time belief about a
    /// parameter sharpens once part of the environment is observed (e.g.
    /// "the system is currently busy ⇒ memory is below 1000 pages").
    pub fn condition(&self, mut pred: impl FnMut(f64) -> bool) -> Result<Self, StatsError> {
        Self::from_weights(self.iter().filter(|&(v, _)| pred(v)))
    }

    /// Mixture: with probability `w` draw from `self`, else from `other`.
    pub fn mix(&self, other: &Distribution, w: f64) -> Result<Self, StatsError> {
        if !(0.0..=1.0).contains(&w) {
            return Err(StatsError::InvalidProbability(w));
        }
        let pts = self
            .iter()
            .map(|(v, p)| (v, p * w))
            .chain(other.iter().map(|(v, p)| (v, p * (1.0 - w))));
        Self::new(pts)
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let mut u: f64 = rng.gen();
        for (v, p) in self.iter() {
            if u < p {
                return v;
            }
            u -= p;
        }
        self.max()
    }

    /// The L1 (Wasserstein-1 / earth-mover) distance between the CDFs of
    /// two distributions: `∫ |F_self(x) − F_other(x)| dx` over the union of
    /// supports. Zero iff the distributions are identical; used to quantify
    /// rebucketing error (§3.6.3) and scenario mismatch.
    pub fn cdf_l1_distance(&self, other: &Distribution) -> f64 {
        let mut grid: Vec<f64> = self
            .values()
            .iter()
            .chain(other.values())
            .copied()
            .collect();
        grid.sort_by(f64::total_cmp);
        grid.dedup();
        let mut total = 0.0;
        for w in grid.windows(2) {
            total += (self.cdf(w[0]) - other.cdf(w[0])).abs() * (w[1] - w[0]);
        }
        total
    }

    /// True when both distributions have the same support and probabilities
    /// within `tol` (absolute, per entry). Intended for tests.
    pub fn approx_eq(&self, other: &Distribution, tol: f64) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other.iter())
                .all(|((v1, p1), (v2, p2))| (v1 - v2).abs() <= tol && (p1 - p2).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn bimodal() -> Distribution {
        // Example 1.1's memory distribution: 2000 pages 80% / 700 pages 20%.
        Distribution::new([(2000.0, 0.8), (700.0, 0.2)]).unwrap()
    }

    #[test]
    fn construction_sorts_and_merges() {
        let d = Distribution::new([(3.0, 0.25), (1.0, 0.5), (3.0, 0.25)]).unwrap();
        assert_eq!(d.values(), &[1.0, 3.0]);
        assert_eq!(d.probs(), &[0.5, 0.5]);
    }

    #[test]
    fn zero_mass_points_dropped() {
        let d = Distribution::new([(1.0, 0.0), (2.0, 1.0)]).unwrap();
        assert_eq!(d.values(), &[2.0]);
        assert!(d.is_point());
    }

    #[test]
    fn construction_rejects_bad_input() {
        assert_eq!(
            Distribution::new(std::iter::empty::<(f64, f64)>()),
            Err(StatsError::EmptySupport)
        );
        assert!(matches!(
            Distribution::new([(f64::NAN, 1.0)]),
            Err(StatsError::NonFiniteValue(_))
        ));
        assert!(matches!(
            Distribution::new([(1.0, -0.1), (2.0, 1.1)]),
            Err(StatsError::InvalidProbability(_))
        ));
        assert!(matches!(
            Distribution::new([(1.0, 0.4)]),
            Err(StatsError::MassNotNormalizable(_))
        ));
    }

    #[test]
    fn normalized_input_probs_are_bit_stable() {
        // When the input masses already sum to exactly 1.0, construction
        // must not renormalize: dividing by 1.0 is an IEEE identity, but we
        // skip the divide entirely, and this pins that the stored
        // probabilities are the very bits that came in. 0.1 + 0.2 + 0.7
        // sums to exactly 1.0 in f64 (0.30000000000000004 + 0.7 == 1.0).
        let probs = [0.1f64, 0.2, 0.7];
        assert_eq!(probs.iter().sum::<f64>().to_bits(), 1.0f64.to_bits());
        let d = Distribution::new([(1.0, probs[0]), (2.0, probs[1]), (3.0, probs[2])]).unwrap();
        for (stored, input) in d.probs().iter().zip(probs) {
            assert_eq!(stored.to_bits(), input.to_bits());
        }
        // And a nearly-normalized input (inside tolerance, total != 1.0)
        // still renormalizes to exact unit mass.
        let e = Distribution::new([(1.0, 0.5), (2.0, 0.5 + 1e-9)]).unwrap();
        assert!((e.probs().iter().sum::<f64>() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn mean_mode_of_example_1_1() {
        let d = bimodal();
        // The paper: "2000 pages as a modal value, or 1740 pages as a mean".
        assert_eq!(d.mode(), 2000.0);
        assert!((d.mean() - 1740.0).abs() < 1e-9);
    }

    #[test]
    fn variance_and_std_dev() {
        let d = Distribution::new([(0.0, 0.5), (2.0, 0.5)]).unwrap();
        assert!((d.mean() - 1.0).abs() < 1e-12);
        assert!((d.variance() - 1.0).abs() < 1e-12);
        assert!((d.std_dev() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_accumulates_mass() {
        let d = Distribution::new([(1.0, 0.2), (2.0, 0.3), (4.0, 0.5)]).unwrap();
        assert!((d.cdf(0.5) - 0.0).abs() < 1e-12);
        assert!((d.cdf(2.0) - 0.5).abs() < 1e-12);
        assert!((d.cdf(10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let d = Distribution::new([(1.0, 0.25), (2.0, 0.25), (3.0, 0.5)]).unwrap();
        assert_eq!(d.quantile(0.0).unwrap(), 1.0);
        assert_eq!(d.quantile(0.25).unwrap(), 1.0);
        assert_eq!(d.quantile(0.5).unwrap(), 2.0);
        assert_eq!(d.quantile(0.51).unwrap(), 3.0);
        assert_eq!(d.quantile(1.0).unwrap(), 3.0);
        assert!(d.quantile(1.5).is_err());
    }

    #[test]
    fn map_merges_collisions() {
        let d = Distribution::new([(-1.0, 0.5), (1.0, 0.5)]).unwrap();
        let sq = d.map(|v| v * v).unwrap();
        assert_eq!(sq.values(), &[1.0]);
        assert!((sq.probs()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn product_and_convolution() {
        let a = Distribution::new([(1.0, 0.5), (2.0, 0.5)]).unwrap();
        let b = Distribution::new([(10.0, 0.5), (20.0, 0.5)]).unwrap();
        let s = a.convolve(&b).unwrap();
        assert_eq!(s.values(), &[11.0, 12.0, 21.0, 22.0]);
        assert!((s.mean() - (a.mean() + b.mean())).abs() < 1e-12);

        let p = a.product_with(&b, |x, y| x * y).unwrap();
        assert!((p.mean() - a.mean() * b.mean()).abs() < 1e-12);
    }

    #[test]
    fn cdf_l1_distance_properties() {
        let a = Distribution::new([(0.0, 0.5), (10.0, 0.5)]).unwrap();
        let b = Distribution::new([(0.0, 0.5), (10.0, 0.5)]).unwrap();
        assert_eq!(a.cdf_l1_distance(&b), 0.0);
        // Point masses distance |x - y|: earth-mover over the line.
        let p = Distribution::point(3.0).unwrap();
        let q = Distribution::point(8.0).unwrap();
        assert!((p.cdf_l1_distance(&q) - 5.0).abs() < 1e-12);
        // Symmetry.
        assert_eq!(a.cdf_l1_distance(&p), p.cdf_l1_distance(&a));
    }

    #[test]
    fn conditioning_restricts_and_renormalizes() {
        let d = Distribution::new([(1.0, 0.2), (2.0, 0.3), (4.0, 0.5)]).unwrap();
        let low = d.condition(|v| v < 3.0).unwrap();
        assert_eq!(low.values(), &[1.0, 2.0]);
        assert!((low.probs()[0] - 0.4).abs() < 1e-12);
        assert!((low.probs()[1] - 0.6).abs() < 1e-12);
        // Zero-probability events cannot be conditioned on.
        assert!(matches!(
            d.condition(|v| v > 100.0),
            Err(StatsError::MassNotNormalizable(_))
        ));
    }

    #[test]
    fn mixture_mass_and_mean() {
        let a = Distribution::point(0.0).unwrap();
        let b = Distribution::point(10.0).unwrap();
        let m = a.mix(&b, 0.3).unwrap();
        assert!((m.mean() - 7.0).abs() < 1e-12);
        assert!((m.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_masses() {
        let d = bimodal();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 20_000;
        let hi = (0..n).filter(|_| d.sample(&mut rng) == 2000.0).count();
        let frac = hi as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "observed {frac}");
    }

    #[test]
    fn expectation_matches_manual_sum() {
        let d = bimodal();
        let e = d.expect(|m| if m >= 1000.0 { 2.0 } else { 4.0 });
        assert!((e - (0.8 * 2.0 + 0.2 * 4.0)).abs() < 1e-12);
    }
}
