//! Closed-form skew generators for the experiment harness.

/// Normalized Zipf(`theta`) masses over `n` ranks: `p_r ∝ (r+1)^-theta`,
/// summing to 1. `theta = 0` is uniform; larger values concentrate mass on
/// the first ranks. Deterministic and closed-form — the scenario-side
/// skew generator (reweight a belief distribution's support to build a
/// "truth" that piles probability onto the scenarios beliefs considered
/// unlikely).
pub fn zipf_masses(n: usize, theta: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|r| ((r + 1) as f64).powf(-theta)).collect();
    let total: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_masses_are_normalized_and_skewed() {
        let uniform = zipf_masses(5, 0.0);
        assert!(uniform.iter().all(|&p| (p - 0.2).abs() < 1e-12));
        let skewed = zipf_masses(5, 1.5);
        assert!((skewed.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(
            skewed.windows(2).all(|w| w[0] > w[1]),
            "masses must strictly decrease in rank: {skewed:?}"
        );
        assert!(skewed[0] > 0.5, "theta 1.5 concentrates the head");
    }
}
