//! Memory-parameter models: static (§3.2–3.4) and dynamic (§3.5).
//!
//! Plan execution is divided into *phases*, one per join or sort operator
//! in post-order. With static parameters the memory distribution is the
//! same at every phase; with dynamic parameters it evolves along a Markov
//! chain, and the distribution relevant to phase `k` is the initial
//! distribution evolved `k` steps (§3.5: "associate the initial
//! distribution with the root of the dag, and use the transition
//! probabilities to compute the distribution associated with each node").

use crate::error::CoreError;
use lec_stats::{Distribution, MarkovChain};

/// How available memory behaves across the execution of a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoryModel {
    /// Memory is drawn once per execution and stays constant (§3.4).
    Static(Distribution),
    /// Memory evolves between phases along a Markov chain (§3.5);
    /// `initial` is a probability vector over the chain's states giving the
    /// distribution during phase 0.
    Dynamic {
        /// The transition structure.
        chain: MarkovChain,
        /// Initial state probabilities (phase-0 distribution).
        initial: Vec<f64>,
    },
}

impl MemoryModel {
    /// Convenience constructor: a dynamic model started from the chain's
    /// state values weighted by `initial`.
    pub fn dynamic(chain: MarkovChain, initial: Vec<f64>) -> Result<Self, CoreError> {
        if initial.len() != chain.n_states() {
            return Err(CoreError::BadParameter(format!(
                "initial vector has {} entries for a {}-state chain",
                initial.len(),
                chain.n_states()
            )));
        }
        let sum: f64 = initial.iter().sum();
        if (sum - 1.0).abs() > 1e-6 || initial.iter().any(|&p| p < 0.0) {
            return Err(CoreError::BadParameter(
                "initial vector is not a probability distribution".into(),
            ));
        }
        Ok(MemoryModel::Dynamic { chain, initial })
    }

    /// The number of memory buckets `b` at phase 0.
    pub fn buckets(&self) -> usize {
        match self {
            MemoryModel::Static(d) => d.len(),
            MemoryModel::Dynamic { chain, .. } => chain.n_states(),
        }
    }

    /// Precomputes per-phase marginal distributions for plans with up to
    /// `phases` phases. A static model's phases share its one distribution.
    pub fn table(&self, phases: usize) -> Result<PhaseDists, CoreError> {
        let phases = phases.max(1);
        let dists = match self {
            MemoryModel::Static(d) => vec![d.clone()],
            MemoryModel::Dynamic { chain, initial } => {
                let mut out = Vec::with_capacity(phases);
                let mut probs = initial.clone();
                for k in 0..phases {
                    if k > 0 {
                        probs = chain.step(&probs);
                    }
                    out.push(chain.distribution(&probs)?);
                }
                out
            }
        };
        Ok(PhaseDists { dists, phases })
    }

    /// The phase-0 distribution (what an LSC optimizer would summarize).
    pub fn initial_distribution(&self) -> Result<Distribution, CoreError> {
        Ok(self.table(1)?.dists[0].clone())
    }
}

/// Per-phase memory distributions, indexed by phase (clamped to the last
/// computed phase, so asking beyond the table is safe). A static model
/// stores its one distribution once, for every phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDists {
    /// One distribution per phase, or a single one shared by every phase.
    dists: Vec<Distribution>,
    /// Number of phases.
    phases: usize,
}

impl PhaseDists {
    /// The memory distribution in effect during `phase`.
    #[inline]
    pub fn at(&self, phase: usize) -> &Distribution {
        let idx = phase.min(self.dists.len() - 1);
        &self.dists[idx]
    }

    /// Number of precomputed phases.
    pub fn len(&self) -> usize {
        self.phases
    }

    /// The stored distributions: phase `p` reads entry `min(p, len − 1)`
    /// of this slice, which has one entry for a static model.
    pub(crate) fn stored(&self) -> &[Distribution] {
        &self.dists
    }

    /// Never true: at least one phase is always present.
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_model_repeats_distribution() {
        let d = Distribution::new([(700.0, 0.2), (2000.0, 0.8)]).unwrap();
        let table = MemoryModel::Static(d.clone()).table(4).unwrap();
        assert_eq!(table.len(), 4);
        for k in 0..6 {
            assert_eq!(table.at(k), &d);
        }
    }

    #[test]
    fn dynamic_model_evolves_marginals() {
        let chain = MarkovChain::random_walk(vec![500.0, 1000.0, 2000.0], 0.5).unwrap();
        let model = MemoryModel::dynamic(chain.clone(), vec![1.0, 0.0, 0.0]).unwrap();
        let table = model.table(3).unwrap();
        // Phase 0: all mass on 500.
        assert!(table.at(0).is_point());
        // Phase 1: mass spreads to 1000.
        assert!(table.at(1).len() == 2);
        // Marginals must match the chain's own computation.
        let marg2 = chain.marginal_after(&[1.0, 0.0, 0.0], 2);
        let expect = chain.distribution(&marg2).unwrap();
        assert!(table.at(2).approx_eq(&expect, 1e-12));
    }

    #[test]
    fn dynamic_validation() {
        let chain = MarkovChain::random_walk(vec![1.0, 2.0], 0.3).unwrap();
        assert!(MemoryModel::dynamic(chain.clone(), vec![1.0]).is_err());
        assert!(MemoryModel::dynamic(chain.clone(), vec![0.7, 0.7]).is_err());
        assert!(MemoryModel::dynamic(chain, vec![0.5, 0.5]).is_ok());
    }

    #[test]
    fn initial_distribution_matches_phase_zero() {
        let chain = MarkovChain::random_walk(vec![100.0, 200.0], 0.9).unwrap();
        let model = MemoryModel::dynamic(chain, vec![0.25, 0.75]).unwrap();
        let init = model.initial_distribution().unwrap();
        assert!((init.mean() - 175.0).abs() < 1e-9);
    }
}
