//! Finite Markov chains over parameter values (paper §3.5).
//!
//! The dynamic-parameter model assumes plan execution proceeds in *phases*
//! (one per join); the parameter (available memory) is constant within a
//! phase but may change between phases according to a transition probability
//! that "depends only on the current memory usage, not on the time" — i.e. a
//! time-homogeneous Markov chain. Algorithm C then needs, at each dag depth
//! `k`, the *marginal* distribution of the parameter during phase `k`, which
//! is the initial distribution evolved `k - 1` steps.

use crate::dist::Distribution;
use crate::error::StatsError;

/// A time-homogeneous Markov chain over a finite, sorted set of parameter
/// values (e.g. memory sizes in pages).
///
/// # Examples
///
/// Memory that random-walks a ladder between join phases (§3.5); the
/// optimizer needs the marginal distribution at each phase:
///
/// ```
/// use lec_stats::MarkovChain;
///
/// let chain = MarkovChain::random_walk(vec![500.0, 1000.0, 2000.0], 0.4)?;
/// let phase0 = [1.0, 0.0, 0.0];                 // admitted at 500 pages
/// let phase2 = chain.marginal_after(&phase0, 2); // two joins later
/// assert!(phase2[2] > 0.0);                      // some chance of 2000 pages
/// assert!((phase2.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// # Ok::<(), lec_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    states: Vec<f64>,
    /// Row-stochastic transition matrix: `rows[i][j] = Pr(next = j | cur = i)`.
    rows: Vec<Vec<f64>>,
}

const ROW_TOLERANCE: f64 = 1e-9;

impl MarkovChain {
    /// Builds a chain from state values and a row-stochastic matrix.
    pub fn new(states: Vec<f64>, rows: Vec<Vec<f64>>) -> Result<Self, StatsError> {
        if states.is_empty() {
            return Err(StatsError::EmptyChain);
        }
        for &s in &states {
            if !s.is_finite() {
                return Err(StatsError::NonFiniteValue(s));
            }
        }
        if rows.len() != states.len() {
            return Err(StatsError::MalformedTransitionRow(rows.len()));
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != states.len() {
                return Err(StatsError::MalformedTransitionRow(i));
            }
            let mut sum = 0.0;
            for &p in row {
                if !p.is_finite() || p < -ROW_TOLERANCE {
                    return Err(StatsError::MalformedTransitionRow(i));
                }
                sum += p;
            }
            if (sum - 1.0).abs() > 1e-6 {
                return Err(StatsError::MalformedTransitionRow(i));
            }
        }
        Ok(Self { states, rows })
    }

    /// The chain that never moves (static parameters as a degenerate case).
    pub fn identity(states: Vec<f64>) -> Result<Self, StatsError> {
        let n = states.len();
        let rows = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        Self::new(states, rows)
    }

    /// A lazy birth–death walk: from state `i`, move down/up one state with
    /// probability `p_move / 2` each (reflected at the ends), else stay.
    /// `p_move` is the "volatility" knob used by the experiments.
    pub fn random_walk(states: Vec<f64>, p_move: f64) -> Result<Self, StatsError> {
        if !(0.0..=1.0).contains(&p_move) {
            return Err(StatsError::InvalidProbability(p_move));
        }
        let n = states.len();
        if n == 0 {
            return Err(StatsError::EmptyChain);
        }
        let half = p_move / 2.0;
        let mut rows = vec![vec![0.0; n]; n];
        for (i, row) in rows.iter_mut().enumerate() {
            let down = if i > 0 { i - 1 } else { i };
            let up = if i + 1 < n { i + 1 } else { i };
            row[down] += half;
            row[up] += half;
            row[i] += 1.0 - p_move;
        }
        Self::new(states, rows)
    }

    /// A general birth–death chain: from state `i`, step down with
    /// probability `p_down`, up with `p_up` (reflected at the ends), else
    /// stay. Asymmetric probabilities model *drifting* environments — e.g.
    /// a system draining its morning load, so memory trends upward while
    /// the query runs.
    pub fn birth_death(states: Vec<f64>, p_down: f64, p_up: f64) -> Result<Self, StatsError> {
        for p in [p_down, p_up, p_down + p_up] {
            if !(0.0..=1.0).contains(&p) {
                return Err(StatsError::InvalidProbability(p));
            }
        }
        let n = states.len();
        if n == 0 {
            return Err(StatsError::EmptyChain);
        }
        let mut rows = vec![vec![0.0; n]; n];
        for (i, row) in rows.iter_mut().enumerate() {
            let down = if i > 0 { i - 1 } else { i };
            let up = if i + 1 < n { i + 1 } else { i };
            row[down] += p_down;
            row[up] += p_up;
            row[i] += 1.0 - p_down - p_up;
        }
        Self::new(states, rows)
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// The state values.
    pub fn states(&self) -> &[f64] {
        &self.states
    }

    /// The transition matrix rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// One step of the forward (distribution) evolution: `p' = p · P`.
    pub fn step(&self, probs: &[f64]) -> Vec<f64> {
        let n = self.n_states();
        debug_assert_eq!(probs.len(), n);
        let mut out = vec![0.0; n];
        for (i, &pi) in probs.iter().enumerate() {
            if pi == 0.0 {
                continue;
            }
            for (j, &t) in self.rows[i].iter().enumerate() {
                out[j] += pi * t;
            }
        }
        out
    }

    /// The marginal state distribution after `k` steps from `initial`
    /// (a probability vector aligned with [`Self::states`]).
    pub fn marginal_after(&self, initial: &[f64], k: usize) -> Vec<f64> {
        let mut p = initial.to_vec();
        for _ in 0..k {
            p = self.step(&p);
        }
        p
    }

    /// Converts a probability vector over chain states into a
    /// value-[`Distribution`].
    pub fn distribution(&self, probs: &[f64]) -> Result<Distribution, StatsError> {
        Distribution::new(self.states.iter().copied().zip(probs.iter().copied()))
    }

    /// The stationary distribution via power iteration from uniform.
    pub fn stationary(&self) -> Result<Vec<f64>, StatsError> {
        let n = self.n_states();
        let mut p = vec![1.0 / n as f64; n];
        for _ in 0..100_000 {
            let next = self.step(&p);
            let delta: f64 = next.iter().zip(&p).map(|(a, b)| (a - b).abs()).sum();
            p = next;
            if delta < 1e-12 {
                return Ok(p);
            }
        }
        Err(StatsError::StationaryDidNotConverge)
    }

    /// Enumerates all length-`len` state-index sequences with their
    /// probabilities (the `b_M^{n-1}` sequence space of §3.5). Exponential;
    /// intended as ground truth in tests for small `len`.
    pub fn enumerate_sequences(&self, initial: &[f64], len: usize) -> Vec<(Vec<usize>, f64)> {
        let mut seqs: Vec<(Vec<usize>, f64)> = vec![(Vec::new(), 1.0)];
        for step in 0..len {
            let mut next = Vec::with_capacity(seqs.len() * self.n_states());
            for (seq, p) in &seqs {
                for (j, &init_p) in initial.iter().enumerate() {
                    let pj = if step == 0 {
                        init_p
                    } else {
                        self.rows[*seq.last().expect("non-first step")][j]
                    };
                    if pj > 0.0 {
                        let mut s = seq.clone();
                        s.push(j);
                        next.push((s, p * pj));
                    }
                }
            }
            seqs = next;
        }
        seqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> MarkovChain {
        MarkovChain::random_walk(vec![500.0, 1000.0, 2000.0], 0.4).unwrap()
    }

    #[test]
    fn rejects_malformed_rows() {
        assert!(matches!(
            MarkovChain::new(vec![1.0], vec![vec![0.5]]),
            Err(StatsError::MalformedTransitionRow(0))
        ));
        assert!(matches!(
            MarkovChain::new(vec![1.0, 2.0], vec![vec![1.0, 0.0]]),
            Err(StatsError::MalformedTransitionRow(1))
        ));
        assert!(matches!(
            MarkovChain::new(vec![], vec![]),
            Err(StatsError::EmptyChain)
        ));
    }

    #[test]
    fn step_preserves_mass() {
        let c = chain();
        let p = c.step(&[0.2, 0.5, 0.3]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_chain_is_static() {
        let c = MarkovChain::identity(vec![1.0, 2.0, 3.0]).unwrap();
        let p0 = [0.1, 0.6, 0.3];
        assert_eq!(c.marginal_after(&p0, 5), p0.to_vec());
    }

    #[test]
    fn random_walk_reflects_at_boundaries() {
        let c = MarkovChain::random_walk(vec![1.0, 2.0], 1.0).unwrap();
        // From state 0 with p_move=1: half mass tries to go down (reflected
        // back to 0), half goes up.
        assert!((c.rows()[0][0] - 0.5).abs() < 1e-12);
        assert!((c.rows()[0][1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn birth_death_drifts_upward() {
        let c = MarkovChain::birth_death(vec![1.0, 2.0, 4.0, 8.0], 0.1, 0.6).unwrap();
        let initial = [1.0, 0.0, 0.0, 0.0];
        let d0 = c.distribution(&c.marginal_after(&initial, 0)).unwrap();
        let d3 = c.distribution(&c.marginal_after(&initial, 3)).unwrap();
        assert!(
            d3.mean() > d0.mean() * 2.0,
            "{} vs {}",
            d3.mean(),
            d0.mean()
        );
        assert!(MarkovChain::birth_death(vec![1.0], 0.7, 0.7).is_err());
    }

    #[test]
    fn stationary_is_fixed_point() {
        let c = chain();
        let pi = c.stationary().unwrap();
        let stepped = c.step(&pi);
        for (a, b) in pi.iter().zip(&stepped) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn marginals_match_sequence_enumeration() {
        let c = chain();
        let initial = [0.5, 0.3, 0.2];
        let len = 4;
        let seqs = c.enumerate_sequences(&initial, len);
        let total: f64 = seqs.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Marginal of phase k from the enumeration must equal marginal_after.
        for k in 0..len {
            let mut marg = [0.0; 3];
            for (seq, p) in &seqs {
                marg[seq[k]] += p;
            }
            let direct = c.marginal_after(&initial, k);
            for (a, b) in marg.iter().zip(&direct) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn distribution_round_trip() {
        let c = chain();
        let probs = [0.25, 0.25, 0.5];
        let d = c.distribution(&probs).unwrap();
        for (v, p) in d.iter() {
            let idx = c.states().iter().position(|&s| s == v).unwrap();
            assert!((p - probs[idx]).abs() < 1e-12);
        }
    }
}
