//! Graceful degradation for the serving loop: retry ladder, deterministic
//! fault injection config, and per-fingerprint and per-shard circuit
//! breakers.
//!
//! The LEC pitch is pricing plans under uncertainty; this module is what
//! happens when an execution *actually* goes bad. On an injected fault the
//! service walks a **fallback ladder**: the primary pick first, then the
//! remaining distinct scenario plans from the cached parametric entry
//! (re-cost under the observed memory distribution and sorted — the
//! "next-best from the frontier" rungs), and finally the LSC baseline plan
//! (System R at the mean grant) as the robust last resort. The final
//! allowed attempt always runs with an empty [`FaultSchedule`], so a
//! request under injection is degraded or retried, never errored out.
//!
//! Repeat offenders trip a [`Breaker`]: once a fingerprint has accumulated
//! `breaker_threshold` faults (or its cache shard `shard_breaker_threshold`)
//! the ladder starts at the LSC baseline (fault-free) and the fingerprint's
//! cache entry (or the whole shard) is invalidated, flagging it for
//! reoptimization on its next request.
//!
//! Everything here is deterministic: [`FaultInjection`] keys schedules on
//! the request ordinal and attempt number, faults fire on simulated
//! coordinates inside `lec-exec`, and the breakers are [`BTreeMap`]s keyed
//! by fingerprint encoding or shard index — no wall clock, no ambient
//! randomness.

use lec_exec::{FaultKind, FaultRecord, FaultSchedule, FaultSpec, FaultTrigger};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Bounded-retry and circuit-breaker knobs on
/// [`ServeConfig`](crate::ServeConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Execution attempts beyond the first for one request. The final
    /// allowed attempt always runs fault-free, so any positive value
    /// guarantees every request is served under injection. (With zero
    /// retries the single attempt *is* the final one, so injection is
    /// effectively disabled.)
    pub max_retries: u32,
    /// Faults a fingerprint accumulates before the breaker routes it
    /// straight to the LSC baseline and flags its entry for
    /// reoptimization.
    pub breaker_threshold: u32,
    /// Faults a whole *cache shard* accumulates (across all its
    /// fingerprints) before the shard breaker flushes the shard and routes
    /// the tripping request straight to the LSC baseline. Zero (the
    /// default) disables the shard layer, preserving the pre-shard-breaker
    /// behavior bit for bit.
    pub shard_breaker_threshold: u32,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: 2,
            breaker_threshold: 3,
            shard_breaker_threshold: 0,
        }
    }
}

/// Deterministic fault-injection config: which request ordinals get a
/// fault schedule, and what that schedule injects.
///
/// Keyed on the request ordinal (`queries_served` at serve time) and the
/// attempt number — two runs over the same stream inject identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInjection {
    /// Every `period`-th request (by ordinal) is faulted; `0` disables
    /// injection entirely.
    pub period: u64,
    /// Ordinal offset within the period.
    pub offset: u64,
    /// How many leading attempts of a faulted request get the schedule
    /// (attempts at or past this count run clean, as does the final
    /// allowed attempt regardless).
    pub attempts_faulted: u32,
    /// What the schedule injects (at phase 0 of the plan).
    pub kind: FaultKind,
}

impl FaultInjection {
    /// Injection disabled: every execution runs with an empty schedule.
    pub const OFF: FaultInjection = FaultInjection {
        period: 0,
        offset: 0,
        attempts_faulted: 0,
        kind: FaultKind::IoError,
    };

    /// Faults the first attempt of every `period`-th request with `kind`.
    pub fn every(period: u64, kind: FaultKind) -> Self {
        FaultInjection {
            period,
            offset: 0,
            attempts_faulted: 1,
            kind,
        }
    }

    /// The schedule for one execution attempt: a single phase-0 fault when
    /// `ordinal` matches the period/offset and `attempt` is still within
    /// the faulted prefix, empty otherwise.
    pub fn schedule_for(&self, ordinal: u64, attempt: u32) -> FaultSchedule {
        if self.period == 0
            || ordinal % self.period != self.offset % self.period
            || attempt >= self.attempts_faulted
        {
            return FaultSchedule::empty();
        }
        FaultSchedule::single(FaultSpec {
            trigger: FaultTrigger::Phase(0),
            kind: self.kind,
        })
    }
}

/// Which rung of the fallback ladder served (or attempted to serve) a
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeRoute {
    /// The pick's winning plan.
    Primary,
    /// The `rank`-th next-best distinct scenario plan, by re-cost order
    /// (rank 0 is the closest runner-up).
    Frontier {
        /// Position in the re-cost ordering of the remaining plans.
        rank: usize,
    },
    /// The LSC baseline (System R at the mean observed grant) — the last
    /// rung, and the breaker's direct route.
    LscBaseline,
}

/// What resilience did during one serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Execution attempts made (1 = no retry).
    pub attempts: u32,
    /// Every fault that fired across all attempts, in firing order.
    pub faults: Vec<FaultRecord>,
    /// The route of each attempt, in attempt order (the last entry is the
    /// one that served).
    pub attempted: Vec<ServeRoute>,
    /// The route that actually served the request.
    pub route: ServeRoute,
    /// True when the serving route was not [`ServeRoute::Primary`].
    pub degraded: bool,
    /// True when a circuit breaker rerouted this request.
    pub breaker_tripped: bool,
}

/// Fault strikes per key. The service keeps two: one keyed by fingerprint
/// encoding (a tripped fingerprint reroutes to the LSC baseline and drops
/// its cache entry) and one keyed by cache shard (correlated faults across
/// distinct fingerprints in one shard trip it even when no single
/// fingerprint reaches its own threshold, and flush the whole shard).
/// Deterministic: a [`BTreeMap`].
#[derive(Debug, Clone)]
pub struct Breaker<K: Ord> {
    strikes: BTreeMap<K, u32>,
}

impl<K: Ord> Default for Breaker<K> {
    fn default() -> Self {
        Breaker {
            strikes: BTreeMap::new(),
        }
    }
}

impl<K: Ord> Breaker<K> {
    /// Records one fault against `key`, returning the new strike count.
    pub fn record_fault(&mut self, key: K) -> u32 {
        let count = self.strikes.entry(key).or_insert(0);
        *count += 1;
        *count
    }

    /// True when `key` has reached `threshold` strikes (a zero threshold
    /// never opens).
    pub fn is_open<Q: Ord + ?Sized>(&self, key: &Q, threshold: u32) -> bool
    where
        K: Borrow<Q>,
    {
        threshold > 0 && self.strikes.get(key).is_some_and(|&n| n >= threshold)
    }

    /// Clears the strikes against `key` (done when the breaker trips, so
    /// the refreshed entry or shard starts clean).
    pub fn reset<Q: Ord + ?Sized>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
    {
        self.strikes.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_injection_always_yields_empty_schedules() {
        for ordinal in 0..20 {
            for attempt in 0..3 {
                assert!(FaultInjection::OFF
                    .schedule_for(ordinal, attempt)
                    .is_empty());
            }
        }
    }

    #[test]
    fn periodic_injection_targets_matching_ordinals_and_attempts() {
        let inj = FaultInjection::every(4, FaultKind::IoError);
        assert!(!inj.schedule_for(0, 0).is_empty());
        assert!(!inj.schedule_for(8, 0).is_empty());
        assert!(inj.schedule_for(1, 0).is_empty());
        assert!(inj.schedule_for(3, 0).is_empty());
        // Only the first attempt is faulted.
        assert!(inj.schedule_for(0, 1).is_empty());
        let offset = FaultInjection { offset: 2, ..inj };
        assert!(offset.schedule_for(0, 0).is_empty());
        assert!(!offset.schedule_for(6, 0).is_empty());
    }

    #[test]
    fn breaker_opens_at_threshold_and_resets() {
        let mut b: Breaker<Vec<u8>> = Breaker::default();
        let key = b"fp-a".as_slice();
        assert!(!b.is_open(key, 2));
        assert_eq!(b.record_fault(key.to_vec()), 1);
        assert!(!b.is_open(key, 2));
        assert_eq!(b.record_fault(key.to_vec()), 2);
        assert!(b.is_open(key, 2));
        // Other keys are independent.
        assert!(!b.is_open(b"fp-b".as_slice(), 2));
        b.reset(key);
        assert!(!b.is_open(key, 2));
        // A zero threshold never opens.
        b.record_fault(key.to_vec());
        assert!(!b.is_open(key, 0));
    }

    #[test]
    fn shard_breaker_opens_at_threshold_and_resets() {
        let mut b: Breaker<usize> = Breaker::default();
        assert!(!b.is_open(&2, 2));
        assert_eq!(b.record_fault(2), 1);
        assert_eq!(b.record_fault(2), 2);
        assert!(b.is_open(&2, 2));
        // Other shards are independent.
        assert!(!b.is_open(&3, 2));
        b.reset(&2);
        assert!(!b.is_open(&2, 2));
        // A zero threshold never opens, so the default policy keeps the
        // shard layer inert.
        b.record_fault(2);
        assert!(!b.is_open(&2, 0));
        assert_eq!(ResiliencePolicy::default().shard_breaker_threshold, 0);
    }
}
