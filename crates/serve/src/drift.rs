//! Estimation-drift detection from execution feedback.
//!
//! Every executed query contributes (estimated, observed) selectivity
//! pairs per statistic — a filtered column's range selectivity, an
//! equi-join's row selectivity. The detector accumulates them in
//! per-statistic windows and fires a [`DriftEvent`] once a window has both
//! enough observations and a mean relative error above the configured
//! threshold. The window resets when it fires, so one sustained shift
//! produces one event per recalibration round, not one per query.
//!
//! Everything is plain sequential state: determinism of the serving loop's
//! recalibration schedule falls directly out of the request stream.

use std::collections::BTreeMap;

/// Which statistic a drift window tracks.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftTarget {
    /// A local range/equality filter on one column.
    Selection {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// An equi-join between two columns (row-domain selectivity).
    Join {
        /// Left table name.
        left_table: String,
        /// Left column name.
        left_column: String,
        /// Right table name.
        right_table: String,
        /// Right column name.
        right_column: String,
    },
}

impl DriftTarget {
    /// The tables this statistic touches (what cache invalidation keys on).
    pub fn tables(&self) -> Vec<&str> {
        match self {
            DriftTarget::Selection { table, .. } => vec![table],
            DriftTarget::Join {
                left_table,
                right_table,
                ..
            } => vec![left_table, right_table],
        }
    }
}

/// Thresholds for the drift detector.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Mean relative estimation error above which a window fires. `+∞`
    /// never fires; a service refuses NaN.
    pub error_threshold: f64,
    /// Observations a window needs before it may fire.
    pub min_observations: usize,
    /// Blend weight handed to `Histogram::merge_observations` when the
    /// service recalibrates (1.0 = trust feedback outright).
    pub blend: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            error_threshold: 0.5,
            min_observations: 4,
            blend: 0.8,
        }
    }
}

/// A fired drift window: the evidence the service recalibrates from.
#[derive(Debug, Clone)]
pub struct DriftEvent {
    /// The statistic that drifted.
    pub target: DriftTarget,
    /// Mean estimated selectivity over the window.
    pub mean_estimated: f64,
    /// Mean observed selectivity over the window.
    pub mean_observed: f64,
    /// Mean relative error that tripped the threshold.
    pub mean_rel_error: f64,
    /// Number of observations in the window.
    pub observations: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct Window {
    n: usize,
    sum_est: f64,
    sum_obs: f64,
    sum_rel_err: f64,
}

/// Accumulates (estimated, observed) selectivity pairs per statistic and
/// fires when a statistic's estimation error is persistently large.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    config: DriftConfig,
    windows: BTreeMap<DriftTarget, Window>,
}

impl DriftDetector {
    /// A detector with the given thresholds.
    pub fn new(config: DriftConfig) -> Self {
        DriftDetector {
            config,
            windows: BTreeMap::new(),
        }
    }

    /// Feeds one (estimated, observed) pair. Returns a [`DriftEvent`] when
    /// the statistic's window crosses both thresholds; the window resets.
    pub fn observe(
        &mut self,
        target: DriftTarget,
        estimated: f64,
        observed: f64,
    ) -> Option<DriftEvent> {
        let w = self.windows.entry(target.clone()).or_default();
        w.n += 1;
        w.sum_est += estimated;
        w.sum_obs += observed;
        w.sum_rel_err += (observed - estimated).abs() / estimated.abs().max(1e-12);
        if w.n < self.config.min_observations {
            return None;
        }
        let mean_rel_error = w.sum_rel_err / w.n as f64;
        if mean_rel_error <= self.config.error_threshold {
            return None;
        }
        let event = DriftEvent {
            mean_estimated: w.sum_est / w.n as f64,
            mean_observed: w.sum_obs / w.n as f64,
            mean_rel_error,
            observations: w.n,
            target: target.clone(),
        };
        self.windows.remove(&target);
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(table: &str, column: &str) -> DriftTarget {
        DriftTarget::Selection {
            table: table.into(),
            column: column.into(),
        }
    }

    #[test]
    fn accurate_estimates_never_fire() {
        let mut d = DriftDetector::new(DriftConfig::default());
        for _ in 0..100 {
            assert!(d.observe(sel("t", "c"), 0.1, 0.101).is_none());
        }
    }

    #[test]
    fn sustained_error_fires_once_per_window() {
        let cfg = DriftConfig {
            error_threshold: 0.5,
            min_observations: 4,
            blend: 0.5,
        };
        let mut d = DriftDetector::new(cfg);
        let mut events = 0;
        for i in 0..8 {
            if let Some(e) = d.observe(sel("t", "c"), 0.1, 0.4) {
                events += 1;
                assert_eq!(e.observations, 4);
                assert!((e.mean_estimated - 0.1).abs() < 1e-12);
                assert!((e.mean_observed - 0.4).abs() < 1e-12);
                assert!(e.mean_rel_error > 2.9);
                // Fires exactly at the window boundary.
                assert!(i == 3 || i == 7, "fired at observation {i}");
            }
        }
        assert_eq!(events, 2);
    }

    #[test]
    fn windows_are_per_statistic() {
        let mut d = DriftDetector::new(DriftConfig {
            error_threshold: 0.5,
            min_observations: 2,
            blend: 0.5,
        });
        // Drift on one statistic does not contaminate the other.
        assert!(d.observe(sel("t", "bad"), 0.1, 0.9).is_none());
        assert!(d.observe(sel("t", "good"), 0.1, 0.1).is_none());
        assert!(d.observe(sel("t", "good"), 0.1, 0.1).is_none());
        assert!(d.observe(sel("t", "bad"), 0.1, 0.9).is_some());
    }

    #[test]
    fn join_targets_name_both_tables() {
        let t = DriftTarget::Join {
            left_table: "a".into(),
            left_column: "x".into(),
            right_table: "b".into(),
            right_column: "y".into(),
        };
        assert_eq!(t.tables(), vec!["a", "b"]);
        assert_eq!(sel("t", "c").tables(), vec!["t"]);
    }
}
