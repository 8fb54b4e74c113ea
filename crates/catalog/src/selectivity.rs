//! Predicate selectivity estimation, with and without uncertainty.
//!
//! Classical optimizers plug a single point estimate into the cost model.
//! Algorithm D (§3.6) instead carries a *distribution* over each predicate's
//! selectivity. [`SelectivityBelief`] packages both: the point estimate a
//! traditional optimizer would use, and the bucketed distribution the LEC
//! optimizer uses. "Selectivities, in particular, are notoriously
//! uncertain" (§3.6).

use crate::catalog::Catalog;
use crate::error::CatalogError;
use lec_stats::Distribution;

/// A query predicate whose selectivity can be estimated from the catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `table.column = value`.
    Eq {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
        /// The literal.
        value: f64,
    },
    /// `lo <= table.column <= hi`.
    Range {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
    /// Equi-join `left_table.left_column = right_table.right_column`.
    EquiJoin {
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

impl Predicate {
    /// The classical point estimate of this predicate's selectivity.
    ///
    /// * equality: histogram estimate if present, else `1 / distinct`;
    /// * range: histogram estimate if present, else the covered fraction of
    ///   the `[min, max]` span;
    /// * equi-join: `1 / max(distinct_left, distinct_right)` (the System R
    ///   containment assumption).
    pub fn estimate(&self, catalog: &Catalog) -> Result<f64, CatalogError> {
        match self {
            Predicate::Eq {
                table,
                column,
                value,
            } => {
                let col = catalog.table(table)?.column(column)?;
                Ok(match &col.histogram {
                    Some(h) => h.selectivity_eq(*value),
                    None => 1.0 / col.distinct.max(1) as f64,
                })
            }
            Predicate::Range {
                table,
                column,
                lo,
                hi,
            } => {
                let col = catalog.table(table)?.column(column)?;
                Ok(match &col.histogram {
                    Some(h) => h.selectivity_range(*lo, *hi),
                    None => {
                        let span = col.max - col.min;
                        if span <= 0.0 {
                            if *lo <= col.min && col.min <= *hi {
                                1.0
                            } else {
                                0.0
                            }
                        } else {
                            ((hi.min(col.max) - lo.max(col.min)) / span).clamp(0.0, 1.0)
                        }
                    }
                })
            }
            Predicate::EquiJoin {
                left_table,
                left_column,
                right_table,
                right_column,
            } => {
                let l = catalog.table(left_table)?.column(left_column)?;
                let r = catalog.table(right_table)?.column(right_column)?;
                Ok(1.0 / l.distinct.max(r.distinct).max(1) as f64)
            }
        }
    }
}

/// A selectivity with quantified uncertainty: the point estimate plus a
/// bucketed distribution whose mean equals the point estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectivityBelief {
    point: f64,
    dist: Distribution,
}

impl SelectivityBelief {
    /// A fully certain selectivity (a single bucket).
    pub fn certain(s: f64) -> Result<Self, CatalogError> {
        if !(s.is_finite() && (0.0..=1.0).contains(&s)) {
            return Err(CatalogError::InvalidStatistic(format!(
                "selectivity {s} outside [0, 1]"
            )));
        }
        Ok(Self {
            point: s,
            dist: Distribution::point(s)?,
        })
    }

    /// An uncertain selectivity: multiplicative lognormal-style noise around
    /// `point` with coefficient of variation `cv`, discretized into
    /// `buckets` equal-mass buckets and then renormalized so the mean of the
    /// distribution equals `point` exactly. Values are clamped to
    /// `(0, 1]`, which slightly reduces the realized cv for large `cv`.
    pub fn uncertain(point: f64, cv: f64, buckets: usize) -> Result<Self, CatalogError> {
        if !(point.is_finite() && point > 0.0 && point <= 1.0) {
            return Err(CatalogError::InvalidStatistic(format!(
                "selectivity {point} outside (0, 1]"
            )));
        }
        if !(cv.is_finite() && cv >= 0.0) {
            return Err(CatalogError::InvalidStatistic(format!(
                "coefficient of variation {cv} invalid"
            )));
        }
        if cv == 0.0 || buckets <= 1 {
            return Self::certain(point);
        }
        let raw = lec_stats::families::lognormal_bucketed(point, cv, buckets)?;
        // Clamp into (0, 1]: selectivities are probabilities.
        let dist = raw.map(|v| v.clamp(f64::MIN_POSITIVE, 1.0))?;
        Ok(Self { point, dist })
    }

    /// The classical point estimate.
    pub fn point(&self) -> f64 {
        self.point
    }

    /// The bucketed selectivity distribution.
    pub fn distribution(&self) -> &Distribution {
        &self.dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::table::{ColumnMeta, TableMeta};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let vals: Vec<f64> = (0..1000).map(f64::from).collect();
        c.register(
            TableMeta::new("a", 1000, 10)
                .unwrap()
                .with_column(
                    ColumnMeta::new("k", 1000, 0.0, 999.0)
                        .with_histogram(Histogram::equi_width(&vals, 10).unwrap()),
                )
                .with_column(ColumnMeta::new("plain", 100, 0.0, 99.0)),
        )
        .unwrap();
        c.register(
            TableMeta::new("b", 500, 5)
                .unwrap()
                .with_column(ColumnMeta::new("k", 250, 0.0, 999.0)),
        )
        .unwrap();
        c
    }

    #[test]
    fn eq_estimate_uses_histogram_or_distinct() {
        let c = catalog();
        let with_hist = Predicate::Eq {
            table: "a".into(),
            column: "k".into(),
            value: 500.0,
        }
        .estimate(&c)
        .unwrap();
        assert!((with_hist - 0.001).abs() < 2e-4);

        let plain = Predicate::Eq {
            table: "a".into(),
            column: "plain".into(),
            value: 5.0,
        }
        .estimate(&c)
        .unwrap();
        assert!((plain - 0.01).abs() < 1e-12);
    }

    #[test]
    fn range_estimate_without_histogram_uses_span() {
        let c = catalog();
        let s = Predicate::Range {
            table: "a".into(),
            column: "plain".into(),
            lo: 0.0,
            hi: 49.5,
        }
        .estimate(&c)
        .unwrap();
        assert!((s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn join_estimate_uses_larger_distinct() {
        let c = catalog();
        let s = Predicate::EquiJoin {
            left_table: "a".into(),
            left_column: "k".into(),
            right_table: "b".into(),
            right_column: "k".into(),
        }
        .estimate(&c)
        .unwrap();
        assert!((s - 1.0 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_names_error() {
        let c = catalog();
        assert!(Predicate::Eq {
            table: "zz".into(),
            column: "k".into(),
            value: 1.0
        }
        .estimate(&c)
        .is_err());
    }

    #[test]
    fn certain_belief_is_point_mass() {
        let b = SelectivityBelief::certain(0.25).unwrap();
        assert_eq!(b.point(), 0.25);
        assert!(b.distribution().is_point());
        assert!(SelectivityBelief::certain(1.5).is_err());
        assert!(SelectivityBelief::certain(-0.1).is_err());
    }

    #[test]
    fn uncertain_belief_mean_matches_point() {
        let b = SelectivityBelief::uncertain(0.01, 0.5, 7).unwrap();
        assert_eq!(b.distribution().len(), 7);
        assert!((b.distribution().mean() - 0.01).abs() < 1e-9);
        // Realized cv should be in the ballpark of the requested one.
        let cv = b.distribution().std_dev() / b.distribution().mean();
        assert!((cv - 0.5).abs() < 0.1, "cv {cv}");
    }

    #[test]
    fn uncertain_zero_cv_degenerates() {
        let b = SelectivityBelief::uncertain(0.2, 0.0, 10).unwrap();
        assert!(b.distribution().is_point());
    }

    #[test]
    fn uncertain_values_stay_in_unit_interval() {
        let b = SelectivityBelief::uncertain(0.9, 2.0, 15).unwrap();
        for (v, _) in b.distribution().iter() {
            assert!(v > 0.0 && v <= 1.0, "value {v}");
        }
    }
}
