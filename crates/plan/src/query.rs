//! Join queries: relations, predicates, and size estimation.

use crate::bitset::RelSet;
use crate::error::PlanError;
use crate::plan::KeyId;

/// A base relation with the statistics the cost model needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Name for display.
    pub name: String,
    /// Size in pages.
    pub pages: f64,
    /// Row count (used by the execution simulator's data generator).
    pub rows: f64,
    /// Selectivity of the relation's local (single-table) predicate;
    /// 1.0 when there is none.
    pub local_selectivity: f64,
    /// True when an index is available for the local predicate, enabling
    /// the index-scan access path.
    pub has_index: bool,
}

impl Relation {
    /// A plain relation with no local predicate.
    pub fn new(name: impl Into<String>, pages: f64, rows: f64) -> Self {
        Self {
            name: name.into(),
            pages,
            rows,
            local_selectivity: 1.0,
            has_index: false,
        }
    }

    /// Builder: sets a local predicate selectivity.
    pub fn with_local_selectivity(mut self, s: f64) -> Self {
        self.local_selectivity = s;
        self
    }

    /// Builder: marks an index as available.
    pub fn with_index(mut self) -> Self {
        self.has_index = true;
        self
    }

    /// Pages after applying the local predicate (at least one page).
    pub fn effective_pages(&self) -> f64 {
        (self.pages * self.local_selectivity).max(1.0)
    }
}

/// An equi-join predicate between two relations.
///
/// `key` identifies the join attribute: a sort-merge join on this predicate
/// produces output physically ordered by `key`, and a query's
/// `required_order` can name it. Predicates on the same underlying attribute
/// should share a `key`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinPred {
    /// Index of one relation.
    pub left: usize,
    /// Index of the other relation.
    pub right: usize,
    /// Page-domain selectivity: joined pages ≈ `left_pages · right_pages · selectivity`.
    pub selectivity: f64,
    /// Identity of the join attribute (order key).
    pub key: KeyId,
}

/// A SELECT-PROJECT-JOIN query block (§2.1): the unit the optimizer works on.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinQuery {
    relations: Vec<Relation>,
    predicates: Vec<JoinPred>,
    required_order: Option<KeyId>,
}

impl JoinQuery {
    /// Validates and builds a query.
    pub fn new(
        relations: Vec<Relation>,
        predicates: Vec<JoinPred>,
        required_order: Option<KeyId>,
    ) -> Result<Self, PlanError> {
        if relations.is_empty() {
            return Err(PlanError::EmptyQuery);
        }
        if relations.len() > RelSet::MAX_RELATIONS {
            return Err(PlanError::TooManyRelations(relations.len()));
        }
        for r in &relations {
            for stat in [r.pages, r.rows] {
                if !(stat.is_finite() && stat > 0.0) {
                    return Err(PlanError::BadStatistic(stat));
                }
            }
            if !(r.local_selectivity.is_finite()
                && r.local_selectivity > 0.0
                && r.local_selectivity <= 1.0)
            {
                return Err(PlanError::BadSelectivity(r.local_selectivity));
            }
        }
        for p in &predicates {
            if p.left >= relations.len() {
                return Err(PlanError::BadRelationIndex(p.left));
            }
            if p.right >= relations.len() {
                return Err(PlanError::BadRelationIndex(p.right));
            }
            if p.left == p.right {
                return Err(PlanError::SelfJoinPredicate(p.left));
            }
            if !(p.selectivity.is_finite() && p.selectivity > 0.0 && p.selectivity <= 1.0) {
                return Err(PlanError::BadSelectivity(p.selectivity));
            }
        }
        if let Some(k) = required_order {
            if !predicates.iter().any(|p| p.key == k) {
                return Err(PlanError::UnknownOrderKey(k.0));
            }
        }
        Ok(Self {
            relations,
            predicates,
            required_order,
        })
    }

    /// Number of relations (`n`).
    pub fn n(&self) -> usize {
        self.relations.len()
    }

    /// The relations.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Relation by index.
    pub fn relation(&self, i: usize) -> &Relation {
        &self.relations[i]
    }

    /// The join predicates.
    pub fn predicates(&self) -> &[JoinPred] {
        &self.predicates
    }

    /// The required output order, if any.
    pub fn required_order(&self) -> Option<KeyId> {
        self.required_order
    }

    /// The full relation set.
    pub fn all(&self) -> RelSet {
        RelSet::full(self.n())
    }

    /// Predicates with one endpoint in each (disjoint) set — the join
    /// condition applied when combining the two subplans.
    fn predicates_between(&self, a: RelSet, b: RelSet) -> impl Iterator<Item = &JoinPred> {
        debug_assert!(a.is_disjoint(b));
        self.predicates.iter().filter(move |p| {
            (a.contains(p.left) && b.contains(p.right))
                || (a.contains(p.right) && b.contains(p.left))
        })
    }

    /// The join key shared by the crossing predicates, when they agree on
    /// one (the common case: a single predicate). `None` for cross products
    /// or multi-key joins.
    pub fn join_key_between(&self, a: RelSet, b: RelSet) -> Option<KeyId> {
        let mut keys = self.predicates_between(a, b).map(|p| p.key);
        let first = keys.next()?;
        if keys.all(|k| k == first) {
            Some(first)
        } else {
            None
        }
    }

    /// Point estimate of the result size (pages) of joining all relations in
    /// `set`: product of effective relation sizes times the selectivities of
    /// all predicates internal to the set, floored at one page.
    pub fn result_pages(&self, set: RelSet) -> f64 {
        let mut pages = 1.0;
        for i in set.iter() {
            pages *= self.relations[i].effective_pages();
        }
        for p in &self.predicates {
            if set.contains(p.left) && set.contains(p.right) {
                pages *= p.selectivity;
            }
        }
        pages.max(1.0)
    }

    /// True when the relations in `set` form a connected subgraph of the
    /// join graph (used by workload generators to avoid cross products).
    pub fn is_connected(&self, set: RelSet) -> bool {
        let Some(start) = set.iter().next() else {
            return true;
        };
        let mut seen = RelSet::single(start);
        let mut frontier = vec![start];
        while let Some(i) = frontier.pop() {
            for p in &self.predicates {
                let other = if p.left == i {
                    p.right
                } else if p.right == i {
                    p.left
                } else {
                    continue;
                };
                if set.contains(other) && !seen.contains(other) {
                    seen = seen.insert(other);
                    frontier.push(other);
                }
            }
        }
        seen == set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_rel_query() -> JoinQuery {
        JoinQuery::new(
            vec![
                Relation::new("a", 1000.0, 50_000.0),
                Relation::new("b", 400.0, 20_000.0),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 1e-5,
                key: KeyId(0),
            }],
            Some(KeyId(0)),
        )
        .unwrap()
    }

    #[test]
    fn validation_catches_errors() {
        assert!(matches!(
            JoinQuery::new(vec![], vec![], None),
            Err(PlanError::EmptyQuery)
        ));
        let r = || {
            vec![
                Relation::new("a", 10.0, 100.0),
                Relation::new("b", 10.0, 100.0),
            ]
        };
        assert!(matches!(
            JoinQuery::new(
                r(),
                vec![JoinPred {
                    left: 0,
                    right: 5,
                    selectivity: 0.5,
                    key: KeyId(0)
                }],
                None
            ),
            Err(PlanError::BadRelationIndex(5))
        ));
        assert!(matches!(
            JoinQuery::new(
                r(),
                vec![JoinPred {
                    left: 1,
                    right: 1,
                    selectivity: 0.5,
                    key: KeyId(0)
                }],
                None
            ),
            Err(PlanError::SelfJoinPredicate(1))
        ));
        assert!(matches!(
            JoinQuery::new(
                r(),
                vec![JoinPred {
                    left: 0,
                    right: 1,
                    selectivity: 0.0,
                    key: KeyId(0)
                }],
                None
            ),
            Err(PlanError::BadSelectivity(_))
        ));
        assert!(matches!(
            JoinQuery::new(r(), vec![], Some(KeyId(3))),
            Err(PlanError::UnknownOrderKey(3))
        ));
        assert!(matches!(
            JoinQuery::new(vec![Relation::new("a", 0.0, 1.0)], vec![], None),
            Err(PlanError::BadStatistic(_))
        ));
    }

    #[test]
    fn bad_statistic_reports_the_offending_value() {
        let bad = |pages: f64, rows: f64| {
            JoinQuery::new(vec![Relation::new("a", pages, rows)], vec![], None).unwrap_err()
        };
        let PlanError::BadStatistic(v) = bad(f64::NAN, 100.0) else {
            panic!("NaN pages must be a bad statistic");
        };
        assert!(v.is_nan(), "reported {v}");
        assert_eq!(
            bad(f64::INFINITY, 100.0),
            PlanError::BadStatistic(f64::INFINITY)
        );
        let PlanError::BadStatistic(v) = bad(100.0, f64::NAN) else {
            panic!("NaN rows must be a bad statistic");
        };
        assert!(v.is_nan(), "reported {v}");
        assert_eq!(bad(100.0, -3.0), PlanError::BadStatistic(-3.0));
        assert_eq!(
            bad(f64::INFINITY, 100.0).to_string(),
            "non-finite or non-positive statistic inf"
        );
    }

    #[test]
    fn selectivity_and_size_estimation() {
        let q = two_rel_query();
        let (a, b) = (RelSet::single(0), RelSet::single(1));
        assert_eq!(q.join_key_between(a, b), Some(KeyId(0)));
        // 1000 * 400 * 1e-5 = 4 pages.
        assert!((q.result_pages(q.all()) - 4.0).abs() < 1e-9);
        assert_eq!(q.result_pages(a), 1000.0);
    }

    #[test]
    fn local_selectivity_shrinks_effective_pages() {
        let r = Relation::new("a", 1000.0, 50_000.0).with_local_selectivity(0.1);
        assert_eq!(r.effective_pages(), 100.0);
        // Floor at one page.
        let tiny = Relation::new("t", 2.0, 100.0).with_local_selectivity(0.01);
        assert_eq!(tiny.effective_pages(), 1.0);
    }

    #[test]
    fn cross_product_has_unit_selectivity_and_no_key() {
        let q = JoinQuery::new(
            vec![
                Relation::new("a", 10.0, 100.0),
                Relation::new("b", 20.0, 200.0),
            ],
            vec![],
            None,
        )
        .unwrap();
        let (a, b) = (RelSet::single(0), RelSet::single(1));
        assert_eq!(q.join_key_between(a, b), None);
        assert_eq!(q.result_pages(q.all()), 200.0);
    }

    #[test]
    fn connectivity() {
        let q = JoinQuery::new(
            vec![
                Relation::new("a", 10.0, 1.0),
                Relation::new("b", 10.0, 1.0),
                Relation::new("c", 10.0, 1.0),
            ],
            vec![JoinPred {
                left: 0,
                right: 1,
                selectivity: 0.5,
                key: KeyId(0),
            }],
            None,
        )
        .unwrap();
        assert!(q.is_connected(RelSet::single(0).insert(1)));
        assert!(!q.is_connected(q.all()));
        assert!(q.is_connected(RelSet::single(2)));
    }

    #[test]
    fn multi_key_join_has_no_single_key() {
        let q = JoinQuery::new(
            vec![Relation::new("a", 10.0, 1.0), Relation::new("b", 10.0, 1.0)],
            vec![
                JoinPred {
                    left: 0,
                    right: 1,
                    selectivity: 0.5,
                    key: KeyId(0),
                },
                JoinPred {
                    left: 0,
                    right: 1,
                    selectivity: 0.5,
                    key: KeyId(1),
                },
            ],
            None,
        )
        .unwrap();
        assert_eq!(
            q.join_key_between(RelSet::single(0), RelSet::single(1)),
            None
        );
    }
}
