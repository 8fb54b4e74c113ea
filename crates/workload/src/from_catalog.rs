//! Building optimizer queries from catalog statistics — the bridge between
//! the DBMS's statistics (S2) and the optimizer's input (S5).
//!
//! A real system doesn't hand the optimizer selectivities; it hands it a
//! catalog and predicates, and the optimizer *estimates*. This module does
//! that: join selectivities via the System R containment assumption (or
//! histograms when present), local predicates via histogram ranges, all
//! converted from the row domain the catalog speaks to the page domain the
//! cost formulas speak.

use lec_catalog::{Catalog, CatalogError, Predicate, TableMeta};
use lec_plan::{JoinPred, JoinQuery, KeyId, PlanError, Relation};
use std::fmt;

/// A join between two named tables on named columns.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    /// Left table name.
    pub left_table: String,
    /// Left column name.
    pub left_column: String,
    /// Right table name.
    pub right_table: String,
    /// Right column name.
    pub right_column: String,
}

/// A local range predicate on one table.
#[derive(Debug, Clone)]
pub struct FilterSpec {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
    /// Whether an index supports this predicate.
    pub indexed: bool,
}

/// Errors from query building.
#[derive(Debug)]
pub enum BuildError {
    /// Catalog lookup or estimation failed.
    Catalog(CatalogError),
    /// The assembled query was invalid.
    Plan(PlanError),
    /// A join references a table not in the `tables` list.
    UnknownTable(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Catalog(e) => write!(f, "catalog: {e}"),
            BuildError::Plan(e) => write!(f, "plan: {e}"),
            BuildError::UnknownTable(t) => write!(f, "table `{t}` not in the query's table list"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<CatalogError> for BuildError {
    fn from(e: CatalogError) -> Self {
        BuildError::Catalog(e)
    }
}

impl From<PlanError> for BuildError {
    fn from(e: PlanError) -> Self {
        BuildError::Plan(e)
    }
}

/// Builds an optimizer-ready [`JoinQuery`] from catalog statistics.
///
/// Join selectivities come from [`Predicate::EquiJoin`] estimation in the
/// *row* domain and are converted to the page domain the cost formulas use:
/// `sel_pages = sel_rows · tpp_left · tpp_right / tpp_out`, with the output
/// tuples-per-page approximated by the max of the inputs' (joined tuples
/// are wider). Local filters shrink their relation via histogram range
/// estimates.
pub fn query_from_catalog(
    catalog: &Catalog,
    tables: &[&str],
    joins: &[JoinSpec],
    filters: &[FilterSpec],
    order_by: Option<usize>,
) -> Result<JoinQuery, BuildError> {
    let index_of = |name: &str| -> Result<usize, BuildError> {
        tables
            .iter()
            .position(|t| *t == name)
            .ok_or_else(|| BuildError::UnknownTable(name.to_string()))
    };

    let mut relations: Vec<Relation> = Vec::with_capacity(tables.len());
    for &name in tables {
        let meta = catalog.table(name)?;
        relations.push(Relation::new(name, meta.pages as f64, meta.rows as f64));
    }

    for f in filters {
        let idx = index_of(&f.table)?;
        let sel = Predicate::Range {
            table: f.table.clone(),
            column: f.column.clone(),
            lo: f.lo,
            hi: f.hi,
        }
        .estimate(catalog)?
        .clamp(1e-9, 1.0);
        // Several filters on one table conjoin: their selectivities
        // multiply (under independence), as they do at execution time.
        let combined = (relations[idx].local_selectivity * sel).clamp(1e-9, 1.0);
        relations[idx] = relations[idx].clone().with_local_selectivity(combined);
        if f.indexed {
            relations[idx] = relations[idx].clone().with_index();
        }
    }

    let mut predicates = Vec::with_capacity(joins.len());
    for (k, j) in joins.iter().enumerate() {
        let left = index_of(&j.left_table)?;
        let right = index_of(&j.right_table)?;
        let sel_rows = Predicate::EquiJoin {
            left_table: j.left_table.clone(),
            left_column: j.left_column.clone(),
            right_table: j.right_table.clone(),
            right_column: j.right_column.clone(),
        }
        .estimate(catalog)?;
        predicates.push(JoinPred {
            left,
            right,
            selectivity: page_selectivity(
                catalog.table(&j.left_table)?,
                catalog.table(&j.right_table)?,
                sel_rows,
            ),
            key: KeyId(k),
        });
    }

    Ok(JoinQuery::new(relations, predicates, order_by.map(KeyId))?)
}

/// Converts a row-domain join selectivity between `left` and `right` to
/// the page domain the cost formulas use: `out_pages = rows_l·rows_r·sel /
/// tpp_out` with `tpp_out ≈ max(tpp_l, tpp_r)`, clamped to `[1e-12, 1]`.
/// Monotone in `sel_rows`, so it maps interval endpoints to endpoints.
pub fn page_selectivity(left: &TableMeta, right: &TableMeta, sel_rows: f64) -> f64 {
    let tpp_out = left.tuples_per_page().max(right.tuples_per_page());
    (sel_rows * left.tuples_per_page() * right.tuples_per_page() / tpp_out).clamp(1e-12, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_catalog::{ColumnMeta, Histogram};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let order_keys: Vec<f64> = (0..4000).map(f64::from).collect();
        c.register(
            TableMeta::new("orders", 4_000, 80)
                .unwrap()
                .with_column(
                    ColumnMeta::new("o_id", 4_000, 0.0, 3999.0)
                        .with_histogram(Histogram::equi_width(&order_keys, 8).unwrap()),
                )
                .with_column(ColumnMeta::new("o_date", 365, 0.0, 364.0)),
        )
        .unwrap();
        c.register(
            TableMeta::new("lineitem", 20_000, 500)
                .unwrap()
                .with_column(ColumnMeta::new("l_oid", 4_000, 0.0, 3999.0)),
        )
        .unwrap();
        c
    }

    #[test]
    fn builds_query_with_estimated_selectivities() {
        let cat = catalog();
        let q = query_from_catalog(
            &cat,
            &["orders", "lineitem"],
            &[JoinSpec {
                left_table: "orders".into(),
                left_column: "o_id".into(),
                right_table: "lineitem".into(),
                right_column: "l_oid".into(),
            }],
            &[],
            Some(0),
        )
        .unwrap();
        assert_eq!(q.n(), 2);
        assert_eq!(q.relation(0).pages, 80.0);
        assert_eq!(q.relation(1).pages, 500.0);
        // Row selectivity 1/4000; tpp_orders = 50, tpp_line = 40 → page
        // selectivity = (1/4000)·50·40/50 = 0.01.
        let sel = q.predicates()[0].selectivity;
        assert!((sel - 0.01).abs() < 1e-9, "sel = {sel}");
        // Sanity: predicted join size = 80·500·0.01 = 400 pages, which is
        // 20,000 matched rows / 50 tpp — self-consistent.
        assert!((q.result_pages(q.all()) - 400.0).abs() < 1e-6);
    }

    #[test]
    fn filters_shrink_relations() {
        let cat = catalog();
        let q = query_from_catalog(
            &cat,
            &["orders", "lineitem"],
            &[JoinSpec {
                left_table: "orders".into(),
                left_column: "o_id".into(),
                right_table: "lineitem".into(),
                right_column: "l_oid".into(),
            }],
            &[FilterSpec {
                table: "orders".into(),
                column: "o_date".into(),
                lo: 0.0,
                hi: 35.9,
                indexed: true,
            }],
            None,
        )
        .unwrap();
        // ~10% of the date span without a histogram → span-based estimate.
        let r = q.relation(0);
        assert!(
            (r.local_selectivity - 0.0986).abs() < 0.01,
            "{}",
            r.local_selectivity
        );
        assert!(r.has_index);
    }

    #[test]
    fn filters_on_one_table_multiply() {
        let cat = catalog();
        let filter = |column: &str, hi: f64| FilterSpec {
            table: "orders".into(),
            column: column.into(),
            lo: 0.0,
            hi,
            indexed: false,
        };
        let build = |filters: &[FilterSpec]| {
            query_from_catalog(&cat, &["orders"], &[], filters, None)
                .unwrap()
                .relation(0)
                .local_selectivity
        };
        let date = build(&[filter("o_date", 35.9)]);
        let id = build(&[filter("o_id", 1999.0)]);
        let both = build(&[filter("o_date", 35.9), filter("o_id", 1999.0)]);
        assert_eq!(both.to_bits(), (date * id).to_bits());
    }

    #[test]
    fn unknown_table_is_rejected() {
        let cat = catalog();
        let err = query_from_catalog(
            &cat,
            &["orders"],
            &[JoinSpec {
                left_table: "orders".into(),
                left_column: "o_id".into(),
                right_table: "ghost".into(),
                right_column: "x".into(),
            }],
            &[],
            None,
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::UnknownTable(_)));
    }

    #[test]
    fn end_to_end_with_the_optimizer() {
        // Catalog → query → LEC plan, all estimated.
        let cat = catalog();
        let q = query_from_catalog(
            &cat,
            &["orders", "lineitem"],
            &[JoinSpec {
                left_table: "orders".into(),
                left_column: "o_id".into(),
                right_table: "lineitem".into(),
                right_column: "l_oid".into(),
            }],
            &[],
            Some(0),
        )
        .unwrap();
        use lec_stats::Distribution;
        let mem = Distribution::new([(10.0, 0.5), (100.0, 0.5)]).unwrap();
        let lec = lec_core::alg_c::optimize(
            &q,
            &lec_cost::PaperCostModel,
            &lec_core::MemoryModel::Static(mem),
        )
        .unwrap()
        .0;
        lec.plan.validate(&q).unwrap();
        assert!(lec.cost > 0.0);
    }
}
