//! Per-query memoization tables shared by every enumerator.
//!
//! The DP inner loops used to recompute three quantities once per
//! `(subset, relation)` visit that in fact depend only on the query:
//! the best access path of each relation, the estimated result size of
//! each subset, and the join key crossing from a subset to a relation.
//! [`QueryTables`] materializes all three once, as flat vectors indexed
//! by relation index or `RelSet::bits()`, so the hot loops become table
//! lookups.
//!
//! Fidelity matters more than speed here: each table entry is produced by
//! *the same expression* the enumerators previously evaluated inline
//! (same iteration order, same comparator, same floating-point flooring),
//! so switching an enumerator to the tables cannot change any cost by
//! even one ULP. The differential batteries lean on this.

use crate::evaluate::{access_choices, access_step};
use lec_cost::AccessMethod;
use lec_plan::{JoinQuery, KeyId, RelSet};

/// A relation's cheapest access path: `(cost, method, out_pages)`.
pub type BestAccess = (f64, AccessMethod, f64);

/// Read-only memoization tables for one query.
#[derive(Debug, Clone)]
pub struct QueryTables {
    /// Cheapest access path per relation, by relation index. Ties resolve
    /// exactly as the inline `min_by(total_cmp)` the enumerators used.
    best_access: Vec<BestAccess>,
    /// Estimated result pages per subset, indexed by `RelSet::bits()`
    /// (entry 0 is the empty set and unused). Each entry is a direct
    /// `JoinQuery::result_pages` call so the 1-page floor lands exactly
    /// where the un-memoized code put it.
    result_pages: Vec<f64>,
    /// Flattened (CSR) adjacency: for each relation `j`, the predicates
    /// touching `j` in declaration order as `(other_endpoint, key)` pairs,
    /// stored contiguously in `touch_entries[touch_offsets[j]..
    /// touch_offsets[j + 1]]`. One flat allocation instead of a `Vec` per
    /// relation keeps the per-candidate `join_key` probe on a single cache
    /// line for typical chain/star queries.
    touch_offsets: Vec<usize>,
    touch_entries: Vec<(usize, KeyId)>,
}

impl QueryTables {
    /// Builds all tables for `query`. Costs `O(2^n · n)` time and
    /// `O(2^n)` space — the same order as the DP table every enumerator
    /// already allocates.
    pub fn new(query: &JoinQuery) -> Self {
        let n = query.n();

        let best_access = (0..n)
            .map(|i| {
                let rel = query.relation(i);
                access_choices(rel)
                    .into_iter()
                    .map(|m| {
                        let (cost, out) = access_step(rel, m);
                        (cost, m, out)
                    })
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .expect("at least the full scan") // lec-lint: allow(panic-reachability) — every relation has a full-scan access path, so the min is over a non-empty set
            })
            .collect();

        // `result_pages(set)` is an ascending left-fold over member pages
        // followed by declaration-order selectivity multiplies. The relation
        // fold for mask `m` is the fold for `m` minus its highest bit times
        // that bit's pages — the same prefix, so building the fold
        // incrementally over ascending masks reproduces the direct call bit
        // for bit (`pages_match_query_result_pages_bitwise` pins this).
        let eff: Vec<f64> = (0..n)
            .map(|i| query.relation(i).effective_pages())
            .collect();
        let sels: Vec<f64> = query.predicates().iter().map(|p| p.selectivity).collect();
        let mut rel_prod = vec![1.0f64; 1usize << n];
        let mut result_pages = Vec::with_capacity(1usize << n);
        result_pages.push(1.0);
        if sels.len() <= 64 {
            // Track the set of internal predicates per mask as a bitmask
            // (bit k = declaration index k, so ascending bit order IS
            // declaration order): a predicate becomes internal when the
            // mask gains its second endpoint.
            let mut incident: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
            for (k, p) in query.predicates().iter().enumerate() {
                incident[p.left].push((1u64 << k, 1u64 << p.right));
                incident[p.right].push((1u64 << k, 1u64 << p.left));
            }
            let mut internal = vec![0u64; 1usize << n];
            for m in 1u64..(1u64 << n) {
                let h = (u64::BITS - 1 - m.leading_zeros()) as usize;
                let rest = (m & !(1u64 << h)) as usize;
                let prod = rel_prod[rest] * eff[h];
                rel_prod[m as usize] = prod;
                let mut ip = internal[rest];
                for &(pbit, obit) in &incident[h] {
                    if rest as u64 & obit != 0 {
                        ip |= pbit;
                    }
                }
                internal[m as usize] = ip;
                let mut pages = prod;
                let mut bits = ip;
                while bits != 0 {
                    pages *= sels[bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                }
                result_pages.push(pages.max(1.0));
            }
        } else {
            // > 64 predicates: scan them directly, still in declaration
            // order.
            let preds: Vec<(u64, u64, f64)> = query
                .predicates()
                .iter()
                .map(|p| (1u64 << p.left, 1u64 << p.right, p.selectivity))
                .collect();
            for m in 1u64..(1u64 << n) {
                let h = (u64::BITS - 1 - m.leading_zeros()) as usize;
                let prod = rel_prod[(m & !(1u64 << h)) as usize] * eff[h];
                rel_prod[m as usize] = prod;
                let mut pages = prod;
                for &(l, r, s) in &preds {
                    if m & l != 0 && m & r != 0 {
                        pages *= s;
                    }
                }
                result_pages.push(pages.max(1.0));
            }
        }

        // Build per-relation rows (declaration order within each row), then
        // flatten to CSR. The nested build is construction-time only.
        let mut touching: Vec<Vec<(usize, KeyId)>> = vec![Vec::new(); n];
        for p in query.predicates() {
            touching[p.left].push((p.right, p.key));
            touching[p.right].push((p.left, p.key));
        }
        let mut touch_offsets = Vec::with_capacity(n + 1);
        let mut touch_entries = Vec::with_capacity(2 * query.predicates().len());
        touch_offsets.push(0);
        for row in &touching {
            touch_entries.extend_from_slice(row);
            touch_offsets.push(touch_entries.len());
        }

        QueryTables {
            best_access,
            result_pages,
            touch_offsets,
            touch_entries,
        }
    }

    /// Cheapest access path for relation `i`: `(cost, method, out_pages)`.
    #[inline]
    pub fn access(&self, i: usize) -> BestAccess {
        self.best_access[i]
    }

    /// Estimated result pages of the join over `set`
    /// (≡ `query.result_pages(set)`).
    #[inline]
    pub fn pages(&self, set: RelSet) -> f64 {
        self.result_pages[set.bits() as usize]
    }

    /// Table sizes for the observability layer: access entries, result-page
    /// entries (including the unused empty-set slot), and adjacency entries
    /// (two per join predicate).
    pub fn sizes(&self) -> crate::stats::PrecomputeSizes {
        crate::stats::PrecomputeSizes {
            access_entries: self.best_access.len(),
            pages_entries: self.result_pages.len(),
            adjacency_entries: self.touch_entries.len(),
        }
    }

    /// Join key between `set` and relation `j`
    /// (≡ `query.join_key_between(set, RelSet::single(j))`): the key of
    /// the first crossing predicate when all crossing predicates agree,
    /// `None` for cross products or multi-key joins.
    pub fn join_key(&self, set: RelSet, j: usize) -> Option<KeyId> {
        let row = &self.touch_entries[self.touch_offsets[j]..self.touch_offsets[j + 1]]; // lec-lint: allow(panic-reachability) — touch_offsets is a CSR table with n + 1 entries and j < n
        let mut keys = row
            .iter()
            .filter(|(other, _)| set.contains(*other))
            .map(|(_, k)| *k);
        let first = keys.next()?;
        if keys.all(|k| k == first) {
            Some(first)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_plan::{JoinPred, Relation};

    fn query() -> JoinQuery {
        JoinQuery::new(
            vec![
                Relation::new("a", 1000.0, 5e4)
                    .with_local_selectivity(0.05)
                    .with_index(),
                Relation::new("b", 400.0, 2e4),
                Relation::new("c", 80.0, 4e3).with_local_selectivity(0.5),
            ],
            vec![
                JoinPred {
                    left: 0,
                    right: 1,
                    selectivity: 1e-4,
                    key: KeyId(0),
                },
                JoinPred {
                    left: 1,
                    right: 2,
                    selectivity: 1e-3,
                    key: KeyId(1),
                },
            ],
            None,
        )
        .unwrap()
    }

    #[test]
    fn best_access_matches_inline_search() {
        let q = query();
        let tabs = QueryTables::new(&q);
        for i in 0..q.n() {
            let rel = q.relation(i);
            let inline = access_choices(rel)
                .into_iter()
                .map(|m| {
                    let (cost, out) = access_step(rel, m);
                    (cost, m, out)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .unwrap();
            assert_eq!(tabs.access(i), inline);
        }
        // Relation 0 has a selective index: the index scan must win.
        assert_eq!(tabs.access(0).1, AccessMethod::IndexScan);
    }

    #[test]
    fn pages_match_query_result_pages_bitwise() {
        let q = query();
        let tabs = QueryTables::new(&q);
        for set in RelSet::all_subsets(q.n()) {
            assert_eq!(tabs.pages(set).to_bits(), q.result_pages(set).to_bits());
        }
    }

    #[test]
    fn join_keys_match_query_for_all_set_rel_pairs() {
        let q = query();
        let tabs = QueryTables::new(&q);
        for set in RelSet::all_subsets(q.n()) {
            for j in 0..q.n() {
                if set.contains(j) {
                    continue;
                }
                assert_eq!(
                    tabs.join_key(set, j),
                    q.join_key_between(set, RelSet::single(j)),
                    "set {:?} rel {j}",
                    set
                );
            }
        }
    }

    #[test]
    fn sizes_reflect_table_shapes() {
        let q = query();
        let s = QueryTables::new(&q).sizes();
        assert_eq!(s.access_entries, 3);
        assert_eq!(s.pages_entries, 1 << 3);
        assert_eq!(s.adjacency_entries, 4); // two predicates, two endpoints each
    }

    #[test]
    fn multi_key_join_yields_none() {
        // Two predicates with different keys both crossing to relation 2.
        let q = JoinQuery::new(
            vec![
                Relation::new("a", 10.0, 1e3),
                Relation::new("b", 20.0, 1e3),
                Relation::new("c", 30.0, 1e3),
            ],
            vec![
                JoinPred {
                    left: 0,
                    right: 2,
                    selectivity: 0.01,
                    key: KeyId(0),
                },
                JoinPred {
                    left: 1,
                    right: 2,
                    selectivity: 0.01,
                    key: KeyId(1),
                },
            ],
            None,
        )
        .unwrap();
        let tabs = QueryTables::new(&q);
        let ab = RelSet::single(0).insert(1);
        assert_eq!(tabs.join_key(ab, 2), None);
        assert_eq!(tabs.join_key(RelSet::single(0), 2), Some(KeyId(0)));
    }
}
