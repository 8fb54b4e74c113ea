//! Canonical query fingerprints: the cache key of the serving layer.
//!
//! Two [`JoinQuery`]s that differ only by a *renumbering* of their relations
//! (and the induced re-indexing of predicate endpoints), by the *order* of
//! the predicate list, or by the arbitrary labels of their [`KeyId`]s
//! describe the same optimization problem and must share a fingerprint —
//! otherwise a plan cache fragments and the concurrent server's in-window
//! deduplication misses duplicates. Conversely, any change to a statistic (pages, rows, a
//! selectivity, an index flag) or to the join structure must change it.
//!
//! Canonicalization runs Weisfeiler–Lehman-style color refinement on the
//! join graph (relations are nodes, predicates are labeled edges, key
//! identities are hyper-labels tying predicates that share a join
//! attribute), orders relations by their stable colors, renumbers keys by
//! first appearance in the canonical predicate order, and serializes the
//! result into an exact byte encoding. The [`Fingerprint`] couples a 64-bit
//! hash (for sharding) with that full encoding (for equality), so hash
//! collisions can never alias two distinct queries onto one cache entry.
//!
//! [`Canonical`] also keeps the relation permutation and key relabeling in
//! both directions, so a [`Plan`] optimized against the canonical numbering
//! can be translated back into the numbering of any query with the same
//! fingerprint — the operation a plan-cache hit performs.

use crate::plan::{KeyId, Plan};
use crate::query::JoinQuery;
use std::collections::BTreeMap;

/// Rounds of color refinement. Join graphs here are small (≤ 16 nodes);
/// `n` rounds reach the refinement fixpoint on any graph of `n` nodes.
fn rounds(n: usize) -> usize {
    n.max(2)
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over a stream of `u64` words.
#[derive(Clone, Copy)]
struct Hasher(u64);

impl Hasher {
    fn new() -> Self {
        Hasher(FNV_OFFSET)
    }
    fn word(&mut self, w: u64) -> &mut Self {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Hasher::new();
    for w in words {
        h.word(w);
    }
    h.finish()
}

/// A canonical query fingerprint: a shard-friendly hash plus the exact
/// canonical encoding. Equality compares the full encoding, so two queries
/// compare equal iff they are isomorphic (same statistics, same join
/// structure) — never merely hash-equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    hash: u64,
    encoding: Vec<u8>,
}

impl Fingerprint {
    /// The 64-bit hash (use for sharding / hash maps).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The exact canonical encoding the hash summarizes.
    pub fn encoding(&self) -> &[u8] {
        &self.encoding
    }
}

/// A query in canonical form, with the maps that translate plans between
/// the original and canonical numberings.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The canonicalized query (relations reordered, predicates sorted,
    /// keys relabeled). Relation names ride along for display but are not
    /// part of the fingerprint.
    pub query: JoinQuery,
    /// `perm[original_index] = canonical_index`.
    pub perm: Vec<usize>,
    /// `inverse[canonical_index] = original_index`.
    pub inverse: Vec<usize>,
    /// Original key → canonical key.
    pub key_fwd: BTreeMap<KeyId, KeyId>,
    /// Canonical key → original key.
    pub key_back: BTreeMap<KeyId, KeyId>,
    /// The fingerprint of the canonical form.
    pub fingerprint: Fingerprint,
}

impl Canonical {
    /// Translates a plan expressed in canonical numbering back into the
    /// original query's numbering (what a cache hit serves).
    pub fn plan_to_original(&self, plan: &Plan) -> Plan {
        plan.remap(&|r| self.inverse[r], &|k| {
            self.key_back.get(&k).copied().unwrap_or(k)
        })
    }

    /// Translates a plan expressed in the original numbering into the
    /// canonical numbering (what a cache insert stores).
    pub fn plan_to_canonical(&self, plan: &Plan) -> Plan {
        plan.remap(&|r| self.perm[r], &|k| {
            self.key_fwd.get(&k).copied().unwrap_or(k)
        })
    }
}

/// Computes the canonical form of a query.
///
/// # Examples
///
/// ```
/// use lec_plan::fingerprint::canonicalize;
/// use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
///
/// let q = JoinQuery::new(
///     vec![Relation::new("a", 100.0, 1e4), Relation::new("b", 900.0, 9e4)],
///     vec![JoinPred { left: 0, right: 1, selectivity: 1e-3, key: KeyId(7) }],
///     None,
/// )?;
/// // The same query with relations renumbered and the key relabeled:
/// let r = JoinQuery::new(
///     vec![Relation::new("b", 900.0, 9e4), Relation::new("a", 100.0, 1e4)],
///     vec![JoinPred { left: 1, right: 0, selectivity: 1e-3, key: KeyId(0) }],
///     None,
/// )?;
/// assert_eq!(canonicalize(&q).fingerprint, canonicalize(&r).fingerprint);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn canonicalize(query: &JoinQuery) -> Canonical {
    let n = query.n();
    let preds = query.predicates();

    // Initial relation colors: the statistics, nothing positional. Names
    // are deliberately excluded — they do not affect optimization.
    let mut rel_color: Vec<u64> = query
        .relations()
        .iter()
        .map(|r| {
            hash_words([
                r.pages.to_bits(),
                r.rows.to_bits(),
                r.local_selectivity.to_bits(),
                r.has_index as u64,
            ])
        })
        .collect();

    // Initial key colors: only whether the key is the required order.
    let mut key_color: BTreeMap<KeyId, u64> = preds
        .iter()
        .map(|p| {
            let required = query.required_order() == Some(p.key);
            (p.key, hash_words([0x4B45u64, required as u64]))
        })
        .collect();

    // Refinement: keys absorb the multiset of their predicates' (sel,
    // endpoint colors); relations absorb the multiset of incident
    // (sel, key color, far endpoint color).
    for _ in 0..rounds(n) {
        let mut next_key = BTreeMap::new();
        for (&k, &kc) in &key_color {
            let mut sigs: Vec<(u64, u64, u64)> = preds
                .iter()
                .filter(|p| p.key == k)
                .map(|p| {
                    let (a, b) = (rel_color[p.left], rel_color[p.right]);
                    (p.selectivity.to_bits(), a.min(b), a.max(b))
                })
                .collect();
            sigs.sort_unstable();
            let mut h = Hasher::new();
            h.word(kc);
            for (s, a, b) in sigs {
                h.word(s).word(a).word(b);
            }
            next_key.insert(k, h.finish());
        }
        let mut next_rel = Vec::with_capacity(n);
        for (i, &c) in rel_color.iter().enumerate() {
            let mut sigs: Vec<(u64, u64, u64)> = preds
                .iter()
                .filter(|p| p.left == i || p.right == i)
                .map(|p| {
                    let other = if p.left == i { p.right } else { p.left };
                    (p.selectivity.to_bits(), next_key[&p.key], rel_color[other])
                })
                .collect();
            sigs.sort_unstable();
            let mut h = Hasher::new();
            h.word(c);
            for (s, k, o) in sigs {
                h.word(s).word(k).word(o);
            }
            next_rel.push(h.finish());
        }
        key_color = next_key;
        rel_color = next_rel;
    }

    // Canonical relation order: by final color; ties are automorphic at
    // the refinement fixpoint, so original order is a safe, stable break
    // (and the full-encoding equality below protects against the rare
    // refinement-indistinguishable non-isomorphic pair by turning any
    // instability into a cache miss, never a false hit).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (rel_color[i], i));
    let inverse = order.clone();
    let mut perm = vec![0usize; n];
    for (canon, &orig) in inverse.iter().enumerate() {
        perm[orig] = canon;
    }

    // Canonical predicate order: endpoints mapped and normalized, then
    // sorted structurally (key color breaks ties among parallel edges).
    let mut canon_preds: Vec<(usize, usize, u64, u64, KeyId)> = preds
        .iter()
        .map(|p| {
            let (a, b) = (perm[p.left], perm[p.right]);
            (
                a.min(b),
                a.max(b),
                p.selectivity.to_bits(),
                key_color[&p.key],
                p.key,
            )
        })
        .collect();
    canon_preds.sort_unstable();

    // Keys renumbered by first appearance in canonical predicate order.
    let mut key_fwd: BTreeMap<KeyId, KeyId> = BTreeMap::new();
    let mut key_back: BTreeMap<KeyId, KeyId> = BTreeMap::new();
    for &(_, _, _, _, old) in &canon_preds {
        if !key_fwd.contains_key(&old) {
            let fresh = KeyId(key_fwd.len());
            key_fwd.insert(old, fresh);
            key_back.insert(fresh, old);
        }
    }

    let relations = inverse
        .iter()
        .map(|&orig| query.relation(orig).clone())
        .collect();
    let predicates = canon_preds
        .iter()
        .map(|&(a, b, sel, _, old)| crate::query::JoinPred {
            left: a,
            right: b,
            selectivity: f64::from_bits(sel),
            key: key_fwd[&old],
        })
        .collect();
    let required = query.required_order().map(|k| key_fwd[&k]);
    let canonical =
        JoinQuery::new(relations, predicates, required).expect("canonical form of a valid query"); // lec-lint: allow(panic-reachability) — renaming the relations of a valid query preserves validity

    // Exact encoding: statistics and structure, no names, no original
    // labels.
    let mut encoding = Vec::with_capacity(16 + 33 * n);
    encoding.extend((n as u64).to_le_bytes());
    for r in canonical.relations() {
        encoding.extend(r.pages.to_bits().to_le_bytes());
        encoding.extend(r.rows.to_bits().to_le_bytes());
        encoding.extend(r.local_selectivity.to_bits().to_le_bytes());
        encoding.push(r.has_index as u8);
    }
    encoding.extend((canonical.predicates().len() as u64).to_le_bytes());
    for p in canonical.predicates() {
        encoding.extend((p.left as u64).to_le_bytes());
        encoding.extend((p.right as u64).to_le_bytes());
        encoding.extend(p.selectivity.to_bits().to_le_bytes());
        encoding.extend((p.key.0 as u64).to_le_bytes());
    }
    match canonical.required_order() {
        Some(k) => {
            encoding.push(1);
            encoding.extend((k.0 as u64).to_le_bytes());
        }
        None => encoding.push(0),
    }

    let mut h = Hasher::new();
    for chunk in encoding.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h.word(u64::from_le_bytes(w));
    }
    let fingerprint = Fingerprint {
        hash: h.finish(),
        encoding,
    };

    Canonical {
        query: canonical,
        perm,
        inverse,
        key_fwd,
        key_back,
        fingerprint,
    }
}

/// Shorthand: just the fingerprint of a query.
pub fn fingerprint(query: &JoinQuery) -> Fingerprint {
    canonicalize(query).fingerprint
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{JoinPred, Relation};

    fn chain(n: usize) -> JoinQuery {
        let relations = (0..n)
            .map(|i| Relation::new(format!("r{i}"), 100.0 * (i + 1) as f64, 1e4))
            .collect();
        let predicates = (0..n - 1)
            .map(|i| JoinPred {
                left: i,
                right: i + 1,
                selectivity: 0.001 * (i + 1) as f64,
                key: KeyId(i),
            })
            .collect();
        JoinQuery::new(relations, predicates, Some(KeyId(n - 2))).unwrap()
    }

    /// Applies a relation permutation and predicate shuffle to a query.
    fn renumber(q: &JoinQuery, perm: &[usize], rotate: usize) -> JoinQuery {
        let mut relations = vec![q.relation(0).clone(); q.n()];
        for (orig, &new_pos) in perm.iter().enumerate() {
            relations[new_pos] = q.relation(orig).clone();
        }
        let mut predicates: Vec<JoinPred> = q
            .predicates()
            .iter()
            .map(|p| JoinPred {
                left: perm[p.left],
                right: perm[p.right],
                selectivity: p.selectivity,
                key: p.key,
            })
            .collect();
        let len = predicates.len().max(1);
        predicates.rotate_left(rotate % len);
        JoinQuery::new(relations, predicates, q.required_order()).unwrap()
    }

    #[test]
    fn renumbering_and_reordering_preserve_fingerprint() {
        let q = chain(5);
        for (perm, rot) in [
            (vec![4, 3, 2, 1, 0], 1),
            (vec![2, 0, 4, 1, 3], 3),
            (vec![0, 1, 2, 3, 4], 2),
        ] {
            let r = renumber(&q, &perm, rot);
            assert_eq!(fingerprint(&q), fingerprint(&r), "perm {perm:?}");
        }
    }

    #[test]
    fn key_relabeling_preserves_fingerprint() {
        let base = chain(3);
        let relabeled = JoinQuery::new(
            base.relations().to_vec(),
            base.predicates()
                .iter()
                .map(|p| JoinPred {
                    key: KeyId(p.key.0 + 17),
                    ..*p
                })
                .collect(),
            base.required_order().map(|k| KeyId(k.0 + 17)),
        )
        .unwrap();
        assert_eq!(fingerprint(&base), fingerprint(&relabeled));
    }

    #[test]
    fn statistics_changes_change_fingerprint() {
        let q = chain(4);
        let mut rels = q.relations().to_vec();
        rels[2].pages += 1.0;
        let bumped = JoinQuery::new(rels, q.predicates().to_vec(), q.required_order()).unwrap();
        assert_ne!(fingerprint(&q), fingerprint(&bumped));

        let mut preds = q.predicates().to_vec();
        preds[0].selectivity *= 2.0;
        let shifted = JoinQuery::new(q.relations().to_vec(), preds, q.required_order()).unwrap();
        assert_ne!(fingerprint(&q), fingerprint(&shifted));

        let unordered =
            JoinQuery::new(q.relations().to_vec(), q.predicates().to_vec(), None).unwrap();
        assert_ne!(fingerprint(&q), fingerprint(&unordered));
    }

    #[test]
    fn names_do_not_affect_fingerprint() {
        let q = chain(3);
        let renamed = JoinQuery::new(
            q.relations()
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.name = format!("{}_renamed", r.name);
                    r
                })
                .collect(),
            q.predicates().to_vec(),
            q.required_order(),
        )
        .unwrap();
        assert_eq!(fingerprint(&q), fingerprint(&renamed));
    }

    #[test]
    fn plan_round_trips_through_canonical_numbering() {
        use lec_cost::JoinMethod;
        let q = chain(3);
        let canon = canonicalize(&q);
        // A plan in the original numbering.
        let original = Plan::sort(
            Plan::join(
                Plan::join(
                    Plan::scan(0),
                    Plan::scan(1),
                    JoinMethod::SortMerge,
                    Some(KeyId(0)),
                ),
                Plan::scan(2),
                JoinMethod::GraceHash,
                Some(KeyId(1)),
            ),
            KeyId(1),
        );
        let stored = canon.plan_to_canonical(&original);
        stored.validate(&canon.query).unwrap();
        let served = canon.plan_to_original(&stored);
        assert_eq!(served, original);
        served.validate(&q).unwrap();
    }

    #[test]
    fn canonical_forms_of_isomorphic_queries_are_identical() {
        let q = chain(4);
        let r = renumber(&q, &[3, 1, 0, 2], 2);
        let (cq, cr) = (canonicalize(&q), canonicalize(&r));
        assert_eq!(cq.query.predicates(), cr.query.predicates());
        assert_eq!(cq.query.required_order(), cr.query.required_order());
        for (a, b) in cq.query.relations().iter().zip(cr.query.relations()) {
            assert_eq!(a.pages, b.pages);
            assert_eq!(a.local_selectivity, b.local_selectivity);
        }
    }
}
