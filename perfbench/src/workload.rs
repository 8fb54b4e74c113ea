//! Seeded workload generation: catalogs, query classes, the Zipf class
//! sampler, the request stream and the truth-swap schedule. Everything here
//! is a pure function of the workload spec and the seed; the program under
//! test only ever sees the catalogs and `QueryRequest`s built from it.

use lec_catalog::synthetic::zipf_masses;
use lec_catalog::{Catalog, ColumnMeta, Histogram, TableMeta};
use lec_exec::PAGE_CAPACITY;
use lec_serve::QueryRequest;
use lec_workload::from_catalog::{query_from_catalog, FilterSpec, JoinSpec};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Join-graph shape of a query class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Chain,
    Star,
    Cycle,
}

/// The catalog and class parameters of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Tables in the catalog, `t00 …`.
    pub tables: usize,
    /// Distinct query classes (pairwise non-isomorphic).
    pub classes: usize,
    /// Relations per class, inclusive range.
    pub n: (usize, usize),
    /// Join shapes classes are drawn from.
    pub shapes: &'static [Shape],
    /// Tables a class's filter may sit on (the first `filter_tables` of
    /// the catalog); 0 means the classes carry no filter.
    pub filter_tables: usize,
    /// Zipf skew of class popularity. At 0 the stream is a shuffled deck
    /// that holds every class equally often.
    pub zipf_theta: f64,
    /// When positive, classes are dealt evenly over this many plan-cache
    /// shards (by the fingerprint routing `lec_serve::cache::shard_of`
    /// uses), so a sharded tier's workers get equal shares whatever the
    /// seed.
    pub balance_shards: usize,
}

/// Per-bucket mass of the filter column `v` over `[0, 100]` (8 buckets).
pub type Profile = [f64; 8];

/// Uniform `v`: what beliefs start with, and the truth of quiet workloads.
pub const UNIFORM: Profile = [0.125; 8];
/// Mass piled onto the low buckets, where every filter range starts: a
/// filter passes well over the rows a uniform belief predicts.
pub const HOT: Profile = [0.70, 0.10, 0.04, 0.04, 0.03, 0.03, 0.03, 0.03];

/// Pages per table.
const PAGES: u64 = 6;

/// Filter ranges over `v`; every one starts at 0 so [`HOT`] moves them all.
/// At least a quarter of the rows pass, so the observed selectivities of a
/// quiet stream stay close to their estimates.
const FILTER_RANGES: [(f64, f64); 3] = [(0.0, 25.0), (0.0, 37.5), (0.0, 50.0)];

pub fn table_name(i: usize) -> String {
    format!("t{i:02}")
}

/// The histogram of `v` realizing `profile` from an 800-value sample.
pub fn v_histogram(profile: &Profile) -> Histogram {
    let values: Vec<f64> = profile
        .iter()
        .enumerate()
        .flat_map(|(b, &mass)| {
            let n = (mass * 800.0).round() as usize;
            (0..n).map(move |i| b as f64 * 12.5 + 12.5 * (i as f64 + 0.5) / n.max(1) as f64)
        })
        .collect();
    Histogram::equi_width(&values, 8).expect("profiles carry positive mass")
}

/// `tables` tables with pairwise-distinct join-key domains (so classes
/// over different tables are non-isomorphic) and a uniform filter column
/// `v`. Every table has [`PAGES`] pages; its key domain exceeds its row
/// count by an offset under 64 that the seed deals out from a fixed
/// ladder, so every seed builds a catalog of the same make-up. The offset
/// keeps each domain unique and every join's output near its inputs' size,
/// however long the chain. The join key is each table's
/// first column, the convention the serving layer's data generator
/// follows.
pub fn catalog(tables: usize, seed: u64) -> Catalog {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCA7A);
    let offsets = shuffled(tables, &mut rng);
    assert!(
        tables <= PAGE_CAPACITY,
        "domain offsets must stay below a page"
    );
    let mut c = Catalog::new();
    for (i, offset) in offsets.into_iter().enumerate() {
        let distinct = PAGES * PAGE_CAPACITY as u64 + offset as u64;
        c.register(
            TableMeta::new(table_name(i), PAGES * PAGE_CAPACITY as u64, PAGES)
                .expect("positive rows and pages")
                .with_column(ColumnMeta::new("k", distinct, 0.0, (distinct - 1) as f64))
                .with_column(
                    ColumnMeta::new("v", 800, 0.0, 100.0).with_histogram(v_histogram(&UNIFORM)),
                ),
        )
        .expect("table names are fresh");
    }
    c
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn shuffled(n: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// Replaces the `v` histogram of table `table` in `catalog`.
pub fn set_profile(catalog: &mut Catalog, table: usize, profile: &Profile) {
    let meta = catalog
        .table_mut(&table_name(table))
        .expect("swap targets are catalog tables");
    let col = meta
        .columns
        .iter_mut()
        .find(|c| c.name == "v")
        .expect("every table has a filter column");
    *col = ColumnMeta::new("v", 800, 0.0, 100.0).with_histogram(v_histogram(profile));
}

fn request(tables: &[usize], shape: Shape, filter: Option<(usize, (f64, f64))>) -> QueryRequest {
    let names: Vec<String> = tables.iter().map(|&t| table_name(t)).collect();
    let join = |a: usize, b: usize| JoinSpec {
        left_table: names[a].clone(),
        left_column: "k".into(),
        right_table: names[b].clone(),
        right_column: "k".into(),
    };
    let n = names.len();
    let mut joins: Vec<JoinSpec> = match shape {
        Shape::Chain | Shape::Cycle => (0..n - 1).map(|j| join(j, j + 1)).collect(),
        Shape::Star => (1..n).map(|j| join(0, j)).collect(),
    };
    if shape == Shape::Cycle {
        joins.push(join(n - 1, 0));
    }
    let filters = filter
        .map(|(pos, (lo, hi))| FilterSpec {
            table: names[pos].clone(),
            column: "v".into(),
            lo,
            hi,
            indexed: false,
        })
        .into_iter()
        .collect();
    QueryRequest {
        tables: names,
        joins,
        filters,
        order_by: None,
    }
}

/// `spec.classes` pairwise non-isomorphic request classes over `catalog`.
/// Class `r`'s make-up is fixed by its popularity rank — relation count
/// `n.0 + r mod span`, shape, filter range and filter table cycle through
/// their lists — and the seed picks which tables fill it, so every seed's
/// popular classes do the same kind of work. Isomorphism is judged by the
/// canonical fingerprint the plan cache keys on; a duplicate, or a class
/// whose shard already holds its share, is redrawn.
pub fn classes(spec: &Spec, catalog: &Catalog, seed: u64) -> Vec<QueryRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC1A5);
    let mut seen = BTreeSet::new();
    let mut per_shard = vec![0; spec.balance_shards];
    let share = spec.classes.div_ceil(spec.balance_shards.max(1));
    let mut out = Vec::with_capacity(spec.classes);
    let span = spec.n.1 - spec.n.0 + 1;
    let mut draws = 0;
    while out.len() < spec.classes {
        draws += 1;
        assert!(
            draws < 100 * spec.classes,
            "class space too small for the spec"
        );
        let r = out.len();
        let n = spec.n.0 + r % span;
        let shape = spec.shapes[(r / span) % spec.shapes.len()];
        // The first `n` of a seeded shuffle of the tables.
        let mut tables = shuffled(spec.tables, &mut rng)[..n].to_vec();
        let filter = (spec.filter_tables > 0).then(|| {
            // The class's filter table joins it at a seeded position.
            let ft = r % spec.filter_tables;
            if !tables.contains(&ft) {
                tables[0] = ft;
            }
            let to = rng.gen_range(0..n);
            let from = tables.iter().position(|&t| t == ft).expect("just placed");
            tables.swap(from, to);
            (to, FILTER_RANGES[r % FILTER_RANGES.len()])
        });
        let req = request(&tables, shape, filter);
        let names: Vec<&str> = req.tables.iter().map(String::as_str).collect();
        let query = query_from_catalog(catalog, &names, &req.joins, &req.filters, None)
            .expect("generated classes reference catalog tables");
        let fp = lec_plan::canonicalize(&query).fingerprint;
        if spec.balance_shards > 0 {
            let shard = lec_serve::cache::shard_of(&fp, spec.balance_shards);
            if per_shard[shard] == share {
                continue;
            }
            if !seen.contains(fp.encoding()) {
                per_shard[shard] += 1;
            }
        }
        if seen.insert(fp.encoding().to_vec()) {
            out.push(req);
        }
    }
    out
}

/// Draws class indices with Zipf(`theta`) popularity: class `r` has mass
/// `∝ (r+1)^-theta`, via inverse-CDF lookup on one uniform draw.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut acc = 0.0;
        let cdf = zipf_masses(n, theta)
            .into_iter()
            .map(|m| {
                acc += m;
                acc
            })
            .collect();
        ZipfSampler { cdf }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Distinct class make-ups (relation count × shape). Class `r`'s make-up
/// is `r % make_ups(spec)` (see [`classes`]).
pub fn make_ups(spec: &Spec) -> usize {
    (spec.n.1 - spec.n.0 + 1) * spec.shapes.len()
}

/// `len` class indices drawn from `seed`: Zipf draws, or for uniform
/// popularity a deck dealing every class `len / classes` times (the
/// remainder to the first classes). The deck is sorted into one pile per
/// make-up, each pile shuffled, and dealt one card from each pile in turn,
/// so every run of consecutive requests, and so every batch, holds the
/// make-ups in near-equal shares whatever the seed.
pub fn stream(spec: &Spec, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57EA);
    if spec.zipf_theta == 0.0 {
        let m = make_ups(spec);
        let mut piles: Vec<Vec<usize>> = (0..m)
            .map(|u| {
                let pile: Vec<usize> = (0..len)
                    .map(|i| i % spec.classes)
                    .filter(|c| c % m == u)
                    .collect();
                shuffled(pile.len(), &mut rng)
                    .into_iter()
                    .map(|i| pile[i])
                    .collect()
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            out.extend(piles.iter_mut().filter_map(Vec::pop));
        }
        return out;
    }
    let sampler = ZipfSampler::new(spec.classes, spec.zipf_theta);
    (0..len).map(|_| sampler.sample(&mut rng)).collect()
}

/// Truth swaps for a drifting stream of `len` requests: before request
/// `k · period` (k ≥ 1) the next of the first `filter_tables` tables, in a
/// seeded round-robin order, toggles its true `v` profile between
/// [`UNIFORM`] and [`HOT`]. Every table therefore spends the same share of
/// the stream hot whatever the seed. Returns `(request index, table, new
/// profile)`.
pub fn swap_schedule(
    len: usize,
    period: usize,
    filter_tables: usize,
    seed: u64,
) -> Vec<(usize, usize, Profile)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A4F);
    let order = shuffled(filter_tables, &mut rng);
    let mut hot = vec![false; filter_tables];
    (1..)
        .map(|k| (k, k * period))
        .take_while(|&(_, at)| at < len)
        .map(|(k, at)| {
            let table = order[(k - 1) % filter_tables];
            hot[table] = !hot[table];
            (at, table, if hot[table] { HOT } else { UNIFORM })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec {
            tables: 12,
            classes: 10,
            n: (3, 5),
            shapes: &[Shape::Chain, Shape::Star, Shape::Cycle],
            filter_tables: 3,
            zipf_theta: 1.0,
            balance_shards: 0,
        }
    }

    #[test]
    fn zipf_sampler_is_deterministic_in_the_seed_and_skewed() {
        let s = spec();
        assert_eq!(stream(&s, 500, 7), stream(&s, 500, 7));
        assert_ne!(stream(&s, 500, 7), stream(&s, 500, 8));
        let draws = stream(&s, 4000, 7);
        assert!(draws.iter().all(|&c| c < s.classes));
        let count = |c: usize| draws.iter().filter(|&&d| d == c).count();
        // Mass ∝ 1/(r+1): the head class is drawn far more than the tail.
        assert!(count(0) > 3 * count(s.classes - 1));
        // Uniform popularity is a deck: every class equally often.
        let flat = Spec {
            zipf_theta: 0.0,
            ..s
        };
        let uniform = stream(&flat, 40, 7);
        assert!((0..flat.classes).all(|c| uniform.iter().filter(|&&d| d == c).count() == 4));
        assert_ne!(uniform, stream(&flat, 40, 8));
        assert_eq!(uniform, stream(&flat, 40, 7));
    }

    #[test]
    fn a_uniform_deck_deals_the_make_ups_in_turn() {
        // 9 make-ups (3 sizes × 3 shapes), 20 classes dealt 3 times: the
        // piles of make-ups 0 and 1 hold 9 cards, the others 6.
        let s = Spec {
            classes: 20,
            zipf_theta: 0.0,
            ..spec()
        };
        assert_eq!(make_ups(&s), 9);
        let deck = stream(&s, 60, 3);
        assert_eq!(deck.len(), 60);
        assert!((0..s.classes).all(|c| deck.iter().filter(|&&d| d == c).count() == 3));
        // While every pile lasts, each run of 9 holds every make-up once.
        for run in deck[..54].chunks(9) {
            let mut u: Vec<usize> = run.iter().map(|c| c % 9).collect();
            u.sort_unstable();
            assert_eq!(u, (0..9).collect::<Vec<_>>());
        }
        assert_ne!(deck, stream(&s, 60, 4));
    }

    #[test]
    fn classes_can_be_dealt_evenly_over_shards() {
        let s = Spec {
            balance_shards: 4,
            classes: 12,
            ..spec()
        };
        let c = catalog(s.tables, 5);
        let mut per_shard = [0; 4];
        for req in classes(&s, &c, 5) {
            let names: Vec<&str> = req.tables.iter().map(String::as_str).collect();
            let q = query_from_catalog(&c, &names, &req.joins, &req.filters, None).unwrap();
            per_shard[lec_serve::cache::shard_of(&lec_plan::canonicalize(&q).fingerprint, 4)] += 1;
        }
        assert_eq!(per_shard, [3; 4]);
    }

    #[test]
    fn sampler_inverts_the_cdf() {
        struct Fixed(u64);
        impl rand::RngCore for Fixed {
            fn next_u32(&mut self) -> u32 {
                self.0 as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        let z = ZipfSampler::new(4, 0.0);
        assert_eq!(z.sample(&mut Fixed(0)), 0);
        assert_eq!(z.sample(&mut Fixed(u64::MAX)), 3);
        assert_eq!(z.sample(&mut Fixed((0.6 * 2f64.powi(64)) as u64)), 2);
    }

    #[test]
    fn swap_schedule_is_deterministic_and_toggles() {
        let a = swap_schedule(200, 25, 3, 11);
        assert_eq!(a, swap_schedule(200, 25, 3, 11));
        assert_eq!(a.len(), 7);
        assert!(a.iter().enumerate().all(|(k, s)| s.0 == (k + 1) * 25));
        // Each table alternates HOT, UNIFORM, HOT, … from its first swap.
        for t in 0..3 {
            let profiles: Vec<Profile> = a.iter().filter(|s| s.1 == t).map(|s| s.2).collect();
            for (i, p) in profiles.iter().enumerate() {
                assert_eq!(*p, if i % 2 == 0 { HOT } else { UNIFORM });
            }
        }
        // Round-robin: every window of 3 consecutive swaps covers all tables.
        for w in a.windows(3) {
            let mut t: Vec<usize> = w.iter().map(|s| s.1).collect();
            t.sort_unstable();
            assert_eq!(t, vec![0, 1, 2]);
        }
        let order = |seed| {
            (1..20u64)
                .map(|seed_off| swap_schedule(100, 25, 3, seed + seed_off)[0].1)
                .collect::<Vec<_>>()
        };
        assert_ne!(
            order(0).iter().min(),
            order(0).iter().max(),
            "the seed picks the order"
        );
    }

    #[test]
    fn classes_are_deterministic_and_non_isomorphic() {
        let s = spec();
        let c = catalog(s.tables, 3);
        assert_eq!(c, catalog(s.tables, 3));
        let a = classes(&s, &c, 3);
        let b = classes(&s, &c, 3);
        assert_eq!(a.len(), s.classes);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        for (r, req) in a.iter().enumerate() {
            // The make-up follows the rank; the seed only picks tables.
            assert_eq!(req.tables.len(), 3 + r % 3);
            assert_eq!(req.filters.len(), 1);
            assert_eq!(req.filters[0].table, table_name(r % 3));
            assert!(req.tables.contains(&req.filters[0].table));
        }
        let other = classes(&s, &catalog(s.tables, 4), 4);
        assert_ne!(format!("{a:?}"), format!("{other:?}"));
    }
}
