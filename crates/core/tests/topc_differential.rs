//! Differential battery for top-`c` enumeration (§3.3) and Algorithm B:
//! `topc::top_c_plans` and `alg_b::optimize` against a verbatim copy of
//! the stand-alone top-`c` DP (module `oracle` below, with both of its
//! merge strategies and the access/join/sort step helpers it called
//! inlined) and of Algorithm B running on it.
//!
//! Every case must agree with the oracle's frontier merge to the bit: the
//! plan sequence, each cost's `to_bits`, `combos_examined`, `combos_naive`
//! and every `SearchCounters` field. The oracle's naive (all-pairs) merge
//! must produce the same sorted cost vector, bit for bit (Proposition 3.1:
//! the frontier loses nothing). Algorithm B must agree on its winner,
//! its cost bits and its candidate and combination counts.
//!
//! Environments: seeded chain, star and cycle queries with n = 2–7, with
//! and without a required order, as generated and with a seeded subset of
//! relations filtered (half of them indexed, so the index path competes);
//! `c ∈ {1, 2, 3, 5, 8}`; four memory values.

use lec_core::topc::{self, TopCResult};
use lec_core::{alg_b, CoreError, MemoryModel, OptStats};
use lec_cost::PaperCostModel;
use lec_plan::{JoinPred, JoinQuery, KeyId};
use lec_workload::{envs, QueryGen, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Chain,
    Star,
    Cycle,
}

/// A seeded query of `shape`; a cycle is a chain closed by one more
/// predicate between its ends. With `filtered`, each relation gets a local
/// selection with probability ½, and each selection an index with
/// probability ½.
fn query(shape: Shape, n: usize, require_order: bool, filtered: bool, seed: u64) -> JoinQuery {
    let gen = QueryGen {
        topology: match shape {
            Shape::Chain | Shape::Cycle => Topology::Chain,
            Shape::Star => Topology::Star,
        },
        n,
        require_order,
        ..QueryGen::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let q = gen.generate(&mut rng);
    let mut predicates = q.predicates().to_vec();
    if matches!(shape, Shape::Cycle) && n >= 3 {
        let (first, last) = (q.relation(0).pages, q.relation(n - 1).pages);
        predicates.push(JoinPred {
            left: n - 1,
            right: 0,
            selectivity: 2.0 / first.max(last),
            key: KeyId(n - 1),
        });
    }
    let relations = q
        .relations()
        .iter()
        .map(|r| {
            if !filtered || !rng.gen::<bool>() {
                return r.clone();
            }
            let r = r
                .clone()
                .with_local_selectivity(0.05 + 0.9 * rng.gen::<f64>());
            if rng.gen::<bool>() {
                r.with_index()
            } else {
                r
            }
        })
        .collect();
    JoinQuery::new(relations, predicates, q.required_order()).expect("query")
}

const MEMORY: [f64; 4] = [12.0, 90.0, 700.0, 5000.0];
const CS: [usize; 5] = [1, 2, 3, 5, 8];

/// The top-`c` entry point under test.
fn top_c(q: &JoinQuery, memory: f64, c: usize) -> Result<(TopCResult, OptStats), CoreError> {
    topc::top_c_plans(q, &PaperCostModel, memory, c)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn costs(r: &TopCResult) -> Vec<u64> {
    bits(&r.plans.iter().map(|p| p.cost).collect::<Vec<_>>())
}

/// First difference between two top-`c` runs, if any.
fn diff(new: &(TopCResult, OptStats), old: &(TopCResult, OptStats)) -> Option<String> {
    let ((new, new_stats), (old, old_stats)) = (new, old);
    let plans = |r: &TopCResult| r.plans.iter().map(|p| p.plan.clone()).collect::<Vec<_>>();
    if plans(new) != plans(old) {
        return Some(format!("plans {:?} vs {:?}", plans(new), plans(old)));
    }
    if costs(new) != costs(old) {
        return Some("cost bits".into());
    }
    if (new.combos_examined, new.combos_naive) != (old.combos_examined, old.combos_naive) {
        return Some(format!(
            "combos {:?} vs {:?}",
            (new.combos_examined, new.combos_naive),
            (old.combos_examined, old.combos_naive)
        ));
    }
    if new_stats.counters != old_stats.counters {
        return Some(format!(
            "counters {:?} vs {:?}",
            new_stats.counters, old_stats.counters
        ));
    }
    (new_stats.algorithm != old_stats.algorithm
        || new_stats.relations != old_stats.relations
        || new_stats.rank_wall_ns.len() != old_stats.rank_wall_ns.len())
    .then(|| "stats record shape".into())
}

/// Compares top-`c` at every memory value and `c`, and Algorithm B over
/// two memory distributions; returns the number of cases checked.
fn check(q: &JoinQuery) -> Result<usize, String> {
    let model = PaperCostModel;
    let mut checked = 0;
    for memory in MEMORY {
        for c in CS {
            let new = top_c(q, memory, c).expect("top-c");
            let old = oracle::top_c_plans(q, &model, memory, c, oracle::MergeStrategy::Frontier)
                .expect("oracle");
            if let Some(d) = diff(&new, &old) {
                return Err(format!("M={memory} c={c}: {d}"));
            }
            let naive = oracle::top_c_plans(q, &model, memory, c, oracle::MergeStrategy::Naive)
                .expect("naive oracle");
            if costs(&new.0) != costs(&naive.0) {
                return Err(format!("M={memory} c={c}: naive merge's cost vector"));
            }
            checked += 1;
        }
    }
    for b in [1, 3] {
        let dist = envs::lognormal(300.0, 0.8, b);
        assert_eq!(dist.len(), b, "memory support");
        let mem = MemoryModel::Static(dist);
        for c in CS {
            let new = alg_b::optimize(q, &model, &mem, c).expect("alg B");
            let old = oracle::alg_b(q, &model, &mem, c).expect("oracle alg B");
            if new.best.plan != old.best.plan
                || new.best.cost.to_bits() != old.best.cost.to_bits()
                || new.candidates_evaluated != old.candidates_evaluated
                || new.combos_examined != old.combos_examined
                || new.combos_naive != old.combos_naive
            {
                return Err(format!("b={b} c={c}: algorithm B"));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

#[test]
fn top_c_matches_the_stand_alone_dp_bitwise() {
    let mut checked = 0;
    let mut seed = 0x70C_0000;
    for shape in [Shape::Chain, Shape::Star, Shape::Cycle] {
        for n in 2..=7 {
            for require_order in [false, true] {
                for filtered in [false, true] {
                    for _ in 0..2 {
                        seed += 1;
                        let q = query(shape, n, require_order, filtered, seed);
                        checked += check(&q).unwrap_or_else(|d| {
                            panic!(
                                "{shape:?} n={n} ordered={require_order} \
                                 filtered={filtered} seed={seed}: {d}"
                            )
                        });
                    }
                }
            }
        }
    }
    assert_eq!(
        checked,
        3 * 6 * 2 * 2 * 2 * (MEMORY.len() * CS.len() + 2 * CS.len())
    );
}

/// Verbatim copies of the stand-alone top-`c` DP (both merge strategies)
/// and of Algorithm B on top of it, with the step helpers inlined.
mod oracle {
    use lec_core::alg_b::AlgBResult;
    use lec_core::evaluate::expected_cost;
    use lec_core::par;
    use lec_core::topc::TopCResult;
    use lec_core::{CoreError, MemoryModel, OptStats, Optimized, QueryTables};
    use lec_cost::{AccessMethod, CostModel, JoinMethod};
    use lec_plan::{JoinQuery, Plan, RelSet, Relation};

    fn access_cost(rel: &Relation, method: AccessMethod, out_pages: f64) -> f64 {
        match method {
            AccessMethod::FullScan => {
                if rel.local_selectivity >= 1.0 {
                    0.0
                } else {
                    rel.pages + out_pages
                }
            }
            AccessMethod::IndexScan => 2.0 + 3.0 * out_pages,
        }
    }

    fn access_step(rel: &Relation, method: AccessMethod) -> (f64, f64) {
        let out = rel.effective_pages();
        (access_cost(rel, method, out), out)
    }

    fn access_choices(rel: &Relation) -> Vec<AccessMethod> {
        let mut v = vec![AccessMethod::FullScan];
        if rel.has_index && rel.local_selectivity < 1.0 {
            v.push(AccessMethod::IndexScan);
        }
        v
    }

    fn join_step<M: CostModel + ?Sized>(
        model: &M,
        method: JoinMethod,
        left_pages: f64,
        right_pages: f64,
        out_pages: f64,
        memory: f64,
    ) -> f64 {
        model.join_cost(method, left_pages, right_pages, memory) + out_pages
    }

    fn sort_step<M: CostModel + ?Sized>(model: &M, pages: f64, memory: f64) -> f64 {
        model.sort_cost(pages, memory) + pages
    }

    /// How to merge the sorted input lists.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum MergeStrategy {
        /// Proposition 3.1's frontier: only pairs with `i · k ≤ c` (1-indexed).
        Frontier,
        /// All `c · k` pairs (the naive reference).
        Naive,
    }

    #[derive(Debug, Clone)]
    struct TcEntry {
        cost: f64,
        plan: Plan,
    }

    /// The per-mask unit of work: every way of forming `set` by a last join,
    /// merged and truncated to the top `c`, with its combination counters
    /// (summed in mask order by the driver).
    struct MaskMerge {
        merged: Vec<TcEntry>,
        /// Full-set candidates whose final join already produces the required
        /// order (empty below the full set).
        ordered: Vec<TcEntry>,
        examined: u64,
        naive: u64,
    }

    #[allow(clippy::too_many_arguments)]
    fn merge_mask<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        tabs: &QueryTables,
        memory: f64,
        c: usize,
        strategy: MergeStrategy,
        table: &[Vec<TcEntry>],
        set: RelSet,
        full: RelSet,
    ) -> MaskMerge {
        let out = tabs.pages(set);
        let mut merged: Vec<TcEntry> = Vec::new();
        let mut ordered: Vec<TcEntry> = Vec::new();
        let mut examined = 0u64;
        let mut naive = 0u64;
        for j in set.iter() {
            let sub = set.remove(j);
            let left_out = tabs.pages(sub);
            let key = tabs.join_key(sub, j);
            let access = &table[RelSet::single(j).bits() as usize];
            let left_list = &table[sub.bits() as usize];
            if left_list.is_empty() {
                continue;
            }
            // Every access path of `j` emits the relation's effective pages.
            let acc_out = tabs.access(j).2;
            for method in JoinMethod::ALL {
                // One cost-formula evaluation per (j, method): identical for
                // every input combination.
                let step = join_step(model, method, left_out, acc_out, out, memory);
                naive += (left_list.len() * access.len()) as u64;
                for (k, acc) in access.iter().enumerate() {
                    for (i, left) in left_list.iter().enumerate() {
                        if strategy == MergeStrategy::Frontier && (i + 1) * (k + 1) > c {
                            break;
                        }
                        examined += 1;
                        let entry = TcEntry {
                            cost: left.cost + acc.cost + step,
                            plan: Plan::join(left.plan.clone(), acc.plan.clone(), method, key),
                        };
                        if set == full
                            && method == JoinMethod::SortMerge
                            && query.required_order().is_some()
                            && key == query.required_order()
                        {
                            ordered.push(entry.clone());
                        }
                        merged.push(entry);
                    }
                }
            }
        }
        merged.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        merged.truncate(c);
        MaskMerge {
            merged,
            ordered,
            examined,
            naive,
        }
    }

    fn validate_topc(memory: f64, c: usize) -> Result<(), CoreError> {
        if c == 0 {
            return Err(CoreError::BadParameter("top-c needs c >= 1".into()));
        }
        if !(memory.is_finite() && memory > 0.0) {
            return Err(CoreError::BadParameter(format!("bad memory {memory}")));
        }
        Ok(())
    }

    /// Depth 1: all access paths, sorted by cost (there are at most 2, so
    /// the top-c list is just all of them).
    fn seed_access_lists(query: &JoinQuery, c: usize, table: &mut [Vec<TcEntry>]) {
        for i in 0..query.n() {
            let rel = query.relation(i);
            let mut entries: Vec<TcEntry> = access_choices(rel)
                .into_iter()
                .map(|method| TcEntry {
                    cost: access_step(rel, method).0,
                    plan: Plan::Access { rel: i, method },
                })
                .collect();
            entries.sort_by(|a, b| a.cost.total_cmp(&b.cost));
            entries.truncate(c);
            table[RelSet::single(i).bits() as usize] = entries;
        }
    }

    /// Root handling: sort completion and the ordered candidate pool.
    #[allow(clippy::too_many_arguments)]
    fn finalize_topc<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        tabs: &QueryTables,
        memory: f64,
        c: usize,
        table: &[Vec<TcEntry>],
        mut ordered_roots: Vec<TcEntry>,
        combos_examined: u64,
        combos_naive: u64,
    ) -> Result<TopCResult, CoreError> {
        let full = query.all();
        let mut roots = table[full.bits() as usize].clone();
        if roots.is_empty() {
            return Err(CoreError::NoPlanFound);
        }
        // Complete plans that miss a required order with a root sort, then let
        // the naturally ordered candidates (final SM on the required key)
        // compete; without this second pool an ordered plan that ranks below
        // the unordered top-c could still beat every completed candidate.
        if let Some(required) = query.required_order() {
            for entry in &mut roots {
                if entry.plan.output_order() != Some(required) {
                    entry.cost += sort_step(model, tabs.pages(full), memory);
                    entry.plan =
                        Plan::sort(std::mem::replace(&mut entry.plan, Plan::scan(0)), required);
                }
            }
            ordered_roots.sort_by(|a, b| a.cost.total_cmp(&b.cost));
            ordered_roots.truncate(c);
            for candidate in ordered_roots {
                if !roots.iter().any(|r| r.plan == candidate.plan) {
                    roots.push(candidate);
                }
            }
            roots.sort_by(|a, b| a.cost.total_cmp(&b.cost));
            roots.truncate(c);
        }
        let plans: Vec<Optimized> = roots
            .into_iter()
            .map(|e| Optimized {
                plan: e.plan,
                cost: e.cost,
            })
            .collect();
        for p in &plans {
            lec_plan::verify_costs("top-c plan", &[p.cost])?;
            lec_core::verify::debug_verify_plan(query, &p.plan, p.cost);
        }
        Ok(TopCResult {
            plans,
            combos_examined,
            combos_naive,
        })
    }

    pub(crate) fn top_c_plans<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        memory: f64,
        c: usize,
        strategy: MergeStrategy,
    ) -> Result<(TopCResult, OptStats), CoreError> {
        validate_topc(memory, c)?;
        let n = query.n();
        let full = query.all();
        let tabs = QueryTables::new(query);
        let mut table: Vec<Vec<TcEntry>> = vec![Vec::new(); (full.bits() + 1) as usize];
        let mut combos_examined = 0u64;
        let mut combos_naive = 0u64;
        // Full-set candidates whose final join already produces the required
        // order: kept separately so sort completion competes fairly (same
        // two-way comparison the single-plan DP makes at the root).
        let mut ordered_roots: Vec<TcEntry> = Vec::new();

        seed_access_lists(query, c, &mut table);

        let mut stats = OptStats::new("topc", n);
        stats.precompute = tabs.sizes();
        stats.counters.entries_written = (0..n)
            .map(|i| table[RelSet::single(i).bits() as usize].len() as u64)
            .sum();

        let ranks = par::ranks(n);
        for rank in &ranks[1..] {
            let ((), elapsed) = par::timed(|| {
                for &set in rank {
                    let mut result =
                        merge_mask(query, model, &tabs, memory, c, strategy, &table, set, full);
                    combos_examined += result.examined;
                    combos_naive += result.naive;
                    ordered_roots.append(&mut result.ordered);
                    stats.counters.masks_expanded += 1;
                    stats.counters.candidates_priced += result.examined;
                    stats.counters.entries_written += result.merged.len() as u64;
                    table[set.bits() as usize] = result.merged;
                }
            });
            stats.rank_wall_ns.push(elapsed);
        }

        let result = finalize_topc(
            query,
            model,
            &tabs,
            memory,
            c,
            &table,
            ordered_roots,
            combos_examined,
            combos_naive,
        )?;
        Ok((result, stats))
    }

    /// Algorithm B on the oracle's frontier merge.
    pub(crate) fn alg_b<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        memory: &MemoryModel,
        c: usize,
    ) -> Result<AlgBResult, CoreError> {
        let initial = memory.initial_distribution()?;
        let phases = memory.table(query.n().max(2))?;
        let mut candidates: Vec<Optimized> = Vec::new();
        let mut combos_examined = 0;
        let mut combos_naive = 0;
        for &m_i in initial.values() {
            let res = top_c_plans(query, model, m_i, c, MergeStrategy::Frontier)?.0;
            combos_examined += res.combos_examined;
            combos_naive += res.combos_naive;
            for p in res.plans {
                if !candidates.iter().any(|q| q.plan == p.plan) {
                    candidates.push(p);
                }
            }
        }
        let n_candidates = candidates.len();
        let best = candidates
            .into_iter()
            .map(|cand| {
                let e = expected_cost(query, model, &cand.plan, &phases);
                Optimized {
                    plan: cand.plan,
                    cost: e,
                }
            })
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .ok_or(CoreError::NoPlanFound)?;
        lec_plan::verify_costs("algorithm B winner", &[best.cost])?;
        lec_core::verify::debug_verify_plan(query, &best.plan, best.cost);
        Ok(AlgBResult {
            best,
            candidates_evaluated: n_candidates,
            combos_examined,
            combos_naive,
        })
    }
}
