//! Differential battery for Algorithm D: the implementation on the shared
//! left-deep DP against a verbatim copy of its earlier stand-alone
//! implementation (module `oracle` below).
//!
//! The oracle prices [`PaperCostModel`] with the §3.6.1/3.6.2 fast kernels
//! and any other model with the naive triple loop, which is what each
//! model's [`CostModel::expected_join_dist`] computes. So for every case the
//! two must agree to the bit: the chosen plan, `best.cost`, the propagated
//! result-size distribution (values and probabilities), and the number of
//! size distributions. The shared DP bounds its search, so its counters
//! only account for the oracle's lattice: every mask the oracle expanded
//! is expanded or pruned.
//!
//! Cases: seeded `QueryGen` chain, star and clique queries with n = 2–7,
//! with and without a required order, under static and Markov-walk memory,
//! for both cost models and `size_buckets` ∈ {2, 8}.

use lec_core::alg_d::{self, AlgDConfig, SizeModel};
use lec_core::MemoryModel;
use lec_cost::{CostModel, DetailedCostModel, PaperCostModel};
use lec_plan::JoinQuery;
use lec_stats::{Distribution, MarkovChain};
use lec_workload::{envs, QueryGen, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The memory world of the cases: a 4-bucket lognormal (mean 300, cv 0.8),
/// held static or walked between phases.
fn memories() -> [MemoryModel; 2] {
    let d = envs::lognormal(300.0, 0.8, 4);
    let chain = MarkovChain::random_walk(d.values().to_vec(), 0.4).expect("valid walk");
    let dynamic = MemoryModel::dynamic(chain, d.probs().to_vec()).expect("matching initial");
    [MemoryModel::Static(d), dynamic]
}

fn query(topology: Topology, n: usize, require_order: bool, seed: u64) -> JoinQuery {
    let gen = QueryGen {
        topology,
        n,
        require_order,
        ..QueryGen::default()
    };
    gen.generate(&mut ChaCha8Rng::seed_from_u64(seed))
}

fn bits(d: &Distribution) -> (Vec<u64>, Vec<u64>) {
    (
        d.values().iter().map(|v| v.to_bits()).collect(),
        d.probs().iter().map(|p| p.to_bits()).collect(),
    )
}

/// Runs both implementations and asserts bit-identical results.
fn assert_matches_oracle<M: CostModel>(
    q: &JoinQuery,
    model: &M,
    pricing: oracle::Pricing,
    memory: &MemoryModel,
    sizes: &SizeModel,
    size_buckets: usize,
    label: &str,
) {
    let config = AlgDConfig { size_buckets };
    let (new, new_stats) = alg_d::optimize(q, model, memory, sizes, config).expect("alg_d");
    let old_config = oracle::AlgDConfig {
        size_buckets,
        kernel: pricing,
    };
    let (old, old_stats) = oracle::optimize(q, model, memory, sizes, old_config).expect("oracle");
    assert_eq!(new.best.plan, old.best.plan, "{label}: plan");
    assert_eq!(
        new.best.cost.to_bits(),
        old.best.cost.to_bits(),
        "{label}: cost {} vs oracle {}",
        new.best.cost,
        old.best.cost
    );
    assert_eq!(
        bits(&new.result_size),
        bits(&old.result_size),
        "{label}: result size"
    );
    assert_eq!(new_stats.algorithm, old_stats.algorithm, "{label}");
    // The shared DP bounds its search: every mask the oracle expanded is
    // expanded or pruned.
    let (new_c, old_c) = (&new_stats.counters, &old_stats.counters);
    assert_eq!(
        new_c.masks_expanded + new_c.masks_pruned,
        old_c.masks_expanded,
        "{label}: masks"
    );
    assert_eq!(
        new_c.entries_written,
        q.n() as u64 + new_c.masks_expanded,
        "{label}: entries"
    );
    assert_eq!(
        new_stats.precompute.pages_entries, old_stats.precompute.pages_entries,
        "{label}: size distributions"
    );
}

#[test]
fn shared_dp_matches_the_stand_alone_algorithm_d_bitwise() {
    let mut seed = 0xD0D0;
    for topology in [Topology::Chain, Topology::Star, Topology::Clique] {
        for n in 2..=7 {
            for require_order in [false, true] {
                seed += 1;
                let q = query(topology, n, require_order, seed);
                let sizes = SizeModel::with_uncertainty(&q, 0.5, 1.0, 4).expect("sizes");
                for (m, memory) in memories().iter().enumerate() {
                    for size_buckets in [2, 8] {
                        let label = format!(
                            "{topology:?} n={n} ordered={require_order} memory#{m} b={size_buckets}"
                        );
                        assert_matches_oracle(
                            &q,
                            &PaperCostModel,
                            oracle::Pricing::Fast,
                            memory,
                            &sizes,
                            size_buckets,
                            &format!("paper {label}"),
                        );
                        assert_matches_oracle(
                            &q,
                            &DetailedCostModel,
                            oracle::Pricing::Naive,
                            memory,
                            &sizes,
                            size_buckets,
                            &format!("detailed {label}"),
                        );
                    }
                }
            }
        }
    }
}

/// Regression: with the default configuration, a model other than the
/// paper's is priced through its own formulas (the naive loop), not the
/// paper's fast kernels. Fifty chain queries with n = 5, size cv 0.5 and
/// selectivity cv 1.0 in 4 buckets, under the lognormal memory.
#[test]
fn detailed_model_with_default_config_matches_naive_pricing() {
    let [memory, _] = memories();
    for seed in 0..50 {
        let q = query(Topology::Chain, 5, true, seed);
        let sizes = SizeModel::with_uncertainty(&q, 0.5, 1.0, 4).expect("sizes");
        let (new, _) = alg_d::optimize(
            &q,
            &DetailedCostModel,
            &memory,
            &sizes,
            AlgDConfig::default(),
        )
        .expect("alg_d");
        let naive = oracle::AlgDConfig {
            size_buckets: 8,
            kernel: oracle::Pricing::Naive,
        };
        let (old, _) =
            oracle::optimize(&q, &DetailedCostModel, &memory, &sizes, naive).expect("oracle");
        assert_eq!(new.best.plan, old.best.plan, "seed {seed}");
        assert_eq!(
            new.best.cost.to_bits(),
            old.best.cost.to_bits(),
            "seed {seed}"
        );
    }
}

mod oracle {
    //! Algorithm D as it stood before it ran on the shared left-deep DP,
    //! copied verbatim except for what living outside the crate needs:
    //! public-API imports, a local `access_choices`, crate-visible items, no lint
    //! pragmas, and the kernel switch renamed to `Pricing`.

    use lec_core::alg_d::SizeModel;
    use lec_core::dp::Optimized;
    use lec_core::env::{MemoryModel, PhaseDists};
    use lec_core::error::CoreError;
    use lec_core::par;
    use lec_core::stats::OptStats;
    use lec_cost::fast_expect::{expected_join_fast, expected_join_naive, expected_sort};
    use lec_cost::{AccessMethod, CostModel, JoinMethod};
    use lec_plan::{JoinQuery, KeyId, Plan, RelSet};
    use lec_stats::{rebucket, Distribution};

    fn access_choices(rel: &lec_plan::Relation) -> Vec<AccessMethod> {
        let mut v = vec![AccessMethod::FullScan];
        if rel.has_index && rel.local_selectivity < 1.0 {
            v.push(AccessMethod::IndexScan);
        }
        v
    }

    /// Which expected-cost computation to use at each node.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub(crate) enum Pricing {
        /// The §3.6.1/3.6.2 linear-time kernels. They encode the paper's
        /// formulas, so they are exact only when [`optimize`] is handed
        /// [`PaperCostModel`](lec_cost::PaperCostModel).
        #[default]
        Fast,
        /// The naive `O(b_M · b_B · b_A)` triple loop through the model's own
        /// formulas; works for any model.
        Naive,
    }

    /// Configuration for Algorithm D.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct AlgDConfig {
        /// Support-size cap `b` for propagated result-size distributions
        /// (§3.6.3 rebucketing).
        pub(crate) size_buckets: usize,
        /// Expected-cost kernel.
        pub(crate) kernel: Pricing,
    }

    impl Default for AlgDConfig {
        fn default() -> Self {
            Self {
                size_buckets: 8,
                kernel: Pricing::Fast,
            }
        }
    }

    /// Result of Algorithm D.
    #[derive(Debug, Clone)]
    pub(crate) struct AlgDResult {
        /// The chosen plan and its expected cost.
        pub(crate) best: Optimized,
        /// The propagated distribution of the final result size (pages).
        pub(crate) result_size: Distribution,
    }

    /// Runs Algorithm D, returning the winner, its propagated result-size
    /// distribution, and the search-space [`OptStats`]
    /// (`precompute.pages_entries` counts the result-size distributions
    /// materialized — Algorithm D's analog of the pages table).
    ///
    /// `config.kernel` picks the expected-cost computation: `Pricing::Fast`
    /// hard-codes the paper formulas, so any other `model` needs
    /// `Pricing::Naive`. The root sort is priced through `model` either way.
    ///
    /// The sweep walks the lattice rank by rank (a valid DP order,
    /// bit-identical to the flat numeric sweep) so per-rank wall time can be
    /// recorded; within a rank each mask computes its result-size distribution
    /// and then its join costing, in increasing numeric mask order.
    pub(crate) fn optimize<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        memory: &MemoryModel,
        sizes: &SizeModel,
        config: AlgDConfig,
    ) -> Result<(AlgDResult, OptStats), CoreError> {
        validate_inputs(query, sizes, &config)?;
        let n = query.n();
        let full = query.all();
        let phases = memory.table(n.max(2))?;
        let slots = (full.bits() + 1) as usize;
        let mut table: Vec<Option<Entry>> = vec![None; slots];
        let mut size_of: Vec<Option<Distribution>> = vec![None; slots];

        let access = AccessTable::new(query, sizes);
        seed_depth_one(query, sizes, &access, &mut table, &mut size_of);

        let required = query.required_order();
        let mut best_ordered: Option<Entry> = None;

        let mut stats = OptStats::new("alg_d", n);
        stats.precompute.access_entries = access.best.len();
        stats.precompute.pages_entries = n; // singleton size distributions
        stats.counters.entries_written = n as u64;

        let ranks = par::ranks(n);
        for rank in &ranks[1..] {
            let (result, elapsed) = par::timed(|| -> Result<(), CoreError> {
                for &set in rank {
                    let idx = set.bits() as usize;
                    size_of[idx] = Some(node_size_dist(query, sizes, config, &size_of, set)?);
                    let (best, ordered, candidates) = cost_mask_d(
                        query, model, sizes, config, &access, &phases, &table, &size_of, set, full,
                        required,
                    );
                    table[idx] = Some(best);
                    if let Some(ord) = ordered {
                        best_ordered = Some(ord);
                    }
                    stats.counters.masks_expanded += 1;
                    stats.counters.candidates_priced += candidates;
                    stats.counters.entries_written += 1;
                    stats.precompute.pages_entries += 1;
                }
                Ok(())
            });
            result?;
            stats.rank_wall_ns.push(elapsed);
        }

        let best = finalize_d(
            query,
            model,
            &access,
            &phases,
            &table,
            &size_of,
            best_ordered,
        )?;
        Ok((best, stats))
    }

    #[derive(Debug, Clone, Copy)]
    enum Choice {
        Access(AccessMethod),
        Join { last: usize, method: JoinMethod },
    }

    #[derive(Debug, Clone, Copy)]
    struct Entry {
        cost: f64,
        choice: Choice,
    }

    /// Per-query state Algorithm D previously recomputed per `(set, j)` visit:
    /// the best expected access path of each relation, hoisted out of the
    /// inner loop (computed once, like the other memoization tables).
    struct AccessTable {
        best: Vec<(f64, AccessMethod)>,
    }

    impl AccessTable {
        fn new(query: &JoinQuery, sizes: &SizeModel) -> Self {
            let best = (0..query.n())
                .map(|i| {
                    let rel = query.relation(i);
                    access_choices(rel)
                        .into_iter()
                        .map(|m| (expected_access_cost(rel, m, &sizes.rel_sizes[i]), m))
                        .min_by(|a, b| a.0.total_cmp(&b.0))
                        .expect("at least the full scan")
                })
                .collect();
            AccessTable { best }
        }
    }

    fn validate_inputs(
        query: &JoinQuery,
        sizes: &SizeModel,
        config: &AlgDConfig,
    ) -> Result<(), CoreError> {
        if config.size_buckets == 0 {
            return Err(CoreError::BadParameter("size_buckets must be >= 1".into()));
        }
        if sizes.rel_sizes.len() != query.n()
            || sizes.selectivities.len() != query.predicates().len()
        {
            return Err(CoreError::BadParameter(
                "size model does not match the query".into(),
            ));
        }
        Ok(())
    }

    /// Result-size distribution of a dag node: computed once per node, from
    /// the lowest member as the designated `j` (any choice is equivalent).
    ///
    /// Every independent product is rebucketed back to `size_buckets`
    /// points at once (§3.6.3).
    fn node_size_dist(
        query: &JoinQuery,
        sizes: &SizeModel,
        config: AlgDConfig,
        size_of: &[Option<Distribution>],
        set: RelSet,
    ) -> Result<Distribution, CoreError> {
        let j = set.iter().next().expect("non-empty");
        let sub = set.remove(j);
        let sub_dist = size_of[sub.bits() as usize]
            .as_ref()
            .expect("subset computed earlier");
        let j_dist = &sizes.rel_sizes[j];
        let mut dist = rebucket(
            &sub_dist.product_with(j_dist, |a, b| a * b)?,
            config.size_buckets,
        )?;
        for (pidx, pred) in query.predicates().iter().enumerate() {
            let crosses = (sub.contains(pred.left) && j == pred.right)
                || (sub.contains(pred.right) && j == pred.left);
            if crosses {
                dist = rebucket(
                    &dist.product_with(&sizes.selectivities[pidx], |s, sel| s * sel)?,
                    config.size_buckets,
                )?;
            }
        }
        Ok(dist.map(|v| v.max(1.0))?)
    }

    /// Prices every way of forming `set` by a last join, against the filled
    /// lower-depth tables.
    #[allow(clippy::too_many_arguments)]
    fn cost_mask_d<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        sizes: &SizeModel,
        config: AlgDConfig,
        access: &AccessTable,
        phases: &PhaseDists,
        table: &[Option<Entry>],
        size_of: &[Option<Distribution>],
        set: RelSet,
        full: RelSet,
        required: Option<KeyId>,
    ) -> (Entry, Option<Entry>, u64) {
        let phase = set.len() - 2;
        let mem_dist = phases.at(phase);
        let e_out = size_of[set.bits() as usize]
            .as_ref()
            .expect("node size computed earlier")
            .mean();

        let mut best: Option<Entry> = None;
        let mut best_ordered: Option<Entry> = None;
        let mut candidates = 0u64;
        for j in set.iter() {
            let sub = set.remove(j);
            let left = table[sub.bits() as usize].expect("subset computed earlier");
            let left_dist = size_of[sub.bits() as usize]
                .as_ref()
                .expect("subset computed earlier");
            let j_dist = &sizes.rel_sizes[j];
            let acc_cost = access.best[j].0;
            let key = query.join_key_between(sub, RelSet::single(j));
            for method in JoinMethod::ALL {
                let e_join = match config.kernel {
                    Pricing::Fast => expected_join_fast(method, left_dist, j_dist, mem_dist),
                    Pricing::Naive => {
                        expected_join_naive(model, method, left_dist, j_dist, mem_dist)
                    }
                };
                let cost = left.cost + acc_cost + e_join + e_out;
                candidates += 1;
                let entry = Entry {
                    cost,
                    choice: Choice::Join { last: j, method },
                };
                if best.is_none_or(|b| cost < b.cost) {
                    best = Some(entry);
                }
                if set == full
                    && method == JoinMethod::SortMerge
                    && required.is_some()
                    && key == required
                    && best_ordered.is_none_or(|b| cost < b.cost)
                {
                    best_ordered = Some(entry);
                }
            }
        }
        (
            best.expect("set has at least two members"),
            best_ordered,
            candidates,
        )
    }

    fn seed_depth_one(
        query: &JoinQuery,
        sizes: &SizeModel,
        access: &AccessTable,
        table: &mut [Option<Entry>],
        size_of: &mut [Option<Distribution>],
    ) {
        for i in 0..query.n() {
            let (cost, method) = access.best[i];
            let idx = RelSet::single(i).bits() as usize;
            table[idx] = Some(Entry {
                cost,
                choice: Choice::Access(method),
            });
            size_of[idx] = Some(sizes.rel_sizes[i].clone());
        }
    }

    fn finalize_d<M: CostModel + ?Sized>(
        query: &JoinQuery,
        model: &M,
        access: &AccessTable,
        phases: &PhaseDists,
        table: &[Option<Entry>],
        size_of: &[Option<Distribution>],
        best_ordered: Option<Entry>,
    ) -> Result<AlgDResult, CoreError> {
        let n = query.n();
        let full = query.all();
        let root = table[full.bits() as usize].ok_or(CoreError::NoPlanFound)?;
        let result_size = size_of[full.bits() as usize]
            .clone()
            .ok_or(CoreError::NoPlanFound)?;

        let best = if let Some(key) = query.required_order() {
            let sort_phase = n.saturating_sub(1);
            let e_sort =
                expected_sort(model, &result_size, phases.at(sort_phase)) + result_size.mean();
            let sorted_cost = root.cost + e_sort;
            match best_ordered {
                Some(ord) if ord.cost <= sorted_cost => Optimized {
                    plan: reconstruct(query, access, table, full, Some(ord)),
                    cost: ord.cost,
                },
                _ => Optimized {
                    plan: Plan::sort(reconstruct(query, access, table, full, None), key),
                    cost: sorted_cost,
                },
            }
        } else {
            Optimized {
                plan: reconstruct(query, access, table, full, None),
                cost: root.cost,
            }
        };

        lec_core::verify::debug_verify_plan(query, &best.plan, best.cost);
        Ok(AlgDResult { best, result_size })
    }

    /// Expected access cost when the effective size is a distribution.
    fn expected_access_cost(
        rel: &lec_plan::Relation,
        method: AccessMethod,
        size: &Distribution,
    ) -> f64 {
        match method {
            AccessMethod::FullScan => {
                if rel.local_selectivity >= 1.0 {
                    0.0
                } else {
                    rel.pages + size.mean()
                }
            }
            AccessMethod::IndexScan => 2.0 + 3.0 * size.mean(),
        }
    }

    fn reconstruct(
        query: &JoinQuery,
        access: &AccessTable,
        table: &[Option<Entry>],
        set: RelSet,
        override_root: Option<Entry>,
    ) -> Plan {
        let entry =
            override_root.unwrap_or_else(|| table[set.bits() as usize].expect("entry exists"));
        match entry.choice {
            Choice::Access(method) => Plan::Access {
                rel: set.iter().next().expect("singleton"),
                method,
            },
            Choice::Join { last, method } => {
                let sub = set.remove(last);
                let left = reconstruct(query, access, table, sub, None);
                let key = query.join_key_between(sub, RelSet::single(last));
                Plan::join(
                    left,
                    Plan::Access {
                        rel: last,
                        method: access.best[last].1,
                    },
                    method,
                    key,
                )
            }
        }
    }
}
