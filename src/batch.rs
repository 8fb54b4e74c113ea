//! Batch optimization: many queries across one thread pool.
//!
//! Every optimizer in `lec-core` is a serial dynamic program; a rank-parallel
//! wavefront inside one query never beat it (EXPERIMENTS.md X18). Queries
//! are independent, though, so a batch parallelizes perfectly — each worker
//! runs the ordinary serial optimizer on its own slice of queries.
//! [`BatchOptimizer`] does exactly that on scoped `std::thread` workers and
//! returns results in input order, so `optimize_all(qs).0[i]` always
//! corresponds to `qs[i]`.

use lec_core::alg_c;
use lec_core::dp::{DpOptions, Optimized};
use lec_core::par::{map_indexed, Parallelism};
use lec_core::{CoreError, MemoryModel, OptStats};
use lec_cost::CostModel;
use lec_plan::fingerprint::canonicalize;
use lec_plan::JoinQuery;
use std::collections::HashMap;

/// Optimizes slices of queries across a thread pool.
///
/// # Examples
///
/// ```
/// use lecopt::BatchOptimizer;
/// use lecopt::core::{MemoryModel, Parallelism};
/// use lecopt::cost::PaperCostModel;
/// use lecopt::stats::Distribution;
/// use lecopt::workload::queries::example_1_1;
///
/// let memory = MemoryModel::Static(Distribution::new([(700.0, 0.2), (2000.0, 0.8)])?);
/// let batch = BatchOptimizer::new(&PaperCostModel, &memory);
/// let queries = vec![example_1_1(), example_1_1()];
/// let (results, stats) = batch.optimize_all(&queries);
/// assert_eq!(results.len(), 2);
/// assert!(stats.counters.candidates_priced > 0);
/// assert!(results[0].as_ref().unwrap().cost > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BatchOptimizer<'a, M: CostModel + Sync + ?Sized> {
    model: &'a M,
    memory: &'a MemoryModel,
    options: DpOptions,
    par: Parallelism,
}

impl<'a, M: CostModel + Sync + ?Sized> BatchOptimizer<'a, M> {
    /// A batch optimizer with auto-detected parallelism and default DP
    /// options.
    pub fn new(model: &'a M, memory: &'a MemoryModel) -> Self {
        BatchOptimizer {
            model,
            memory,
            options: DpOptions::default(),
            par: Parallelism::auto(),
        }
    }

    /// Overrides the thread configuration ([`Parallelism::serial`] gives a
    /// deterministic single-threaded reference run — results are identical
    /// either way, only scheduling changes).
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Overrides the DP options applied to every query.
    pub fn with_options(mut self, options: DpOptions) -> Self {
        self.options = options;
        self
    }

    /// Optimizes every query with Algorithm C (the LEC left-deep DP),
    /// fanning the batch out across the thread pool. `results[i]`
    /// corresponds to `queries[i]`. The aggregate [`OptStats`] folds the
    /// per-query search counters together with [`OptStats::absorb`] in
    /// input order, so it is deterministic regardless of the thread count
    /// (queries that fail contribute nothing); `relations` holds the
    /// largest query in the batch.
    pub fn optimize_all(
        &self,
        queries: &[JoinQuery],
    ) -> (Vec<Result<Optimized, CoreError>>, OptStats) {
        let runs = map_indexed(&self.par, queries.len(), |i| {
            alg_c::optimize(&queries[i], self.model, self.memory, self.options)
        });
        let mut aggregate = OptStats::new("batch", 0);
        let results = runs
            .into_iter()
            .map(|run| {
                run.map(|(opt, stats)| {
                    aggregate.absorb(&stats);
                    opt
                })
            })
            .collect();
        (results, aggregate)
    }

    /// [`optimize_all`](Self::optimize_all) with isomorphism
    /// deduplication: queries are grouped by canonical
    /// fingerprint ([`lec_plan::fingerprint`]), the optimizer runs once per
    /// equivalence class (on the *canonical* form), and each member's plan
    /// is recovered by renumbering the class plan back into that member's
    /// own relation/key numbering. Members of one class therefore share a
    /// bit-identical expected cost. Returns `(results, stats, classes)`
    /// where `classes` is the number of distinct optimizer runs; the stats
    /// aggregate covers only those runs — the whole point is that it grows
    /// with the class count, not the batch size.
    pub fn optimize_all_deduped(
        &self,
        queries: &[JoinQuery],
    ) -> (Vec<Result<Optimized, CoreError>>, OptStats, usize) {
        let canons: Vec<_> = queries.iter().map(canonicalize).collect();
        let mut class_of = Vec::with_capacity(queries.len());
        let mut reps: Vec<usize> = Vec::new();
        let mut index: HashMap<&[u8], usize> = HashMap::new();
        for (i, c) in canons.iter().enumerate() {
            let class = *index.entry(c.fingerprint.encoding()).or_insert_with(|| {
                reps.push(i);
                reps.len() - 1
            });
            class_of.push(class);
        }

        let runs = map_indexed(&self.par, reps.len(), |k| {
            alg_c::optimize(
                &canons[reps[k]].query,
                self.model,
                self.memory,
                self.options,
            )
        });
        let mut aggregate = OptStats::new("batch", 0);
        let mut class_results = Vec::with_capacity(runs.len());
        for run in runs {
            class_results.push(run.map(|(opt, stats)| {
                aggregate.absorb(&stats);
                opt
            }));
        }

        let classes = reps.len();
        let results = class_of
            .iter()
            .enumerate()
            .map(|(i, &k)| match &class_results[k] {
                Ok(opt) => Ok(Optimized {
                    plan: canons[i].plan_to_original(&opt.plan),
                    cost: opt.cost,
                }),
                // Errors are per-query conditions (no plan found, bad
                // parameters); reproduce the member's own error rather
                // than cloning the representative's.
                Err(_) => alg_c::optimize(&queries[i], self.model, self.memory, self.options)
                    .map(|(opt, _)| opt),
            })
            .collect();
        (results, aggregate, classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_cost::PaperCostModel;
    use lec_plan::{JoinPred, KeyId, Relation};
    use lec_stats::Distribution;

    fn chain_query(n: usize, scale: f64) -> JoinQuery {
        let relations = (0..n)
            .map(|i| Relation::new(format!("r{i}"), scale * (i + 1) as f64, 1e4))
            .collect();
        let predicates = (0..n - 1)
            .map(|i| JoinPred {
                left: i,
                right: i + 1,
                selectivity: 0.001,
                key: KeyId(i),
            })
            .collect();
        JoinQuery::new(relations, predicates, None).unwrap()
    }

    fn memory() -> MemoryModel {
        MemoryModel::Static(Distribution::new([(30.0, 0.5), (600.0, 0.5)]).unwrap())
    }

    #[test]
    fn batch_matches_one_by_one_in_input_order() {
        let queries: Vec<JoinQuery> = (2..=7).map(|n| chain_query(n, 80.0 + n as f64)).collect();
        let mem = memory();
        let model = PaperCostModel;
        let batch =
            BatchOptimizer::new(&model, &mem).with_parallelism(Parallelism::with_threads(4));
        let (results, _) = batch.optimize_all(&queries);
        assert_eq!(results.len(), queries.len());
        for (q, r) in queries.iter().zip(&results) {
            let solo = alg_c::optimize(q, &model, &mem, DpOptions::default())
                .unwrap()
                .0;
            let got = r.as_ref().unwrap();
            assert_eq!(solo.cost.to_bits(), got.cost.to_bits());
            assert_eq!(solo.plan, got.plan);
        }
    }

    #[test]
    fn serial_and_parallel_batches_agree() {
        let queries: Vec<JoinQuery> = (0..10)
            .map(|i| chain_query(4, 50.0 + 10.0 * i as f64))
            .collect();
        let mem = memory();
        let model = PaperCostModel;
        let serial = BatchOptimizer::new(&model, &mem)
            .with_parallelism(Parallelism::serial())
            .optimize_all(&queries)
            .0;
        let parallel = BatchOptimizer::new(&model, &mem)
            .with_parallelism(Parallelism::with_threads(3))
            .optimize_all(&queries)
            .0;
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.cost.to_bits(), p.cost.to_bits());
            assert_eq!(s.plan, p.plan);
        }
    }

    #[test]
    fn empty_batch() {
        let mem = memory();
        let batch = BatchOptimizer::new(&PaperCostModel, &mem);
        let (results, stats) = batch.optimize_all(&[]);
        assert!(results.is_empty());
        assert_eq!(stats.counters.masks_expanded, 0);
    }

    #[test]
    fn deduped_batch_optimizes_once_per_isomorphism_class() {
        // Three distinct queries, each appearing twice more as an
        // isomorphic renumbering (relations reversed, predicates reversed,
        // keys shifted): 9 queries, 3 classes.
        let distinct: Vec<JoinQuery> = (3..=5).map(|n| chain_query(n, 60.0 + n as f64)).collect();
        let mut queries = Vec::new();
        for q in &distinct {
            queries.push(q.clone());
            let n = q.n();
            let relations = (0..n).map(|i| q.relation(n - 1 - i).clone()).collect();
            let predicates = q
                .predicates()
                .iter()
                .rev()
                .map(|p| JoinPred {
                    left: n - 1 - p.left,
                    right: n - 1 - p.right,
                    selectivity: p.selectivity,
                    key: KeyId(p.key.0 + 5),
                })
                .collect();
            let renumbered = JoinQuery::new(relations, predicates, None).unwrap();
            queries.push(renumbered.clone());
            queries.push(renumbered);
        }
        let mem = memory();
        let model = PaperCostModel;
        let batch = BatchOptimizer::new(&model, &mem);
        let (results, stats, classes) = batch.optimize_all_deduped(&queries);
        assert_eq!(classes, distinct.len());
        assert_eq!(results.len(), queries.len());
        for (q, r) in queries.iter().zip(&results) {
            let got = r.as_ref().unwrap();
            got.plan.validate(q).unwrap();
            // The class cost is computed once on the canonical form, so a
            // solo run on the member's own numbering must agree to float
            // reassociation tolerance.
            let solo = alg_c::optimize(q, &model, &mem, DpOptions::default())
                .unwrap()
                .0;
            assert!(
                (got.cost - solo.cost).abs() <= 1e-9 * solo.cost,
                "deduped {} vs solo {}",
                got.cost,
                solo.cost
            );
        }
        // Members of one class share bit-identical costs.
        for i in (0..queries.len()).step_by(3) {
            let c0 = results[i].as_ref().unwrap().cost.to_bits();
            assert_eq!(c0, results[i + 1].as_ref().unwrap().cost.to_bits());
            assert_eq!(c0, results[i + 2].as_ref().unwrap().cost.to_bits());
        }
        // And the aggregate covers 3 runs, not 9: it matches a plain batch
        // over the distinct queries only.
        let (_, solo_stats) = batch.optimize_all(&distinct);
        assert_eq!(stats.counters, solo_stats.counters);
    }

    #[test]
    fn batch_stats_aggregate_deterministically() {
        let queries: Vec<JoinQuery> = (2..=6).map(|n| chain_query(n, 70.0 + n as f64)).collect();
        let mem = memory();
        let model = PaperCostModel;
        let (serial_res, serial_stats) = BatchOptimizer::new(&model, &mem)
            .with_parallelism(Parallelism::serial())
            .optimize_all(&queries);
        let (par_res, par_stats) = BatchOptimizer::new(&model, &mem)
            .with_parallelism(Parallelism::with_threads(3))
            .optimize_all(&queries);
        assert_eq!(serial_stats.algorithm, "batch");
        assert_eq!(serial_stats.relations, 6);
        assert_eq!(serial_stats.counters, par_stats.counters);
        assert_eq!(serial_stats.precompute, par_stats.precompute);
        // The aggregate equals the sum of per-query solo runs.
        let mut expected = lec_core::OptStats::new("batch", 0);
        for (q, r) in queries.iter().zip(&serial_res) {
            let (solo, stats) = alg_c::optimize(q, &model, &mem, DpOptions::default()).unwrap();
            expected.absorb(&stats);
            assert_eq!(solo.cost.to_bits(), r.as_ref().unwrap().cost.to_bits());
        }
        assert_eq!(expected.counters, serial_stats.counters);
        for (s, p) in serial_res.iter().zip(&par_res) {
            assert_eq!(
                s.as_ref().unwrap().cost.to_bits(),
                p.as_ref().unwrap().cost.to_bits()
            );
        }
    }
}
