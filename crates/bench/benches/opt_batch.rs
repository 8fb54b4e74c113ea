//! Batch-optimization throughput: `lecopt::BatchOptimizer` fanning a
//! workload of independent queries across a thread pool, against the same
//! workload optimized one query at a time on one thread.
//!
//! Each query stays serial (the optimizers are serial dynamic programs);
//! the batch is the unit of parallelism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lec_bench::fixtures::{chain_query, spread_memory, static_mem, SEED};
use lec_core::dp::DpOptions;
use lec_core::{alg_c, Parallelism};
use lec_cost::PaperCostModel;
use lec_plan::JoinQuery;
use lecopt::BatchOptimizer;
use std::hint::black_box;

fn batch_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt_batch");
    let mem = static_mem(spread_memory(4));
    for batch_size in [8usize, 32] {
        let queries: Vec<JoinQuery> = (0..batch_size)
            .map(|i| chain_query(6, SEED + 100 + i as u64))
            .collect();
        group.bench_with_input(
            BenchmarkId::new("one_by_one", batch_size),
            &batch_size,
            |b, _| {
                b.iter(|| {
                    for q in black_box(&queries) {
                        alg_c::optimize(q, &PaperCostModel, &mem, DpOptions::default()).unwrap();
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("batch_auto", batch_size),
            &batch_size,
            |b, _| {
                let batch = BatchOptimizer::new(&PaperCostModel, &mem)
                    .with_parallelism(Parallelism::auto());
                b.iter(|| batch.optimize_all(black_box(&queries)))
            },
        );
    }
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = batch_throughput
}
criterion_main!(benches);
