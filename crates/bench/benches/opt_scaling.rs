//! Optimizer-time scaling (experiment X3's timing half): wall-clock cost of
//! LSC, Algorithms A, B and C as the number of relations and the number of
//! memory buckets grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lec_bench::fixtures::{chain_query, spread_memory, static_mem, SEED};
use lec_core::{alg_a, alg_b, alg_c, lsc, pareto};
use lec_cost::PaperCostModel;
use lec_stats::Utility;
use std::hint::black_box;

fn by_relations(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize_by_relations");
    let mem_dist = spread_memory(4);
    for n in [3usize, 5, 7, 9] {
        let q = chain_query(n, SEED + n as u64);
        let mem = static_mem(mem_dist.clone());
        group.bench_with_input(BenchmarkId::new("lsc", n), &n, |b, _| {
            b.iter(|| {
                lsc::optimize_at(black_box(&q), &PaperCostModel, mem_dist.mean())
                    .unwrap()
                    .0
            })
        });
        group.bench_with_input(BenchmarkId::new("alg_a", n), &n, |b, _| {
            b.iter(|| alg_a::optimize(black_box(&q), &PaperCostModel, &mem).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("alg_b_c3", n), &n, |b, _| {
            b.iter(|| alg_b::optimize(black_box(&q), &PaperCostModel, &mem, 3).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("alg_c", n), &n, |b, _| {
            b.iter(|| {
                alg_c::optimize(black_box(&q), &PaperCostModel, &mem)
                    .unwrap()
                    .0
            })
        });
    }
    group.finish();
}

fn by_buckets(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg_c_by_buckets");
    let q = chain_query(6, SEED + 60);
    for b in [1usize, 4, 16, 64] {
        let mem = static_mem(spread_memory(b));
        group.bench_with_input(BenchmarkId::from_parameter(b), &b, |bench, _| {
            bench.iter(|| {
                alg_c::optimize(black_box(&q), &PaperCostModel, &mem)
                    .unwrap()
                    .0
            })
        });
    }
    group.finish();
}

fn pareto_vs_scalar(c: &mut Criterion) {
    // The wall-clock cost of utility-exactness (X16's timing half).
    let mut group = c.benchmark_group("pareto_vs_scalar_dp");
    let q = chain_query(5, SEED + 70);
    for b in [2usize, 8] {
        let mem = spread_memory(b);
        group.bench_with_input(BenchmarkId::new("pareto_exact", b), &b, |bench, _| {
            bench.iter(|| {
                pareto::optimize(black_box(&q), &PaperCostModel, &mem, &Utility::Linear)
                    .unwrap()
                    .0
            })
        });
        group.bench_with_input(BenchmarkId::new("scalar_dp", b), &b, |bench, _| {
            bench.iter(|| {
                pareto::scalar_dp(black_box(&q), &PaperCostModel, &mem, Utility::Linear).unwrap()
            })
        });
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
    targets = by_relations, by_buckets, pareto_vs_scalar
}
criterion_main!(benches);
