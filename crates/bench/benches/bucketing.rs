//! Bucketing strategy timing (experiment X8's timing half): summarizing a
//! fine distribution and the downstream optimizer cost per strategy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lec_core::{alg_c, bucketing, MemoryModel};
use lec_cost::PaperCostModel;
use lec_stats::Bucketing;
use lec_workload::{envs, queries};
use std::hint::black_box;

fn strategies(c: &mut Criterion) {
    let q = queries::example_1_1();
    let fine = envs::lognormal(1100.0, 0.6, 512);

    let mut group = c.benchmark_group("bucketize_512_points");
    group.bench_function("equi_width_8", |b| {
        b.iter(|| Bucketing::EquiWidth(8).apply(black_box(&fine)).unwrap())
    });
    group.bench_function("equi_depth_8", |b| {
        b.iter(|| Bucketing::EquiDepth(8).apply(black_box(&fine)).unwrap())
    });
    group.bench_function("level_set", |b| {
        b.iter(|| bucketing::bucketize_memory(&q, &PaperCostModel, black_box(&fine)).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("optimize_after_bucketing");
    let coarse_ls = bucketing::bucketize_memory(&q, &PaperCostModel, &fine).unwrap();
    let coarse_ew = Bucketing::EquiWidth(8).apply(&fine).unwrap();
    for (name, dist) in [
        ("fine_512", fine.clone()),
        ("level_set", coarse_ls),
        ("equi_width_8", coarse_ew),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &dist, |b, d| {
            b.iter(|| {
                alg_c::optimize(&q, &PaperCostModel, &MemoryModel::Static(d.clone()))
                    .unwrap()
                    .0
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
    targets = strategies
}
criterion_main!(benches);
