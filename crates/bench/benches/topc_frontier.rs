//! Proposition 3.1 timing (experiment X4's timing half): frontier merge vs
//! naive all-pairs merge on bare cost lists, and the top-c DP end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lec_bench::fixtures::{chain_query, SEED};
use lec_core::topc::{frontier_merge, top_c_plans};
use lec_cost::PaperCostModel;
use std::hint::black_box;

fn merge_primitive(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontier_merge");
    for n in [16usize, 64, 256] {
        let left: Vec<f64> = (0..n).map(|i| (i * i) as f64).collect();
        let right: Vec<f64> = (0..n).map(|i| 3.5 * i as f64).collect();
        group.bench_with_input(BenchmarkId::new("frontier", n), &n, |b, _| {
            b.iter(|| frontier_merge(black_box(&left), black_box(&right), n))
        });
        group.bench_with_input(BenchmarkId::new("naive_all_pairs", n), &n, |b, _| {
            b.iter(|| {
                let mut sums: Vec<f64> = left
                    .iter()
                    .flat_map(|l| right.iter().map(move |r| l + r))
                    .collect();
                sums.sort_by(f64::total_cmp);
                sums.truncate(n);
                sums
            })
        });
    }
    group.finish();
}

fn topc_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("top_c_dp");
    let q = chain_query(5, SEED + 40);
    for cc in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("frontier", cc), &cc, |b, _| {
            b.iter(|| {
                top_c_plans(black_box(&q), &PaperCostModel, 90.0, cc)
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
    targets = merge_primitive, topc_dp
}
criterion_main!(benches);
