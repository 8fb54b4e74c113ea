//! EVPI analysis timing (`voi::analyze`): every left-deep plan priced per
//! joint assignment from shared join-order prefixes.
//!
//! Two shapes:
//! - `serve`: what the serving loop's recalibration asks on a drift event —
//!   a 4-relation chain, one two-point selectivity, 2-bucket memory
//!   (2 assignments);
//! - `x14`: experiment X14's 3-relation query at cv = 2 with 3 buckets on
//!   all five parameters (243 assignments).

use criterion::{criterion_group, criterion_main, Criterion};
use lec_core::alg_d::SizeModel;
use lec_core::{voi, MemoryModel};
use lec_cost::PaperCostModel;
use lec_plan::{JoinPred, JoinQuery, KeyId, Relation};
use lec_stats::Distribution;
use std::hint::black_box;

fn chain(pages: &[f64], selectivities: &[f64]) -> JoinQuery {
    let relations = pages
        .iter()
        .enumerate()
        .map(|(i, &p)| Relation::new(format!("r{i}"), p, p * 50.0))
        .collect();
    let predicates = selectivities
        .iter()
        .enumerate()
        .map(|(i, &selectivity)| JoinPred {
            left: i,
            right: i + 1,
            selectivity,
            key: KeyId(i),
        })
        .collect();
    JoinQuery::new(relations, predicates, None).expect("valid query")
}

fn analyze(c: &mut Criterion) {
    let mut group = c.benchmark_group("voi_analyze");

    let serve_query = chain(&[2_000.0, 150.0, 5_000.0, 800.0], &[1e-3, 5e-4, 2e-3]);
    let mut serve_sizes = SizeModel::certain(&serve_query).expect("point model");
    serve_sizes.selectivities[1] = Distribution::new([(5e-4, 0.5), (4e-3, 0.5)]).expect("valid");
    let serve_memory =
        MemoryModel::Static(Distribution::new([(30.0, 0.5), (400.0, 0.5)]).expect("valid"));
    group.bench_function("serve", |b| {
        b.iter(|| {
            voi::analyze(
                black_box(&serve_query),
                &PaperCostModel,
                &serve_memory,
                black_box(&serve_sizes),
            )
            .expect("voi")
        })
    });

    let x14_query = chain(&[2_000.0, 150.0, 5_000.0], &[1e-3, 5e-4]);
    let x14_sizes = SizeModel::with_uncertainty(&x14_query, 2.0, 2.0, 3).expect("sizes");
    let x14_memory =
        MemoryModel::Static(Distribution::new([(30.0, 0.5), (400.0, 0.5)]).expect("valid"));
    group.bench_function("x14", |b| {
        b.iter(|| {
            voi::analyze(
                black_box(&x14_query),
                &PaperCostModel,
                &x14_memory,
                black_box(&x14_sizes),
            )
            .expect("voi")
        })
    });
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
    targets = analyze
}
criterion_main!(benches);
