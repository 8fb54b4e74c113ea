//! One drift-event resample, layer by layer: what the serving loop's
//! recalibration draws when a selection statistic drifts on the
//! `drift_certify` workload shape (an 8-bucket filter column `v` over
//! `[0, 100]`, 4,096 draws).
//!
//! - `selection_event`: `sample_selectivity` on a filter range plus
//!   `sample_histogram` for the belief column, on a fresh estimator;
//! - `histogram_build`: `Histogram::equi_width` alone, over 4,096 values
//!   drawn uniformly from `[0, 100)` in draw order;
//! - `chacha_8192_words`: the bare ChaCha8 stream a selection event draws
//!   (two `u64` per row, two estimates).

use criterion::{criterion_group, criterion_main, Criterion};
use lec_catalog::{
    Catalog, ColumnMeta, Histogram, Predicate, SampleConfig, SampleEstimator, TableMeta,
};
use rand::Rng;
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// The drifted profile: mass piled onto the low buckets.
const HOT: [f64; 8] = [0.70, 0.10, 0.04, 0.04, 0.03, 0.03, 0.03, 0.03];

/// A table whose `v` histogram realizes `HOT` from an 800-value sample.
fn truth() -> Catalog {
    let values: Vec<f64> = HOT
        .iter()
        .enumerate()
        .flat_map(|(b, &mass)| {
            let n = (mass * 800.0).round() as usize;
            (0..n).map(move |i| b as f64 * 12.5 + 12.5 * (i as f64 + 0.5) / n as f64)
        })
        .collect();
    let hist = Histogram::equi_width(&values, 8).expect("positive mass");
    let mut c = Catalog::new();
    c.register(
        TableMeta::new("t00", 384, 6)
            .expect("positive rows and pages")
            .with_column(ColumnMeta::new("v", 800, 0.0, 100.0).with_histogram(hist)),
    )
    .expect("fresh table");
    c
}

fn resample(c: &mut Criterion) {
    let mut group = c.benchmark_group("resample");
    let truth = truth();
    let config = SampleConfig::default();
    assert_eq!(config.draws, 4096);
    let pred = Predicate::Range {
        table: "t00".into(),
        column: "v".into(),
        lo: 0.0,
        hi: 25.0,
    };
    group.bench_function("selection_event", |b| {
        b.iter(|| {
            let mut est = SampleEstimator::new(&truth, config, black_box(0x5A17));
            let interval = est.sample_selectivity(&pred).expect("sampled selectivity");
            let hist = est.sample_histogram("t00", "v").expect("sampled histogram");
            (interval, hist)
        })
    });

    let mut rng = ChaCha8Rng::seed_from_u64(0x5A17);
    let sample: Vec<f64> = (0..4096).map(|_| 100.0 * rng.gen::<f64>()).collect();
    group.bench_function("histogram_build", |b| {
        b.iter(|| Histogram::equi_width(black_box(&sample), 8).expect("histogram"))
    });

    group.bench_function("chacha_8192_words", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(black_box(0x5A17));
            (0..4096).fold(0u64, |acc, _| acc ^ rng.next_u64())
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
    targets = resample
}
criterion_main!(benches);
