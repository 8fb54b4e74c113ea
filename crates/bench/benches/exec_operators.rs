//! Simulator operator throughput (supports experiment X9): how fast the
//! page-level operators run at various memory grants, on X9-sized inputs
//! and on the small inputs served plans join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lec_exec::datagen::{domain_for_selectivity, generate, DataGenSpec};
use lec_exec::ops::{block_nested_loop_join, external_sort, grace_hash_join, sort_merge_join};
use lec_exec::{BufferPool, Disk, RelId};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Two generated relations of `pa` and `pb` pages over one key domain.
fn relations(pa: usize, pb: usize, key_domain: u64) -> (Disk, RelId, RelId) {
    let mut disk = Disk::new();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let a = generate(
        &mut disk,
        &mut rng,
        &DataGenSpec {
            pages: pa,
            key_domain,
        },
    );
    let b = generate(
        &mut disk,
        &mut rng,
        &DataGenSpec {
            pages: pb,
            key_domain,
        },
    );
    (disk, a, b)
}

/// The X9-sized case: 96 × 32 pages, few matches.
fn setup() -> (Disk, RelId, RelId) {
    relations(96, 32, domain_for_selectivity(5e-4))
}

/// The serving-size case: a 2-page filtered input joined with a 6-page
/// table over a key domain just above the table's row count, the shape a
/// served plan's joins run (about 130 output rows).
fn serving_setup() -> (Disk, RelId, RelId) {
    relations(2, 6, 400)
}

fn operators(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_operators");
    for m in [6usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("external_sort", m), &m, |bench, _| {
            bench.iter_with_setup(setup, |(mut disk, a, _)| {
                let mut pool = BufferPool::with_capacity(m);
                external_sort(&mut disk, &mut pool, a, m).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("sort_merge", m), &m, |bench, _| {
            bench.iter_with_setup(setup, |(mut disk, a, b)| {
                let mut pool = BufferPool::with_capacity(m);
                sort_merge_join(&mut disk, &mut pool, a, b, m, false, false).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("grace_hash", m), &m, |bench, _| {
            bench.iter_with_setup(setup, |(mut disk, a, b)| {
                let mut pool = BufferPool::with_capacity(m);
                grace_hash_join(&mut disk, &mut pool, a, b, m).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("block_nl", m), &m, |bench, _| {
            bench.iter_with_setup(setup, |(mut disk, a, b)| {
                let mut pool = BufferPool::with_capacity(m);
                block_nested_loop_join(&mut disk, &mut pool, a, b, m).unwrap()
            })
        });
    }
    group.finish();

    // At m = 48 the 2-page side is one block / one build table; at m = 8
    // the grants still hold it, so these cases time the in-memory match
    // structure rather than partitioning or re-scans.
    let mut group = c.benchmark_group("exec_operators_serving");
    for m in [8usize, 48] {
        group.bench_with_input(BenchmarkId::new("grace_hash", m), &m, |bench, _| {
            bench.iter_with_setup(serving_setup, |(mut disk, a, b)| {
                let mut pool = BufferPool::with_capacity(m);
                grace_hash_join(&mut disk, &mut pool, a, b, m).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("block_nl", m), &m, |bench, _| {
            bench.iter_with_setup(serving_setup, |(mut disk, a, b)| {
                let mut pool = BufferPool::with_capacity(m);
                block_nested_loop_join(&mut disk, &mut pool, a, b, m).unwrap()
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
    targets = operators
}
criterion_main!(benches);
