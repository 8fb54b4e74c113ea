//! The full DBMS loop, end to end:
//!
//! ```text
//! generate data → ANALYZE → catalog → estimate selectivities →
//! build query → LEC-optimize → execute → compare realized vs estimated
//! ```
//!
//! No statistic in the optimizer's input is hand-provided: everything comes
//! from scanning the simulated tables, exactly as a DBMS would.

use lecopt::catalog::{Catalog, ColumnMeta, Histogram, TableMeta};
use lecopt::core::{alg_c, MemoryModel};
use lecopt::cost::PaperCostModel;
use lecopt::exec::datagen::{domain_for_selectivity, generate, DataGenSpec};
use lecopt::exec::{analyze, execute_plan, BufferPool, Disk, ExecMemoryEnv, RelId};
use lecopt::stats::Distribution;
use lecopt::workload::from_catalog::{query_from_catalog, JoinSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Builds a catalog entry from an ANALYZE pass.
fn register_analyzed(
    catalog: &mut Catalog,
    disk: &Disk,
    pool: &mut BufferPool,
    name: &str,
    rel: RelId,
) {
    let stats = analyze(disk, pool, rel, 512).unwrap();
    let histogram = Histogram::equi_depth(&stats.key_sample, 16).unwrap();
    let column = ColumnMeta::new(
        "key",
        // Distinct count from the full scan (exact in the simulator).
        stats.distinct_keys as u64,
        stats.min_key.unwrap_or(0) as f64,
        stats.max_key.unwrap_or(0) as f64,
    );
    // Keep the exact distinct count but attach the sampled histogram for
    // range estimation (with_histogram would overwrite distinct from the
    // sample, so set the field directly).
    let mut column = column;
    column.histogram = Some(histogram);
    catalog
        .register(
            TableMeta::new(name, stats.rows as u64, stats.pages as u64)
                .unwrap()
                .with_column(column),
        )
        .unwrap();
}

#[test]
fn analyze_to_execution_pipeline() {
    // 1. Generate two tables sharing a key domain.
    let mut disk = Disk::new();
    let mut rng = ChaCha8Rng::seed_from_u64(91);
    let true_sel = 2e-3;
    let domain = domain_for_selectivity(true_sel);
    let a = generate(
        &mut disk,
        &mut rng,
        &DataGenSpec {
            pages: 60,
            key_domain: domain,
        },
    );
    let b = generate(
        &mut disk,
        &mut rng,
        &DataGenSpec {
            pages: 25,
            key_domain: domain,
        },
    );

    // 2. ANALYZE both into a catalog (statistics gathering is charged I/O).
    let mut catalog = Catalog::new();
    let mut pool = BufferPool::with_capacity(8);
    register_analyzed(&mut catalog, &disk, &mut pool, "a", a);
    register_analyzed(&mut catalog, &disk, &mut pool, "b", b);
    assert_eq!(pool.counters().reads, 85, "ANALYZE scans both tables");

    // 3. Build the query purely from catalog estimates.
    let q = query_from_catalog(
        &catalog,
        &["a", "b"],
        &[JoinSpec {
            left_table: "a".into(),
            left_column: "key".into(),
            right_table: "b".into(),
            right_column: "key".into(),
        }],
        &[],
        None,
    )
    .unwrap();
    // The containment assumption says every key of the lower-distinct side
    // finds a match; on data where both sides sample sparsely from a much
    // larger key domain that is an OVER-estimate by roughly
    // domain / distinct(max side) — a classic, documented estimator bias.
    // The estimate must bracket the truth from above, within that factor.
    let est = q.predicates()[0].selectivity;
    assert!(
        est >= true_sel * 0.9,
        "estimate {est} below truth {true_sel}"
    );
    assert!(
        est <= true_sel * 15.0,
        "estimate {est} wildly above truth {true_sel}"
    );

    // 4. Optimize under an uncertain memory environment.
    let mem = Distribution::new([(5.0, 0.4), (30.0, 0.6)]).unwrap();
    let lec = alg_c::optimize(&q, &PaperCostModel, &MemoryModel::Static(mem.clone()))
        .unwrap()
        .0;
    lec.plan.validate(&q).unwrap();

    // 5. Execute the chosen plan; the realized result size tracks the
    //    *true* selectivity (the estimate is biased upward per the above,
    //    so the realized size must come in at or below it).
    let mut env = ExecMemoryEnv::draw_once(mem, 7);
    let report = execute_plan(&lec.plan, &[a, b], &mut disk, &mut env).unwrap();
    let realized_pages = disk.pages(report.output).unwrap() as f64;
    let true_pages = 60.0 * 25.0 * true_sel;
    let estimated_pages = q.result_pages(q.all());
    assert!(
        (realized_pages / true_pages - 1.0).abs() < 0.6,
        "realized {realized_pages} vs true {true_pages}"
    );
    assert!(realized_pages <= estimated_pages * 1.1);
}

#[test]
fn analyzed_histogram_estimates_ranges() {
    // The sampled histogram's range estimates track the uniform truth.
    let mut disk = Disk::new();
    let mut rng = ChaCha8Rng::seed_from_u64(92);
    let rel = generate(
        &mut disk,
        &mut rng,
        &DataGenSpec {
            pages: 40,
            key_domain: 1000,
        },
    );
    let mut pool = BufferPool::with_capacity(8);
    let stats = analyze(&disk, &mut pool, rel, 1024).unwrap();
    let h = Histogram::equi_depth(&stats.key_sample, 16).unwrap();
    // A 25%-of-domain range should have ~0.25 selectivity.
    let s = h.selectivity_range(100.0, 349.0);
    assert!((s - 0.25).abs() < 0.06, "range selectivity {s}");
}
