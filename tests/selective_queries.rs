//! Integration tests: queries with local selections, optimized end to end
//! and executed with filtered scans.

use lecopt::core::{alg_c, evaluate, MemoryModel};
use lecopt::cost::{AccessMethod, PaperCostModel};
use lecopt::exec::datagen::{domain_for_selectivity, generate, DataGenSpec};
use lecopt::exec::{execute_plan_with_faults, Disk, ExecMemoryEnv, FaultSchedule, RelId};
use lecopt::plan::{JoinPred, JoinQuery, KeyId, Plan, Relation};
use lecopt::stats::Distribution;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn selective_query() -> JoinQuery {
    JoinQuery::new(
        vec![
            Relation::new("big", 80.0, 80.0 * 64.0)
                .with_local_selectivity(0.2)
                .with_index(),
            Relation::new("small", 30.0, 30.0 * 64.0),
        ],
        vec![JoinPred {
            left: 0,
            right: 1,
            selectivity: 2e-3,
            key: KeyId(0),
        }],
        None,
    )
    .unwrap()
}

/// The optimizer chooses the index path for a selective predicate, and the
/// plan validates/executes.
#[test]
fn index_scan_chosen_for_selective_access() {
    let q = selective_query();
    let mem = MemoryModel::Static(Distribution::new([(6.0, 0.5), (40.0, 0.5)]).unwrap());
    let lec = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap().0;
    // The selective relation must be accessed through the index: index cost
    // 2 + 3·16 = 50 beats full-scan 80 + 16 = 96.
    let mut found_index = false;
    fn scan_methods(p: &Plan, found: &mut bool) {
        match p {
            Plan::Access { method, .. } => {
                if *method == AccessMethod::IndexScan {
                    *found = true;
                }
            }
            Plan::Join { left, right, .. } => {
                scan_methods(left, found);
                scan_methods(right, found);
            }
            Plan::Sort { input, .. } => scan_methods(input, found),
        }
    }
    scan_methods(&lec.plan, &mut found_index);
    assert!(
        found_index,
        "expected an index scan in:\n{}",
        lec.plan.explain(&q)
    );
}

/// Executing with selections: realized result size tracks the optimizer's
/// estimate, and the filtered scan's I/O appears in the total.
#[test]
fn filtered_execution_matches_size_estimates() {
    let _q = selective_query();
    let mut disk = Disk::new();
    let mut rng = ChaCha8Rng::seed_from_u64(71);
    let domain = domain_for_selectivity(2e-3);
    let base: Vec<RelId> = vec![
        generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: 80,
                key_domain: domain,
            },
        ),
        generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: 30,
                key_domain: domain,
            },
        ),
    ];
    // Execute a hash-join plan with the local filter on `big`.
    let plan = Plan::join(
        Plan::scan(0),
        Plan::scan(1),
        lecopt::cost::JoinMethod::GraceHash,
        Some(KeyId(0)),
    );
    let mut env = ExecMemoryEnv::Fixed(20);
    let (report, _) = execute_plan_with_faults(
        &plan,
        &base,
        &[0.2, 1.0],
        &mut disk,
        &mut env,
        &mut FaultSchedule::empty(),
    )
    .unwrap();

    // Realized result rows ≈ filtered_rows(big) · rows(small) · sel.
    let got_rows = disk.tuples(report.output).unwrap() as f64;
    let expect_rows = (80.0 * 64.0 * 0.2) * (30.0 * 64.0) / domain as f64;
    assert!(
        (got_rows - expect_rows).abs() < 0.5 * expect_rows.max(8.0),
        "got {got_rows}, expected ≈{expect_rows}"
    );
    // The filtered scan read all 80 pages of `big`.
    assert!(report.total.reads >= 80);
}

/// The optimizer's expected cost for a selective plan is consistent with
/// the evaluator (the access materialization shows up in both).
#[test]
fn selective_access_costing_consistent() {
    let q = selective_query();
    let mem = MemoryModel::Static(Distribution::new([(6.0, 0.5), (40.0, 0.5)]).unwrap());
    let lec = alg_c::optimize(&q, &PaperCostModel, &mem).unwrap().0;
    let phases = mem.table(q.n()).unwrap();
    let scored = evaluate::expected_cost(&q, &PaperCostModel, &lec.plan, &phases);
    assert!((lec.cost - scored).abs() <= 1e-9 * scored.max(1.0));
}

/// Misaligned selections are rejected.
#[test]
fn misaligned_selections_error() {
    let mut disk = Disk::new();
    let mut rng = ChaCha8Rng::seed_from_u64(72);
    let base = vec![generate(
        &mut disk,
        &mut rng,
        &DataGenSpec {
            pages: 4,
            key_domain: 100,
        },
    )];
    let plan = Plan::scan(0);
    let mut env = ExecMemoryEnv::Fixed(8);
    let mut faults = FaultSchedule::empty();
    assert!(
        execute_plan_with_faults(&plan, &base, &[0.5, 0.5], &mut disk, &mut env, &mut faults)
            .is_err()
    );
}
