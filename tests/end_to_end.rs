//! Integration tests: the full pipeline — generate data, optimize, execute
//! in the page-level simulator, verify results and realized costs.

use lecopt::core::{alg_c, lsc, MemoryModel};
use lecopt::cost::PaperCostModel;
use lecopt::exec::datagen::{domain_for_selectivity, generate, DataGenSpec};
use lecopt::exec::ops::oracle::{multisets_equal, oracle_join};
use lecopt::exec::{execute_plan, Disk, ExecMemoryEnv, RelId};
use lecopt::plan::{JoinPred, JoinQuery, KeyId, Relation};
use lecopt::stats::Distribution;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A same-key star query (the executor's supported class) with matching
/// generated data.
fn star_setup(pages: &[usize], sel: f64, seed: u64) -> (JoinQuery, Disk, Vec<RelId>) {
    let relations: Vec<Relation> = pages
        .iter()
        .enumerate()
        .map(|(i, &p)| Relation::new(format!("r{i}"), p as f64, (p * 64) as f64))
        .collect();
    let predicates: Vec<JoinPred> = (1..pages.len())
        .map(|i| JoinPred {
            left: 0,
            right: i,
            selectivity: sel,
            key: KeyId(0),
        })
        .collect();
    let query = JoinQuery::new(relations, predicates, Some(KeyId(0))).unwrap();

    let mut disk = Disk::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let domain = domain_for_selectivity(sel);
    let base: Vec<RelId> = pages
        .iter()
        .map(|&p| {
            generate(
                &mut disk,
                &mut rng,
                &DataGenSpec {
                    pages: p,
                    key_domain: domain,
                },
            )
        })
        .collect();
    (query, disk, base)
}

/// The optimizer's chosen plan must execute correctly: its result equals
/// the oracle's, fold by fold.
#[test]
fn optimized_plans_execute_correctly() {
    let (query, mut disk, base) = star_setup(&[40, 18, 10], 5e-3, 51);
    let mem = Distribution::new([(6.0, 0.4), (30.0, 0.6)]).unwrap();
    let lec = alg_c::optimize(&query, &PaperCostModel, &MemoryModel::Static(mem.clone()))
        .unwrap()
        .0;

    let mut env = ExecMemoryEnv::draw_once(mem, 99);
    let report = execute_plan(&lec.plan, &base, &mut disk, &mut env).unwrap();

    // Oracle: fold joins over the base tables in the same order the plan's
    // leaves appear (same-key joins are associative/commutative in result).
    let mut acc = oracle_join(&disk, base[0], base[1]).unwrap();
    let tmp = disk.load(acc.clone());
    acc = oracle_join(&disk, tmp, base[2]).unwrap();
    // The plan's join order may differ, which permutes payload mixing; so
    // compare sizes (payload mixing is order-sensitive by design) and keys.
    let got = disk.all_tuples(report.output).unwrap();
    assert_eq!(got.len(), acc.len());
    let mut got_keys: Vec<u64> = got.iter().map(|t| t.key).collect();
    let mut want_keys: Vec<u64> = acc.iter().map(|t| t.key).collect();
    got_keys.sort_unstable();
    want_keys.sort_unstable();
    assert_eq!(got_keys, want_keys);
}

/// When the plan's leaf order matches the oracle's fold order, payload
/// provenance must match exactly (full multiset equality).
#[test]
fn left_deep_plan_matches_oracle_provenance() {
    let (_query, mut disk, base) = star_setup(&[24, 12, 8], 4e-3, 52);
    use lecopt::cost::JoinMethod;
    use lecopt::plan::Plan;
    let plan = Plan::join(
        Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::GraceHash,
            Some(KeyId(0)),
        ),
        Plan::scan(2),
        JoinMethod::SortMerge,
        Some(KeyId(0)),
    );
    let mut env = ExecMemoryEnv::Fixed(12);
    let report = execute_plan(&plan, &base, &mut disk, &mut env).unwrap();
    let first = oracle_join(&disk, base[0], base[1]).unwrap();
    let tmp = disk.load(first);
    let expect = oracle_join(&disk, tmp, base[2]).unwrap();
    assert!(multisets_equal(
        disk.all_tuples(report.output).unwrap(),
        expect
    ));
}

/// Realized I/O of the LEC plan is no worse on average than the LSC plan
/// across paired samples (the paper's claim, in counted page I/Os, on a
/// three-way query).
#[test]
fn lec_realized_io_not_worse_on_star_query() {
    let (query, mut disk, base) = star_setup(&[120, 60, 30], 1e-3, 55);
    let mem = Distribution::new([(7.0, 0.35), (40.0, 0.65)]).unwrap();
    let model = PaperCostModel;
    let lec = alg_c::optimize(&query, &model, &MemoryModel::Static(mem.clone()))
        .unwrap()
        .0;
    let lsc_plan = lsc::optimize_at(&query, &model, mem.mode()).unwrap().0;

    let iters = 60;
    let (mut io_lec, mut io_lsc) = (0u64, 0u64);
    for i in 0..iters {
        let mut env = ExecMemoryEnv::draw_once(mem.clone(), 1000 + i);
        io_lec += execute_plan(&lec.plan, &base, &mut disk, &mut env)
            .unwrap()
            .total
            .total();
        let mut env = ExecMemoryEnv::draw_once(mem.clone(), 1000 + i);
        io_lsc += execute_plan(&lsc_plan.plan, &base, &mut disk, &mut env)
            .unwrap()
            .total
            .total();
    }
    // Allow a small modeling slack: the claim is "not meaningfully worse".
    assert!(
        io_lec as f64 <= io_lsc as f64 * 1.05,
        "LEC realized {io_lec} vs LSC {io_lsc}"
    );
}

/// Phase accounting: the executor's phase count equals the plan's
/// phase_count(), and Markov environments drive per-phase grants.
#[test]
fn phase_accounting_matches_plan_structure() {
    let (query, mut disk, base) = star_setup(&[30, 14, 9], 3e-3, 54);
    let mem = Distribution::new([(8.0, 0.5), (24.0, 0.5)]).unwrap();
    let lec = alg_c::optimize(&query, &PaperCostModel, &MemoryModel::Static(mem))
        .unwrap()
        .0;
    let chain = lecopt::stats::MarkovChain::random_walk(vec![8.0, 16.0, 32.0], 0.8).unwrap();
    let mut env = ExecMemoryEnv::markov(chain, vec![1.0, 0.0, 0.0], 5);
    let report = execute_plan(&lec.plan, &base, &mut disk, &mut env).unwrap();
    assert_eq!(report.phases.len(), lec.plan.phase_count());
    assert_eq!(report.phases[0].memory, 8, "walk starts at the first state");
    let sum: u64 = report.phases.iter().map(|p| p.io.total()).sum();
    assert_eq!(sum, report.total.total());
}

/// `execute_plan` is the full entry point with every selectivity at 1 and
/// an empty fault schedule: identical I/O, phases and output tuples, no
/// selection feedback, and one join observation per join phase whose last
/// record covers every relation and counts the output rows.
#[test]
fn execute_plan_is_the_unfiltered_unfaulted_full_entry_point() {
    use lecopt::exec::{execute_plan_with_faults, FaultSchedule};
    let pages = [36, 16, 9];
    let (query, mut plain_disk, plain_base) = star_setup(&pages, 4e-3, 56);
    let (_, mut full_disk, full_base) = star_setup(&pages, 4e-3, 56);
    let mem = Distribution::new([(6.0, 0.5), (28.0, 0.5)]).unwrap();
    let lec = alg_c::optimize(&query, &PaperCostModel, &MemoryModel::Static(mem.clone()))
        .unwrap()
        .0;

    let mut env = ExecMemoryEnv::draw_once(mem.clone(), 7);
    let plain = execute_plan(&lec.plan, &plain_base, &mut plain_disk, &mut env).unwrap();
    let mut env = ExecMemoryEnv::draw_once(mem, 7);
    let (full, feedback) = execute_plan_with_faults(
        &lec.plan,
        &full_base,
        &[1.0; 3],
        &mut full_disk,
        &mut env,
        &mut FaultSchedule::empty(),
    )
    .unwrap();

    assert_eq!(plain.total, full.total);
    assert_eq!(plain.phases, full.phases);
    let out = full_disk.all_tuples(full.output).unwrap();
    assert!(multisets_equal(
        plain_disk.all_tuples(plain.output).unwrap(),
        out.clone()
    ));
    assert!(feedback.selections.is_empty());
    assert_eq!(feedback.joins.len(), pages.len() - 1);
    let last = feedback.joins.last().unwrap();
    assert_eq!(last.rels, lecopt::plan::RelSet::full(pages.len()));
    assert_eq!(last.out_rows, out.len());
}
