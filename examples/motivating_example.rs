//! Example 1.1 from the paper, end to end — including *executing* both
//! plans in the page-level simulator at a scaled-down size.
//!
//! ```text
//! cargo run --example motivating_example
//! ```

use lecopt::core::{alg_c, evaluate, lsc, MemoryModel};
use lecopt::cost::PaperCostModel;
use lecopt::exec::datagen::{domain_for_selectivity, generate, DataGenSpec};
use lecopt::exec::{execute_plan, Disk, ExecMemoryEnv};
use lecopt::plan::{JoinPred, JoinQuery, KeyId, Relation};
use lecopt::stats::Distribution;
use lecopt::workload::{envs, queries};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: the paper's numbers, verbatim.
    let q = queries::example_1_1();
    let model = PaperCostModel;
    let memory = envs::example_1_1_memory();
    println!("== Example 1.1, paper scale ==");
    println!(
        "memory: 2000 pages w.p. 0.8, 700 pages w.p. 0.2 (mean {:.0}, mode {:.0})",
        memory.mean(),
        memory.mode()
    );

    let lsc_plan = lsc::optimize_at(&q, &model, memory.mode())?.0;
    let mem_model = MemoryModel::Static(memory);
    let lec_plan = alg_c::optimize(&q, &model, &mem_model)?.0;
    let phases = mem_model.table(q.n())?;

    println!("\nLSC(mode) chooses:\n{}", lsc_plan.plan.explain(&q));
    println!("LEC chooses:\n{}", lec_plan.plan.explain(&q));
    println!(
        "expected costs: LSC plan {:.0}, LEC plan {:.0}",
        evaluate::expected_cost(&q, &model, &lsc_plan.plan, &phases),
        lec_plan.cost
    );

    // Part 2: the same structure at simulator scale, actually executed.
    println!("\n== Scaled to the simulator (A = 400, B = 100 pages) ==");
    let sq = JoinQuery::new(
        vec![
            Relation::new("A", 400.0, 400.0 * 64.0),
            Relation::new("B", 100.0, 100.0 * 64.0),
        ],
        vec![JoinPred {
            left: 0,
            right: 1,
            selectivity: 3e-4,
            key: KeyId(0),
        }],
        Some(KeyId(0)),
    )?;
    let smem = Distribution::new([(12.0, 0.2), (25.0, 0.8)])?;
    let s_lsc = lsc::optimize_at(&sq, &model, smem.mode())?.0;
    let s_lec = alg_c::optimize(&sq, &model, &MemoryModel::Static(smem.clone()))?.0;

    let mut disk = Disk::new();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let domain = domain_for_selectivity(3e-4);
    let base = vec![
        generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: 400,
                key_domain: domain,
            },
        ),
        generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: 100,
                key_domain: domain,
            },
        ),
    ];

    let iters = 100;
    let mut io_lsc = 0u64;
    let mut io_lec = 0u64;
    for i in 0..iters {
        let mut env = ExecMemoryEnv::draw_once(smem.clone(), i);
        io_lsc += execute_plan(&s_lsc.plan, &base, &mut disk, &mut env)?
            .total
            .total();
        let mut env = ExecMemoryEnv::draw_once(smem.clone(), i);
        io_lec += execute_plan(&s_lec.plan, &base, &mut disk, &mut env)?
            .total
            .total();
    }
    println!(
        "realized page I/O over {iters} paired runs: LSC plan {:.0}/run, LEC plan {:.0}/run",
        io_lsc as f64 / iters as f64,
        io_lec as f64 / iters as f64
    );
    println!(
        "LEC plan saves {:.1}% of real I/O on average",
        100.0 * (1.0 - io_lec as f64 / io_lsc as f64)
    );
    Ok(())
}
