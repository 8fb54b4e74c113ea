//! X17 (extension) — what does the left-deep restriction cost?
//!
//! System R (and hence the paper's algorithms) search only left-deep
//! trees; §4 names bushy trees as the open generalization. The bushy LEC
//! dynamic program (`lec-core::bushy`) searches every tree shape under
//! static memory, so the question becomes measurable: across topologies,
//! how much cheaper is the bushy LEC optimum than the left-deep one?

use crate::table::{num, ratio, Table};
use lec_core::{alg_c, bushy, MemoryModel};
use lec_cost::PaperCostModel;
use lec_workload::envs;
use lec_workload::queries::{QueryGen, Topology};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs the experiment, returning a markdown section.
pub fn run() -> String {
    let mut t = Table::new(&[
        "topology",
        "n",
        "instances",
        "bushy wins",
        "mean gap",
        "max gap",
    ]);
    let mem = MemoryModel::Static(envs::lognormal(250.0, 1.0, 4));
    for (name, topology) in [
        ("chain", Topology::Chain),
        ("star", Topology::Star),
        ("clique", Topology::Clique),
    ] {
        for n in [4usize, 6, 8] {
            let mut gaps = Vec::new();
            for seed in 0..12u64 {
                let q = QueryGen {
                    topology,
                    n,
                    pages_range: (30.0, 40_000.0),
                    ..QueryGen::default()
                }
                .generate(&mut ChaCha8Rng::seed_from_u64(1700 + seed));
                let left = alg_c::optimize(&q, &PaperCostModel, &mem)
                    .expect("left-deep")
                    .0;
                let bushy = bushy::optimize(&q, &PaperCostModel, &mem).expect("bushy").0;
                gaps.push(left.cost / bushy.cost);
            }
            let wins = gaps.iter().filter(|&&g| g > 1.0 + 1e-9).count();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let max = gaps.iter().cloned().fold(1.0f64, f64::max);
            t.row(vec![
                name.into(),
                n.to_string(),
                gaps.len().to_string(),
                format!("{wins}/{}", gaps.len()),
                ratio(mean),
                ratio(max),
            ]);
        }
    }
    format!(
        "## X17 — the cost of the left-deep restriction\n\n\
         Left-deep LEC expected cost divided by bushy LEC expected cost \
         (1.000x = the restriction was free), 12 seeded instances per cell, \
         lognormal memory (mean {}, cv 1.0, 4 buckets).\n\n{}\n",
        num(250.0),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn x17_gaps_are_ratios_at_least_one() {
        let md = super::run();
        for line in md.lines().filter(|l| l.starts_with("|") && l.contains('x')) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            for cell in cells.iter().filter(|c| c.ends_with('x')) {
                if let Ok(v) = cell.trim_end_matches('x').parse::<f64>() {
                    assert!(v >= 0.999, "{line}");
                }
            }
        }
        // The table covers all three topologies.
        for topo in ["chain", "star", "clique"] {
            assert!(md.contains(topo), "missing {topo}");
        }
    }
}
