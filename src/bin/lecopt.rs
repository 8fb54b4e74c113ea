//! `lecopt` — command-line demo of the LEC optimizer.
//!
//! ```text
//! lecopt example11
//!     Run the paper's Example 1.1 comparison.
//!
//! lecopt optimize --pages 30000,120000,3000 \
//!                 --joins 0:1:2e-5,0:2:3e-4 \
//!                 --mem 200:0.35,1200:0.65 \
//!                 [--alg lsc|a|b|c] [--top-c N] [--order KEYIDX]
//!                 [--model paper|detailed] [--gamma G | --deadline T]
//!     Build a join query, optimize it, print the plan and expected cost.
//!
//! lecopt execute --pages 400,100 --joins 0:1:3e-4 --mem 12:0.2,25:0.8 \
//!                [--runs N] [--order 0]
//!     Optimize with LSC and LEC, then race both plans in the page-level
//!     simulator (all joins must share one key).
//! ```

use lecopt::core::{alg_a, alg_b, alg_c, evaluate, lsc, optimize_with_rule, MemoryModel};
use lecopt::cost::{CostModel, DetailedCostModel, PaperCostModel};
use lecopt::exec::datagen::{domain_for_selectivity, generate, DataGenSpec};
use lecopt::exec::{execute_plan, Disk, ExecMemoryEnv, RelId};
use lecopt::plan::{JoinPred, JoinQuery, KeyId, Relation};
use lecopt::stats::{Distribution, Utility};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("example11") => example11(),
        Some("optimize") => optimize(&args[1..]),
        Some("execute") => execute(&args[1..]),
        _ => {
            eprintln!("usage: lecopt <example11|optimize|execute> [flags]");
            eprintln!("see `src/bin/lecopt.rs` header for flag documentation");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

fn example11() -> Result<(), AnyError> {
    let q = lecopt::workload::queries::example_1_1();
    let mem = lecopt::workload::envs::example_1_1_memory();
    let model = PaperCostModel;
    let lsc_plan = lsc::optimize_at(&q, &model, mem.mode())?.0;
    let lec = alg_c::optimize(&q, &model, &MemoryModel::Static(mem.clone()))?.0;
    let phases = MemoryModel::Static(mem).table(q.n())?;
    println!("LSC(mode) plan:\n{}", lsc_plan.plan.explain(&q));
    println!(
        "expected cost: {:.0}\n",
        evaluate::expected_cost(&q, &model, &lsc_plan.plan, &phases)
    );
    println!("LEC plan:\n{}", lec.plan.explain(&q));
    println!("expected cost: {:.0}", lec.cost);
    Ok(())
}

/// Parses `--flag value` pairs into a map.
fn flags(args: &[String]) -> Result<HashMap<String, String>, AnyError> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{flag}`").into());
        };
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn parse_query(f: &HashMap<String, String>) -> Result<JoinQuery, AnyError> {
    let pages: Vec<f64> = f
        .get("pages")
        .ok_or("missing --pages")?
        .split(',')
        .map(|s| s.trim().parse::<f64>())
        .collect::<Result<_, _>>()?;
    let relations: Vec<Relation> = pages
        .iter()
        .enumerate()
        .map(|(i, &p)| Relation::new(format!("r{i}"), p, p * 64.0))
        .collect();
    let mut predicates = Vec::new();
    for (k, spec) in f
        .get("joins")
        .ok_or("missing --joins")?
        .split(',')
        .enumerate()
    {
        let parts: Vec<&str> = spec.trim().split(':').collect();
        if parts.len() != 3 {
            return Err(format!("join `{spec}` is not left:right:selectivity").into());
        }
        predicates.push(JoinPred {
            left: parts[0].parse()?,
            right: parts[1].parse()?,
            selectivity: parts[2].parse()?,
            key: KeyId(k),
        });
    }
    let order = f
        .get("order")
        .map(|s| s.parse::<usize>().map(KeyId))
        .transpose()?;
    Ok(JoinQuery::new(relations, predicates, order)?)
}

fn parse_memory(f: &HashMap<String, String>) -> Result<Distribution, AnyError> {
    let pts: Vec<(f64, f64)> = f
        .get("mem")
        .ok_or("missing --mem (value:prob,value:prob,...)")?
        .split(',')
        .map(|s| -> Result<(f64, f64), AnyError> {
            let (v, p) = s
                .trim()
                .split_once(':')
                .ok_or_else(|| format!("memory point `{s}` is not value:prob"))?;
            Ok((v.parse()?, p.parse()?))
        })
        .collect::<Result<_, _>>()?;
    Ok(Distribution::new(pts)?)
}

fn optimize(args: &[String]) -> Result<(), AnyError> {
    let f = flags(args)?;
    let q = parse_query(&f)?;
    let mem = parse_memory(&f)?;
    let model_name = f.get("model").map(String::as_str).unwrap_or("paper");
    let model: &dyn CostModel = match model_name {
        "paper" => &PaperCostModel,
        "detailed" => &DetailedCostModel,
        other => return Err(format!("unknown --model `{other}`").into()),
    };

    if let Some(g) = f.get("gamma") {
        let u = Utility::Exponential { gamma: g.parse()? };
        let r = optimize_with_rule(&q, &model, &mem, &u)?;
        println!("{}", r.best.plan.explain(&q));
        println!("certainty-equivalent cost: {:.0}", r.best.cost);
        return Ok(());
    }
    if let Some(t) = f.get("deadline") {
        let u = Utility::Deadline {
            threshold: t.parse()?,
        };
        let r = optimize_with_rule(&q, &model, &mem, &u)?;
        println!("{}", r.best.plan.explain(&q));
        println!("deadline-miss probability: {:.3}", r.best.cost);
        return Ok(());
    }

    let mm = MemoryModel::Static(mem.clone());
    let alg = f.get("alg").map(String::as_str).unwrap_or("c");
    let optimized = match alg {
        "lsc" => lsc::optimize_at(&q, &model, mem.mean())?.0,
        "a" => alg_a::optimize(&q, &model, &mm)?.best,
        "b" => {
            let c: usize = f.get("top-c").map(|s| s.parse()).transpose()?.unwrap_or(3);
            alg_b::optimize(&q, &model, &mm, c)?.best
        }
        "c" => alg_c::optimize(&q, &model, &mm)?.0,
        other => return Err(format!("unknown --alg `{other}`").into()),
    };
    println!("{}", optimized.plan.explain(&q));
    let phases = mm.table(q.n())?;
    println!(
        "expected cost: {:.0}",
        evaluate::expected_cost(&q, &model, &optimized.plan, &phases)
    );
    Ok(())
}

fn execute(args: &[String]) -> Result<(), AnyError> {
    let f = flags(args)?;
    let q = parse_query(&f)?;
    if q.predicates().len() > 1 {
        // The simulator joins on one shared attribute.
        return Err("execute supports a single join predicate (shared-key limitation)".into());
    }
    let mem = parse_memory(&f)?;
    let runs: usize = f.get("runs").map(|s| s.parse()).transpose()?.unwrap_or(100);
    let model = PaperCostModel;
    let lsc_plan = lsc::optimize_at(&q, &model, mem.mode())?.0;
    let lec = alg_c::optimize(&q, &model, &MemoryModel::Static(mem.clone()))?.0;

    let mut disk = Disk::new();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let sel = q.predicates()[0].selectivity;
    let domain = domain_for_selectivity(sel);
    let base: Vec<RelId> = q
        .relations()
        .iter()
        .map(|r| {
            generate(
                &mut disk,
                &mut rng,
                &DataGenSpec {
                    pages: r.pages as usize,
                    key_domain: domain,
                },
            )
        })
        .collect();

    let (mut io_lsc, mut io_lec) = (0u64, 0u64);
    for i in 0..runs {
        let mut env = ExecMemoryEnv::draw_once(mem.clone(), i as u64);
        io_lsc += execute_plan(&lsc_plan.plan, &base, &mut disk, &mut env)?
            .total
            .total();
        let mut env = ExecMemoryEnv::draw_once(mem.clone(), i as u64);
        io_lec += execute_plan(&lec.plan, &base, &mut disk, &mut env)?
            .total
            .total();
    }
    println!("LSC(mode) plan:\n{}", lsc_plan.plan.explain(&q));
    println!("LEC plan:\n{}", lec.plan.explain(&q));
    println!(
        "realized I/O over {runs} paired runs: LSC {:.0}/run, LEC {:.0}/run ({:+.1}%)",
        io_lsc as f64 / runs as f64,
        io_lec as f64 / runs as f64,
        100.0 * (io_lec as f64 / io_lsc as f64 - 1.0),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let f = flags(&strings(&["--pages", "10,20", "--mem", "5:1.0"])).unwrap();
        assert_eq!(f["pages"], "10,20");
        assert!(flags(&strings(&["pages", "10"])).is_err());
        assert!(flags(&strings(&["--pages"])).is_err());
    }

    #[test]
    fn query_parsing() {
        let f = flags(&strings(&[
            "--pages",
            "100,200,300",
            "--joins",
            "0:1:1e-3,1:2:5e-4",
            "--order",
            "1",
        ]))
        .unwrap();
        let q = parse_query(&f).unwrap();
        assert_eq!(q.n(), 3);
        assert_eq!(q.predicates().len(), 2);
        assert_eq!(q.required_order(), Some(KeyId(1)));
        assert!((q.predicates()[1].selectivity - 5e-4).abs() < 1e-12);
    }

    #[test]
    fn memory_parsing() {
        let f = flags(&strings(&["--mem", "200:0.35,1200:0.65"])).unwrap();
        let d = parse_memory(&f).unwrap();
        assert_eq!(d.len(), 2);
        assert!((d.mean() - (200.0 * 0.35 + 1200.0 * 0.65)).abs() < 1e-9);
        let bad = flags(&strings(&["--mem", "200;0.35"])).unwrap();
        assert!(parse_memory(&bad).is_err());
    }

    #[test]
    fn bad_specs_error() {
        let f = flags(&strings(&["--pages", "100", "--joins", "0:1"])).unwrap();
        assert!(parse_query(&f).is_err());
    }
}
