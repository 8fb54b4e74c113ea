//! The serving benchmark: drives the public `lec-serve` API on three seeded
//! workloads from one process with a closed loop, checks every output, and
//! prints each metric by name with its unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `README.md` beside this crate for the workloads and the metrics.
//!
//! ```text
//! lec-perfbench --workload <hot_hits|miss_storm|drift_certify> --seed <n>
//!               --seconds <s> --trace <0|1> [--trace-out <file>] [--commit <id>]
//! ```

mod measure;
mod replay;
mod run;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Whether this binary was built with optimizations. Timings from a debug
/// build compare with nothing, so the benchmark refuses to run from one
/// (the guard `crates/bench/src/artifacts.rs` applies to the experiments'
/// artifacts).
const OPTIMIZED_BUILD: bool = !cfg!(debug_assertions);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut trace_out = PathBuf::from("perfbench-trace.csv");
    let mut commit = "unknown".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--trace-out" => trace_out = PathBuf::from(value),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lec-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 [--trace-out <file>] [--commit <id>]"
            );
            return ExitCode::from(2);
        }
    };
    if !OPTIMIZED_BUILD {
        eprintln!("error: refusing to measure an unoptimized build; build with --release");
        return ExitCode::from(3);
    }
    let Some(w) = run::find(&args.workload) else {
        let names: Vec<&str> = run::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# lec-perfbench commit={} nproc={nproc} optimized_build={OPTIMIZED_BUILD} \
         workload={} seed={} seconds={} trace={} loop={:?}",
        args.commit,
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        w.effective_loop(nproc),
    );

    let report = run::run(
        w,
        args.seed,
        args.seconds,
        nproc,
        args.trace.then_some(args.trace_out.as_path()),
    );
    for p in report.problems.iter().take(20) {
        eprintln!("check failed: {p}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{} {name} = {value} {unit}", w.name);
    }
    for note in &report.notes {
        println!("{} {note}", w.name);
    }

    let finite = report.metrics.iter().all(|m| m.1.is_finite());
    let correct = report.problems.is_empty() && report.failed == 0 && finite;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
