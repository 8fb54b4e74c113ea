//! X18 (extension) — the machine-readable perf trajectory of the serial
//! left-deep DP kernel.
//!
//! Algorithm C on the chain sizes where the subset lattice is widest. For
//! each size the experiment records the serial median and one run's
//! per-rank wall times, so successive checkouts can diff where the DP
//! spends its time rank by rank. Besides the markdown table it writes
//! `results/BENCH_kernel.json` with those rows, the host's CPU count, and
//! the serial speedup over the pre-kernel baseline.
//!
//! A `parametric` block times parametric precompute on the same chains
//! under the serving benchmark's two memory scenarios: the median of one
//! shared precompute (one sweep prices both scenarios) next to the summed
//! medians of Algorithm C run once per scenario, which is what the
//! precompute cost before its scenarios shared a sweep.
//!
//! The optimizer is serial by design: a rank-parallel wavefront was
//! measured against it on a 2-CPU host and never paid (EXPERIMENTS.md
//! X18), so parallelism lives only across independent queries.
//!
//! The run **self-asserts** before writing: the serial median at
//! `n = 13` must not regress below the recorded baseline
//! (`serial_speedup ≥ 1.0`), and the shared precompute must be no slower
//! than the scenarios run one by one and return their plans and cost bits,
//! so a regression panics `make kernel-smoke` rather than being silently
//! written to the artifact. Debug builds (e.g.
//! `cargo test --workspace`) skip that absolute floor and write
//! `BENCH_kernel_debug.json` (gitignored) — an unoptimized run can neither
//! trip the floor nor clobber the committed release artifact.

use crate::artifacts::{artifact_path, OPTIMIZED_BUILD};
use crate::fixtures::{chain_query, spread_memory, static_mem, SEED};
use crate::table::{ratio, Table};
use lec_core::parametric::ParametricPlans;
use lec_core::{alg_c, MemoryModel};
use lec_cost::PaperCostModel;
use lec_plan::JoinQuery;
use lec_stats::Distribution;
use std::path::PathBuf;
use std::time::Instant;

/// Chain sizes of the trajectory.
const SIZES: [usize; 3] = [9, 11, 13];

/// Chain size the serial-speedup headline is judged at.
const SPEEDUP_N: usize = 13;

/// Serial median for `alg_c` at `n = 13`, 4 memory buckets, at commit
/// `802b698` — the parent of the allocation-free kernel rewrite. Measured
/// on a 2-CPU Linux container host with this experiment's harness (same
/// query, memory and median-of-15 method), alternating 17 baseline runs
/// with 17 runs of the then-current code so both saw the same machine
/// conditions: baseline median 6.63 ms (range 4.36–6.83 ms), current
/// median 3.72 ms. The `serial_speedup` JSON block reports the current
/// serial median against this number.
const BASELINE_SERIAL_NS: u128 = 6_626_720;

/// The serial path must never regress below the pre-kernel baseline: the
/// run panics (failing `make kernel-smoke`) instead of silently writing a
/// sub-1.0 serial speedup into the artifact. A committed artifact once
/// recorded 0.1396 here — an unoptimized debug-build test run (~0.14× is
/// exactly debug-vs-release for this kernel) that clobbered the release
/// artifact, while the docs kept quoting the healthy number. Two guards
/// make that class of artifact impossible to commit: this assertion, and
/// `json_path` routing debug builds to a separate gitignored file.
const MIN_SERIAL_SPEEDUP: f64 = 1.0;

/// Samples per median. High enough that a transient stall on a busy box
/// cannot drag the median of an unchanged code path below its floor.
const REPS: usize = 15;

/// Measurement attempts for the headline. Against a fixed nanosecond
/// baseline, a co-scheduled stall during the one measured median reads as
/// a regression of unchanged code, so only a miss on every attempt is
/// treated as real.
const ATTEMPTS: usize = 3;

/// Chain sizes of the parametric block.
const PARAMETRIC_SIZES: [usize; 2] = [9, 11];

/// The serving benchmark's compile-time memory scenarios.
fn bench_scenarios() -> Vec<Distribution> {
    vec![
        Distribution::new([(4.0, 0.6), (40.0, 0.4)]).expect("valid scenario"),
        Distribution::new([(16.0, 0.5), (80.0, 0.5)]).expect("valid scenario"),
    ]
}

/// One row of the parametric block: the shared precompute's median and the
/// summed medians of one Algorithm C run per scenario, after asserting
/// that both give every scenario the same plan and cost bits.
fn parametric_row(q: &JoinQuery, scenarios: &[Distribution]) -> (u128, u128) {
    let shared = ParametricPlans::precompute(q, &PaperCostModel, scenarios).expect("precompute");
    let mems: Vec<MemoryModel> = scenarios.iter().cloned().map(MemoryModel::Static).collect();
    for ((_, stored), mem) in shared.scenarios().iter().zip(&mems) {
        let (alone, _) = alg_c::optimize(q, &PaperCostModel, mem).expect("alg_c");
        assert_eq!(stored.plan, alone.plan, "shared precompute changed a plan");
        assert_eq!(
            stored.cost.to_bits(),
            alone.cost.to_bits(),
            "shared precompute changed a cost"
        );
    }
    // The shared run and the one-by-one runs alternate within each
    // repetition, so a co-scheduled stall slows both sides alike.
    let shared_run =
        || ParametricPlans::precompute(q, &PaperCostModel, scenarios).expect("precompute");
    let separate_run = |mem: &MemoryModel| alg_c::optimize(q, &PaperCostModel, mem).expect("alg_c");
    let mut shared_ns = Vec::with_capacity(REPS);
    let mut separate_ns = vec![Vec::with_capacity(REPS); mems.len()];
    for rep in 0..=REPS {
        let t = Instant::now();
        shared_run();
        let shared_elapsed = t.elapsed().as_nanos();
        // Repetition 0 is the warm-up.
        if rep > 0 {
            shared_ns.push(shared_elapsed);
        }
        for (mem, samples) in mems.iter().zip(&mut separate_ns) {
            let t = Instant::now();
            separate_run(mem);
            if rep > 0 {
                samples.push(t.elapsed().as_nanos());
            }
        }
    }
    (median(shared_ns), separate_ns.into_iter().map(median).sum())
}

/// The median of `samples`.
fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median wall-clock of `f` over `reps` runs after one warm-up call.
fn median_ns<F: FnMut()>(mut f: F, reps: usize) -> u128 {
    f();
    median(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos()
            })
            .collect(),
    )
}

/// Where the machine-readable trajectory lands (workspace `results/`).
/// Debug builds write a separate, gitignored file: their absolute wall
/// times are meaningless against the release baseline, and a debug test
/// run must never overwrite the committed release artifact.
fn json_path() -> PathBuf {
    artifact_path("kernel")
}

fn fmt_rank_ns(rank_wall_ns: &[u64]) -> String {
    let inner: Vec<String> = rank_wall_ns.iter().map(u64::to_string).collect();
    format!("[{}]", inner.join(", "))
}

/// Runs the experiment, returning a markdown section; also writes
/// `results/BENCH_kernel.json`.
pub fn run() -> String {
    let mut t = Table::new(&["n", "serial median", "widest rank", "vs. baseline"]);
    let mut json_rows = Vec::new();
    let mut speedup_block = String::new();
    for n in SIZES {
        let q = chain_query(n, SEED + n as u64);
        let mem = static_mem(spread_memory(4));
        let optimize = || alg_c::optimize(&q, &PaperCostModel, &mem);
        let mut serial = median_ns(
            || {
                optimize().expect("serial");
            },
            REPS,
        );
        let mut vs_baseline = String::from("—");
        if n == SPEEDUP_N {
            // Debug builds skip the absolute floor entirely — they are ~7×
            // slower by construction and their artifact lands elsewhere.
            let mut speedup = BASELINE_SERIAL_NS as f64 / serial as f64;
            for _ in 1..ATTEMPTS {
                if !OPTIMIZED_BUILD || speedup >= MIN_SERIAL_SPEEDUP {
                    break;
                }
                serial = median_ns(
                    || {
                        optimize().expect("serial");
                    },
                    REPS,
                );
                speedup = BASELINE_SERIAL_NS as f64 / serial as f64;
            }
            assert!(
                !OPTIMIZED_BUILD || speedup >= MIN_SERIAL_SPEEDUP,
                "serial regression: alg_c n={SPEEDUP_N} serial median {serial} ns is \
                 {speedup:.4}x the {BASELINE_SERIAL_NS} ns baseline (self-asserted \
                 floor {MIN_SERIAL_SPEEDUP}) on all {ATTEMPTS} measurement \
                 attempts — refusing to write the artifact"
            );
            vs_baseline = ratio(speedup);
            speedup_block = format!(
                "  \"serial_speedup\": {{\"n\": {SPEEDUP_N}, \
                 \"baseline_serial_ns\": {BASELINE_SERIAL_NS}, \
                 \"serial_ns\": {serial}, \"speedup\": {speedup:.4}, \
                 \"min_speedup\": {MIN_SERIAL_SPEEDUP:.1}}},\n",
            );
        }
        // Per-rank wall times from one representative run (timing is the
        // only non-deterministic stat).
        let (_, stats) = optimize().expect("stats run");
        let widest = stats.rank_wall_ns.iter().copied().max().unwrap_or(0);
        t.row(vec![
            n.to_string(),
            format!("{:.3} ms", serial as f64 / 1e6),
            format!("{:.3} ms", widest as f64 / 1e6),
            vs_baseline,
        ]);
        json_rows.push(format!(
            "    {{\"n\": {n}, \"serial_median_ns\": {serial}, \"rank_wall_ns\": {}}}",
            fmt_rank_ns(&stats.rank_wall_ns)
        ));
    }
    let scenarios = bench_scenarios();
    let mut pt = Table::new(&["n", "shared precompute", "one by one", "speedup"]);
    let mut parametric_rows = Vec::new();
    for n in PARAMETRIC_SIZES {
        let q = chain_query(n, SEED + n as u64);
        let (mut shared, mut separate) = parametric_row(&q, &scenarios);
        // As for the headline: only a miss on every attempt is real.
        for _ in 1..ATTEMPTS {
            if !OPTIMIZED_BUILD || shared <= separate {
                break;
            }
            (shared, separate) = parametric_row(&q, &scenarios);
        }
        assert!(
            !OPTIMIZED_BUILD || shared <= separate,
            "parametric regression: n={n} shared precompute median {shared} ns is slower \
             than the {separate} ns of its scenarios run one by one on all {ATTEMPTS} \
             measurement attempts — refusing to write the artifact"
        );
        pt.row(vec![
            n.to_string(),
            format!("{:.3} ms", shared as f64 / 1e6),
            format!("{:.3} ms", separate as f64 / 1e6),
            ratio(separate as f64 / shared as f64),
        ]);
        parametric_rows.push(format!(
            "      {{\"n\": {n}, \"shared_median_ns\": {shared}, \
             \"one_by_one_median_ns\": {separate}, \"speedup\": {:.4}}}",
            separate as f64 / shared as f64
        ));
    }
    let parametric_block = format!(
        "  \"parametric\": {{\"scenarios\": {}, \"bit_identical\": true, \"rows\": [\n{}\n  ]}},\n",
        scenarios.len(),
        parametric_rows.join(",\n")
    );
    // `host_threads` scopes the wall times to the machine that took them.
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"experiment\": \"x18_kernel\",\n  \"algorithm\": \"alg_c\",\n  \
         \"memory_buckets\": 4,\n  \"host_threads\": {host_threads},\n  \
         \"optimized_build\": {OPTIMIZED_BUILD},\n  \
         \"self_asserted\": true,\n{speedup_block}{parametric_block}  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let path = json_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("results dir");
    }
    std::fs::write(&path, &json).expect("write BENCH_kernel.json");
    format!(
        "## X18 — serial DP kernel trajectory\n\n\
         Median of {REPS} runs of Algorithm C, chain queries, 4 memory \
         buckets; \"widest rank\" is the slowest rank of one run's \
         per-rank wall times, and the n = {SPEEDUP_N} row is compared with \
         the pre-kernel baseline. Machine-readable copy — including every \
         rank's wall time — written to `results/BENCH_kernel.json`.\n\n{}\n\
         Parametric precompute on the same chains under the serving \
         benchmark's two memory scenarios: the median of one shared \
         precompute against the summed medians of Algorithm C run once \
         per scenario (plans and cost bits asserted identical).\n\n{}\n",
        t.render(),
        pt.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_writes_json() {
        let md = run();
        assert!(md.contains("X18"));
        assert!(md.contains("| 13 |"));
        let json = std::fs::read_to_string(json_path()).unwrap();
        assert!(json.contains("\"experiment\": \"x18_kernel\""));
        assert!(json.contains("\"n\": 9"));
        assert!(json.contains("\"n\": 13"));
        assert!(json.contains("\"rank_wall_ns\""));
        assert!(json.contains("\"serial_speedup\""));
        assert!(json.contains("\"baseline_serial_ns\""));
        assert!(json.contains("\"host_threads\""));
        assert!(json.contains("\"self_asserted\": true"));
        assert!(json.contains("\"min_speedup\""));
        assert!(json.contains("\"parametric\""));
        assert!(json.contains("\"one_by_one_median_ns\""));
        assert!(json.contains("\"bit_identical\": true"));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn serial_floor_is_not_loosened() {
        assert!(MIN_SERIAL_SPEEDUP >= 1.0);
    }
}
