#![warn(missing_docs)]

//! Experiment harness for the LEC reproduction.
//!
//! Each experiment `X1`–`X13` from DESIGN.md §3 lives in its own module
//! under [`experiments`] and renders a markdown section; the `xtable`
//! binary dispatches on experiment id (`xtable x1`, `xtable all`). The
//! Criterion benches under `benches/` reuse the same fixtures.

pub mod artifacts;
pub mod experiments;
pub mod fixtures;
pub mod table;

/// Runs one experiment by id (`"x1"` … `"x24"`), returning its markdown
/// section, or `None` for an unknown id.
pub fn run_experiment(id: &str) -> Option<String> {
    use experiments::*;
    let out = match id.to_ascii_lowercase().as_str() {
        "x1" => x01_example::run(),
        "x2" => x02_variation::run(),
        "x3" => x03_scaling::run(),
        "x4" => x04_frontier::run(),
        "x5" => x05_dynamic::run(),
        "x6" => x06_selectivity::run(),
        "x7" => x07_kernels::run(),
        "x8" => x08_bucketing::run(),
        "x9" => x09_validation::run(),
        "x10" => x10_montecarlo::run(),
        "x11" => x11_utility::run(),
        "x12" => x12_rebucket::run(),
        "x13" => x13_figure1::run(),
        "x14" => x14_voi::run(),
        "x15" => x15_parametric::run(),
        "x16" => x16_frontier_growth::run(),
        "x17" => x17_bushy::run(),
        "x18" => x18_kernel::run(),
        "x19" => x19_stats::run(),
        "x20" => x20_serve::run(),
        "x21" => x21_faults::run(),
        "x22" => x22_serve_concurrent::run(),
        "x23" => x23_rules::run(),
        "x24" => x24_sampling::run(),
        _ => return None,
    };
    Some(out)
}

/// All experiment ids, in order.
pub const ALL_EXPERIMENTS: [&str; 24] = [
    "x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10", "x11", "x12", "x13", "x14", "x15",
    "x16", "x17", "x18", "x19", "x20", "x21", "x22", "x23", "x24",
];
