//! One module per experiment from DESIGN.md §3.

pub mod x01_example;
pub mod x02_variation;
pub mod x03_scaling;
pub mod x04_frontier;
pub mod x05_dynamic;
pub mod x06_selectivity;
pub mod x07_kernels;
pub mod x08_bucketing;
pub mod x09_validation;
pub mod x10_montecarlo;
pub mod x11_utility;
pub mod x12_rebucket;
pub mod x13_figure1;
pub mod x14_voi;
pub mod x15_parametric;
pub mod x16_frontier_growth;
pub mod x17_bushy;
pub mod x18_kernel;
pub mod x19_stats;
pub mod x20_serve;
pub mod x21_faults;
pub mod x22_serve_concurrent;
pub mod x23_rules;
pub mod x24_sampling;
