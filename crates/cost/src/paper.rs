//! The paper's simplified cost formulas (§3.6.1–3.6.2, Example 1.1).
//!
//! Costs are counted in *passes over the data*, each pass costing the data
//! volume in pages (see the crate-level unit convention). The printed
//! formulas are three-case step functions of memory:
//!
//! ```text
//! Φ(SM, v) = 2(|A|+|B|)  if M > √L          (L = max(|A|, |B|))
//!            4(|A|+|B|)  if ⁴√L < M ≤ √L
//!            6(|A|+|B|)  if M ≤ ⁴√L
//!
//! Φ(NL, v) = |A| + |B|       if M ≥ S + 2   (S = min(|A|, |B|))
//!            |A| + |A|·|B|   if M < S + 2
//! ```
//!
//! The middle threshold of the sort-merge formula is garbled in the
//! available text ("√T < M ≤ √T"); we reconstruct it as `⁴√L` — the natural
//! next rung of the multiway-merge ladder (`M > L^(1/2)` two passes,
//! `M > L^(1/4)` four, else six) — and document the reconstruction here and
//! in EXPERIMENTS.md. Grace hash join is given the analogous ladder on the
//! *smaller* relation (Example 1.1: "if the available buffer size is greater
//! than 633 pages (the square root of the smaller relation), the hash join
//! requires two passes"). With these formulas the worked numbers of
//! Example 1.1 come out exactly as the paper argues (see the tests below
//! and experiment X1).

use crate::fast_expect::expected_join_fast;
use crate::methods::JoinMethod;
use crate::CostModel;
use lec_stats::Distribution;

/// The paper's three-case step-function cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaperCostModel;

/// The pass-count ladder shared by sort-merge, Grace hash and external sort:
/// 2 passes when `m` exceeds `√n`, 4 when it exceeds `⁴√n`, else 6, where
/// `n` is the threshold relation size (max for sort-merge, min for Grace).
fn pass_coefficient(m: f64, n: f64) -> f64 {
    if m > n.sqrt() {
        2.0
    } else if m > n.sqrt().sqrt() {
        4.0
    } else {
        6.0
    }
}

impl CostModel for PaperCostModel {
    fn join_cost(&self, method: JoinMethod, a: f64, b: f64, m: f64) -> f64 {
        debug_assert!(a > 0.0 && b > 0.0 && m > 0.0);
        match method {
            JoinMethod::SortMerge => pass_coefficient(m, a.max(b)) * (a + b),
            JoinMethod::GraceHash => pass_coefficient(m, a.min(b)) * (a + b),
            JoinMethod::NestedLoop => {
                // §3.6.2: S = min(|A|, |B|); the smaller relation is cached.
                let s = a.min(b);
                if m >= s + 2.0 {
                    a + b
                } else {
                    a + a * b
                }
            }
        }
    }

    fn sort_cost(&self, pages: f64, memory: f64) -> f64 {
        debug_assert!(pages > 0.0 && memory > 0.0);
        if pages <= memory {
            0.0
        } else {
            pass_coefficient(memory, pages) * pages
        }
    }

    fn join_breakpoints(&self, method: JoinMethod, a: f64, b: f64) -> Vec<f64> {
        match method {
            JoinMethod::SortMerge => {
                let l = a.max(b);
                vec![l.sqrt().sqrt(), l.sqrt()]
            }
            JoinMethod::GraceHash => {
                let s = a.min(b);
                vec![s.sqrt().sqrt(), s.sqrt()]
            }
            JoinMethod::NestedLoop => vec![a.min(b) + 2.0],
        }
    }

    fn sort_breakpoints(&self, pages: f64) -> Vec<f64> {
        vec![pages.sqrt().sqrt(), pages.sqrt(), pages]
    }

    // Hoisted expectation kernels: the three-case formulas share per-call
    // invariants (√L, ⁴√L, |A|+|B|, S+2, |A|+|A||B|) that the default
    // bucket loop recomputes `b` times. `sqrt` is correctly rounded and the
    // per-bucket expression shape and accumulation order match the trait
    // defaults exactly, so these are bit-identical — `expectation_kernels_
    // match_defaults_bitwise` below pins that.
    fn expected_join_step(
        &self,
        method: JoinMethod,
        a: f64,
        b: f64,
        out: f64,
        mem_values: &[f64],
        mem_probs: &[f64],
    ) -> f64 {
        debug_assert!(a > 0.0 && b > 0.0);
        let mut acc = 0.0;
        match method {
            JoinMethod::SortMerge | JoinMethod::GraceHash => {
                let n = if method == JoinMethod::SortMerge {
                    a.max(b)
                } else {
                    a.min(b)
                };
                let s = n.sqrt();
                let q = s.sqrt();
                let ab = a + b;
                for (&m, &p) in mem_values.iter().zip(mem_probs) {
                    let coeff = if m > s {
                        2.0
                    } else if m > q {
                        4.0
                    } else {
                        6.0
                    };
                    acc += (coeff * ab + out) * p;
                }
            }
            JoinMethod::NestedLoop => {
                let threshold = a.min(b) + 2.0;
                let cached = a + b;
                let quadratic = a + a * b;
                for (&m, &p) in mem_values.iter().zip(mem_probs) {
                    let c = if m >= threshold { cached } else { quadratic };
                    acc += (c + out) * p;
                }
            }
        }
        acc
    }

    fn expected_join_steps(
        &self,
        a: f64,
        b: f64,
        out: f64,
        mem_values: &[f64],
        mem_probs: &[f64],
    ) -> [f64; 3] {
        debug_assert!(a > 0.0 && b > 0.0);
        // One fused bucket pass. Each accumulator sees exactly the adds its
        // per-method kernel would produce, in the same order, so the result
        // is bit-identical to three separate `expected_join_step` calls
        // (pinned by `fused_join_steps_match_per_method_bitwise`).
        let l = a.max(b);
        let (sl, ss) = (l.sqrt(), a.min(b).sqrt());
        let (ql, qs) = (sl.sqrt(), ss.sqrt());
        let ab = a + b;
        let nl_threshold = a.min(b) + 2.0;
        let nl_cached = a + b;
        let nl_quadratic = a + a * b;
        let (mut sm, mut gh, mut nl) = (0.0, 0.0, 0.0);
        for (&m, &p) in mem_values.iter().zip(mem_probs) {
            let c_sm = if m > sl {
                2.0
            } else if m > ql {
                4.0
            } else {
                6.0
            };
            sm += (c_sm * ab + out) * p;
            let c_gh = if m > ss {
                2.0
            } else if m > qs {
                4.0
            } else {
                6.0
            };
            gh += (c_gh * ab + out) * p;
            let c_nl = if m >= nl_threshold {
                nl_cached
            } else {
                nl_quadratic
            };
            nl += (c_nl + out) * p;
        }
        [sm, gh, nl]
    }

    // The formulas at each memory value with the thresholds hoisted out of
    // the loop: `pass_coefficient` takes the same correctly rounded square
    // roots, so every entry keeps `join_cost`'s bits (pinned by
    // `per_value_kernel_matches_join_cost_bitwise`).
    fn join_costs_at(&self, a: f64, b: f64, mem_values: &[f64], out: &mut [[f64; 3]]) {
        debug_assert!(a > 0.0 && b > 0.0);
        let (sl, ss) = (a.max(b).sqrt(), a.min(b).sqrt());
        let (ql, qs) = (sl.sqrt(), ss.sqrt());
        let ab = a + b;
        let nl_threshold = a.min(b) + 2.0;
        let nl_quadratic = a + a * b;
        // Each rung is a select, not a branch: which rung a memory value
        // lands on follows no pattern across candidates.
        let rung = |m: f64, s: f64, q: f64| {
            let c = if m > q { 4.0 } else { 6.0 };
            if m > s {
                2.0
            } else {
                c
            }
        };
        for (&m, slot) in mem_values.iter().zip(out) {
            let nl = if m >= nl_threshold { ab } else { nl_quadratic };
            *slot = [rung(m, sl, ql) * ab, rung(m, ss, qs) * ab, nl];
        }
    }

    // The §3.6.1/3.6.2 linear-time kernels: they sum in a different order,
    // so they match the default triple loop up to rounding, not bit for bit.
    fn expected_join_dist(
        &self,
        method: JoinMethod,
        left: &Distribution,
        right: &Distribution,
        mem: &Distribution,
    ) -> f64 {
        expected_join_fast(method, left, right, mem)
    }

    fn expected_sort_step(&self, pages: f64, mem_values: &[f64], mem_probs: &[f64]) -> f64 {
        debug_assert!(pages > 0.0);
        let s = pages.sqrt();
        let q = s.sqrt();
        let mut acc = 0.0;
        for (&m, &p) in mem_values.iter().zip(mem_probs) {
            let c = if pages <= m {
                0.0
            } else {
                let coeff = if m > s {
                    2.0
                } else if m > q {
                    4.0
                } else {
                    6.0
                };
                coeff * pages
            };
            acc += (c + pages) * p;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: f64 = 1_000_000.0; // Example 1.1: |A| pages
    const B: f64 = 400_000.0; // Example 1.1: |B| pages
    const RESULT: f64 = 3_000.0; // Example 1.1: result pages

    #[test]
    fn example_1_1_plan1_sort_merge() {
        let m = PaperCostModel;
        // M = 2000 > √1e6 = 1000: two passes over 1.4e6 pages.
        assert_eq!(m.join_cost(JoinMethod::SortMerge, A, B, 2000.0), 2.8e6);
        // M = 700 < 1000: "at least another pass".
        assert_eq!(m.join_cost(JoinMethod::SortMerge, A, B, 700.0), 5.6e6);
    }

    #[test]
    fn example_1_1_plan2_grace_hash_plus_sort() {
        let m = PaperCostModel;
        // √400000 ≈ 632.5: both 700 and 2000 are above it → two passes.
        for mem in [700.0, 2000.0] {
            assert_eq!(m.join_cost(JoinMethod::GraceHash, A, B, mem), 2.8e6);
            // The small result still needs sorting: 2 · 3000 pages.
            assert_eq!(m.sort_cost(RESULT, mem), 6000.0);
        }
        // Just below the threshold the hash join needs more passes.
        assert_eq!(m.join_cost(JoinMethod::GraceHash, A, B, 600.0), 5.6e6);
    }

    #[test]
    fn example_1_1_lec_conclusion() {
        // The point of the whole paper: under the 80/20 distribution the
        // expected cost of Plan 2 beats Plan 1, even though Plan 1 wins at
        // both the mode (2000) and the mean (1740).
        let m = PaperCostModel;
        let plan1 = |mem: f64| m.join_cost(JoinMethod::SortMerge, A, B, mem);
        let plan2 =
            |mem: f64| m.join_cost(JoinMethod::GraceHash, A, B, mem) + m.sort_cost(RESULT, mem);
        assert!(plan1(2000.0) < plan2(2000.0));
        assert!(plan1(1740.0) < plan2(1740.0));
        let e1 = 0.8 * plan1(2000.0) + 0.2 * plan1(700.0);
        let e2 = 0.8 * plan2(2000.0) + 0.2 * plan2(700.0);
        assert!(e2 < e1, "E[plan2] = {e2} should beat E[plan1] = {e1}");
    }

    #[test]
    fn nested_loop_two_cases() {
        let m = PaperCostModel;
        // Small side fits: one pass over each.
        assert_eq!(
            m.join_cost(JoinMethod::NestedLoop, 100.0, 10.0, 12.0),
            110.0
        );
        assert_eq!(
            m.join_cost(JoinMethod::NestedLoop, 10.0, 100.0, 12.0),
            110.0
        );
        // Small side does not fit: quadratic blowup, left is the outer.
        assert_eq!(
            m.join_cost(JoinMethod::NestedLoop, 100.0, 10.0, 11.0),
            100.0 + 1000.0
        );
        assert_eq!(
            m.join_cost(JoinMethod::NestedLoop, 10.0, 100.0, 11.0),
            10.0 + 1000.0
        );
    }

    #[test]
    fn sort_is_free_in_memory() {
        let m = PaperCostModel;
        assert_eq!(m.sort_cost(100.0, 100.0), 0.0);
        assert_eq!(m.sort_cost(100.0, 99.0), 200.0); // 99 > √100
        assert_eq!(m.sort_cost(10_000.0, 50.0), 40_000.0); // ⁴√1e4 = 10 < 50 ≤ 100
        assert_eq!(m.sort_cost(10_000.0, 9.0), 60_000.0);
    }

    #[test]
    fn pass_ladder_monotone_in_memory() {
        let m = PaperCostModel;
        for method in JoinMethod::ALL {
            let mut last = f64::INFINITY;
            for mem in [3.0, 10.0, 50.0, 700.0, 1500.0, 1e6] {
                let c = m.join_cost(method, A, B, mem);
                assert!(c <= last, "{method} cost not monotone at M={mem}");
                last = c;
            }
        }
    }

    #[test]
    fn breakpoints_bracket_the_level_sets() {
        let m = PaperCostModel;
        for method in JoinMethod::ALL {
            let bps = m.join_breakpoints(method, A, B);
            assert!(!bps.is_empty());
            assert!(bps.windows(2).all(|w| w[0] <= w[1]));
            // Cost must be constant strictly between consecutive breakpoints
            // and at the extremes.
            let mut probes = vec![bps[0] / 2.0];
            for w in bps.windows(2) {
                probes.push((w[0] + w[1]) / 2.0);
            }
            probes.push(bps.last().unwrap() * 2.0);
            for p in probes {
                let eps = (p * 1e-9).max(1e-9);
                let lo = m.join_cost(method, A, B, p - eps);
                let hi = m.join_cost(method, A, B, p + eps);
                assert_eq!(lo, hi, "{method} discontinuity off-breakpoint at {p}");
            }
        }
    }

    #[test]
    fn expectation_kernels_match_defaults_bitwise() {
        // The hoisted kernels must reproduce the trait-default bucket loop
        // bit for bit — the optimizer equivalence batteries depend on it.
        let m = PaperCostModel;
        let default_join = |method, a: f64, b: f64, out: f64, mv: &[f64], mp: &[f64]| -> f64 {
            let mut acc = 0.0;
            for (&mem, &p) in mv.iter().zip(mp) {
                acc += (m.join_cost(method, a, b, mem) + out) * p;
            }
            acc
        };
        let default_sort = |pages: f64, mv: &[f64], mp: &[f64]| -> f64 {
            let mut acc = 0.0;
            for (&mem, &p) in mv.iter().zip(mp) {
                acc += (m.sort_cost(pages, mem) + pages) * p;
            }
            acc
        };
        let mems = [3.0, 10.0, 50.0, 632.0, 633.0, 700.0, 1000.0, 2000.0, 1e6];
        let probs = [0.05, 0.05, 0.1, 0.1, 0.1, 0.2, 0.1, 0.2, 0.1];
        let sizes = [
            (A, B, RESULT),
            (B, A, RESULT),
            (10.0, 10.0, 1.0),
            (123.0, 45_678.0, 901.0),
            (7.5, 2.25, 0.5),
        ];
        for (a, b, out) in sizes {
            for method in JoinMethod::ALL {
                let fast = m.expected_join_step(method, a, b, out, &mems, &probs);
                let slow = default_join(method, a, b, out, &mems, &probs);
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "{method} kernel drifted at sizes ({a}, {b})"
                );
            }
            let fast = m.expected_sort_step(a, &mems, &probs);
            let slow = default_sort(a, &mems, &probs);
            assert_eq!(fast.to_bits(), slow.to_bits(), "sort kernel drifted at {a}");
        }
    }

    #[test]
    fn fused_join_steps_match_per_method_bitwise() {
        let m = PaperCostModel;
        let mems = [3.0, 10.0, 632.0, 633.0, 700.0, 1000.0, 2000.0];
        let probs = [0.1, 0.1, 0.1, 0.2, 0.2, 0.2, 0.1];
        for (a, b, out) in [(A, B, RESULT), (B, A, RESULT), (12.5, 480.0, 3.0)] {
            let fused = m.expected_join_steps(a, b, out, &mems, &probs);
            for (k, method) in JoinMethod::ALL.into_iter().enumerate() {
                let single = m.expected_join_step(method, a, b, out, &mems, &probs);
                assert_eq!(
                    fused[k].to_bits(),
                    single.to_bits(),
                    "{method} fused lane drifted at ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn per_value_kernel_matches_join_cost_bitwise() {
        let m = PaperCostModel;
        let mems = [3.0, 10.0, 31.0, 632.0, 633.0, 700.0, 1000.0, 2000.0, 1e6];
        for (a, b) in [(A, B), (B, A), (10.0, 10.0), (123.0, 45_678.0), (7.5, 2.25)] {
            let mut out = [[0.0; 3]; 9];
            m.join_costs_at(a, b, &mems, &mut out);
            for (&mem, costs) in mems.iter().zip(out) {
                for (method, c) in JoinMethod::ALL.into_iter().zip(costs) {
                    let direct = m.join_cost(method, a, b, mem);
                    assert_eq!(
                        c.to_bits(),
                        direct.to_bits(),
                        "{method} at ({a}, {b}, {mem})"
                    );
                }
            }
        }
    }

    #[test]
    fn distribution_expectation_is_the_fast_kernel_through_references() {
        use crate::fast_expect::expected_join_naive;
        // Inputs on which the linear-time kernels and the triple loop round
        // differently for every method, so only a forwarded override can
        // match `expected_join_fast` bit for bit.
        let left = Distribution::new([(10.0, 0.25), (50.0, 0.25), (100.0, 0.5)]).unwrap();
        let right = Distribution::new([(9.0, 0.15), (61.0, 0.35), (415.0, 0.5)]).unwrap();
        let mem =
            Distribution::new([(4.0, 0.15), (9.0, 0.25), (19.0, 0.35), (75.0, 0.25)]).unwrap();
        for method in JoinMethod::ALL {
            let fast = expected_join_fast(method, &left, &right, &mem);
            let naive = expected_join_naive(&PaperCostModel, method, &left, &right, &mem);
            assert_ne!(fast.to_bits(), naive.to_bits(), "{method}: inputs too easy");
            let direct = PaperCostModel.expected_join_dist(method, &left, &right, &mem);
            assert_eq!(direct.to_bits(), fast.to_bits(), "{method}: direct");
            // Method-call syntax on `&PaperCostModel` would auto-ref to the
            // direct impl; the explicit path exercises the blanket `&M` one.
            let forwarded = <&PaperCostModel as CostModel>::expected_join_dist(
                &&PaperCostModel,
                method,
                &left,
                &right,
                &mem,
            );
            assert_eq!(forwarded.to_bits(), fast.to_bits(), "{method}: via &M");
        }
    }

    #[test]
    fn sort_merge_keys_off_larger_grace_off_smaller() {
        let m = PaperCostModel;
        // Memory above √min but below √max: Grace is cheap, SM is not.
        let (a, b) = (1_000_000.0, 10_000.0);
        let mem = 500.0; // √1e4 = 100 < 500 < 1000 = √1e6
        assert_eq!(m.join_cost(JoinMethod::GraceHash, a, b, mem), 2.0 * (a + b));
        assert_eq!(m.join_cost(JoinMethod::SortMerge, a, b, mem), 4.0 * (a + b));
    }
}
