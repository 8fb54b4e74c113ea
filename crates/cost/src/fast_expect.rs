//! Linear-time expected-cost kernels (§3.6.1–3.6.2).
//!
//! Algorithm D needs, at every dag node, the expected cost
//! `E[Φ(method, |A|, |B|, M)]` where all three of `|A|`, `|B|`, `M` are
//! bucketed distributions; it asks the model through
//! [`CostModel::expected_join_dist`]. The default computation,
//! [`expected_join_naive`], is a triple loop over `b_A · b_B · b_M`
//! cost-formula evaluations and works for any model. The paper shows that
//! for its simple step-function formulas the expectation can be computed in
//! `O(b_M + b_A + b_B)` — asymptotically optimal, since every bucket must be
//! looked at — by a merged sweep over the sorted supports with prefix
//! (`Pr[X ≤ t]`, `E[X·1{X ≤ t}]`) accumulators.
//!
//! [`expected_join_fast`] implements those kernels for all three join
//! methods; it is [`PaperCostModel`](crate::PaperCostModel)'s override of
//! [`CostModel::expected_join_dist`]. Experiment X7 checks the two join
//! entry points for agreement and times them.

use crate::methods::JoinMethod;
use crate::CostModel;
use lec_stats::Distribution;

/// Naive `O(b_A · b_B · b_M)` expected join cost for any model: the
/// default of [`CostModel::expected_join_dist`].
pub fn expected_join_naive<M: CostModel + ?Sized>(
    model: &M,
    method: JoinMethod,
    a: &Distribution,
    b: &Distribution,
    mem: &Distribution,
) -> f64 {
    let mut total = 0.0;
    for (av, ap) in a.iter() {
        for (bv, bp) in b.iter() {
            for (mv, mp) in mem.iter() {
                total += ap * bp * mp * model.join_cost(method, av, bv, mv);
            }
        }
    }
    total
}

/// Expected join cost under [`PaperCostModel`](crate::PaperCostModel) in
/// `O(b_M + b_A + b_B)`: the model's [`CostModel::expected_join_dist`]
/// override.
pub fn expected_join_fast(
    method: JoinMethod,
    a: &Distribution,
    b: &Distribution,
    mem: &Distribution,
) -> f64 {
    match method {
        JoinMethod::SortMerge => sm_expected_fast(a, b, mem),
        JoinMethod::GraceHash => grace_expected_fast(a, b, mem),
        JoinMethod::NestedLoop => nl_expected_fast(a, b, mem),
    }
}

/// Expected cost of sorting a size-distributed input: `E[sort(N, M)]`.
/// `O(b_N · b_M)`; sorts appear at most once per plan (at the root), so a
/// linear kernel is not worth the complexity.
pub fn expected_sort<M: CostModel + ?Sized>(
    model: &M,
    n: &Distribution,
    mem: &Distribution,
) -> f64 {
    let mut total = 0.0;
    for (nv, np) in n.iter() {
        for (mv, mp) in mem.iter() {
            total += np * mp * model.sort_cost(nv, mv);
        }
    }
    total
}

/// Forward sweep over a sorted support producing `Pr[X < t]` / `Pr[X ≤ t]`
/// and the matching partial expectations for a *non-decreasing* sequence of
/// thresholds `t`. Each support point is consumed once, so a full sweep is
/// `O(b_X + #thresholds)`. Tail probabilities are complements:
/// `Pr[X > t] = 1 - Pr[X ≤ t]`.
struct PrefixSweep<'a> {
    values: &'a [f64],
    probs: &'a [f64],
    idx: usize,
    cum_p: f64,
    cum_e: f64,
}

impl<'a> PrefixSweep<'a> {
    fn new(d: &'a Distribution) -> Self {
        Self {
            values: d.values(),
            probs: d.probs(),
            idx: 0,
            cum_p: 0.0,
            cum_e: 0.0,
        }
    }

    /// `(Pr[X < t], E[X·1{X < t}])`; `t` must not decrease across calls.
    fn lt(&mut self, t: f64) -> (f64, f64) {
        self.advance(|v| v < t)
    }

    /// `(Pr[X ≤ t], E[X·1{X ≤ t}])`; `t` must not decrease across calls, and
    /// `le` must not be interleaved with `lt` at the same threshold going
    /// backwards (use separate sweeps per threshold stream).
    fn le(&mut self, t: f64) -> (f64, f64) {
        self.advance(|v| v <= t)
    }

    /// Consumes support points while `take(value)` holds.
    fn advance(&mut self, take: impl Fn(f64) -> bool) -> (f64, f64) {
        while self.idx < self.values.len() && take(self.values[self.idx]) {
            self.cum_p += self.probs[self.idx];
            self.cum_e += self.values[self.idx] * self.probs[self.idx];
            self.idx += 1;
        }
        (self.cum_p, self.cum_e)
    }
}

/// `E_M[pass_coefficient(M, n)]` for a non-decreasing stream of `n`,
/// using two memory sweeps (one per threshold family √n and ⁴√n).
struct CoeffSweep<'a> {
    sqrt_head: PrefixSweep<'a>,
    quad_head: PrefixSweep<'a>,
}

impl<'a> CoeffSweep<'a> {
    fn new(mem: &'a Distribution) -> Self {
        Self {
            sqrt_head: PrefixSweep::new(mem),
            quad_head: PrefixSweep::new(mem),
        }
    }

    /// Expected pass coefficient for threshold-relation size `n`:
    /// `2·Pr[M > √n] + 4·Pr[⁴√n < M ≤ √n] + 6·Pr[M ≤ ⁴√n] = 6 - 2p₁ - 2p₂`.
    fn expected(&mut self, n: f64) -> f64 {
        let p1 = (1.0 - self.sqrt_head.le(n.sqrt()).0).max(0.0);
        let p2 = (1.0 - self.quad_head.le(n.sqrt().sqrt()).0).max(0.0);
        6.0 - 2.0 * p1 - 2.0 * p2
    }
}

/// §3.6.1: expected sort-merge cost, `Φ = coeff(M, max(A,B)) · (A + B)`.
fn sm_expected_fast(a: &Distribution, b: &Distribution, mem: &Distribution) -> f64 {
    // Pairs with A ≤ B (B attains the max): iterate B's support.
    let mut t1 = 0.0;
    {
        let mut coeff = CoeffSweep::new(mem);
        let mut a_prefix = PrefixSweep::new(a);
        for (bv, bp) in b.iter() {
            let c = coeff.expected(bv);
            let (pa, ea) = a_prefix.le(bv);
            // Σ_{a ≤ b} P(a)·(a + b) = E[A·1{A≤b}] + b·Pr[A ≤ b].
            t1 += bp * c * (ea + bv * pa);
        }
    }
    // Pairs with A > B (A attains the max): iterate A's support.
    let mut t2 = 0.0;
    {
        let mut coeff = CoeffSweep::new(mem);
        let mut b_prefix = PrefixSweep::new(b);
        for (av, ap) in a.iter() {
            let c = coeff.expected(av);
            let (pb, eb) = b_prefix.lt(av);
            t2 += ap * c * (eb + av * pb);
        }
    }
    t1 + t2
}

/// Grace hash analogue: `Φ = coeff(M, min(A,B)) · (A + B)`.
fn grace_expected_fast(a: &Distribution, b: &Distribution, mem: &Distribution) -> f64 {
    // Pairs with A ≤ B (A attains the min): iterate A's support; we need
    // suffix quantities of B, obtained as complements of a prefix sweep.
    let (b_total_e, a_total_e) = (b.mean(), a.mean());
    let mut t1 = 0.0;
    {
        let mut coeff = CoeffSweep::new(mem);
        let mut b_prefix = PrefixSweep::new(b);
        for (av, ap) in a.iter() {
            let c = coeff.expected(av);
            let (pb_lt, eb_lt) = b_prefix.lt(av);
            // Σ_{b ≥ a} P(b)·(a + b) = a·Pr[B ≥ a] + E[B·1{B ≥ a}].
            t1 += ap * c * (av * (1.0 - pb_lt) + (b_total_e - eb_lt));
        }
    }
    // Pairs with A > B (B attains the min): iterate B's support.
    let mut t2 = 0.0;
    {
        let mut coeff = CoeffSweep::new(mem);
        let mut a_prefix = PrefixSweep::new(a);
        for (bv, bp) in b.iter() {
            let c = coeff.expected(bv);
            let (pa_le, ea_le) = a_prefix.le(bv);
            // Σ_{a > b} P(a)·(a + b) = E[A·1{A > b}] + b·Pr[A > b].
            t2 += bp * c * ((a_total_e - ea_le) + bv * (1.0 - pa_le));
        }
    }
    t1 + t2
}

/// §3.6.2: expected nested-loop cost,
/// `Φ = A + B` if `M ≥ min(A,B) + 2`, else `A + A·B` (left outer).
fn nl_expected_fast(a: &Distribution, b: &Distribution, mem: &Distribution) -> f64 {
    let (a_total_e, b_total_e) = (a.mean(), b.mean());
    // Pairs with A ≤ B (S = A): iterate A's support.
    let mut t1 = 0.0;
    {
        let mut mem_head = PrefixSweep::new(mem);
        let mut b_prefix = PrefixSweep::new(b);
        for (av, ap) in a.iter() {
            let q = (1.0 - mem_head.lt(av + 2.0).0).max(0.0); // Pr[M ≥ S+2]
            let (pb_lt, eb_lt) = b_prefix.lt(av);
            let pb_ge = 1.0 - pb_lt;
            let eb_ge = b_total_e - eb_lt;
            // M ≥ S+2:  Σ_{b≥a} P(b)(a + b)   = a·Pr[B≥a] + E[B·1{B≥a}]
            // M <  S+2: Σ_{b≥a} P(b)(a + a·b) = a·Pr[B≥a] + a·E[B·1{B≥a}]
            t1 += ap * (q * (av * pb_ge + eb_ge) + (1.0 - q) * (av * pb_ge + av * eb_ge));
        }
    }
    // Pairs with A > B (S = B): iterate B's support.
    let mut t2 = 0.0;
    {
        let mut mem_head = PrefixSweep::new(mem);
        let mut a_prefix = PrefixSweep::new(a);
        for (bv, bp) in b.iter() {
            let q = (1.0 - mem_head.lt(bv + 2.0).0).max(0.0);
            let (pa_le, ea_le) = a_prefix.le(bv);
            let pa_gt = 1.0 - pa_le;
            let ea_gt = a_total_e - ea_le;
            // M ≥ S+2:  Σ_{a>b} P(a)(a + b)   = E[A·1{A>b}] + b·Pr[A>b]
            // M <  S+2: Σ_{a>b} P(a)(a + a·b) = E[A·1{A>b}] + b·E[A·1{A>b}]
            t2 += bp * (q * (ea_gt + bv * pa_gt) + (1.0 - q) * (ea_gt + bv * ea_gt));
        }
    }
    t1 + t2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::PaperCostModel;

    fn d(points: &[(f64, f64)]) -> Distribution {
        Distribution::new(points.iter().copied()).unwrap()
    }

    fn rel_err(x: f64, y: f64) -> f64 {
        (x - y).abs() / x.abs().max(y.abs()).max(1.0)
    }

    #[test]
    fn fast_kernels_match_naive_on_example_1_1() {
        let a = Distribution::point(1_000_000.0).unwrap();
        let b = Distribution::point(400_000.0).unwrap();
        let mem = d(&[(700.0, 0.2), (2000.0, 0.8)]);
        for method in JoinMethod::ALL {
            let naive = expected_join_naive(&PaperCostModel, method, &a, &b, &mem);
            let fast = expected_join_fast(method, &a, &b, &mem);
            assert!(rel_err(naive, fast) < 1e-12, "{method}: {naive} vs {fast}");
        }
        // And the headline number: E[Φ(SM)] = 0.8·2.8e6 + 0.2·5.6e6.
        assert!(rel_err(sm_expected_fast(&a, &b, &mem), 3.36e6) < 1e-12);
    }

    #[test]
    fn fast_kernels_match_naive_with_overlapping_supports() {
        // Supports that interleave and collide across A and B exercise the
        // tie-handling (A ≤ B vs A > B partition).
        let a = d(&[(10.0, 0.25), (50.0, 0.25), (100.0, 0.5)]);
        let b = d(&[(10.0, 0.3), (50.0, 0.4), (200.0, 0.3)]);
        let mem = d(&[(3.0, 0.2), (8.0, 0.3), (20.0, 0.3), (500.0, 0.2)]);
        for method in JoinMethod::ALL {
            let naive = expected_join_naive(&PaperCostModel, method, &a, &b, &mem);
            let fast = expected_join_fast(method, &a, &b, &mem);
            assert!(rel_err(naive, fast) < 1e-12, "{method}: {naive} vs {fast}");
        }
    }

    #[test]
    fn fast_kernels_match_naive_when_memory_sits_on_thresholds() {
        // Memory values exactly at √n, ⁴√n and S+2 probe the strict/non-
        // strict boundary conventions.
        let a = d(&[(16.0, 0.5), (256.0, 0.5)]);
        let b = d(&[(16.0, 0.5), (65536.0, 0.5)]);
        let mem = d(&[
            (2.0, 0.2),
            (4.0, 0.2),
            (16.0, 0.2),
            (18.0, 0.2),
            (256.0, 0.2),
        ]);
        for method in JoinMethod::ALL {
            let naive = expected_join_naive(&PaperCostModel, method, &a, &b, &mem);
            let fast = expected_join_fast(method, &a, &b, &mem);
            assert!(rel_err(naive, fast) < 1e-12, "{method}: {naive} vs {fast}");
        }
    }

    #[test]
    fn expected_sort_matches_manual() {
        let n = d(&[(100.0, 0.5), (10_000.0, 0.5)]);
        let mem = d(&[(50.0, 0.5), (20_000.0, 0.5)]);
        let e = expected_sort(&PaperCostModel, &n, &mem);
        // (100, 50): 50 ≤ √100? no, 50 > 10 → 2·100 = 200. (100, 2e4): 0.
        // (1e4, 50): ⁴√1e4 = 10 < 50 ≤ 100 → 4·1e4. (1e4, 2e4): 0.
        let manual = 0.25 * 200.0 + 0.25 * 40_000.0;
        assert!(rel_err(e, manual) < 1e-12);
    }

    #[test]
    fn degenerate_point_distributions() {
        let a = Distribution::point(100.0).unwrap();
        let b = Distribution::point(100.0).unwrap(); // tie between A and B
        let mem = Distribution::point(50.0).unwrap();
        for method in JoinMethod::ALL {
            let direct = PaperCostModel.join_cost(method, 100.0, 100.0, 50.0);
            let fast = expected_join_fast(method, &a, &b, &mem);
            assert!(rel_err(direct, fast) < 1e-12, "{method}");
        }
    }
}
