//! The arithmetic behind Theorems 1–4 and the cost bounds of §6
//! (Lemmas 5 and 6); what each claim states, and where, is
//! [`crate::claims`].
//!
//! The paper's bounds fall into two groups:
//!
//! * **Balance-quality bounds** ([`TheoremBounds`]): how far apart the
//!   expected loads of any two processors can drift, as a function of
//!   `(n, δ, f)` and the borrow limit `C`.
//! * **Cost bounds** ([`CostBounds`]): how many balancing operations a
//!   simulated workload decrease needs — the constants `U`, `D` and the
//!   sequence `D_i` together with the Lemma 5 lower/upper bounds and the
//!   improved implicit bound of Lemma 6.

use crate::operators::{fix, fix_limit, g_op, AlgoParams};

/// The balance-quality guarantees of Theorems 1–4 for a parameter triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoremBounds {
    /// `FIX(n, δ, f)` — Theorem 1: upper bound (and limit) of `G^t(1)`.
    pub fix: f64,
    /// `FIX(n, δ, 1/f)` — Lemma 3(2): lower bound (and limit) of `C^t(1)`.
    pub fix_inv: f64,
    /// `δ/(δ+1−f)` — Theorem 2: network-size-independent upper bound.
    pub fix_limit: f64,
    /// `δ/(δ+1−1/f)` — Lemma 3(3): network-size-independent decrease limit.
    pub fix_inv_limit: f64,
    /// `f²·δ/(δ+1−f)` — the multiplicative constant of Theorem 4(2).
    pub theorem4_coeff: f64,
}

impl TheoremBounds {
    /// Computes every bound for a validated parameter triple.
    pub fn for_params(params: &AlgoParams) -> Self {
        let (n, delta, f) = (params.n(), params.delta(), params.f());
        TheoremBounds {
            fix: fix(n, delta, f),
            fix_inv: fix(n, delta, 1.0 / f),
            fix_limit: fix_limit(delta, f),
            fix_inv_limit: fix_limit(delta, 1.0 / f),
            theorem4_coeff: f * f * fix_limit(delta, f),
        }
    }

    /// `f²·δ/(δ+1−f) · (load_j + C)`: Theorem 4(2)'s bound on `E(l_i)`
    /// given `E(l_j) = load_j` and the borrow limit `C`.
    pub fn theorem4_upper(&self, load_j: f64, c_borrow: usize) -> f64 {
        self.theorem4_coeff * (load_j + c_borrow as f64)
    }
}

/// §6 cost analysis: bounds on the expected number of balancing operations
/// needed to decrease the self-generated load of a processor from `x` to
/// `x − c > 0` (the *decrease simulation* of §4).
#[derive(Debug, Clone, Copy)]
pub struct CostBounds {
    params: AlgoParams,
    /// `U = 1/(f(δ+1)) · (1 + f·δ / FIX(n, δ, 1/f))`.
    pub u: f64,
    /// `D = 1/(f(δ+1)) · (1 + δ·f / FIX(n, δ, f))`.
    pub d: f64,
}

impl CostBounds {
    /// Computes `U` and `D` for a validated parameter triple.
    pub fn for_params(params: &AlgoParams) -> Self {
        let (n, delta, f) = (params.n(), params.delta(), params.f());
        CostBounds {
            params: *params,
            u: shrink_factor(params, fix(n, delta, 1.0 / f)),
            d: shrink_factor(params, fix(n, delta, f)),
        }
    }

    /// `D_i = 1/(f(δ+1)) · (1 + δ·f / C^i(FIX(n, δ, f)))` (Lemma 6): the
    /// per-step shrink factor after `i` applications of the decrease
    /// operator to the starting ratio `FIX(n, δ, f)`.
    pub fn d_i(&self, i: usize) -> f64 {
        let (n, delta, f) = (self.params.n(), self.params.delta(), self.params.f());
        let mut ratio = fix(n, delta, f);
        for _ in 0..i {
            ratio = g_op(n, delta, 1.0 / f, ratio);
        }
        shrink_factor(&self.params, ratio)
    }

    /// Lemma 5's lower bound (claim `lemma5` in [`crate::claims`]) on the
    /// expected number of balancing operations needed to decrease the
    /// class-`i` load on processor `i` from `x` to `x − c > 0`, floored
    /// at 0.
    ///
    /// Returns `None` when the bound's argument leaves the domain of the
    /// logarithm (possible for extreme `x`, `c`) or when `f = 1` (the
    /// formula has `f − 1` in a denominator).
    pub fn lemma5_lower(&self, x: u64, c: u64) -> Option<u64> {
        let f = self.params.f();
        if c == 0 {
            return Some(0);
        }
        if c >= x || f <= 1.0 {
            return None;
        }
        let (xf, cf) = (x as f64, c as f64);
        let num = f * f * (cf - xf) + xf - 1.0;
        let den = (f - 1.0) * (xf + 1.0);
        let arg = num / den * (self.u - 1.0) + 1.0;
        if arg <= 0.0 || self.u <= 0.0 || (self.u - 1.0).abs() < 1e-15 {
            return None;
        }
        let t = (arg.ln() / self.u.ln()).floor();
        Some(t.max(0.0) as u64)
    }

    /// Lemma 5's upper bound (claim `lemma5`); `None` where its validity
    /// condition fails or the argument leaves the domain of the logarithm.
    pub fn lemma5_upper(&self, x: u64, c: u64) -> Option<u64> {
        let f = self.params.f();
        if c == 0 {
            return Some(0);
        }
        if c >= x || x <= 1 || f <= 1.0 {
            return None;
        }
        let (xf, cf) = (x as f64, c as f64);
        let target = (cf + xf * f - xf - f) / ((xf - 1.0) * f * (1.0 - 1.0 / f));
        if self.d >= 1.0 || 1.0 / (1.0 - self.d) < target {
            return None;
        }
        let arg = target * (self.d - 1.0) + 1.0;
        if arg <= 0.0 {
            return None;
        }
        Some((arg.ln() / self.d.ln()).ceil() as u64)
    }

    /// Lemma 6's improved upper bound (claim `lemma6`).
    ///
    /// Returns `None` if the sum cannot reach the target within
    /// `max_iter` terms (the `D_i` approach `U` which may be ≥ the decay
    /// needed) or the parameters leave the formula's domain.
    pub fn lemma6_upper(&self, x: u64, c: u64, max_iter: usize) -> Option<u64> {
        let f = self.params.f();
        if c == 0 {
            // Zero decrease costs zero operations — agree with
            // `lemma5_lower`/`lemma5_upper`, which return `Some(0)` for
            // the same query (this used to return `Some(1)`).
            return Some(0);
        }
        if c == 1 {
            return Some(1);
        }
        if c >= x || x <= 1 || f <= 1.0 {
            return None;
        }
        let target = (c as f64 - 1.0) / ((x as f64 - 1.0) * f * (1.0 - 1.0 / f));
        let (n, delta) = (self.params.n(), self.params.delta());
        let mut ratio = fix(n, delta, f);
        let mut product = 1.0;
        let mut sum = 0.0;
        for i in 0..max_iter {
            product *= shrink_factor(&self.params, ratio);
            sum += product;
            if sum >= target {
                // sum over i = 0..=i corresponds to t − 2 = i, i.e. t = i + 2.
                return Some((i + 2) as u64);
            }
            ratio = g_op(n, delta, 1.0 / f, ratio);
        }
        None
    }
}

/// `1/(f(δ+1)) · (1 + δ·f / ratio)`: `U` at `ratio = FIX(n, δ, 1/f)`, `D`
/// at `FIX(n, δ, f)` and `D_i` at `C^i(FIX(n, δ, f))`.
fn shrink_factor(params: &AlgoParams, ratio: f64) -> f64 {
    let (d_f, f) = (params.delta() as f64, params.f());
    1.0 / (f * (d_f + 1.0)) * (1.0 + d_f * f / ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: usize, delta: usize, f: f64) -> AlgoParams {
        AlgoParams::new(n, delta, f).expect("valid")
    }

    #[test]
    fn theorem_bounds_hand_values() {
        // n = 64, δ = 1, f = 1.1: FIX ≈ 1.111 (≈ δ/(δ+1−f) = 1/0.9).
        let tb = TheoremBounds::for_params(&params(64, 1, 1.1));
        assert!((tb.fix_limit - 1.0 / 0.9).abs() < 1e-12);
        assert!(tb.fix <= tb.fix_limit && tb.fix > 1.0);
        assert!(tb.fix_inv < 1.0 && tb.fix_inv >= tb.fix_inv_limit);
        assert!((tb.theorem4_coeff - 1.1 * 1.1 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn theorem3_interval_brackets_one() {
        for &(n, delta, f) in &[(64usize, 1usize, 1.1f64), (64, 4, 1.8), (256, 2, 1.3)] {
            let tb = TheoremBounds::for_params(&params(n, delta, f));
            let (lo, hi) = (tb.fix_inv, tb.fix);
            assert!(lo <= 1.0 + 1e-12 && hi >= 1.0 - 1e-12, "({lo}, {hi})");
            assert!(lo > 0.0);
        }
    }

    #[test]
    fn theorem4_upper_is_monotone_in_c() {
        let tb = TheoremBounds::for_params(&params(64, 1, 1.1));
        assert!(tb.theorem4_upper(10.0, 4) < tb.theorem4_upper(10.0, 32));
        assert!(10.0 <= tb.theorem4_upper(10.0, 4));
    }

    #[test]
    fn cost_constants_in_expected_ranges() {
        // f = 1.1, δ = 1, n = 64: U ≈ 0.998, D ≈ 0.905 (hand-computed).
        let cb = CostBounds::for_params(&params(64, 1, 1.1));
        assert!((cb.u - 0.998).abs() < 5e-3, "U = {}", cb.u);
        assert!((cb.d - 0.905).abs() < 5e-3, "D = {}", cb.d);
        // D_0 = D by definition.
        assert!((cb.d_i(0) - cb.d).abs() < 1e-12);
        // D_i increases towards U as the ratio decays towards FIX(n,δ,1/f).
        assert!(cb.d_i(5) > cb.d_i(0));
        assert!(cb.d_i(200) <= cb.u + 1e-9);
    }

    #[test]
    fn lemma5_bounds_bracket_lemma6() {
        let cb = CostBounds::for_params(&params(64, 1, 1.1));
        let lower = cb.lemma5_lower(100, 50).expect("lower bound defined");
        let upper = cb.lemma5_upper(100, 50).expect("upper bound defined");
        let improved = cb.lemma6_upper(100, 50, 10_000).expect("lemma 6 defined");
        assert!(lower <= upper, "lower {lower} <= upper {upper}");
        assert!(
            improved <= upper,
            "lemma 6 ({improved}) improves on lemma 5 ({upper})"
        );
        assert!(lower <= improved, "{lower} <= {improved}");
        // Hand-computed: t_low ≈ 3, t_up ≈ 9 for these parameters.
        assert!((2..=5).contains(&lower), "lower = {lower}");
        assert!((7..=11).contains(&upper), "upper = {upper}");
    }

    #[test]
    fn lemma5_zero_decrease_is_free() {
        let cb = CostBounds::for_params(&params(64, 2, 1.4));
        assert_eq!(cb.lemma5_lower(10, 0), Some(0));
        assert_eq!(cb.lemma5_upper(10, 0), Some(0));
    }

    #[test]
    fn zero_decrease_bounds_agree_across_lemmas() {
        // Regression: `lemma6_upper` used to report `Some(1)` for c = 0
        // while both Lemma 5 bounds reported `Some(0)` — an upper bound
        // below a... nonexistent cost.  All three must agree that a zero
        // decrease is free, for any parameter set.
        for &(n, delta, f) in &[(64usize, 1usize, 1.1f64), (64, 2, 1.4), (16, 4, 1.8)] {
            let cb = CostBounds::for_params(&params(n, delta, f));
            for x in [2u64, 10, 1000] {
                assert_eq!(cb.lemma5_lower(x, 0), Some(0), "n={n} x={x}");
                assert_eq!(cb.lemma5_upper(x, 0), Some(0), "n={n} x={x}");
                assert_eq!(cb.lemma6_upper(x, 0, 100), Some(0), "n={n} x={x}");
            }
            // c = 1 keeps its one-operation upper bound.
            assert_eq!(cb.lemma6_upper(10, 1, 100), Some(1));
        }
    }

    #[test]
    fn lemma5_invalid_domains_return_none() {
        let cb = CostBounds::for_params(&params(64, 1, 1.1));
        assert_eq!(cb.lemma5_lower(10, 10), None, "c >= x");
        assert_eq!(cb.lemma5_upper(1, 1), None, "x <= 1");
        let cb1 = CostBounds::for_params(&params(64, 1, 1.0));
        assert_eq!(cb1.lemma5_lower(10, 5), None, "f = 1 leaves the domain");
    }

    #[test]
    fn iterations_scale_with_ratio_not_absolute_size() {
        // §6: "the same results can be achieved for any other x and c if
        // c/x remains constant" — the bound should be (nearly) invariant
        // under scaling x and c together.
        let cb = CostBounds::for_params(&params(64, 1, 1.1));
        let a = cb.lemma5_upper(100, 50).unwrap();
        let b = cb.lemma5_upper(10_000, 5_000).unwrap();
        assert!((a as i64 - b as i64).abs() <= 1, "{a} vs {b}");
    }

    #[test]
    fn cost_sensitive_to_f_not_delta() {
        // §6: iteration count is very sensitive to f, nearly independent
        // of δ and n.
        let up_f11 = CostBounds::for_params(&params(64, 1, 1.1))
            .lemma5_upper(100, 50)
            .unwrap();
        let up_f18 = CostBounds::for_params(&params(64, 2, 1.8))
            .lemma5_upper(100, 50)
            .unwrap();
        assert!(
            up_f18 < up_f11,
            "larger f needs fewer ops: {up_f18} < {up_f11}"
        );
        let up_d1 = CostBounds::for_params(&params(64, 2, 1.5))
            .lemma5_upper(100, 50)
            .unwrap();
        let up_d8 = CostBounds::for_params(&params(64, 8, 1.5))
            .lemma5_upper(100, 50)
            .unwrap();
        let rel = (up_d1 as f64 - up_d8 as f64).abs() / up_d1 as f64;
        assert!(rel < 0.5, "delta has minor effect: {up_d1} vs {up_d8}");
    }
}
