//! The expectation operators `G` and `C` of Lemma 1 and their fixed point
//! `FIX(n, δ, f)` (Theorems 1 and 2).
//!
//! In the one-processor-generator model, if `k = E(l_1,t) / E(l_i,t)` is the
//! ratio between the expected load of the generating processor and any other
//! processor after `t` balancing operations, then after one more operation
//! the ratio is `G(k)` where
//!
//! ```text
//! G(k) = (k·f + δ)(n − 1) / (δ·k·f + δ(n − 2) + (n − 1))
//! ```
//!
//! The corresponding operator for a workload *decrease* by factor `f` is
//! `C(k) = G(k)` with `f` replaced by `1/f`.  Both are contractions on the
//! relevant interval (Banach), so iterating from any start converges to the
//! unique positive fixed point `FIX(n, δ, f) = sqrt((n−1)/f + A²) − A` with
//! `A = (f − f·n + δ(n − 2) + (n − 1)) / (2·δ·f)`.

use std::fmt;

/// Error returned when algorithm parameters violate the paper's standing
/// assumptions.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// The trigger factor must satisfy `1 ≤ f < δ + 1` (Theorems 1–4).
    FactorOutOfRange { f: f64, delta: usize },
    /// The neighbourhood must be non-empty and smaller than the network.
    DeltaOutOfRange { delta: usize, n: usize },
    /// The network must contain at least two processors.
    NetworkTooSmall { n: usize },
    /// `f` must be a finite number.
    NonFinite { f: f64 },
}

impl fmt::Display for ParamError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::FactorOutOfRange { f, delta } => write!(
                out,
                "trigger factor f = {f} outside the admissible range 1 <= f < delta + 1 = {}",
                *delta as f64 + 1.0
            ),
            ParamError::DeltaOutOfRange { delta, n } => {
                write!(
                    out,
                    "neighbourhood size delta = {delta} must satisfy 1 <= delta < n = {n}"
                )
            }
            ParamError::NetworkTooSmall { n } => {
                write!(out, "network size n = {n} must be at least 2")
            }
            ParamError::NonFinite { f } => write!(out, "trigger factor f = {f} is not finite"),
        }
    }
}

impl std::error::Error for ParamError {}

/// Validated `(n, δ, f)` triple satisfying the paper's standing assumptions
/// `n ≥ 2`, `1 ≤ δ < n` and `1 ≤ f < δ + 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoParams {
    n: usize,
    delta: usize,
    f: f64,
}

impl AlgoParams {
    /// Validates and constructs an `(n, δ, f)` triple.
    pub fn new(n: usize, delta: usize, f: f64) -> Result<Self, ParamError> {
        if !f.is_finite() {
            return Err(ParamError::NonFinite { f });
        }
        if n < 2 {
            return Err(ParamError::NetworkTooSmall { n });
        }
        if delta == 0 || delta >= n {
            return Err(ParamError::DeltaOutOfRange { delta, n });
        }
        if !(1.0..(delta as f64 + 1.0)).contains(&f) {
            return Err(ParamError::FactorOutOfRange { f, delta });
        }
        Ok(AlgoParams { n, delta, f })
    }

    /// Network size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Neighbourhood size `δ` (number of randomly chosen partners).
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// Trigger factor `f`.
    pub fn f(&self) -> f64 {
        self.f
    }

    /// The increase operator `G` of Lemma 1 applied to a ratio `k`.
    pub(crate) fn g(&self, k: f64) -> f64 {
        g_op(self.n, self.delta, self.f, k)
    }

    /// The decrease operator `C` of Lemma 3 applied to a ratio `k`
    /// (this is `G` with `f` replaced by `1/f`).
    pub(crate) fn c(&self, k: f64) -> f64 {
        g_op(self.n, self.delta, 1.0 / self.f, k)
    }

    /// `G^t(k)`: `t`-fold iteration of the increase operator.
    pub fn g_iter(&self, k: f64, t: usize) -> f64 {
        (0..t).fold(k, |acc, _| self.g(acc))
    }

    /// `C^t(k)`: `t`-fold iteration of the decrease operator.
    pub fn c_iter(&self, k: f64, t: usize) -> f64 {
        (0..t).fold(k, |acc, _| self.c(acc))
    }
}

/// The raw operator `G(k) = (k·f + δ)(n − 1) / (δ·k·f + δ(n − 2) + (n − 1))`.
///
/// Exposed unvalidated so the decrease operator (`f → 1/f`, which leaves the
/// admissible range) and out-of-range explorations can use it; prefer
/// `AlgoParams::g` in application code.
pub fn g_op(n: usize, delta: usize, f: f64, k: f64) -> f64 {
    let nf = n as f64;
    let d = delta as f64;
    (k * f + d) * (nf - 1.0) / (d * k * f + d * (nf - 2.0) + (nf - 1.0))
}

/// The constant `A = (f − f·n + δ(n − 2) + (n − 1)) / (2·δ·f)` of Lemma 2.
pub(crate) fn a_const(n: usize, delta: usize, f: f64) -> f64 {
    let nf = n as f64;
    let d = delta as f64;
    (f - f * nf + d * (nf - 2.0) + (nf - 1.0)) / (2.0 * d * f)
}

/// `FIX(n, δ, f) = sqrt((n − 1)/f + A²) − A`: the unique positive fixed
/// point of `G` (Lemma 2 / Theorem 1).
pub fn fix(n: usize, delta: usize, f: f64) -> f64 {
    let a = a_const(n, delta, f);
    ((n as f64 - 1.0) / f + a * a).sqrt() - a
}

/// `δ / (δ + 1 − f)`: the network-size-independent limit and upper bound of
/// `FIX(n, δ, f)` (Theorem 2). Requires `f < δ + 1` to be positive/finite.
pub fn fix_limit(delta: usize, f: f64) -> f64 {
    let d = delta as f64;
    d / (d + 1.0 - f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: usize, delta: usize, f: f64) -> AlgoParams {
        AlgoParams::new(n, delta, f).expect("valid params")
    }

    #[test]
    fn param_validation() {
        assert!(AlgoParams::new(64, 1, 1.1).is_ok());
        assert!(AlgoParams::new(64, 4, 1.8).is_ok());
        assert!(
            AlgoParams::new(64, 1, 2.0).is_err(),
            "f must be < delta + 1"
        );
        assert!(AlgoParams::new(64, 1, 0.9).is_err(), "f must be >= 1");
        assert!(AlgoParams::new(64, 0, 1.1).is_err(), "delta >= 1");
        assert!(AlgoParams::new(64, 64, 1.1).is_err(), "delta < n");
        assert!(AlgoParams::new(1, 1, 1.0).is_err(), "n >= 2");
        assert!(AlgoParams::new(64, 1, f64::NAN).is_err());
        // f = 1 is admissible (the degenerate "balance on every packet" case).
        assert!(AlgoParams::new(64, 1, 1.0).is_ok());
    }

    #[test]
    fn g_matches_hand_computation() {
        // n = 64, delta = 1, f = 1.1, k = 1:
        // G(1) = (1.1 + 1)·63 / (1.1 + 62 + 63) = 132.3 / 126.1
        let g = g_op(64, 1, 1.1, 1.0);
        assert!((g - 132.3 / 126.1).abs() < 1e-12, "g = {g}");
    }

    #[test]
    fn fix_is_a_fixed_point_of_g() {
        for &(n, delta, f) in &[
            (64usize, 1usize, 1.1f64),
            (64, 4, 1.8),
            (1024, 8, 2.5),
            (2, 1, 1.0),
            (16, 2, 1.5),
            (35, 4, 1.2),
        ] {
            let k = fix(n, delta, f);
            let g = g_op(n, delta, f, k);
            assert!(
                (g - k).abs() < 1e-9 * k.max(1.0),
                "FIX not fixed: n={n} delta={delta} f={f}: FIX={k}, G(FIX)={g}"
            );
        }
    }

    #[test]
    fn fix_inv_is_a_fixed_point_of_c() {
        let prm = p(64, 1, 1.1);
        let k = fix(64, 1, 1.0 / 1.1);
        assert!((prm.c(k) - k).abs() < 1e-9);
    }

    #[test]
    fn lemma2_threshold_behaviour() {
        // G(k) > k for k < FIX, G(k) < k for k > FIX.
        let prm = p(64, 2, 1.4);
        let fx = fix(64, 2, 1.4);
        assert!(prm.g(fx * 0.5) > fx * 0.5);
        assert!(prm.g(fx * 2.0) < fx * 2.0);
    }

    #[test]
    fn theorem1_monotone_convergence_from_balanced_start() {
        // G^t(1) increases monotonically to FIX and never exceeds it.
        let prm = p(64, 1, 1.1);
        let fx = fix(64, 1, 1.1);
        let mut k = 1.0;
        for _ in 0..10_000 {
            let next = prm.g(k);
            assert!(next >= k - 1e-15, "monotone");
            assert!(next <= fx + 1e-12, "bounded by FIX");
            k = next;
        }
        assert!((k - fx).abs() < 1e-9, "converged: {k} vs {fx}");
    }

    #[test]
    fn theorem1_convergence_from_any_start() {
        // Banach: convergence also from an imbalanced start above FIX.
        let prm = p(64, 4, 1.8);
        let fx = fix(64, 4, 1.8);
        for start in [100.0, 0.01] {
            let val = prm.g_iter(start, 10_000);
            assert!((val - fx).abs() < 1e-8, "{val} vs {fx}");
        }
    }

    #[test]
    fn theorem2_fix_bounded_by_limit_and_converges_in_n() {
        for &(delta, f) in &[(1usize, 1.1f64), (1, 1.8), (4, 1.1), (4, 1.8), (8, 3.0)] {
            let lim = fix_limit(delta, f);
            let mut prev_gap = f64::INFINITY;
            for n in [4usize, 16, 64, 256, 1024, 4096] {
                if delta >= n {
                    continue;
                }
                let fx = fix(n, delta, f);
                assert!(
                    fx <= lim + 1e-9,
                    "FIX({n},{delta},{f}) = {fx} > limit {lim}"
                );
                let gap = lim - fx;
                assert!(gap <= prev_gap + 1e-12, "gap should shrink with n");
                prev_gap = gap;
            }
            assert!(
                prev_gap < 1e-2 * lim,
                "FIX approaches limit: gap {prev_gap}"
            );
        }
    }

    #[test]
    fn fix_with_f_equal_one_is_one() {
        // With f = 1 the generator balances after every packet; the fixed
        // ratio is exactly 1 in the limit and FIX(n, δ, 1) = 1 for all n.
        for n in [2usize, 8, 64, 1024] {
            let fx = fix(n, 1, 1.0);
            assert!((fx - 1.0).abs() < 1e-9, "FIX({n},1,1) = {fx}");
        }
        assert!((fix_limit(1, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lemma3_decrease_fixed_point_below_one() {
        // FIX(n, δ, 1/f) <= 1 and >= δ/(δ+1−1/f) ... the paper's Lemma 3(2)
        // states C^t(1) >= FIX(n,δ,1/f) >= δ/(δ+1−1/f)?  Numerically the
        // limit δ/(δ+1−1/f) lies *below* FIX(n,δ,1/f) for finite n.
        let prm = p(64, 1, 1.1);
        let fx_inv = fix(64, 1, 1.0 / 1.1);
        assert!(fx_inv < 1.0);
        assert!(fx_inv >= fix_limit(1, 1.0 / 1.1) - 1e-12);
        // Iterating C from a balanced start stays above the fixed point.
        let mut k = 1.0;
        for _ in 0..10_000 {
            k = prm.c(k);
            assert!(k >= fx_inv - 1e-12);
        }
        assert!((k - fx_inv).abs() < 1e-9);
    }

    #[test]
    fn iterate_matches_closed_iteration() {
        let prm = p(64, 2, 1.3);
        assert!((prm.g_iter(1.0, 3) - prm.g(prm.g(prm.g(1.0)))).abs() < 1e-15);
        assert!((prm.c_iter(1.0, 2) - prm.c(prm.c(1.0))).abs() < 1e-15);
    }

    #[test]
    fn error_display_is_informative() {
        let err = AlgoParams::new(64, 1, 2.5).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("2.5"), "{text}");
    }
}
