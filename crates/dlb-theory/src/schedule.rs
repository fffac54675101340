//! Mixed increase/decrease schedules — the one-processor-producer-
//! consumer model of §3 in full generality.
//!
//! A *schedule* is a word over `{G, C}`: at each balancing initiation the
//! generator's load has either grown by the factor `f` (a `G` step) or
//! shrunk by `1/f` (a `C` step).  Theorem 3 (claim `thm3` of
//! [`crate::claims`]) bounds the ratio along **any** such word from a
//! balanced state; this module applies words to the ratio, and computes
//! the contraction rate that governs how fast `G^t` converges (the
//! derivative of `G` at its fixed point).

use crate::operators::{fix, g_op, AlgoParams};

/// One step of a §3 schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Workload grew by factor `f` before the balancing.
    Grow,
    /// Workload shrank by factor `1/f` before the balancing.
    Shrink,
}

/// Applies a schedule word to a starting ratio, returning the trajectory
/// (length `word.len() + 1`, starting with `k0`).
pub fn apply_schedule(params: &AlgoParams, k0: f64, word: &[Op]) -> Vec<f64> {
    let mut out = Vec::with_capacity(word.len() + 1);
    out.push(k0);
    let mut k = k0;
    for &op in word {
        k = match op {
            Op::Grow => params.g(k),
            Op::Shrink => params.c(k),
        };
        out.push(k);
    }
    out
}

/// The derivative of `G` at a point `k`:
///
/// `G(k) = (k·f + δ)(n−1) / (δ·k·f + δ(n−2) + (n−1))`, so
/// `G'(k) = f·(n−1)·(δ(n−2) + (n−1) − δ²) / (δ·k·f + δ(n−2) + (n−1))²`.
pub fn g_derivative(n: usize, delta: usize, f: f64, k: f64) -> f64 {
    let nf = n as f64;
    let d = delta as f64;
    let den = d * k * f + d * (nf - 2.0) + (nf - 1.0);
    f * (nf - 1.0) * (d * (nf - 2.0) + (nf - 1.0) - d * d) / (den * den)
}

/// The contraction rate of the fixed-point iteration: `|G'(FIX)| < 1`
/// (which is what makes Banach's theorem applicable).  Convergence to
/// within `ε` of `FIX` takes roughly `log ε / log rate` steps.
pub fn contraction_rate(n: usize, delta: usize, f: f64) -> f64 {
    g_derivative(n, delta, f, fix(n, delta, f)).abs()
}

/// Predicted number of iterations for `G^t(1)` to come within relative
/// `eps` of the fixed point (via the contraction rate).
pub fn predicted_convergence_steps(n: usize, delta: usize, f: f64, eps: f64) -> usize {
    let rate = contraction_rate(n, delta, f);
    if rate <= 0.0 || rate >= 1.0 {
        return usize::MAX;
    }
    let fx = fix(n, delta, f);
    let gap0 = (fx - 1.0).abs().max(f64::MIN_POSITIVE) / fx;
    if gap0 <= eps {
        return 0;
    }
    ((eps / gap0).ln() / rate.ln()).ceil() as usize
}

/// Measured number of iterations for `G^t(1)` to come within relative
/// `eps` of the fixed point.
pub fn measured_convergence_steps(n: usize, delta: usize, f: f64, eps: f64) -> usize {
    let fx = fix(n, delta, f);
    let mut k = 1.0;
    for t in 0..1_000_000 {
        if (fx - k).abs() <= eps * fx {
            return t;
        }
        k = g_op(n, delta, f, k);
    }
    usize::MAX
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: usize, delta: usize, f: f64) -> AlgoParams {
        AlgoParams::new(n, delta, f).unwrap()
    }

    /// Claim `thm3` along the whole trajectory of `word` from 1.
    fn theorem3_invariant_holds(params: &AlgoParams, word: &[Op]) -> bool {
        let thm3 = crate::claims::by_id("thm3");
        apply_schedule(params, 1.0, word).into_iter().all(|k| {
            let margin = thm3.evaluate(params, &crate::claims::Observation::Ratio(k));
            margin.is_some_and(|m| m.holds_within(1e-9))
        })
    }

    #[test]
    fn derivative_matches_finite_differences() {
        for &(n, delta, f, k) in &[
            (64usize, 1usize, 1.1f64, 1.0f64),
            (64, 4, 1.8, 2.5),
            (16, 2, 1.3, 0.8),
        ] {
            let h = 1e-6;
            let numeric = (g_op(n, delta, f, k + h) - g_op(n, delta, f, k - h)) / (2.0 * h);
            let closed = g_derivative(n, delta, f, k);
            assert!(
                (numeric - closed).abs() < 1e-5 * closed.abs().max(1.0),
                "n={n} δ={delta} f={f} k={k}: {numeric} vs {closed}"
            );
        }
    }

    #[test]
    fn contraction_rate_below_one() {
        for &(n, delta, f) in &[(64usize, 1usize, 1.1f64), (64, 4, 1.8), (1024, 8, 2.0)] {
            let rate = contraction_rate(n, delta, f);
            assert!(
                rate > 0.0 && rate < 1.0,
                "rate {rate} for ({n},{delta},{f})"
            );
        }
    }

    #[test]
    fn predicted_convergence_close_to_measured() {
        for &(n, delta, f) in &[(64usize, 1usize, 1.1f64), (64, 4, 1.8), (256, 2, 1.3)] {
            let eps = 1e-6;
            let predicted = predicted_convergence_steps(n, delta, f, eps);
            let measured = measured_convergence_steps(n, delta, f, eps);
            // Linear-rate prediction is an approximation; agree within 2x.
            assert!(
                predicted <= 2 * measured + 5 && measured <= 2 * predicted + 5,
                "({n},{delta},{f}): predicted {predicted}, measured {measured}"
            );
        }
    }

    #[test]
    fn theorem3_holds_for_alternating_words() {
        let p = params(64, 1, 1.1);
        let word: Vec<Op> = (0..500)
            .map(|i| if i % 2 == 0 { Op::Grow } else { Op::Shrink })
            .collect();
        assert!(theorem3_invariant_holds(&p, &word));
    }

    #[test]
    fn theorem3_holds_for_blocks() {
        let p = params(64, 4, 1.8);
        let mut word = vec![Op::Grow; 200];
        word.extend(vec![Op::Shrink; 400]);
        word.extend(vec![Op::Grow; 100]);
        assert!(theorem3_invariant_holds(&p, &word));
    }

    #[test]
    fn trajectory_endpoints() {
        let p = params(16, 2, 1.4);
        let traj = apply_schedule(&p, 1.0, &[Op::Grow, Op::Grow, Op::Shrink]);
        assert_eq!(traj.len(), 4);
        assert_eq!(traj[0], 1.0);
        assert!((traj[1] - p.g(1.0)).abs() < 1e-15);
        assert!((traj[3] - p.c(p.g(p.g(1.0)))).abs() < 1e-15);
    }
}
