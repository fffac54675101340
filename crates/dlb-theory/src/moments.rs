//! Exact first and second moments of the load in the one-processor-generator
//! model, and the *variation density* of §5 (Figure 6).
//!
//! # The model
//!
//! One generator (the paper's processor 1) and `p = n − 1` candidate
//! processors all start with the same load `v₀`.  Between two balancing
//! operations the generator's load grows by the trigger factor `f`; at a
//! balancing operation it chooses a uniform random `δ`-subset `S` of the
//! candidates and the `δ + 1` participants all take the average
//! `ν = (f·w₀ + Σ_{j∈S} w_j)/(δ + 1)`.
//!
//! # The engine
//!
//! The paper computes `E(v_t²)` with a partially-printed recursion over
//! *computation graphs* of cost `O(p²·t³)`.  We instead observe that the
//! update above is linear and symmetric in the candidates, so the sextuple
//!
//! ```text
//! m₀ = E[w₀]     m₁ = E[w_c]          (any candidate c)
//! q₀₀ = E[w₀²]   q₁₁ = E[w_c²]   q₀₁ = E[w₀·w_c]   q₁₂ = E[w_c·w_d]  (c ≠ d)
//! ```
//!
//! is closed under the balancing update: one step costs `O(1)` and the
//! whole curve of Figure 6 costs `O(t)`.  The recursion is *exact* — it is
//! cross-validated in the tests against exhaustive enumeration of all
//! candidate sequences and against Monte-Carlo sampling, and its mean
//! ratio `m₀/m₁` reproduces the operator `G` of Lemma 1 step for step.
//!
//! The *variation density* of the paper is
//! `VD(l_{i,t}) = sqrt(E(l²) − E(l)²)/E(l)` for a candidate processor
//! `i > 1`; [`MomentState::vd_candidate`] computes it (and
//! [`MomentState::vd_generator`] the analogous quantity for processor 1).

use rand::prelude::*;
use rand::seq::index::sample;
use rand_chacha::ChaCha8Rng;

/// Exact joint-moment state of the one-processor-generator model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomentState {
    /// Number of candidate processors (`p = n − 1`).
    pub p: usize,
    /// Neighbourhood size `δ ≤ p`.
    pub delta: usize,
    /// Trigger factor `f ≥ 1`.
    pub f: f64,
    /// `E[w₀]`: expected load of the generator.
    pub m0: f64,
    /// `E[w_c]`: expected load of any candidate.
    pub m1: f64,
    /// `E[w₀²]`.
    pub q00: f64,
    /// `E[w_c²]`.
    pub q11: f64,
    /// `E[w₀·w_c]`.
    pub q01: f64,
    /// `E[w_c·w_d]` for distinct candidates `c ≠ d` (0 when `p = 1`).
    pub q12: f64,
    /// Number of balancing steps performed so far.
    pub t: usize,
}

impl MomentState {
    /// Balanced start: every processor holds load `v0 > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is 0 or exceeds `p`, or if `f < 1` or `v0 <= 0`.
    pub fn balanced(p: usize, delta: usize, f: f64, v0: f64) -> Self {
        assert!(
            delta >= 1 && delta <= p,
            "need 1 <= delta <= p (got delta={delta}, p={p})"
        );
        assert!(f >= 1.0 && f.is_finite(), "need f >= 1 (got {f})");
        assert!(v0 > 0.0, "need a positive initial load (got {v0})");
        MomentState {
            p,
            delta,
            f,
            m0: v0,
            m1: v0,
            q00: v0 * v0,
            q11: v0 * v0,
            q01: v0 * v0,
            q12: if p >= 2 { v0 * v0 } else { 0.0 },
            t: 0,
        }
    }

    /// Advances the exact moment recursion by one balancing operation
    /// (the generator's load grew by the factor `f` since the last one).
    pub fn step(&mut self) {
        self.step_with_factor(self.f);
    }

    /// One balancing operation after the generator's load *shrank* by the
    /// factor `f` (the producer-consumer model's `C` direction).
    pub fn step_shrink(&mut self) {
        self.step_with_factor(1.0 / self.f);
    }

    fn step_with_factor(&mut self, f: f64) {
        self.op_with(self.delta, f);
    }

    /// One §5 *relaxed* balancing step: instead of one `δ`-subset
    /// operation, `δ` successive pairwise operations with fresh uniform
    /// candidates — the growth factor applies only before the first.
    /// This is the algorithm the paper's Figure 6 actually evaluated for
    /// `δ > 1`; comparing it with [`MomentState::step`] quantifies the
    /// relaxation error.
    pub fn step_relaxed(&mut self) {
        let delta = self.delta;
        let t_before = self.t;
        self.op_with(1, self.f);
        for _ in 1..delta {
            self.op_with(1, 1.0);
        }
        self.t = t_before + 1; // one balancing step, not δ
    }

    fn op_with(&mut self, delta: usize, f: f64) {
        let (p, d) = (self.p as f64, delta as f64);
        let dp1 = d + 1.0;

        // Moments of the post-balance value ν = (f·w₀ + Σ_{j∈S} w_j)/(δ+1).
        // By candidate symmetry these are the same conditioned on any fixed
        // candidate being inside S (shown by expanding the conditional sums).
        let e_nu = (f * self.m0 + d * self.m1) / dp1;
        let e_nu2 =
            (f * f * self.q00 + 2.0 * f * d * self.q01 + d * self.q11 + d * (d - 1.0) * self.q12)
                / (dp1 * dp1);
        // E[ν·w_c] for a candidate c outside S.
        let e_nu_out = (f * self.q01 + d * self.q12) / dp1;

        let in_s = d / p; // P(fixed candidate ∈ S)
        let m1 = in_s * e_nu + (1.0 - in_s) * self.m1;
        let q11 = in_s * e_nu2 + (1.0 - in_s) * self.q11;
        let q01 = in_s * e_nu2 + (1.0 - in_s) * e_nu_out;
        let q12 = if self.p >= 2 {
            let pp = p * (p - 1.0);
            let both = d * (d - 1.0) / pp;
            let one = 2.0 * d * (p - d) / pp;
            let none = (p - d) * (p - d - 1.0) / pp;
            both * e_nu2 + one * e_nu_out + none * self.q12
        } else {
            0.0
        };

        self.m0 = e_nu;
        self.q00 = e_nu2;
        self.m1 = m1;
        self.q11 = q11;
        self.q01 = q01;
        self.q12 = q12;
        self.t += 1;
    }

    /// Advances by `steps` balancing operations.
    pub fn advance(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// `E(l_1)/E(l_i)`: ratio of expected loads, which equals `G^t(1)` of
    /// Lemma 1 when started from a balanced state.
    pub fn ratio(&self) -> f64 {
        self.m0 / self.m1
    }

    /// Variation density of a candidate processor (`i > 1`), the quantity
    /// plotted in Figure 6: `sqrt(E(l²) − E(l)²)/E(l)`.
    pub fn vd_candidate(&self) -> f64 {
        variation_density(self.q11, self.m1)
    }

    /// Variation density of the generating processor.
    pub fn vd_generator(&self) -> f64 {
        variation_density(self.q00, self.m0)
    }
}

/// `sqrt(max(E[X²] − E[X]², 0)) / E[X]`, clamping tiny negative variance
/// from floating-point cancellation.
pub fn variation_density(second_moment: f64, mean: f64) -> f64 {
    (second_moment - mean * mean).max(0.0).sqrt() / mean
}

/// The relaxed-algorithm variation-density curve (the engine the paper's
/// Figure 6 used for `δ > 1`).
pub fn vd_curve_relaxed(p: usize, delta: usize, f: f64, steps: usize) -> Vec<f64> {
    let mut st = MomentState::balanced(p, delta, f, 1.0);
    let mut out = Vec::with_capacity(steps + 1);
    out.push(st.vd_candidate());
    for _ in 0..steps {
        st.step_relaxed();
        out.push(st.vd_candidate());
    }
    out
}

/// The full variation-density curve `t = 0 ..= steps` for a candidate
/// processor, as plotted in Figure 6.
pub fn vd_curve(p: usize, delta: usize, f: f64, steps: usize) -> Vec<f64> {
    let mut st = MomentState::balanced(p, delta, f, 1.0);
    let mut out = Vec::with_capacity(steps + 1);
    out.push(st.vd_candidate());
    for _ in 0..steps {
        st.step();
        out.push(st.vd_candidate());
    }
    out
}

/// Variation-density curve for an arbitrary grow/shrink schedule — the
/// §5 analysis extended to the one-processor-producer-consumer model.
/// Entry `k` of the result is the candidate VD after the first `k` steps
/// of `word`.
pub fn vd_curve_schedule(p: usize, delta: usize, f: f64, word: &[crate::schedule::Op]) -> Vec<f64> {
    let mut st = MomentState::balanced(p, delta, f, 1.0);
    let mut out = Vec::with_capacity(word.len() + 1);
    out.push(st.vd_candidate());
    for &op in word {
        match op {
            crate::schedule::Op::Grow => st.step(),
            crate::schedule::Op::Shrink => st.step_shrink(),
        }
        out.push(st.vd_candidate());
    }
    out
}

/// Monte-Carlo counterpart of [`vd_curve_schedule`]'s endpoint: runs the
/// real-valued model through `word` and returns
/// `(mean_gen, vd_gen, mean_cand, vd_cand)`.
pub fn monte_carlo_schedule(
    p: usize,
    delta: usize,
    f: f64,
    word: &[crate::schedule::Op],
    runs: usize,
    seed: u64,
) -> (f64, f64, f64, f64) {
    assert!(delta >= 1 && delta <= p);
    assert!(runs > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut sum0 = 0.0;
    let mut sumsq0 = 0.0;
    let mut sum1 = 0.0;
    let mut sumsq1 = 0.0;
    for _ in 0..runs {
        let mut w0 = 1.0f64;
        let mut w = vec![1.0f64; p];
        for &op in word {
            let factor = match op {
                crate::schedule::Op::Grow => f,
                crate::schedule::Op::Shrink => 1.0 / f,
            };
            let picked: Vec<usize> = sample(&mut rng, p, delta).iter().collect();
            let total: f64 = factor * w0 + picked.iter().map(|&j| w[j]).sum::<f64>();
            let nu = total / (delta as f64 + 1.0);
            w0 = nu;
            for &j in &picked {
                w[j] = nu;
            }
        }
        sum0 += w0;
        sumsq0 += w0 * w0;
        for &wj in &w {
            sum1 += wj;
            sumsq1 += wj * wj;
        }
    }
    let n0 = runs as f64;
    let n1 = (runs * p) as f64;
    let (m0, q0) = (sum0 / n0, sumsq0 / n0);
    let (m1, q1) = (sum1 / n1, sumsq1 / n1);
    (m0, variation_density(q0, m0), m1, variation_density(q1, m1))
}

/// How candidates are selected at a balancing operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// The true algorithm: a uniform `δ`-subset (without replacement).
    Subset,
    /// The paper's §5 "relaxed" algorithm: `δ` successive *pairwise*
    /// balances with fresh uniform candidates, growth applied once.
    Relaxed,
}

/// Monte-Carlo estimate of the one-processor-generator model with
/// real-valued loads, matching the semantics of [`MomentState`].
///
/// Returns `(mean_gen, vd_gen, mean_cand, vd_cand)` measured after `steps`
/// balancing operations, averaged over `runs` independent seeded runs
/// (candidate statistics are averaged over all candidates).
pub fn monte_carlo(
    p: usize,
    delta: usize,
    f: f64,
    steps: usize,
    runs: usize,
    seed: u64,
    selection: Selection,
) -> (f64, f64, f64, f64) {
    assert!(delta >= 1 && delta <= p);
    assert!(runs > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut sum0 = 0.0;
    let mut sumsq0 = 0.0;
    let mut sum1 = 0.0;
    let mut sumsq1 = 0.0;
    let mut picked: Vec<usize> = Vec::with_capacity(delta);
    for _ in 0..runs {
        let mut w0 = 1.0f64;
        let mut w = vec![1.0f64; p];
        for _ in 0..steps {
            match selection {
                Selection::Subset => {
                    picked.clear();
                    picked.extend(sample(&mut rng, p, delta).iter());
                    let grown = f * w0;
                    let total: f64 = grown + picked.iter().map(|&j| w[j]).sum::<f64>();
                    let nu = total / (picked.len() as f64 + 1.0);
                    w0 = nu;
                    for &j in &picked {
                        w[j] = nu;
                    }
                }
                Selection::Relaxed => {
                    let mut cur = f * w0;
                    for _ in 0..delta {
                        let j = rng.gen_range(0..p);
                        let avg = (cur + w[j]) / 2.0;
                        w[j] = avg;
                        cur = avg;
                    }
                    w0 = cur;
                }
            }
        }
        sum0 += w0;
        sumsq0 += w0 * w0;
        for &wj in &w {
            sum1 += wj;
            sumsq1 += wj * wj;
        }
    }
    let n0 = runs as f64;
    let n1 = (runs * p) as f64;
    let (m0, q0) = (sum0 / n0, sumsq0 / n0);
    let (m1, q1) = (sum1 / n1, sumsq1 / n1);
    (m0, variation_density(q0, m0), m1, variation_density(q1, m1))
}

/// Exhaustive enumeration over *all* candidate-subset sequences of length
/// `steps` (for cross-validation; cost `C(p,δ)^steps`).
///
/// Returns the same tuple as [`monte_carlo`], but exactly.
///
/// # Panics
///
/// Panics if the enumeration would exceed ~10⁷ states.
pub fn enumerate_exact(p: usize, delta: usize, f: f64, steps: usize) -> (f64, f64, f64, f64) {
    let subsets = k_subsets(p, delta);
    let count = subsets.len();
    let total: f64 = (count as f64).powi(steps as i32);
    assert!(total <= 1e7, "enumeration too large: {count}^{steps}");

    let mut acc = Accum::default();
    let mut w = vec![1.0f64; p];
    enumerate_rec(&subsets, f, steps, 1.0, &mut w, &mut acc);
    let n0 = acc.count;
    let n1 = acc.count * p as f64;
    let (m0, q0) = (acc.sum0 / n0, acc.sumsq0 / n0);
    let (m1, q1) = (acc.sum1 / n1, acc.sumsq1 / n1);
    (m0, variation_density(q0, m0), m1, variation_density(q1, m1))
}

#[derive(Default)]
struct Accum {
    count: f64,
    sum0: f64,
    sumsq0: f64,
    sum1: f64,
    sumsq1: f64,
}

fn enumerate_rec(
    subsets: &[Vec<usize>],
    f: f64,
    remaining: usize,
    w0: f64,
    w: &mut [f64],
    acc: &mut Accum,
) {
    if remaining == 0 {
        acc.count += 1.0;
        acc.sum0 += w0;
        acc.sumsq0 += w0 * w0;
        for &wj in w.iter() {
            acc.sum1 += wj;
            acc.sumsq1 += wj * wj;
        }
        return;
    }
    for s in subsets {
        let grown = f * w0;
        let total: f64 = grown + s.iter().map(|&j| w[j]).sum::<f64>();
        let nu = total / (s.len() as f64 + 1.0);
        let saved: Vec<f64> = s.iter().map(|&j| w[j]).collect();
        for &j in s {
            w[j] = nu;
        }
        enumerate_rec(subsets, f, remaining - 1, nu, w, acc);
        for (&j, &old) in s.iter().zip(saved.iter()) {
            w[j] = old;
        }
    }
}

/// All `δ`-subsets of `{0, .., p−1}` in lexicographic order.
pub fn k_subsets(p: usize, delta: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(delta);
    fn rec(start: usize, p: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k == 0 {
            out.push(cur.clone());
            return;
        }
        for i in start..=(p - k) {
            cur.push(i);
            rec(i + 1, p, k - 1, cur, out);
            cur.pop();
        }
    }
    if delta <= p {
        rec(0, p, delta, &mut cur, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::AlgoParams;

    #[test]
    fn balanced_start_has_zero_variation() {
        let st = MomentState::balanced(10, 1, 1.1, 1.0);
        assert_eq!(st.vd_candidate(), 0.0);
        assert_eq!(st.vd_generator(), 0.0);
        assert_eq!(st.ratio(), 1.0);
    }

    #[test]
    fn ratio_reproduces_lemma1_operator_g() {
        // The mean ratio of the moment recursion must equal G^t(1) exactly,
        // for several (n, δ, f).
        for &(n, delta, f) in &[
            (64usize, 1usize, 1.1f64),
            (64, 4, 1.8),
            (10, 2, 1.2),
            (35, 4, 1.2),
        ] {
            let params = AlgoParams::new(n, delta, f).unwrap();
            let mut st = MomentState::balanced(n - 1, delta, f, 1.0);
            for t in 1..=200 {
                st.step();
                let expected = params.g_iter(1.0, t);
                assert!(
                    (st.ratio() - expected).abs() < 1e-9 * expected,
                    "n={n} d={delta} f={f} t={t}: {} vs {expected}",
                    st.ratio()
                );
            }
        }
    }

    #[test]
    fn moments_match_exhaustive_enumeration_delta1() {
        for &(p, f, steps) in &[(2usize, 1.1f64, 7usize), (3, 1.5, 6), (4, 1.9, 5)] {
            let (em0, evd0, em1, evd1) = enumerate_exact(p, 1, f, steps);
            let mut st = MomentState::balanced(p, 1, f, 1.0);
            st.advance(steps);
            assert!((st.m0 - em0).abs() < 1e-9 * em0, "m0: {} vs {em0}", st.m0);
            assert!((st.m1 - em1).abs() < 1e-9 * em1, "m1: {} vs {em1}", st.m1);
            assert!((st.vd_generator() - evd0).abs() < 1e-7, "vd0 p={p} f={f}");
            assert!((st.vd_candidate() - evd1).abs() < 1e-7, "vd1 p={p} f={f}");
        }
    }

    #[test]
    fn moments_match_exhaustive_enumeration_delta2_and_3() {
        for &(p, delta, f, steps) in &[
            (4usize, 2usize, 1.3f64, 5usize),
            (5, 2, 2.0, 4),
            (4, 3, 1.7, 5),
        ] {
            let (em0, evd0, em1, evd1) = enumerate_exact(p, delta, f, steps);
            let mut st = MomentState::balanced(p, delta, f, 1.0);
            st.advance(steps);
            assert!((st.m0 - em0).abs() < 1e-9 * em0);
            assert!((st.m1 - em1).abs() < 1e-9 * em1);
            assert!((st.vd_generator() - evd0).abs() < 1e-7, "p={p} δ={delta}");
            assert!((st.vd_candidate() - evd1).abs() < 1e-7, "p={p} δ={delta}");
        }
    }

    #[test]
    fn moments_match_monte_carlo() {
        let (p, delta, f, steps) = (10, 2, 1.2, 40);
        let mut st = MomentState::balanced(p, delta, f, 1.0);
        st.advance(steps);
        let (m0, vd0, m1, vd1) = monte_carlo(p, delta, f, steps, 40_000, 7, Selection::Subset);
        assert!((st.m0 - m0).abs() / st.m0 < 0.02, "m0 {} vs MC {m0}", st.m0);
        assert!((st.m1 - m1).abs() / st.m1 < 0.02, "m1 {} vs MC {m1}", st.m1);
        assert!(
            (st.vd_generator() - vd0).abs() < 0.03,
            "{} vs {vd0}",
            st.vd_generator()
        );
        assert!(
            (st.vd_candidate() - vd1).abs() < 0.03,
            "{} vs {vd1}",
            st.vd_candidate()
        );
    }

    #[test]
    fn figure6_variation_density_small_and_convergent() {
        // §5 / Figure 6: VD is small in general, converges quickly in t,
        // and can be bounded independent of network size.
        for &(delta, f) in &[
            (1usize, 1.1f64),
            (1, 1.2),
            (2, 1.1),
            (2, 1.2),
            (4, 1.1),
            (4, 1.2),
        ] {
            for p in [9usize, 34] {
                let curve = vd_curve(p, delta, f, 150);
                let last = curve[150];
                assert!(last < 1.0, "VD stays small: δ={delta} f={f} p={p}: {last}");
                // Converged: the last 30 steps move by < 2%.
                let drift = (curve[150] - curve[120]).abs();
                assert!(drift < 0.02 * last.max(0.05), "converged: drift={drift}");
            }
        }
    }

    #[test]
    fn figure6_tradeoff_larger_delta_smaller_vd() {
        // Figure 6 ordering: for fixed f, larger δ gives lower VD.
        let p = 34;
        let f = 1.2;
        let vd1 = vd_curve(p, 1, f, 150)[150];
        let vd2 = vd_curve(p, 2, f, 150)[150];
        let vd4 = vd_curve(p, 4, f, 150)[150];
        assert!(
            vd1 > vd2 && vd2 > vd4,
            "VD(δ=1)={vd1} > VD(δ=2)={vd2} > VD(δ=4)={vd4}"
        );
    }

    #[test]
    fn relaxed_selection_close_to_subset_for_small_delta_over_p() {
        // With δ = 1 the relaxed and true algorithms coincide exactly.
        let a = monte_carlo(6, 1, 1.4, 25, 20_000, 3, Selection::Subset);
        let b = monte_carlo(6, 1, 1.4, 25, 20_000, 3, Selection::Relaxed);
        assert!((a.0 - b.0).abs() / a.0 < 0.02);
        assert!((a.3 - b.3).abs() < 0.03);
    }

    #[test]
    fn relaxed_moments_match_relaxed_monte_carlo() {
        let (p, delta, f, steps) = (8usize, 3usize, 1.2f64, 25usize);
        let mut st = MomentState::balanced(p, delta, f, 1.0);
        for _ in 0..steps {
            st.step_relaxed();
        }
        let (m0, vd0, m1, vd1) = monte_carlo(p, delta, f, steps, 40_000, 9, Selection::Relaxed);
        assert!((st.m0 - m0).abs() / st.m0 < 0.02, "m0 {} vs {m0}", st.m0);
        assert!((st.m1 - m1).abs() / st.m1 < 0.02, "m1 {} vs {m1}", st.m1);
        assert!(
            (st.vd_generator() - vd0).abs() < 0.03,
            "{} vs {vd0}",
            st.vd_generator()
        );
        assert!(
            (st.vd_candidate() - vd1).abs() < 0.03,
            "{} vs {vd1}",
            st.vd_candidate()
        );
    }

    #[test]
    fn relaxed_moments_match_exhaustive_enumeration() {
        // Enumerate every pairwise-candidate tuple: the relaxed step with
        // δ sub-ops is the δ=1 process with factor word (f, 1, 1, …).
        let (p, delta, f, steps) = (3usize, 2usize, 1.5f64, 3usize);
        let mut acc = Accum::default();
        fn rec(p: usize, word: &[f64], w0: f64, w: &mut Vec<f64>, acc: &mut Accum) {
            if word.is_empty() {
                acc.count += 1.0;
                acc.sum0 += w0;
                acc.sumsq0 += w0 * w0;
                for &wj in w.iter() {
                    acc.sum1 += wj;
                    acc.sumsq1 += wj * wj;
                }
                return;
            }
            for j in 0..p {
                let avg = (word[0] * w0 + w[j]) / 2.0;
                let saved = w[j];
                w[j] = avg;
                rec(p, &word[1..], avg, w, acc);
                w[j] = saved;
            }
        }
        let mut word = Vec::new();
        for _ in 0..steps {
            word.push(f);
            word.extend(std::iter::repeat_n(1.0, delta - 1));
        }
        let mut w = vec![1.0f64; p];
        rec(p, &word, 1.0, &mut w, &mut acc);
        let n0 = acc.count;
        let n1 = acc.count * p as f64;
        let (em0, eq0) = (acc.sum0 / n0, acc.sumsq0 / n0);
        let (em1, eq1) = (acc.sum1 / n1, acc.sumsq1 / n1);

        let mut st = MomentState::balanced(p, delta, f, 1.0);
        for _ in 0..steps {
            st.step_relaxed();
        }
        assert!((st.m0 - em0).abs() < 1e-9 * em0, "{} vs {em0}", st.m0);
        assert!((st.m1 - em1).abs() < 1e-9 * em1, "{} vs {em1}", st.m1);
        assert!((st.vd_generator() - variation_density(eq0, em0)).abs() < 1e-7);
        assert!((st.vd_candidate() - variation_density(eq1, em1)).abs() < 1e-7);
    }

    #[test]
    fn relaxation_error_is_small_but_nonzero() {
        // The paper's Figure 6 used the relaxed engine for δ > 1; the true
        // subset algorithm gives slightly different (typically lower) VD.
        let true_vd = vd_curve(34, 4, 1.2, 150)[150];
        let relaxed_vd = vd_curve_relaxed(34, 4, 1.2, 150)[150];
        assert!(
            (true_vd - relaxed_vd).abs() > 1e-4,
            "engines differ: {true_vd} vs {relaxed_vd}"
        );
        assert!(
            (true_vd - relaxed_vd).abs() < 0.3 * true_vd.max(relaxed_vd),
            "but not wildly: {true_vd} vs {relaxed_vd}"
        );
    }

    #[test]
    fn k_subsets_counts() {
        assert_eq!(k_subsets(5, 2).len(), 10);
        assert_eq!(k_subsets(4, 4).len(), 1);
        assert_eq!(k_subsets(3, 1), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn delta_larger_than_p_panics() {
        MomentState::balanced(3, 4, 1.1, 1.0);
    }

    #[test]
    fn shrink_ratio_reproduces_operator_c() {
        // Alternating grow/shrink: the mean ratio must track the mixed
        // operator word G, C, G, C, ... exactly (Theorem 3 machinery).
        let params = crate::operators::AlgoParams::new(16, 2, 1.4).unwrap();
        let mut st = MomentState::balanced(15, 2, 1.4, 1.0);
        let mut k = 1.0;
        for i in 0..100 {
            if i % 2 == 0 {
                st.step();
                k = params.g(k);
            } else {
                st.step_shrink();
                k = params.c(k);
            }
            assert!(
                (st.ratio() - k).abs() < 1e-9 * k,
                "step {i}: {} vs {k}",
                st.ratio()
            );
        }
        // Theorem 3: the ratio stayed inside [FIX(n,δ,1/f), FIX(n,δ,f)].
        let bounds = crate::TheoremBounds::for_params(&params);
        assert!(st.ratio() >= bounds.fix_inv - 1e-9);
        assert!(st.ratio() <= bounds.fix + 1e-9);
    }

    #[test]
    fn mixed_schedule_vd_matches_monte_carlo() {
        use crate::schedule::Op;
        let word: Vec<Op> = (0..30)
            .map(|i| if i % 3 == 0 { Op::Shrink } else { Op::Grow })
            .collect();
        let exact = vd_curve_schedule(10, 2, 1.3, &word);
        let (_, _, _, mc_vd) = monte_carlo_schedule(10, 2, 1.3, &word, 40_000, 13);
        let last = *exact.last().unwrap();
        assert!((last - mc_vd).abs() < 0.03, "exact {last} vs MC {mc_vd}");
    }

    #[test]
    fn producer_consumer_vd_stays_bounded() {
        use crate::schedule::Op;
        // Long alternating schedule: VD converges to a bounded oscillation
        // rather than growing (the §5 claim extended to consumption).
        let word: Vec<Op> = (0..400)
            .map(|i| if i % 2 == 0 { Op::Grow } else { Op::Shrink })
            .collect();
        let curve = vd_curve_schedule(34, 1, 1.2, &word);
        let late_max = curve[200..].iter().copied().fold(0.0f64, f64::max);
        assert!(
            late_max < 0.5,
            "VD bounded under producer-consumer: {late_max}"
        );
        let drift = (curve[400] - curve[300]).abs();
        assert!(drift < 0.02, "converged oscillation: {drift}");
    }
}
