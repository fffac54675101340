//! The computation-graph model of §5.
//!
//! A computation of the one-processor-generator model with `δ = 1` is
//! described by the sequence `c_1, …, c_t` of balancing candidates chosen
//! by the generator.  The paper encodes such a sequence as a graph on nodes
//! `0, …, t`:
//!
//! * a *forward* edge `(i−1, i)` with label `f/2` — the generator's load
//!   grew by factor `f` and contributes half of the new average;
//! * a *bow* edge `(j, i)` with label `1/2`, where `j` is the last step at
//!   which candidate `c_i` participated (`j = 0` if it never did) — the
//!   candidate still holds the value it received at step `j` and
//!   contributes the other half.
//!
//! The load of the generator after step `t` is then the sum of the label
//! products over all paths from node 0 to node `t`, which equals the
//! direct recursion `v_i = (f/2)·v_{i−1} + (1/2)·v_{last(c_i)}` — both
//! evaluations are implemented and tested against each other.
//!
//! The module also implements the occupancy counts `n(t, u)` (number of
//! candidate sequences of length `t` using exactly `u` distinct
//! processors; the paper's footnote recurrence) and the refined counts
//! `n(t, u, i)` used by the paper's variation recursion, plus a
//! numerically stable probability version for large `t`.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A `δ = 1` computation graph: the candidate sequence plus the derived
/// bow-edge targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompGraph {
    /// Candidate chosen at each step `1..=t` (values in `0..p`).
    pub candidates: Vec<usize>,
    /// `bow[i]` = node the bow edge of step `i+1` comes from
    /// (the last previous step using the same candidate, or 0).
    pub bow: Vec<usize>,
}

impl CompGraph {
    /// Builds the graph for a given candidate sequence.
    pub fn from_candidates(candidates: Vec<usize>) -> Self {
        let mut last_use: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut bow = Vec::with_capacity(candidates.len());
        for (step0, &c) in candidates.iter().enumerate() {
            let step = step0 + 1;
            bow.push(last_use.get(&c).copied().unwrap_or(0));
            last_use.insert(c, step);
        }
        CompGraph { candidates, bow }
    }

    /// Samples a uniform random candidate sequence of length `t` over `p`
    /// processors.
    pub fn sample(p: usize, t: usize, rng: &mut impl Rng) -> Self {
        let candidates = (0..t).map(|_| rng.gen_range(0..p)).collect();
        Self::from_candidates(candidates)
    }

    /// Number of balancing steps `t`.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True if the graph has no steps.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Number of distinct processors used.
    pub fn processors_used(&self) -> usize {
        let mut seen: Vec<usize> = self.candidates.clone();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Evaluates `v_t` by the direct recursion
    /// `v_i = (f/2)·v_{i−1} + (1/2)·v_{bow(i)}`, starting from `v_0`.
    ///
    /// Returns the full node-value vector `v_0 ..= v_t`.
    pub fn evaluate(&self, f: f64, v0: f64) -> Vec<f64> {
        let t = self.len();
        let mut v = Vec::with_capacity(t + 1);
        v.push(v0);
        for i in 1..=t {
            let val = 0.5 * f * v[i - 1] + 0.5 * v[self.bow[i - 1]];
            v.push(val);
        }
        v
    }

    /// Evaluates `v_t` as the sum of label products over all paths from
    /// node 0 to node `t` (the paper's definition).  Exponential in the
    /// number of bow edges on a path in the worst case; used to validate
    /// [`CompGraph::evaluate`] on small graphs.
    pub fn path_sum(&self, f: f64, v0: f64) -> f64 {
        // Dynamic count: weight reaching node k = Σ over incoming edges of
        // weight(source)·label — identical to `evaluate`, so to make this
        // a genuinely independent check we enumerate paths recursively
        // backwards from node t.
        fn rec(graph: &CompGraph, f: f64, v0: f64, node: usize) -> f64 {
            if node == 0 {
                return v0;
            }
            let fwd = 0.5 * f * rec(graph, f, v0, node - 1);
            let bow = 0.5 * rec(graph, f, v0, graph.bow[node - 1]);
            fwd + bow
        }
        rec(self, f, v0, self.len())
    }
}

/// `n(t, u)`: the number of candidate sequences of length `t` over a pool
/// of `u` processors that use **all** `u` of them, via the paper's
/// footnote recurrence `n(t, u) = u^t − Σ_{j<u} n(t, j)·C(u, j)`.
///
/// Returns `None` on `u128` overflow (large `t`); use
/// [`occupancy_prob`] instead for large instances.
pub fn occupancy_count(t: u32, u: u32) -> Option<u128> {
    if u == 0 {
        return Some(if t == 0 { 1 } else { 0 });
    }
    if (u as u64) > (t as u64) {
        return Some(0);
    }
    let mut table: Vec<u128> = Vec::with_capacity(u as usize + 1);
    table.push(if t == 0 { 1 } else { 0 }); // n(t, 0)
    for uu in 1..=u {
        let mut val = (uu as u128).checked_pow(t)?;
        for j in 1..uu {
            let term = table[j as usize].checked_mul(binomial(uu as u64, j as u64)?)?;
            val = val.checked_sub(term)?;
        }
        table.push(val);
    }
    Some(table[u as usize])
}

/// Binomial coefficient `C(n, k)` in `u128`, `None` on overflow.
pub fn binomial(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.checked_mul((n - i) as u128)?;
        acc /= (i + 1) as u128;
    }
    Some(acc)
}

/// `n(t, u, i)`: among length-`t` sequences over exactly `u` processors,
/// the number whose step-`t` candidate was last used at step `i` (`i = 0`:
/// never used before) and not in any step between.  Brute-force count over
/// all `u^t` sequences restricted to surjective ones; for tests only.
pub fn occupancy_count_refined_bruteforce(t: u32, u: u32, i: u32) -> u64 {
    assert!(t <= 12 && u <= 6, "brute force only for small instances");
    // 6¹² < 2³²: the number of sequences fits a `u32`.
    let total = u.pow(t) as usize;
    let t = t as usize;
    let u = u as usize;
    let mut count = 0u64;
    for code in 0..total {
        let mut seq = Vec::with_capacity(t);
        let mut x = code;
        for _ in 0..t {
            seq.push(x % u);
            x /= u;
        }
        let mut distinct: Vec<usize> = seq.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() != u {
            continue;
        }
        let last = seq[t - 1];
        let mut last_prev = 0usize;
        for (step0, &c) in seq[..t - 1].iter().enumerate() {
            if c == last {
                last_prev = step0 + 1;
            }
        }
        if last_prev == i as usize {
            count += 1;
        }
    }
    count
}

/// Probability that a uniform random candidate sequence of length `t` over
/// `p` processors uses exactly `u` distinct processors.  Numerically
/// stable `O(t·u)` dynamic program (no big integers), exact up to f64
/// rounding.
pub fn occupancy_prob(t: usize, u: usize, p: usize) -> f64 {
    if u > p || u > t {
        return if t == 0 && u == 0 { 1.0 } else { 0.0 };
    }
    // q[k] = P(exactly k distinct after current number of steps).
    let mut q = vec![0.0f64; u + 1];
    q[0] = 1.0;
    let pf = p as f64;
    for _ in 0..t {
        let mut next = vec![0.0f64; u + 1];
        for k in 0..=u {
            if q[k] == 0.0 {
                continue;
            }
            // Stay at k distinct: reuse one of the k.
            next[k] += q[k] * (k as f64 / pf);
            // Grow to k+1 distinct.
            if k < u {
                next[k + 1] += q[k] * ((pf - k as f64) / pf);
            }
        }
        q = next;
    }
    q[u]
}

/// Monte-Carlo estimate of `(E[v_t], VD(v_t))` for the generator via the
/// computation-graph representation: sample graphs, evaluate path sums.
pub fn graph_monte_carlo(p: usize, f: f64, t: usize, runs: usize, seed: u64) -> (f64, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut sum = 0.0;
    let mut sumsq = 0.0;
    for _ in 0..runs {
        let graph = CompGraph::sample(p, t, &mut rng);
        let v = graph.evaluate(f, 1.0);
        let vt = v[t];
        sum += vt;
        sumsq += vt * vt;
    }
    let mean = sum / runs as f64;
    (
        mean,
        crate::moments::variation_density(sumsq / runs as f64, mean),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn paper_example_graph_bows() {
        // Paper Figure 2 example: candidates (2, 4, -3, 3, 4, 2, 2) of
        // processor 1 — the "-3" appears to be a typo for 3; with
        // candidates (2,4,3,3,4,2,2) the bow structure is:
        // step1: 2 never used -> bow 0;  step2: 4 -> 0;  step3: 3 -> 0;
        // step4: 3 last at 3; step5: 4 last at 2; step6: 2 last at 1;
        // step7: 2 last at 6.
        let graph = CompGraph::from_candidates(vec![2, 4, 3, 3, 4, 2, 2]);
        assert_eq!(graph.bow, vec![0, 0, 0, 3, 2, 1, 6]);
        assert_eq!(graph.processors_used(), 3);
    }

    #[test]
    fn evaluate_matches_path_sum() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..50 {
            let graph = CompGraph::sample(4, 10, &mut rng);
            let direct = graph.evaluate(1.3, 1.0)[10];
            let paths = graph.path_sum(1.3, 1.0);
            assert!((direct - paths).abs() < 1e-9 * direct.abs().max(1.0));
        }
    }

    #[test]
    fn evaluate_with_f_one_conserves_scale() {
        // f = 1: every node value is a convex combination of earlier
        // values, so starting from all-ones every value is exactly 1.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let graph = CompGraph::sample(5, 20, &mut rng);
        for v in graph.evaluate(1.0, 1.0) {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn occupancy_count_is_surjection_count() {
        // n(t, u) = u!·S(t, u): n(3, 2) = 6, n(4, 2) = 14, n(4, 3) = 36.
        assert_eq!(occupancy_count(3, 2), Some(6));
        assert_eq!(occupancy_count(4, 2), Some(14));
        assert_eq!(occupancy_count(4, 3), Some(36));
        assert_eq!(occupancy_count(5, 5), Some(120)); // 5!
        assert_eq!(occupancy_count(3, 4), Some(0)); // can't use 4 in 3 steps
        assert_eq!(occupancy_count(0, 0), Some(1));
    }

    #[test]
    fn refined_counts_sum_to_total() {
        // Σ_{i=0}^{t−1} n(t, u, i) = n(t, u).
        for &(t, u) in &[(4u32, 2u32), (5, 3), (6, 3)] {
            let total: u64 = (0..t)
                .map(|i| occupancy_count_refined_bruteforce(t, u, i))
                .sum();
            assert_eq!(total as u128, occupancy_count(t, u).unwrap(), "t={t} u={u}");
        }
    }

    #[test]
    fn occupancy_prob_matches_counts() {
        // P(exactly u distinct | pool p) = n(t,u)·C(p,u) / p^t.
        for &(t, u, p) in &[(5u32, 3u32, 4u32), (6, 2, 6), (8, 5, 5)] {
            let count = occupancy_count(t, u).unwrap() as f64;
            let choose = binomial(p.into(), u.into()).unwrap() as f64;
            let expected = count * choose / f64::from(p).powi(t as i32);
            let got = occupancy_prob(t as usize, u as usize, p as usize);
            assert!(
                (got - expected).abs() < 1e-12,
                "t={t} u={u} p={p}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn occupancy_prob_sums_to_one() {
        let (t, p) = (150usize, 35usize);
        let total: f64 = (0..=p).map(|u| occupancy_prob(t, u, p)).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn graph_mc_agrees_with_moment_recursion() {
        let (p, f, t) = (6usize, 1.2f64, 30usize);
        let (mean, vd) = graph_monte_carlo(p, f, t, 60_000, 11);
        let mut st = crate::moments::MomentState::balanced(p, 1, f, 1.0);
        st.advance(t);
        assert!((mean - st.m0).abs() / st.m0 < 0.02, "{mean} vs {}", st.m0);
        assert!(
            (vd - st.vd_generator()).abs() < 0.03,
            "{vd} vs {}",
            st.vd_generator()
        );
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(10, 3), Some(120));
        assert_eq!(binomial(5, 0), Some(1));
        assert_eq!(binomial(3, 5), Some(0));
    }
}
