//! The one-processor-generator(-consumer) models of §3 — the paper's
//! Figure 1 algorithm — with indivisible integer packets.
//!
//! A single processor (index 0) generates and/or consumes packets; every
//! time its load has grown by the factor `f` (or shrunk by `1/f`) since
//! the last balancing it equalises its load with `δ` random partners.
//! These simulators provide the empirical side of Theorems 1–3 and of the
//! §6 cost analysis (Lemmas 5 and 6), cross-checked against the exact
//! operators in `dlb-theory`.

use crate::balance::{even_shares, sample_others_into};
use crate::params::Params;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Integer-packet simulator of the Figure 1 algorithm.
#[derive(Debug, Clone)]
pub struct OneProcModel {
    params: Params,
    loads: Vec<u64>,
    l_old: u64,
    rng: ChaCha8Rng,
    balance_ops: u64,
}

impl OneProcModel {
    /// Starts in a balanced state: every processor holds `initial` packets.
    pub fn new(params: Params, seed: u64, initial: u64) -> Self {
        OneProcModel {
            params,
            loads: vec![initial; params.n()],
            l_old: initial,
            rng: ChaCha8Rng::seed_from_u64(seed),
            balance_ops: 0,
        }
    }

    /// Current load vector (index 0 is the generator/consumer).
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Number of balancing operations performed so far (the paper's `t`).
    pub fn balance_ops(&self) -> u64 {
        self.balance_ops
    }

    /// Processor 0 generates one packet; balances if the grow trigger
    /// fires.  Returns `true` if a balancing operation ran.
    pub fn generate(&mut self) -> bool {
        self.loads[0] += 1;
        if self.params.grow_triggered(self.loads[0], self.l_old) {
            self.balance();
            true
        } else {
            false
        }
    }

    /// Processor 0 consumes one packet (no-op on empty); balances if the
    /// shrink trigger fires.  Returns `true` if a balancing operation ran.
    pub fn consume(&mut self) -> bool {
        if self.loads[0] == 0 {
            return false;
        }
        self.loads[0] -= 1;
        if self.params.shrink_triggered(self.loads[0], self.l_old) {
            self.balance();
            true
        } else {
            false
        }
    }

    /// Runs generation until exactly `t` balancing operations have fired.
    ///
    /// Uses bulk jumps: between triggers nothing but generation happens, so
    /// the load can be advanced straight to the trigger threshold
    /// `max(l_old + 1, ⌈f·l_old⌉)` (the loads grow geometrically — packet
    /// by packet this would take astronomically long).
    pub fn generate_until_ops(&mut self, t: u64) {
        while self.balance_ops < t {
            let threshold =
                ((self.params.f() * self.l_old as f64).ceil() as u64).max(self.l_old + 1);
            self.loads[0] = threshold;
            self.balance();
        }
    }

    /// Ratio of the generator's load to the mean load of the others.
    pub fn ratio(&self) -> f64 {
        let others: u64 = self.loads[1..].iter().sum();
        let mean = others as f64 / (self.loads.len() - 1) as f64;
        self.loads[0] as f64 / mean
    }

    fn balance(&mut self) {
        self.balance_ops += 1;
        let n = self.params.n();
        let delta = self.params.delta();
        let mut members: Vec<usize> = vec![0];
        sample_others_into(&mut self.rng, n, 0, delta, &mut members);
        let total: u64 = members.iter().map(|&m| self.loads[m]).sum();
        // Rotate the snake so the ±1 leftovers don't systematically favour
        // the generator.
        let mut shares = even_shares(total, members.len());
        if shares.len() > 1 {
            let rot = self.rng.gen_range(0..shares.len());
            shares.rotate_left(rot);
        }
        for (&m, &s) in members.iter().zip(shares.iter()) {
            self.loads[m] = s;
        }
        self.l_old = self.loads[0];
    }
}

/// Empirical mean ratio `E(l_1,t)/E(l_i,t)` of the generator model after
/// exactly `t` balancing operations, averaged over `runs` seeded runs
/// starting from a balanced state with `initial` packets each (Theorem 1's
/// `G^t(1)` with integer granularity `1/initial`).
pub fn mean_ratio_after_ops(params: Params, t: u64, runs: usize, initial: u64, seed: u64) -> f64 {
    let mut sum_gen = 0.0;
    let mut sum_other = 0.0;
    for r in 0..runs {
        let mut model = OneProcModel::new(params, seed.wrapping_add(r as u64), initial);
        model.generate_until_ops(t);
        sum_gen += model.loads()[0] as f64;
        sum_other += model.loads()[1..].iter().sum::<u64>() as f64 / (params.n() - 1) as f64;
    }
    sum_gen / sum_other
}

/// Counts the balancing operations the §4 decrease simulation needs to
/// consume `c` packets of processor 0's load class, starting from `x`
/// (§6, Lemmas 5 and 6).
///
/// Semantics: processor 0 owes a cumulative decrease of `c` packets (the
/// borrowed-marker settlement of §4).  It consumes until the shrink
/// trigger fires, balances (which refills it from the network), and
/// repeats until `c` packets have been consumed in total.  This is the
/// quantity the `D^t` decay of Lemma 5 models: each operation consumes a
/// `(1 − 1/f)` slice of the current level, and the level shrinks by the
/// factor `D` per operation.
///
/// The network starts at the generator model's steady state: processor 0
/// holds `x`, every other processor `x / FIX(n, δ, f)` (rounded).
pub fn decrease_ops(params: Params, x: u64, c: u64, seed: u64) -> u64 {
    assert!(c <= x, "cannot decrease below zero");
    let fix = dlb_theory::operators::fix(params.n(), params.delta(), params.f());
    let neighbour = ((x as f64) / fix).round().max(0.0) as u64;
    let mut model = OneProcModel::new(params, seed, neighbour);
    model.loads[0] = x;
    model.l_old = x;
    let mut remaining = c;
    while remaining > 0 {
        if model.loads[0] == 0 {
            // Drained dry (possible for tiny x): refill from the network.
            model.balance();
            if model.loads[0] == 0 {
                break; // the chosen neighbourhood is empty too
            }
            continue;
        }
        // Bulk-consume to the shrink threshold ⌊l_old / f⌋ (capped by the
        // outstanding obligation); between triggers nothing else happens.
        let threshold =
            ((model.l_old as f64 / params.f()).floor() as u64).min(model.l_old.saturating_sub(1));
        let to_trigger = model.loads[0].saturating_sub(threshold);
        if to_trigger >= remaining {
            model.loads[0] -= remaining;
            remaining = 0;
            // The final slice may itself land on the trigger.
            if params.shrink_triggered(model.loads[0], model.l_old) {
                model.balance();
            }
        } else {
            model.loads[0] = threshold;
            remaining -= to_trigger;
            model.balance();
        }
    }
    model.balance_ops
}

/// Mean of [`decrease_ops`] over `runs` seeds.
pub fn mean_decrease_ops(params: Params, x: u64, c: u64, runs: usize, seed: u64) -> f64 {
    (0..runs)
        .map(|r| decrease_ops(params, x, c, seed.wrapping_add(r as u64)) as f64)
        .sum::<f64>()
        / runs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_theory::claims::{self, Observation};
    use dlb_theory::TheoremBounds;

    #[test]
    fn generation_conserves_packets() {
        let params = Params::new(8, 1, 1.2, 4).unwrap();
        let mut model = OneProcModel::new(params, 1, 10);
        for _ in 0..500 {
            model.generate();
        }
        assert_eq!(model.loads().iter().sum::<u64>(), 8 * 10 + 500);
    }

    #[test]
    fn ratio_converges_to_fix() {
        // Theorem 1: the mean ratio after many ops approaches FIX(n, δ, f).
        let params = Params::new(16, 2, 1.5, 4).unwrap();
        let ratio = mean_ratio_after_ops(params, 400, 60, 2_000, 42);
        let thm1 = claims::by_id("thm1")
            .evaluate(params.algo(), &Observation::Ratio(ratio))
            .expect("inside");
        // Converged: within 8 % of FIX (the bound) on either side.
        assert!(
            thm1.slack().abs() < 0.08 * thm1.upper,
            "empirical {ratio} vs {thm1:?}"
        );
        // And FIX is below the Theorem 2 limit.
        let fix = Observation::Ratio(TheoremBounds::for_params(params.algo()).fix);
        let thm2 = claims::by_id("thm2").evaluate(params.algo(), &fix);
        assert!(thm2.expect("inside").holds_within(1e-12));
    }

    #[test]
    fn early_ratio_matches_g_iteration() {
        // After a handful of ops the ratio should track G^t(1), not yet FIX.
        let params = Params::new(16, 2, 1.5, 4).unwrap();
        let algo = *params.algo();
        for t in [3u64, 8, 20] {
            let empirical = mean_ratio_after_ops(params, t, 150, 5_000, 7);
            let expect = algo.g_iter(1.0, t as usize);
            assert!(
                (empirical - expect).abs() / expect < 0.08,
                "t={t}: empirical {empirical} vs G^t(1) {expect}"
            );
        }
    }

    #[test]
    fn consume_trigger_balances_back() {
        let params = Params::new(8, 1, 1.2, 4).unwrap();
        let mut model = OneProcModel::new(params, 3, 100);
        let mut balanced = false;
        for _ in 0..40 {
            balanced |= model.consume();
        }
        assert!(
            balanced,
            "shrink trigger should fire within 40 consumes at f=1.2"
        );
        // Balance refilled processor 0 from the partners.
        assert!(model.loads()[0] > 0);
    }

    #[test]
    fn decrease_ops_within_lemma_bounds() {
        let params = Params::new(64, 1, 1.1, 4).unwrap();
        let (x, c) = (1_000u64, 500u64);
        let ops = mean_decrease_ops(params, x, c, 40, 11);
        let lemma5 = claims::by_id("lemma5")
            .evaluate(params.algo(), &Observation::Decrease { x, c, ops })
            .expect("inside");
        let (lower, upper) = (lemma5.lower, lemma5.upper);
        // The bounds concern expectations; allow modest slack for the
        // integer simulation.
        assert!(
            ops >= lower * 0.7 && ops <= upper * 1.4,
            "measured {ops}, bounds [{lower}, {upper}]"
        );
    }

    #[test]
    fn decrease_ops_sensitive_to_f() {
        // §6: cost falls sharply as f grows.
        let slow = mean_decrease_ops(Params::new(64, 1, 1.05, 4).unwrap(), 1_000, 500, 20, 3);
        let fast = mean_decrease_ops(Params::new(64, 2, 1.8, 4).unwrap(), 1_000, 500, 20, 3);
        assert!(slow > 2.0 * fast, "f=1.05: {slow} ops, f=1.8: {fast} ops");
    }

    #[test]
    fn decrease_ops_scale_invariant_in_ratio() {
        let params = Params::new(64, 1, 1.1, 4).unwrap();
        let small = mean_decrease_ops(params, 1_000, 500, 30, 5);
        let large = mean_decrease_ops(params, 10_000, 5_000, 30, 5);
        assert!((small - large).abs() / small < 0.25, "{small} vs {large}");
    }

    #[test]
    #[should_panic(expected = "cannot decrease below zero")]
    fn decrease_more_than_load_panics() {
        let params = Params::new(8, 1, 1.1, 4).unwrap();
        decrease_ops(params, 10, 11, 0);
    }
}
