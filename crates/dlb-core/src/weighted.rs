//! Heterogeneous processors: balancing proportional to speed.
//!
//! The paper assumes identical processors; on a machine where processor
//! `i` retires `s_i` packets per step, equal loads are *wrong* — the
//! balanced state has `l_i ∝ s_i` so that every processor finishes its
//! pool at the same time.  This extension (in the spirit of the paper's
//! "further research" on adapting the scheme) keeps the trigger rule
//! untouched and changes only the redistribution: a balance operation
//! gives member `i` the share `⌊total · s_i / Σs⌋` plus largest-remainder
//! corrections, so the *normalised* loads `l_i / s_i` are equalised as
//! tightly as indivisibility allows.  That redistribution is the whole
//! module: [`proportional_shares`] and a [`BalanceRule`] calling it;
//! everything else is the one raw-load engine of [`crate::simple`].

use crate::params::Params;
use crate::simple::{BalanceRule, RawCluster};
use crate::strategy::LoadBalancer;

/// Splits `total` proportionally to `weights` (largest-remainder method;
/// exact conservation, shares within one packet of the real proportion).
pub fn proportional_shares(total: u64, weights: &[u64]) -> Vec<u64> {
    let mut shares = Vec::with_capacity(weights.len());
    let mut remainders = Vec::with_capacity(weights.len());
    proportional_shares_into(total, weights, &mut shares, &mut remainders);
    shares
}

/// [`proportional_shares`] into caller-owned buffers (both cleared
/// first); `remainders` is pure scratch for the largest-remainder sort.
pub fn proportional_shares_into(
    total: u64,
    weights: &[u64],
    shares: &mut Vec<u64>,
    remainders: &mut Remainders,
) {
    assert!(!weights.is_empty(), "need at least one member");
    let weight_sum: u64 = weights.iter().sum();
    assert!(weight_sum > 0, "total weight must be positive");
    shares.clear();
    remainders.clear();
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let exact_num = (total as u128) * (w as u128);
        let share = (exact_num / weight_sum as u128) as u64;
        let rem = (exact_num % weight_sum as u128) as u64;
        shares.push(share);
        remainders.push((rem, i));
        assigned += share;
    }
    // Hand the leftover packets to the largest remainders.  The index
    // tiebreak makes the comparator a total order, so the unstable sort
    // (no allocation, unlike the stable one) is deterministic.
    remainders.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &remainders[..(total - assigned) as usize] {
        shares[i] += 1;
    }
}

/// `(remainder, member slot)` pairs of one largest-remainder split.
type Remainders = Vec<(u64, usize)>;

/// Shares proportional to processor speed; partners as in the paper
/// (uniform over everyone alive).
#[derive(Debug, Clone)]
pub struct ProportionalRule {
    /// Relative speed of each processor (packets retired per step).
    speeds: Vec<u64>,
    /// Scratch of one split: the members' speeds and the
    /// largest-remainder pairs.
    weights: Vec<u64>,
    remainders: Remainders,
}

impl ProportionalRule {
    /// A rule over per-processor speeds.
    ///
    /// # Panics
    ///
    /// Panics if any speed is zero.
    pub fn new(speeds: Vec<u64>) -> Self {
        assert!(speeds.iter().all(|&s| s > 0), "speeds must be positive");
        ProportionalRule {
            speeds,
            weights: Vec::new(),
            remainders: Vec::new(),
        }
    }
}

impl BalanceRule for ProportionalRule {
    fn name(&self) -> &'static str {
        "spaa93-weighted"
    }

    fn check_size(&self, n: usize) {
        assert_eq!(self.speeds.len(), n, "one speed per processor");
    }

    fn split(&mut self, members: &[usize], held: &[u64], shares: &mut Vec<u64>) {
        self.weights.clear();
        self.weights.extend(members.iter().map(|&m| self.speeds[m]));
        proportional_shares_into(
            held.iter().sum(),
            &self.weights,
            shares,
            &mut self.remainders,
        );
    }
}

/// The practical balancer for heterogeneous processor speeds: the
/// raw-load engine under the [`ProportionalRule`].
pub type WeightedCluster = RawCluster<ProportionalRule>;

impl WeightedCluster {
    /// A cluster with per-processor speeds (all positive).
    ///
    /// # Panics
    ///
    /// Panics if `speeds.len() != params.n()` or any speed is zero.
    pub fn new(params: Params, speeds: Vec<u64>, seed: u64) -> Self {
        Self::with_rule(params, ProportionalRule::new(speeds), seed)
    }

    /// The processor speeds.
    pub fn speeds(&self) -> &[u64] {
        &self.rule().speeds
    }

    /// Normalised loads `l_i / s_i` (the quantity the balancer equalises).
    pub fn normalized_loads(&self) -> Vec<f64> {
        self.loads()
            .iter()
            .zip(self.speeds())
            .map(|(&l, &s)| l as f64 / s as f64)
            .collect()
    }

    /// max/mean of the normalised loads (1.0 = perfectly speed-balanced).
    pub fn normalized_imbalance(&self) -> f64 {
        let norm = self.normalized_loads();
        let mean = norm.iter().sum::<f64>() / norm.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        norm.iter().copied().fold(0.0, f64::max) / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::LoadEvent;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn proportional_shares_conserve_and_track_weights() {
        let shares = proportional_shares(100, &[1, 2, 7]);
        assert_eq!(shares.iter().sum::<u64>(), 100);
        assert_eq!(shares, vec![10, 20, 70]);
        // Indivisible leftovers go to the largest remainders.
        let shares = proportional_shares(10, &[1, 1, 1]);
        assert_eq!(shares.iter().sum::<u64>(), 10);
        assert!(shares.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn equal_weights_reduce_to_even_split() {
        let shares = proportional_shares(11, &[5, 5]);
        assert_eq!(shares.iter().sum::<u64>(), 11);
        assert!(shares[0].abs_diff(shares[1]) <= 1);
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn zero_weights_rejected() {
        proportional_shares(5, &[0, 0]);
    }

    #[test]
    fn heterogeneous_cluster_balances_by_speed() {
        // Speeds 1/2/4/8: the fast processor should end with ~8x the
        // load of the slow one, all normalised loads roughly equal.
        let params = Params::new(4, 1, 1.1, 4).unwrap();
        let speeds = vec![1u64, 2, 4, 8];
        let mut cluster = WeightedCluster::new(params, speeds, 7);
        let mut events = vec![LoadEvent::Idle; 4];
        events[0] = LoadEvent::Generate;
        for _ in 0..6000 {
            cluster.step(&events);
        }
        let loads = cluster.loads();
        assert_eq!(loads.iter().sum::<u64>(), 6000);
        assert!(
            loads[3] > 4 * loads[0],
            "fast processor carries much more: {loads:?}"
        );
        assert!(
            cluster.normalized_imbalance() < 1.5,
            "normalised loads equalised: {:?}",
            cluster.normalized_loads()
        );
    }

    #[test]
    fn conservation_under_mixed_events() {
        let params = Params::new(6, 2, 1.4, 4).unwrap();
        let mut cluster = WeightedCluster::new(params, vec![1, 1, 2, 2, 3, 3], 9);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..500 {
            let events: Vec<LoadEvent> = (0..6)
                .map(|_| match rng.gen_range(0..3) {
                    0 => LoadEvent::Generate,
                    1 => LoadEvent::Consume,
                    _ => LoadEvent::Idle,
                })
                .collect();
            cluster.step(&events);
        }
        let m = cluster.metrics();
        assert_eq!(
            cluster.loads().iter().sum::<u64>(),
            m.generated - m.consumed
        );
    }

    /// FNV-1a of final loads, every `Metrics` counter and the JSONL
    /// trace bytes after 200 steps at mixed speeds, build-up then drain,
    /// the crash mask redrawn every 7 steps.  Captured at c24f747, when
    /// `split` took `&self` and a thread-local scratch.
    #[test]
    fn masked_mixed_speed_run_is_pinned() {
        let (n, steps, seed) = (16, 200, 77u64);
        let params = Params::new(n, 2, 1.3, 4).unwrap();
        let speeds = (0..n as u64).map(|i| 1 + (i * 7 + seed) % 5).collect();
        let mut cluster = WeightedCluster::new(params, speeds, seed);
        let buffer = dlb_trace::BufferSink::new();
        cluster.set_trace_sink(buffer.handle());
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let mut mask_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
        let mut down = vec![false; n];
        for t in 0..steps {
            if t % 7 == 0 {
                down.iter_mut().for_each(|d| *d = mask_rng.gen_bool(0.25));
            }
            let (p_gen, p_con) = if t * 2 > steps {
                (0.2, 0.6)
            } else {
                (0.55, 0.3)
            };
            let events: Vec<LoadEvent> = (0..n)
                .map(|_| match ev_rng.gen::<f64>() {
                    x if x < p_gen => LoadEvent::Generate,
                    x if x < p_gen + p_con => LoadEvent::Consume,
                    _ => LoadEvent::Idle,
                })
                .collect();
            cluster.step_masked(&events, &down);
        }
        cluster.check_invariants().unwrap();
        let mut bytes = Vec::new();
        let mut push = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
        cluster.loads().into_iter().for_each(&mut push);
        let metrics = cluster.metrics();
        assert!(metrics.balance_ops > 100, "{metrics:?}");
        for name in crate::Metrics::FIELD_NAMES {
            push(metrics.get_field(name).expect("listed counter"));
        }
        for ev in buffer.take() {
            ev.write_line(&mut bytes);
            bytes.push(b'\n');
        }
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(format!("{hash:016x}"), "b13178dca165469b");
    }

    #[test]
    #[should_panic(expected = "one speed per processor")]
    fn speed_count_validated() {
        WeightedCluster::new(Params::paper_section7(4), vec![1, 2], 0);
    }
}
