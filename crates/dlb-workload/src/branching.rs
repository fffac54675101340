//! Closed-loop branching-process computations.
//!
//! The open-loop patterns in [`crate::patterns`] fix the event schedule in
//! advance.  Real applications — the backtrack search and branch & bound
//! computations the paper's introduction motivates — are *closed-loop*: a
//! processor consumes a packet only when it holds one, and consuming a
//! packet spawns a random number of children **on the same processor**.
//! Without balancing, all descendants of the root stay where the root
//! was; with balancing, the tree spreads.  The figure of merit is the
//! *makespan*: global steps until the whole tree is consumed when every
//! processor can consume one packet per step.
//!
//! This is the workload class where load balancing actually buys wall
//! time, so it backs the speedup experiment (`closed_loop` binary).

use dlb_core::batch::{step_batch, BatchEvent};
use dlb_core::LoadBalancer;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Offspring distribution of the branching process: `probs[k]` is the
/// probability of spawning `k` children on consumption.
#[derive(Debug, Clone)]
pub struct Offspring {
    probs: Vec<f64>,
}

impl Offspring {
    /// Builds a distribution; probabilities must be non-negative and sum
    /// to 1 (±1e-9).
    pub(crate) fn new(probs: Vec<f64>) -> Result<Self, String> {
        if probs.is_empty() {
            return Err("need at least one outcome".into());
        }
        if probs.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
            return Err(format!("probabilities out of range: {probs:?}"));
        }
        let total: f64 = probs.iter().sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(format!("probabilities sum to {total}, not 1"));
        }
        if u32::try_from(probs.len() - 1).is_err() {
            return Err(format!("{} outcomes: a child count is a u32", probs.len()));
        }
        Ok(Offspring { probs })
    }

    /// A subcritical-by-depth tree: 0 children with probability
    /// `1 − p_branch`, otherwise `arity` children.  Mean offspring
    /// `p_branch · arity`.
    pub fn bernoulli(arity: usize, p_branch: f64) -> Self {
        let mut probs = vec![0.0; arity + 1];
        probs[0] = 1.0 - p_branch;
        probs[arity] = p_branch;
        Offspring::new(probs).expect("valid by construction")
    }

    /// Expected number of children.
    #[cfg(test)]
    pub(crate) fn mean(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(k, &p)| k as f64 * p)
            .sum()
    }

    /// A child count: the first outcome the draw lands in, the last one
    /// if rounding leaves it past every other.
    fn sample(&self, rng: &mut impl Rng) -> u32 {
        let mut x: f64 = rng.gen();
        let mut k = 0;
        for &p in &self.probs[..self.probs.len() - 1] {
            if x < p {
                return k;
            }
            x -= p;
            k += 1;
        }
        k
    }
}

/// Result of a closed-loop branching run.  Public because
/// [`run_branching`] returns it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchingOutcome {
    /// Global steps until the system drained (or `max_steps`).
    pub makespan: usize,
    /// Packets processed in total.
    pub processed: u64,
    /// Largest single-processor load observed.
    pub peak_load: u64,
    /// True if the tree was fully consumed within `max_steps`.
    pub drained: bool,
}

/// Runs a branching-process computation to completion on a balancer.
///
/// `roots` initial packets start on processor 0.  Each step every
/// processor holding at least one packet consumes one and spawns
/// offspring locally (one batch event per §2's multi-packet step);
/// processors without load idle — *their cycles are wasted*, which is
/// what the balancer is supposed to prevent.
pub fn run_branching<B: LoadBalancer + ?Sized>(
    balancer: &mut B,
    offspring: &Offspring,
    roots: u32,
    max_steps: usize,
    seed: u64,
) -> BranchingOutcome {
    let n = balancer.n();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut batches = vec![BatchEvent::idle(); n];

    // Seed the roots on processor 0.
    batches[0] = BatchEvent::gen(roots);
    step_batch(balancer, &batches);

    let mut peak = 0u64;
    for step in 0..max_steps {
        let loads = balancer.loads();
        peak = peak.max(loads.iter().copied().max().unwrap_or(0));
        if loads.iter().all(|&l| l == 0) {
            return BranchingOutcome {
                makespan: step,
                processed: balancer.metrics().consumed,
                peak_load: peak,
                drained: true,
            };
        }
        for (b, &l) in batches.iter_mut().zip(loads.iter()) {
            // A concurrent balance triggered by another processor's
            // generation can still move the last packet away before the
            // consume lands; the balancer's own `consumed` counter is the
            // ground truth.
            *b = if l > 0 {
                BatchEvent {
                    generate: offspring.sample(&mut rng),
                    consume: 1,
                }
            } else {
                BatchEvent::idle()
            };
        }
        step_batch(balancer, &batches);
    }
    BranchingOutcome {
        makespan: max_steps,
        processed: balancer.metrics().consumed,
        peak_load: peak,
        drained: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{Cluster, Params, SimpleCluster};

    #[test]
    fn offspring_validation() {
        assert!(Offspring::new(vec![]).is_err());
        assert!(Offspring::new(vec![0.5, 0.4]).is_err(), "sums to 0.9");
        assert!(Offspring::new(vec![0.5, -0.5, 1.0]).is_err());
        let d = Offspring::new(vec![0.25, 0.5, 0.25]).unwrap();
        assert!((d.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bernoulli_mean() {
        let d = Offspring::bernoulli(2, 0.45);
        assert!((d.mean() - 0.9).abs() < 1e-12, "subcritical");
    }

    #[test]
    fn subcritical_tree_drains() {
        let params = Params::new(8, 1, 1.3, 4).unwrap();
        let mut cluster = SimpleCluster::new(params, 1);
        let offspring = Offspring::bernoulli(2, 0.45);
        let out = run_branching(&mut cluster, &offspring, 50, 100_000, 7);
        assert!(out.drained, "subcritical process must die out: {out:?}");
        assert!(out.processed >= 50);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn balancing_shortens_makespan() {
        // The headline: with a near-critical tree rooted on one processor,
        // the balancer spreads the frontier so all processors consume in
        // parallel, while without balancing only processor 0 works.
        let n = 8;
        let offspring = Offspring::bernoulli(2, 0.495); // mean 0.99
        let mut with = SimpleCluster::new(Params::new(n, 2, 1.3, 4).unwrap(), 3);
        let out_with = run_branching(&mut with, &offspring, 400, 1_000_000, 11);
        let mut without = dlb_baselines_stub::NoBalanceLocal::new(n);
        let out_without = run_branching(&mut without, &offspring, 400, 1_000_000, 11);
        assert!(out_with.drained && out_without.drained);
        assert!(
            out_with.makespan * 2 < out_without.makespan,
            "balanced {} vs unbalanced {} steps",
            out_with.makespan,
            out_without.makespan
        );
    }

    #[test]
    fn full_cluster_branching_keeps_invariants() {
        let params = Params::new(6, 1, 1.2, 4).unwrap();
        let mut cluster = Cluster::new(params, 5);
        let offspring = Offspring::bernoulli(3, 0.3);
        let out = run_branching(&mut cluster, &offspring, 30, 50_000, 9);
        assert!(out.drained);
        cluster.check_invariants().unwrap();
    }

    /// Local no-op balancer so this crate's tests don't depend on
    /// dlb-baselines (which depends on dlb-net).
    mod dlb_baselines_stub {
        use dlb_core::{Events, LoadBalancer, LoadEvent, Metrics};

        pub(super) struct NoBalanceLocal {
            loads: Vec<u64>,
            metrics: Metrics,
        }

        impl NoBalanceLocal {
            pub(super) fn new(n: usize) -> Self {
                NoBalanceLocal {
                    loads: vec![0; n],
                    metrics: Metrics::new(),
                }
            }
        }

        impl LoadBalancer for NoBalanceLocal {
            fn n(&self) -> usize {
                self.loads.len()
            }
            fn loads_into(&self, out: &mut Vec<u64>) {
                out.clone_from(&self.loads);
            }
            fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
                events.for_each_up(self.loads.len(), down, |i, ev| match ev {
                    LoadEvent::Generate => {
                        self.loads[i] += 1;
                        self.metrics.generated += 1;
                    }
                    LoadEvent::Consume => {
                        if self.loads[i] > 0 {
                            self.loads[i] -= 1;
                            self.metrics.consumed += 1;
                        }
                    }
                    LoadEvent::Idle => {}
                });
            }
            fn metrics(&self) -> &Metrics {
                &self.metrics
            }
            fn name(&self) -> &'static str {
                "none"
            }
        }
    }
}
