//! Dynamic averaging load balancing on arbitrary graphs (Berenbrink,
//! Hintze, Hosseinpour, Kaaser, Rau, *Dynamic Averaging Load Balancing
//! on Arbitrary Graphs*, arXiv:2302.12201).
//!
//! The protocol is pairwise averaging with indivisible tokens: when a
//! processor activates it picks a uniformly random neighbour and the
//! pair redistributes its combined load as evenly as possible (an odd
//! total leaves one token with a fair-coin winner, so neither endpoint
//! is systematically favoured).  Here every live processor activates
//! once per global step, in index order with in-place updates — the
//! synchronous-scan rendering of the paper's asynchronous clocks, which
//! keeps runs deterministic for a fixed seed.

use crate::apply_events;
use dlb_core::{Events, LoadBalancer, Metrics};
use dlb_net::{Adjacency, Topology};
use dlb_trace::{SharedSink, TraceEvent};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Pairwise averaging with a random neighbour, every step.
pub struct DynamicAveraging {
    adj: Adjacency,
    loads: Vec<u64>,
    metrics: Metrics,
    rng: ChaCha8Rng,
    sink: Option<SharedSink>,
    step: u64,
}

impl DynamicAveraging {
    /// Averaging on `topology`, seeded for the partner/tie-break draws.
    pub fn new(topology: Topology, seed: u64) -> Self {
        let adj = Adjacency::new(&topology);
        let n = adj.n();
        assert!(n >= 2, "need at least two processors");
        DynamicAveraging {
            adj,
            loads: vec![0; n],
            metrics: Metrics::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            sink: None,
            step: 0,
        }
    }
}

impl LoadBalancer for DynamicAveraging {
    fn n(&self) -> usize {
        self.loads.len()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        apply_events(&mut self.loads, &mut self.metrics, events, down);
        let DynamicAveraging {
            adj,
            loads,
            metrics,
            rng,
            sink,
            step,
        } = self;
        let alive = |v: usize| down.is_none_or(|d| !d[v]);
        let trace_on = sink.as_ref().is_some_and(|s| s.enabled());
        for i in 0..loads.len() {
            if !alive(i) {
                continue;
            }
            let neigh = adj.neighbors(i);
            if neigh.is_empty() {
                continue;
            }
            // Draw the partner uniformly among *live* neighbours; with no
            // mask (or an all-false one) this consumes exactly one draw
            // over the full neighbour list, so masked and unmasked runs
            // agree whenever nobody is down.
            let j = if down.is_none() {
                neigh[rng.gen_range(0..neigh.len())] as usize
            } else {
                let d_alive = neigh.iter().filter(|&&u| alive(u as usize)).count();
                if d_alive == 0 {
                    continue;
                }
                let k = rng.gen_range(0..d_alive);
                *neigh
                    .iter()
                    .filter(|&&u| alive(u as usize))
                    .nth(k)
                    .expect("k < d_alive") as usize
            };
            let (a, b) = (loads[i], loads[j]);
            let total = a + b;
            let mut new_i = total / 2;
            // An odd total leaves one indivisible token: fair coin.
            if total % 2 == 1 && rng.gen_bool(0.5) {
                new_i += 1;
            }
            let new_j = total - new_i;
            let moved = a.abs_diff(new_i);
            loads[i] = new_i;
            loads[j] = new_j;
            metrics.balance_ops += 1;
            metrics.messages += 2;
            if moved > 0 {
                metrics.packets_migrated += moved;
                if trace_on {
                    if let Some(s) = sink.as_ref() {
                        s.record(&TraceEvent::PacketsMigrated {
                            step: *step,
                            initiator: i as u64,
                            count: moved,
                        });
                    }
                }
            }
        }
        *step += 1;
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "dynamic-averaging"
    }

    fn set_trace_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{imbalance_stats, LoadEvent};

    fn spike_events(n: usize) -> Vec<LoadEvent> {
        let mut ev = vec![LoadEvent::Idle; n];
        ev[0] = LoadEvent::Generate;
        ev
    }

    #[test]
    fn averaging_flattens_a_spike() {
        let mut b = DynamicAveraging::new(Topology::Hypercube { dim: 3 }, 9);
        let ev = spike_events(8);
        for _ in 0..400 {
            b.step(&ev);
        }
        let idle = vec![LoadEvent::Idle; 8];
        for _ in 0..60 {
            b.step(&idle);
        }
        let loads = b.loads();
        assert_eq!(loads.iter().sum::<u64>(), 400, "conservation");
        let stats = imbalance_stats(&loads);
        assert!(stats.max_over_mean < 1.25, "{loads:?}");
        assert!(b.metrics().packets_migrated > 0);
    }

    #[test]
    fn same_seed_reproduces_masked_runs() {
        let mk = || DynamicAveraging::new(Topology::Ring { n: 6 }, 4);
        let (mut a, mut b) = (mk(), mk());
        let ev = spike_events(6);
        let down = vec![false, false, true, false, false, false];
        for t in 0..200 {
            if t % 3 == 0 {
                a.step_masked(&ev, &down);
                b.step_masked(&ev, &down);
            } else {
                a.step(&ev);
                b.step(&ev);
            }
        }
        assert_eq!(a.loads(), b.loads());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn crashed_processors_are_frozen_and_never_partnered() {
        let mut b = DynamicAveraging::new(Topology::Complete { n: 5 }, 17);
        let ev = spike_events(5);
        for _ in 0..50 {
            b.step(&ev);
        }
        let down = vec![false, false, true, false, false];
        let frozen = b.loads()[2];
        for _ in 0..100 {
            b.step_masked(&ev, &down);
        }
        assert_eq!(b.loads()[2], frozen, "crashed load must not change");
        assert_eq!(b.loads().iter().sum::<u64>(), 150, "conservation");
    }

    #[test]
    fn the_odd_token_goes_to_either_endpoint() {
        // One token on two processors: every activation pairs them with
        // an odd total, and processor 1 activates last in each step, so
        // the token ends a step on either side with probability 1/2.
        // Handing it to the initiator leaves it on processor 1 always.
        let mut b = DynamicAveraging::new(Topology::Complete { n: 2 }, 3);
        b.step(&spike_events(2));
        let idle = vec![LoadEvent::Idle; 2];
        let steps = 400;
        let mut on_first = 0;
        for _ in 0..steps {
            b.step(&idle);
            on_first += b.loads()[0];
        }
        assert_eq!(b.loads().iter().sum::<u64>(), 1, "conservation");
        // Binomial(400, 1/2): 200 ± 10; the bound is 5 sd wide.
        assert!(on_first.abs_diff(steps / 2) <= 50, "{on_first} of {steps}");
    }
}
