//! Quasirandom load balancing (Friedrich–Gairing–Sauerwald, *Quasirandom
//! Load Balancing*, arXiv:1006.3302): the deterministic rotor-router
//! analogue of randomised diffusion.
//!
//! Every step each processor splits its tokens as evenly as possible
//! between itself and its neighbours: each of the `d + 1` parties gets
//! `⌊l/(d+1)⌋` tokens, and the `l mod (d+1)` surplus tokens go one each
//! to the next ports in a per-vertex *rotor* order that advances with
//! every surplus token sent.  The rotor de-randomises the rounding: over
//! time every neighbour receives the same share, which is what bounds
//! the discrepancy against the idealised continuous diffusion.

use crate::adjacency::Adjacency;
use crate::apply_events;
use dlb_core::{Events, LoadBalancer, Metrics};
use dlb_net::Topology;
use dlb_trace::{SharedSink, TraceEvent};

/// Deterministic rotor-router token balancer.
pub struct Quasirandom {
    adj: Adjacency,
    loads: Vec<u64>,
    /// Post-balancing loads under construction (struct-held scratch).
    next: Vec<u64>,
    /// Per-vertex rotor: index of the next port to receive a surplus
    /// token, cyclic over the vertex's neighbour list.
    rotor: Vec<u32>,
    metrics: Metrics,
    sink: Option<SharedSink>,
    step: u64,
}

impl Quasirandom {
    /// Rotor-router balancing on `topology`.
    pub fn new(topology: Topology) -> Self {
        let adj = Adjacency::new(&topology);
        let n = adj.n();
        assert!(n >= 2, "need at least two processors");
        Quasirandom {
            adj,
            loads: vec![0; n],
            next: vec![0; n],
            rotor: vec![0; n],
            metrics: Metrics::new(),
            sink: None,
            step: 0,
        }
    }
}

impl LoadBalancer for Quasirandom {
    fn n(&self) -> usize {
        self.loads.len()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        apply_events(&mut self.loads, &mut self.metrics, events, down);
        let Quasirandom {
            adj,
            loads,
            next,
            rotor,
            metrics,
            sink,
            step,
        } = self;
        let alive = |v: usize| down.is_none_or(|d| !d[v]);
        let trace_on = sink.as_ref().is_some_and(|s| s.enabled());
        next.fill(0);
        for v in 0..loads.len() {
            let l = loads[v];
            if !alive(v) {
                // Crashed: load frozen, neither sends nor receives (alive
                // senders skip it below).
                next[v] += l;
                continue;
            }
            let neigh = adj.neighbors(v);
            let deg = neigh.len();
            let d_alive = if down.is_none() {
                deg
            } else {
                neigh.iter().filter(|&&u| alive(u as usize)).count()
            };
            if d_alive == 0 || l == 0 {
                next[v] += l;
                continue;
            }
            let base = l / (d_alive as u64 + 1);
            // Below `d_alive + 1`, a `usize`.
            #[allow(clippy::cast_possible_truncation)]
            let rem = (l % (d_alive as u64 + 1)) as usize;
            next[v] += base;
            if base > 0 {
                for &u in neigh {
                    if alive(u as usize) {
                        next[u as usize] += base;
                    }
                }
            }
            // Surplus tokens: one each to the next `rem` live ports in
            // rotor order (rem ≤ d_alive, so nobody gets two).
            let mut placed = 0usize;
            if rem > 0 {
                let mut idx = rotor[v] as usize % deg;
                let mut scanned = 0;
                while placed < rem && scanned < 2 * deg {
                    let u = neigh[idx] as usize;
                    if alive(u) {
                        next[u] += 1;
                        placed += 1;
                    }
                    idx = (idx + 1) % deg;
                    scanned += 1;
                }
                // `idx` is below the degree, under `n`, whose ids
                // `Adjacency` holds as `u32`.
                #[allow(clippy::cast_possible_truncation)]
                let idx = idx as u32;
                rotor[v] = idx;
                // Unplaceable surplus (cannot happen with d_alive ≥ 1,
                // kept for conservation robustness).
                next[v] += (rem - placed) as u64;
            }
            let moved = base * d_alive as u64 + placed as u64;
            if moved > 0 {
                metrics.balance_ops += 1;
                metrics.packets_migrated += moved;
                metrics.messages += if base > 0 {
                    d_alive as u64
                } else {
                    placed as u64
                };
                if trace_on {
                    if let Some(s) = sink.as_ref() {
                        s.record(&TraceEvent::PacketsMigrated {
                            step: *step,
                            initiator: v as u64,
                            count: moved,
                        });
                    }
                }
            }
        }
        std::mem::swap(loads, next);
        *step += 1;
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "quasirandom"
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
    fn flattens_a_hypercube_spike_deterministically() {
        let mut b = Quasirandom::new(Topology::Hypercube { dim: 3 });
        let ev = spike_events(8);
        for _ in 0..400 {
            b.step(&ev);
        }
        let idle = vec![LoadEvent::Idle; 8];
        for _ in 0..50 {
            b.step(&idle);
        }
        let loads = b.loads();
        assert_eq!(loads.iter().sum::<u64>(), 400, "conservation");
        let stats = imbalance_stats(&loads);
        assert!(stats.max_over_mean < 1.2, "{loads:?}");
        assert!(b.metrics().packets_migrated > 0);
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        // No RNG anywhere: two instances fed the same events agree
        // exactly, including the rotor state.
        let mk = || Quasirandom::new(Topology::Ring { n: 6 });
        let (mut a, mut b) = (mk(), mk());
        let ev = spike_events(6);
        for _ in 0..123 {
            a.step(&ev);
            b.step(&ev);
        }
        assert_eq!(a.loads(), b.loads());
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.rotor, b.rotor);
    }

    #[test]
    fn crashed_processors_are_frozen() {
        let mut b = Quasirandom::new(Topology::Ring { n: 4 });
        let ev = spike_events(4);
        for _ in 0..40 {
            b.step(&ev);
        }
        let down = vec![false, true, false, false];
        let frozen = b.loads()[1];
        let idle = vec![LoadEvent::Idle; 4];
        for _ in 0..30 {
            b.step_masked(&idle, &down);
        }
        assert_eq!(b.loads()[1], frozen, "crashed load must not change");
        assert_eq!(b.loads().iter().sum::<u64>(), 40, "conservation");
    }

    #[test]
    fn a_lone_token_visits_every_processor() {
        // One token on K4: each holder sends it to the port its rotor
        // names and advances the rotor, so processor 0 sends it to 1,
        // then 2, then 3.  A rotor that never advances bounces it
        // between 0 and 1.
        let mut b = Quasirandom::new(Topology::Complete { n: 4 });
        b.step(&spike_events(4));
        let idle = vec![LoadEvent::Idle; 4];
        let mut visited = [false; 4];
        for _ in 0..12 {
            b.step(&idle);
            let loads = b.loads();
            assert_eq!(loads.iter().sum::<u64>(), 1, "conservation");
            visited[loads.iter().position(|&l| l == 1).expect("one holder")] = true;
        }
        assert_eq!(visited, [true; 4]);
    }
}
