//! Locally optimal load balancing (Feuilloley, Hirvonen, Suomela,
//! *Locally Optimal Load Balancing*, arXiv:1502.04511).
//!
//! The local-improvement rule: a node moves one unit of load to a
//! neighbour whenever doing so strictly reduces the pair's imbalance,
//! i.e. whenever its load exceeds the neighbour's by at least two.  A
//! configuration with no such move left is *locally optimal* — within a
//! constant of the global optimum on many graph families.  The scan is
//! fully deterministic: every node compares against a snapshot of the
//! current loads, picks its minimum-load live neighbour (lowest index on
//! ties), and the accumulated ±1 deltas are applied at the end of the
//! step, so a run is reproducible bit-for-bit with no RNG at all.

use crate::adjacency::Adjacency;
use crate::apply_events;
use dlb_core::{Events, LoadBalancer, Metrics};
use dlb_net::Topology;
use dlb_trace::{SharedSink, TraceEvent};

/// Deterministic local-improvement balancer.
pub struct LocallyOptimal {
    adj: Adjacency,
    loads: Vec<u64>,
    /// Pre-step load snapshot every node compares against (scratch).
    snapshot: Vec<u64>,
    /// Net per-node load change accumulated this step (scratch).
    delta: Vec<i64>,
    metrics: Metrics,
    sink: Option<SharedSink>,
    step: u64,
}

impl LocallyOptimal {
    /// Local-improvement balancing on `topology`.
    pub fn new(topology: Topology) -> Self {
        let adj = Adjacency::new(&topology);
        let n = adj.n();
        assert!(n >= 2, "need at least two processors");
        LocallyOptimal {
            adj,
            loads: vec![0; n],
            snapshot: vec![0; n],
            delta: vec![0; n],
            metrics: Metrics::new(),
            sink: None,
            step: 0,
        }
    }
}

impl LoadBalancer for LocallyOptimal {
    fn n(&self) -> usize {
        self.loads.len()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        apply_events(&mut self.loads, &mut self.metrics, events, down);
        let LocallyOptimal {
            adj,
            loads,
            snapshot,
            delta,
            metrics,
            sink,
            step,
        } = self;
        let alive = |v: usize| down.is_none_or(|d| !d[v]);
        let trace_on = sink.as_ref().is_some_and(|s| s.enabled());
        snapshot.clear();
        snapshot.extend_from_slice(loads);
        delta.fill(0);
        for v in 0..loads.len() {
            if !alive(v) {
                continue;
            }
            // Minimum-load live neighbour; first minimum in adjacency
            // order = lowest index, a fixed deterministic tie-break.
            let Some(&u) = adj
                .neighbors(v)
                .iter()
                .filter(|&&u| alive(u as usize))
                .min_by_key(|&&u| snapshot[u as usize])
            else {
                continue;
            };
            let u = u as usize;
            if snapshot[v] >= snapshot[u] + 2 {
                delta[v] -= 1;
                delta[u] += 1;
                metrics.balance_ops += 1;
                metrics.packets_migrated += 1;
                metrics.messages += 1;
                if trace_on {
                    if let Some(s) = sink.as_ref() {
                        s.record(&TraceEvent::PacketsMigrated {
                            step: *step,
                            initiator: v as u64,
                            count: 1,
                        });
                    }
                }
            }
        }
        for (l, d) in loads.iter_mut().zip(delta.iter()) {
            *l = l.checked_add_signed(*d).expect("load underflow");
        }
        *step += 1;
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn name(&self) -> &'static str {
        "locally-optimal"
    }

    fn set_trace_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::LoadEvent;

    fn spike_events(n: usize) -> Vec<LoadEvent> {
        let mut ev = vec![LoadEvent::Idle; n];
        ev[0] = LoadEvent::Generate;
        ev
    }

    #[test]
    fn reaches_a_locally_optimal_configuration() {
        let mut b = LocallyOptimal::new(Topology::Ring { n: 8 });
        let ev = spike_events(8);
        for _ in 0..200 {
            b.step(&ev);
        }
        let idle = vec![LoadEvent::Idle; 8];
        for _ in 0..200 {
            b.step(&idle);
        }
        let loads = b.loads();
        assert_eq!(loads.iter().sum::<u64>(), 200, "conservation");
        // Locally optimal: no neighbour pair differs by 2 or more.
        let topo = Topology::Ring { n: 8 };
        for v in 0..8 {
            for &u in topo.neighbors(v).iter() {
                assert!(
                    loads[v].abs_diff(loads[u]) <= 1,
                    "edge ({v},{u}) not locally optimal: {loads:?}"
                );
            }
        }
    }

    #[test]
    fn runs_are_bit_identical() {
        let mk = || LocallyOptimal::new(Topology::Hypercube { dim: 3 });
        let (mut a, mut b) = (mk(), mk());
        let ev = spike_events(8);
        for _ in 0..150 {
            a.step(&ev);
            b.step(&ev);
        }
        assert_eq!(a.loads(), b.loads());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn crashed_processors_are_frozen() {
        let mut b = LocallyOptimal::new(Topology::Ring { n: 5 });
        let ev = spike_events(5);
        for _ in 0..60 {
            b.step(&ev);
        }
        let down = vec![false, true, false, false, false];
        let frozen = b.loads()[1];
        for _ in 0..60 {
            b.step_masked(&ev, &down);
        }
        assert_eq!(b.loads()[1], frozen, "crashed load must not change");
        assert_eq!(b.loads().iter().sum::<u64>(), 120, "conservation");
    }
}
