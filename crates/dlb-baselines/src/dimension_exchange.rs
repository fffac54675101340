//! Dimension-exchange load balancing (the matching-based scheme for
//! indivisible loads studied in Demirel and Sbalzarini, *Balancing
//! indivisible real-valued loads in arbitrary networks*,
//! arXiv:1308.0148).
//!
//! The network is decomposed into perfect (or near-perfect) matchings —
//! the *dimensions* — and the balancer cycles through them, one matching
//! per step.  Each matched pair levels its load exactly: the heavier
//! endpoint sends `⌊(a − b)/2⌋` tokens to the lighter one.  On the
//! `d`-dimensional hypercube the matchings are the canonical bit-flip
//! pairings `v ↔ v ⊕ 2^k`; rings get the odd/even edge matchings, and
//! 2-D tori the four row/column matchings.  Fully deterministic.

use crate::apply_events;
use dlb_core::{Events, LoadBalancer, Metrics};
use dlb_net::Topology;
use dlb_trace::{SharedSink, TraceEvent};

/// Matching-based dimension-exchange balancer.
pub struct DimensionExchange {
    /// `phases[p][v]` = partner of `v` in matching `p` (or `v` itself
    /// when `v` is unmatched in that phase).
    phases: Vec<Vec<u32>>,
    loads: Vec<u64>,
    metrics: Metrics,
    sink: Option<SharedSink>,
    step: u64,
}

/// Processor `v` as a partner-table entry.
fn id(v: usize) -> u32 {
    u32::try_from(v).expect("partner tables index processors as u32")
}

/// Pairs consecutive vertices of one cycle, starting at `parity`, and
/// writes the pairing into `partner`.
fn cycle_matching(ids: &[usize], parity: usize, partner: &mut [u32]) {
    let len = ids.len();
    if len < 2 {
        return;
    }
    for k in (parity..len).step_by(2) {
        let a = ids[k];
        let b = ids[(k + 1) % len];
        if a != b && partner[a] as usize == a && partner[b] as usize == b {
            partner[a] = id(b);
            partner[b] = id(a);
        }
    }
}

impl DimensionExchange {
    /// Dimension exchange on `topology`.
    ///
    /// # Panics
    /// If the topology is not a hypercube, ring, or 2-D torus — the
    /// families with a canonical matching decomposition.
    pub fn new(topology: Topology) -> Self {
        let n = topology.n();
        assert!(n >= 2, "need at least two processors");
        let identity = |n: usize| (0..n).map(id).collect::<Vec<u32>>();
        let mut phases: Vec<Vec<u32>> = match topology {
            Topology::Hypercube { dim } => (0..dim)
                .map(|d| (0..n).map(|v| id(v ^ (1 << d))).collect())
                .collect(),
            Topology::Ring { n } => {
                let ids: Vec<usize> = (0..n).collect();
                (0..2)
                    .map(|parity| {
                        let mut partner = identity(n);
                        cycle_matching(&ids, parity, &mut partner);
                        partner
                    })
                    .collect()
            }
            Topology::Torus2D { w, h } => {
                let mut phases = Vec::with_capacity(4);
                for parity in 0..2 {
                    let mut partner = identity(n);
                    for y in 0..h {
                        let row: Vec<usize> = (0..w).map(|x| y * w + x).collect();
                        cycle_matching(&row, parity, &mut partner);
                    }
                    phases.push(partner);
                }
                for parity in 0..2 {
                    let mut partner = identity(n);
                    for x in 0..w {
                        let col: Vec<usize> = (0..h).map(|y| y * w + x).collect();
                        cycle_matching(&col, parity, &mut partner);
                    }
                    phases.push(partner);
                }
                phases
            }
            other => panic!(
                "dimension exchange needs a hypercube, torus or ring topology, got {other:?}"
            ),
        };
        // Drop degenerate all-identity matchings (e.g. the second parity
        // of a 2-cycle) so every phase does work.
        phases.retain(|p| p.iter().enumerate().any(|(v, &u)| u as usize != v));
        assert!(!phases.is_empty(), "topology yields no usable matching");
        DimensionExchange {
            phases,
            loads: vec![0; n],
            metrics: Metrics::new(),
            sink: None,
            step: 0,
        }
    }
}

impl LoadBalancer for DimensionExchange {
    fn n(&self) -> usize {
        self.loads.len()
    }

    fn loads_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.loads);
    }

    fn step_events(&mut self, events: Events<'_>, down: Option<&[bool]>) {
        apply_events(&mut self.loads, &mut self.metrics, events, down);
        let DimensionExchange {
            phases,
            loads,
            metrics,
            sink,
            step,
        } = self;
        let alive = |v: usize| down.is_none_or(|d| !d[v]);
        let trace_on = sink.as_ref().is_some_and(|s| s.enabled());
        // The phase index is below `phases.len()`, a `usize`.
        #[allow(clippy::cast_possible_truncation)]
        let partner = &phases[(*step % phases.len() as u64) as usize];
        for v in 0..loads.len() {
            let u = partner[v] as usize;
            // Each matched edge once (u == v covers unmatched vertices);
            // a pair with a crashed endpoint sits the phase out.
            if u <= v || !alive(v) || !alive(u) {
                continue;
            }
            let (a, b) = (loads[v], loads[u]);
            let give = a.abs_diff(b) / 2;
            let (hi, lo) = if a >= b { (v, u) } else { (u, v) };
            loads[hi] -= give;
            loads[lo] += give;
            metrics.balance_ops += 1;
            metrics.messages += 2;
            if give > 0 {
                metrics.packets_migrated += give;
                if trace_on {
                    if let Some(s) = sink.as_ref() {
                        s.record(&TraceEvent::PacketsMigrated {
                            step: *step,
                            initiator: hi as u64,
                            count: give,
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
        "dimension-exchange"
    }

    fn set_trace_sink(&mut self, sink: SharedSink) {
        self.sink = Some(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{imbalance_stats, LoadEvent};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn spike_events(n: usize) -> Vec<LoadEvent> {
        let mut ev = vec![LoadEvent::Idle; n];
        ev[0] = LoadEvent::Generate;
        ev
    }

    #[test]
    fn hypercube_matchings_flip_each_bit() {
        let b = DimensionExchange::new(Topology::Hypercube { dim: 3 });
        assert_eq!(b.phases.len(), 3);
        for (d, phase) in b.phases.iter().enumerate() {
            for (v, &partner) in phase.iter().enumerate() {
                assert_eq!(partner as usize, v ^ (1 << d));
            }
        }
    }

    #[test]
    fn matchings_are_involutions_over_edges() {
        for topo in [
            Topology::Ring { n: 7 },
            Topology::Ring { n: 8 },
            Topology::Torus2D { w: 3, h: 4 },
            Topology::Hypercube { dim: 4 },
        ] {
            let b = DimensionExchange::new(topo.clone());
            for phase in &b.phases {
                for v in 0..topo.n() {
                    let u = phase[v] as usize;
                    assert_eq!(phase[u] as usize, v, "{topo:?} not an involution");
                    if u != v {
                        assert!(
                            topo.neighbors(v).contains(&u),
                            "{topo:?} pairs non-neighbours {v},{u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flattens_a_hypercube_spike() {
        let mut b = DimensionExchange::new(Topology::Hypercube { dim: 4 });
        let ev = spike_events(16);
        for _ in 0..800 {
            b.step(&ev);
        }
        let idle = vec![LoadEvent::Idle; 16];
        for _ in 0..64 {
            b.step(&idle);
        }
        let loads = b.loads();
        assert_eq!(loads.iter().sum::<u64>(), 800, "conservation");
        let stats = imbalance_stats(&loads);
        assert!(stats.max_over_mean < 1.2, "{loads:?}");
    }

    #[test]
    fn crashed_pairs_sit_out_the_phase() {
        let mut b = DimensionExchange::new(Topology::Ring { n: 6 });
        let ev = spike_events(6);
        for _ in 0..60 {
            b.step(&ev);
        }
        let down = vec![false, false, false, true, false, false];
        let frozen = b.loads()[3];
        for _ in 0..60 {
            b.step_masked(&ev, &down);
        }
        assert_eq!(b.loads()[3], frozen, "crashed load must not change");
        assert_eq!(b.loads().iter().sum::<u64>(), 120, "conservation");
    }

    #[test]
    fn a_matched_pair_levels_exactly() {
        // The one matching of a 2-processor hypercube, fed a token a
        // step at processor 0: the pair is level to within the one odd
        // token after every phase.  Moving a third of the gap leaves a
        // gap of 2 standing.
        let mut b = DimensionExchange::new(Topology::Hypercube { dim: 1 });
        let ev = spike_events(2);
        for t in 1..=40 {
            b.step(&ev);
            let loads = b.loads();
            assert_eq!(loads.iter().sum::<u64>(), t, "conservation");
            assert!(loads[0].abs_diff(loads[1]) <= 1, "step {t}: {loads:?}");
        }
    }

    proptest! {
        /// One sweep of the hypercube's `dim` matchings, under all-idle
        /// steps, leaves every load within `dim` of every other.  A
        /// levelled pair ends within ½ of its mean, so each exchange
        /// moves a load at most ½ further from the continuous
        /// (real-valued) process; averaging never widens that deviation,
        /// and one sweep makes the continuous process exactly level.
        /// (A rule that moves a third of the gap breaks the bound.)
        #[test]
        fn one_idle_sweep_levels_a_hypercube_to_within_dim(
            dim in 1u32..=8,
            prefix in 0usize..60,
            seed in any::<u64>(),
        ) {
            let n = 1usize << dim;
            let mut b = DimensionExchange::new(Topology::Hypercube { dim });
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut ev = Vec::with_capacity(n);
            for _ in 0..prefix {
                ev.clear();
                ev.extend((0..n).map(|_| match rng.gen_range(0..4) {
                    0 | 1 => LoadEvent::Generate,
                    2 => LoadEvent::Consume,
                    _ => LoadEvent::Idle,
                }));
                b.step(&ev);
            }
            let total: u64 = b.loads().iter().sum();
            let idle = vec![LoadEvent::Idle; n];
            for _ in 0..dim {
                b.step(&idle);
            }
            let loads = b.loads();
            let m = b.metrics();
            prop_assert_eq!(loads.iter().sum::<u64>(), total, "conservation");
            prop_assert_eq!(total, m.generated - m.consumed, "ledger");
            let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
            prop_assert!(spread <= u64::from(dim), "dim {}: spread {} in {:?}", dim, spread, loads);
        }
    }
}
