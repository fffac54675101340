//! Multi-packet time steps.
//!
//! §2: *"We can prove the same results if the processors are allowed to
//! generate/consume up to a constant number of packets per time step …,
//! since this can be modeled as a consecutive generation/consumption of
//! one load unit."*  [`step_batch`] implements exactly that modelling: a
//! batch step decomposes into rounds of single-packet events, interleaved
//! across processors so no processor runs ahead of the others by more
//! than one packet.

use crate::strategy::{LoadBalancer, LoadEvent};

/// What a processor does in one *batch* step: generate `generate` packets
/// and consume up to `consume` packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchEvent {
    /// Packets to generate this step.
    pub generate: u32,
    /// Packets to consume this step (skipped when unavailable).
    pub consume: u32,
}

impl BatchEvent {
    /// Generate `k` packets.
    pub fn gen(k: u32) -> Self {
        BatchEvent {
            generate: k,
            ..Default::default()
        }
    }

    /// Consume `k` packets.
    #[cfg(test)]
    pub(crate) fn con(k: u32) -> Self {
        BatchEvent {
            consume: k,
            ..Default::default()
        }
    }

    /// Do nothing.
    pub fn idle() -> Self {
        BatchEvent::default()
    }
}

/// Applies one batch step to a balancer by §2's consecutive-single-unit
/// decomposition (generations first, then consumptions, round-robin
/// across processors).
pub fn step_batch<B: LoadBalancer + ?Sized>(balancer: &mut B, batches: &[BatchEvent]) {
    let n = balancer.n();
    assert_eq!(batches.len(), n, "one batch event per processor");
    let max_gen = batches.iter().map(|b| b.generate).max().unwrap_or(0);
    let max_con = batches.iter().map(|b| b.consume).max().unwrap_or(0);
    let mut events = vec![LoadEvent::Idle; n];
    for round in 0..max_gen {
        for (e, b) in events.iter_mut().zip(batches.iter()) {
            *e = if round < b.generate {
                LoadEvent::Generate
            } else {
                LoadEvent::Idle
            };
        }
        balancer.step(&events);
    }
    for round in 0..max_con {
        for (e, b) in events.iter_mut().zip(batches.iter()) {
            *e = if round < b.consume {
                LoadEvent::Consume
            } else {
                LoadEvent::Idle
            };
        }
        balancer.step(&events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::simple::SimpleCluster;

    #[test]
    fn batch_equals_singles_in_totals() {
        let params = Params::paper_section7(4);
        let mut cluster = SimpleCluster::new(params, 1);
        step_batch(
            &mut cluster,
            &[
                BatchEvent::gen(5),
                BatchEvent::gen(2),
                BatchEvent::idle(),
                BatchEvent::con(3),
            ],
        );
        let m = cluster.metrics();
        assert_eq!(m.generated, 7);
        // Consumption is bounded by availability; packets may have been
        // balanced onto processor 3 by then.
        assert!(m.consumed <= 3);
        assert_eq!(
            cluster.loads().iter().sum::<u64>(),
            m.generated - m.consumed
        );
    }

    #[test]
    fn batch_on_full_cluster_keeps_invariants() {
        let params = Params::paper_section7(6);
        let mut cluster = crate::cluster::Cluster::new(params, 3);
        for round in 0..50u32 {
            let batches: Vec<BatchEvent> = (0..6)
                .map(|i| {
                    if (i + round as usize).is_multiple_of(2) {
                        BatchEvent::gen(3)
                    } else {
                        BatchEvent {
                            generate: 1,
                            consume: 2,
                        }
                    }
                })
                .collect();
            step_batch(&mut cluster, &batches);
            cluster.check_invariants().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "one batch event per processor")]
    fn batch_size_mismatch_panics() {
        let params = Params::paper_section7(4);
        let mut cluster = SimpleCluster::new(params, 1);
        step_batch(&mut cluster, &[BatchEvent::idle()]);
    }

    #[test]
    fn empty_batches_are_noops() {
        let params = Params::paper_section7(3);
        let mut cluster = SimpleCluster::new(params, 1);
        step_batch(&mut cluster, &[BatchEvent::idle(); 3]);
        assert_eq!(cluster.metrics().generated, 0);
    }
}
