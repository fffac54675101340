//! Serialisable snapshots of the full algorithm's state.
//!
//! A [`ClusterSnapshot`] captures everything — per-processor matrices,
//! ledgers, metrics and the exact position of the random stream — so a
//! restored cluster continues *bit-identically*.  Useful for
//! checkpointing long experiments and for bug reproduction.

use crate::cluster::Cluster;
use crate::metrics::Metrics;
use crate::params::ExchangePolicy;
use dlb_json::{FromJson, Json, ToJson};

/// Complete serialisable state of a [`Cluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// Network size `n`.
    pub n: usize,
    /// Neighbourhood size `δ`.
    pub delta: usize,
    /// Trigger factor `f`.
    pub f: f64,
    /// Borrow limit `C`.
    pub c_borrow: usize,
    /// Exchange policy.
    pub exchange: ExchangePolicy,
    /// Per-processor `d` matrices (row-major, `n × n`).
    pub d: Vec<Vec<u64>>,
    /// Per-processor `b` matrices.
    pub b: Vec<Vec<u64>>,
    /// Per-processor `l_old` values.
    pub l_old: Vec<u64>,
    /// Ledger: fresh generations per class.
    pub fresh_generated: Vec<u64>,
    /// Ledger: direct consumptions per class.
    pub direct_consumed: Vec<u64>,
    /// Ledger: settled markers per class.
    pub settled: Vec<u64>,
    /// Initial total load at construction.
    pub initial_total: u64,
    /// Activity counters.
    pub metrics: Metrics,
    /// ChaCha seed of the random stream.
    pub rng_seed: [u8; 32],
    /// ChaCha word position of the random stream.
    pub rng_word_pos: u128,
}

dlb_json::codec! { struct ClusterSnapshot {
    n: req,
    delta: req,
    f: req,
    c_borrow: req,
    exchange: req,
    d: req,
    b: req,
    l_old: req,
    fresh_generated: req,
    direct_consumed: req,
    settled: req,
    initial_total: req,
    metrics: req,
    rng_seed: req,
    rng_word_pos: req,
} }

impl ClusterSnapshot {
    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).render()
    }

    /// Deserialises from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        FromJson::from_json(&Json::parse(text)?)
    }
}

impl Cluster {
    /// Captures the complete current state.
    pub fn snapshot(&self) -> ClusterSnapshot {
        self.snapshot_impl()
    }

    /// Restores a cluster from a snapshot; the restored cluster continues
    /// bit-identically to the original.
    pub fn restore(snapshot: &ClusterSnapshot) -> Result<Cluster, String> {
        Cluster::restore_impl(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::strategy::{LoadBalancer, LoadEvent};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn random_events(n: usize, rng: &mut impl Rng) -> Vec<LoadEvent> {
        (0..n)
            .map(|_| match rng.gen_range(0..3) {
                0 => LoadEvent::Generate,
                1 => LoadEvent::Consume,
                _ => LoadEvent::Idle,
            })
            .collect()
    }

    #[test]
    fn snapshot_restores_bit_identical_continuation() {
        let params = Params::paper_section7(8);
        let mut original = Cluster::new(params, 42);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..120 {
            let ev = random_events(8, &mut ev_rng);
            original.step(&ev);
        }
        let snap = original.snapshot();
        let mut restored = Cluster::restore(&snap).expect("restore");

        let mut ev_rng_a = ChaCha8Rng::seed_from_u64(8);
        let mut ev_rng_b = ChaCha8Rng::seed_from_u64(8);
        for _ in 0..80 {
            original.step(&random_events(8, &mut ev_rng_a));
            restored.step(&random_events(8, &mut ev_rng_b));
        }
        assert_eq!(original.loads(), restored.loads());
        assert_eq!(original.metrics(), restored.metrics());
        restored.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let params = Params::paper_section7(4).with_exchange(ExchangePolicy::Aggressive);
        let mut cluster = Cluster::new(params, 3);
        cluster.step(&[LoadEvent::Generate; 4]);
        let snap = cluster.snapshot();
        let json = snap.to_json();
        let back = ClusterSnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.exchange, ExchangePolicy::Aggressive);
    }

    #[test]
    fn restore_rejects_corrupted_snapshot() {
        let params = Params::paper_section7(4);
        let cluster = Cluster::new(params, 1);
        let mut snap = cluster.snapshot();
        snap.d.pop(); // wrong number of processors
        assert!(Cluster::restore(&snap).is_err());
        let mut snap2 = cluster.snapshot();
        snap2.f = 9.0; // invalid parameters
        assert!(Cluster::restore(&snap2).is_err());
    }
}
