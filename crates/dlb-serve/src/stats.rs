//! The service's stats report — the payload of
//! `results/service_diurnal_sim.json` and of the CI golden gate.
//!
//! Rendering goes through `dlb-json`'s insertion-ordered objects, so a
//! report is a byte-stable function of its fields; the simulated-clock
//! driver produces identical fields for a fixed seed, which is what
//! lets CI `cmp` two runs.

use crate::hist::LatencyHistogram;
use dlb_json::{Json, ToJson};

/// Final report of one `dlb serve` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Shard count.
    pub shards: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Last tick processed (generation horizon plus drain).
    pub ticks_run: u64,
    /// Requests generated by the open-loop source.
    pub issued: u64,
    /// Requests that finished service.
    pub completed: u64,
    /// Requests destroyed by `lost`-mode crashes (or arriving while
    /// every shard was down).
    pub dropped: u64,
    /// Requests still queued or in service at report time (0 after a
    /// full drain; reported explicitly so the ledger is visible).
    pub in_flight: u64,
    /// Requests moved between shards (trigger rebalances plus crash
    /// redistribution).
    pub redirected: u64,
    /// Trigger-rule balancing operations fired.
    pub rebalances: u64,
    /// Crash events applied.
    pub crashes: u64,
    /// Recoveries applied.
    pub recoveries: u64,
    /// Latency histogram, in ticks from arrival to completion.
    pub latency: LatencyHistogram,
    /// Completions per shard.
    pub per_shard_completed: Vec<u64>,
}

impl ServiceStats {
    /// The conservation ledger: every issued request must be accounted
    /// for as completed, dropped or still in flight.
    pub fn conservation_holds(&self) -> bool {
        self.issued == self.completed + self.dropped + self.in_flight
    }
}

impl ToJson for ServiceStats {
    fn to_json(&self) -> Json {
        let lat = &self.latency;
        Json::Obj(vec![
            // Constants since the simulated clock became the only
            // driver; kept so committed reports keep their bytes.
            ("mode".into(), "sim".to_json()),
            ("shards".into(), (self.shards as u64).to_json()),
            ("workers".into(), 1u64.to_json()),
            ("seed".into(), self.seed.to_json()),
            ("ticks_run".into(), self.ticks_run.to_json()),
            ("issued".into(), self.issued.to_json()),
            ("completed".into(), self.completed.to_json()),
            ("dropped".into(), self.dropped.to_json()),
            ("in_flight".into(), self.in_flight.to_json()),
            ("redirected".into(), self.redirected.to_json()),
            ("rebalances".into(), self.rebalances.to_json()),
            ("crashes".into(), self.crashes.to_json()),
            ("recoveries".into(), self.recoveries.to_json()),
            (
                "latency_ticks".into(),
                Json::Obj(vec![
                    ("count".into(), lat.count().to_json()),
                    ("mean".into(), lat.mean().to_json()),
                    ("max".into(), lat.max().to_json()),
                    ("p50".into(), lat.quantile(0.5).to_json()),
                    ("p90".into(), lat.quantile(0.9).to_json()),
                    ("p99".into(), lat.quantile(0.99).to_json()),
                    ("p999".into(), lat.quantile(0.999).to_json()),
                ]),
            ),
            (
                "per_shard_completed".into(),
                self.per_shard_completed.to_json(),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_stable_and_ledger_checks() {
        let mut latency = LatencyHistogram::new();
        for v in [3u64, 5, 9, 120] {
            latency.record(v);
        }
        let stats = ServiceStats {
            shards: 2,
            seed: 7,
            ticks_run: 100,
            issued: 5,
            completed: 4,
            dropped: 1,
            in_flight: 0,
            redirected: 2,
            rebalances: 1,
            crashes: 1,
            recoveries: 1,
            latency,
            per_shard_completed: vec![3, 1],
        };
        assert!(stats.conservation_holds());
        let a = stats.to_json().render();
        let b = stats.clone().to_json().render();
        assert_eq!(a, b);
        assert!(a.contains("\"latency_ticks\""));
        assert!(
            a.starts_with("{\"mode\":\"sim\",\"shards\":2,\"workers\":1,"),
            "{a}"
        );
        let mut broken = stats;
        broken.completed = 3;
        assert!(!broken.conservation_holds());
    }
}
