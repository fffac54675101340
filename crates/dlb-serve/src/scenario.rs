//! Service scenario files: the JSON configuration of a `dlb serve` run.
//!
//! Like the simulation scenarios in `dlb-cli`, the loader is *strict*:
//! unknown keys are rejected with the offending key named, and nested
//! decode errors carry the key path (`field 'faults': crash #0: …`).

use dlb_faults::FaultPlan;
use dlb_json::{FromJson, Json};
use dlb_workload::service::{RatePhase, ServiceLoad};

/// Everything a `dlb serve` run needs, decoded from one JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceScenario {
    /// Number of shards (request queues).
    pub shards: usize,
    /// Ticks of request generation; the engine then drains.
    pub ticks: u64,
    /// Master seed (request stream and partner draws derive from it).
    pub seed: u64,
    /// Trigger partners `δ`.
    pub delta: usize,
    /// Trigger factor `f`.
    pub f: f64,
    /// The open-loop request stream (rate curve, keys, service range).
    pub load: ServiceLoad,
    /// Wall-clock mode: microseconds per tick.
    pub tick_us: u64,
    /// Wall-clock mode: sharded acceptor threads, each owning a
    /// contiguous shard group with its own trigger state (1 = the PR 6
    /// single-acceptor layout; ignored by the simulated engine, whose
    /// output must not depend on thread counts).
    pub acceptors: usize,
    /// Crash/rejoin plan (reliable by default).
    pub faults: FaultPlan,
}

const ALLOWED: &[&str] = &[
    "shards",
    "ticks",
    "seed",
    "delta",
    "f",
    "keys",
    "zipf_s",
    "service_ticks",
    "phases",
    "tick_us",
    "acceptors",
    "faults",
];

fn phase_from_json(value: &Json) -> Result<RatePhase, String> {
    dlb_json::reject_unknown(value, &["ticks", "rate"])?;
    Ok(RatePhase {
        ticks: dlb_json::req(value, "ticks")?,
        rate: dlb_json::req(value, "rate")?,
    })
}

impl FromJson for ServiceScenario {
    fn from_json(value: &Json) -> Result<Self, String> {
        dlb_json::reject_unknown(value, ALLOWED)?;
        let phases = dlb_json::field(value, "phases")?
            .as_arr()
            .ok_or("field 'phases': expected an array")?
            .iter()
            .enumerate()
            .map(|(i, p)| phase_from_json(p).map_err(|e| format!("field 'phases' #{i}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let service: Vec<u64> = dlb_json::req(value, "service_ticks")?;
        if service.len() != 2 {
            return Err(format!(
                "field 'service_ticks': expected [min, max], got {} entries",
                service.len()
            ));
        }
        Ok(ServiceScenario {
            shards: dlb_json::req(value, "shards")?,
            ticks: dlb_json::req(value, "ticks")?,
            seed: dlb_json::field_or(value, "seed", 0)?,
            delta: dlb_json::field_or(value, "delta", 1)?,
            f: dlb_json::field_or(value, "f", 2.0)?,
            load: ServiceLoad {
                phases,
                keys: dlb_json::req(value, "keys")?,
                zipf_s: dlb_json::field_or(value, "zipf_s", 0.0)?,
                service_ticks: (service[0], service[1]),
            },
            tick_us: dlb_json::field_or(value, "tick_us", 50)?,
            acceptors: dlb_json::field_or(value, "acceptors", 1)?,
            faults: dlb_json::field_or(value, "faults", FaultPlan::reliable())?,
        })
    }
}

impl ServiceScenario {
    /// Parses and validates a scenario from JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let scenario = Self::from_json(&Json::parse(text)?)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Cross-field validation beyond what decoding enforces.
    pub fn validate(&self) -> Result<(), String> {
        // Params::new checks n/delta/f coherence (delta < n, f > 1, …).
        dlb_core::Params::new(self.shards, self.delta, self.f, 1).map_err(|e| e.to_string())?;
        if self.ticks == 0 {
            return Err("ticks must be positive".into());
        }
        if self.load.phases.is_empty() {
            return Err("phases must not be empty".into());
        }
        let mut cycle = 0u64;
        for (i, p) in self.load.phases.iter().enumerate() {
            if p.ticks == 0 {
                return Err(format!("phase #{i}: ticks must be positive"));
            }
            cycle = cycle.checked_add(p.ticks).ok_or_else(|| {
                format!("phase #{i}: ticks {} overflow the cycle length", p.ticks)
            })?;
            if !p.rate.is_finite() || p.rate < 0.0 {
                return Err(format!(
                    "phase #{i}: rate {} must be finite and ≥ 0",
                    p.rate
                ));
            }
        }
        if self.load.keys == 0 {
            return Err("keys must be positive".into());
        }
        if !self.load.zipf_s.is_finite() || self.load.zipf_s < 0.0 {
            return Err(format!(
                "zipf_s {} must be finite and ≥ 0",
                self.load.zipf_s
            ));
        }
        self.load.check_keys()?;
        let (lo, hi) = self.load.service_ticks;
        if lo == 0 || lo > hi {
            return Err(format!(
                "service_ticks [{lo}, {hi}] must satisfy 1 ≤ min ≤ max"
            ));
        }
        if self.tick_us == 0 {
            return Err("tick_us must be positive".into());
        }
        if self.acceptors == 0 {
            return Err("acceptors must be positive".into());
        }
        self.faults.validate(self.shards)?;
        // The service composes with crash/rejoin plans; the message-level
        // fault knobs belong to the simulator's transport and have no
        // meaning for a request front-end.
        if self.faults.loss != 0.0
            || self.faults.transfer_loss != 0.0
            || self.faults.duplication != 0.0
            || self.faults.jitter != 0
            || !self.faults.partitions.is_empty()
        {
            return Err(
                "serve scenarios support crash faults only (loss/transfer_loss/duplication/\
                 jitter/partitions must be absent or zero)"
                    .into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "shards": 8,
        "ticks": 6000,
        "seed": 42,
        "delta": 2,
        "f": 2.0,
        "keys": 1000,
        "zipf_s": 1.1,
        "service_ticks": [2, 6],
        "phases": [
            {"ticks": 2000, "rate": 1.5},
            {"ticks": 2000, "rate": 4.0},
            {"ticks": 2000, "rate": 0.5}
        ],
        "tick_us": 50,
        "acceptors": 2,
        "faults": {
            "crash_mode": "lost",
            "crashes": [{"proc": 3, "at": 2500, "recover_at": 4000}]
        }
    }"#;

    #[test]
    fn good_scenario_round_trips() {
        let s = ServiceScenario::parse(GOOD).expect("valid scenario");
        assert_eq!(s.shards, 8);
        assert_eq!(s.load.phases.len(), 3);
        assert_eq!(s.load.service_ticks, (2, 6));
        assert_eq!(s.faults.crashes.len(), 1);
        assert_eq!(s.acceptors, 2);
    }

    #[test]
    fn acceptors_defaults_to_one_when_absent() {
        let text = GOOD.replace("\"acceptors\": 2,", "");
        let s = ServiceScenario::parse(&text).expect("valid scenario");
        assert_eq!(s.acceptors, 1);
    }

    #[test]
    fn unknown_keys_are_rejected_with_their_name() {
        let err = ServiceScenario::parse(&GOOD.replace("\"zipf_s\"", "\"zipf\"")).unwrap_err();
        assert!(err.contains("unknown key \"zipf\""), "{err}");
        let err = ServiceScenario::parse(&GOOD.replace("\"rate\"", "\"rps\"")).unwrap_err();
        assert!(err.contains("phases") && err.contains("\"rps\""), "{err}");
    }

    #[test]
    fn cross_field_validation_fires() {
        for (from, to, needle) in [
            ("\"ticks\": 6000", "\"ticks\": 0", "ticks"),
            ("[2, 6]", "[0, 6]", "service_ticks"),
            ("\"delta\": 2", "\"delta\": 8", "delta"),
            ("\"tick_us\": 50", "\"tick_us\": 0", "tick_us"),
            ("\"acceptors\": 2", "\"acceptors\": 0", "acceptors"),
        ] {
            let err = ServiceScenario::parse(&GOOD.replace(from, to)).unwrap_err();
            assert!(err.contains(needle), "{from} -> {to}: {err}");
        }
    }

    /// Values that decode and used to pass validation, then took the
    /// process down inside `RequestSource::new`: an 80 TB CDF (abort),
    /// and a cycle length that wraps to zero in release (panic).
    #[test]
    fn values_the_request_source_cannot_take_are_refused() {
        let huge = GOOD.replace("\"keys\": 1000", "\"keys\": 10000000000000");
        let err = ServiceScenario::parse(&huge).unwrap_err();
        assert!(err.contains("keys 10000000000000"), "{err}");
        // Uniform keys build no table: any key count is fine.
        let uniform = huge.replace("\"zipf_s\": 1.1", "\"zipf_s\": 0.0");
        ServiceScenario::parse(&uniform).expect("no table, no bound");

        let half = "{\"ticks\": 9223372036854775808, \"rate\": 1.0}";
        let start = GOOD
            .find("{\"ticks\": 2000, \"rate\": 1.5}")
            .expect("first phase");
        let end = GOOD.find("\"tick_us\"").expect("key after phases");
        let wrapped = format!("{}{half}, {half}], {}", &GOOD[..start], &GOOD[end..]);
        let err = ServiceScenario::parse(&wrapped).unwrap_err();
        assert!(
            err.contains("phase #1") && err.contains("overflow"),
            "{err}"
        );
    }

    #[test]
    fn message_level_faults_are_refused() {
        let text = GOOD.replace("\"crash_mode\": \"lost\",", "\"loss\": 0.1,");
        let err = ServiceScenario::parse(&text).unwrap_err();
        assert!(err.contains("crash faults only"), "{err}");
    }
}
