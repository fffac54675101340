//! Record/replay of event traces.
//!
//! Any [`Workload`] can be recorded into an [`EventTrace`]; a trace
//! replays bit-identically (and serialises to JSON).  Runs do not need
//! one — a seeded workload regenerates the same stream live — so a trace
//! serves where generation must stay out of a timing (`bench_core`) or
//! as an independent oracle (`tests/sparse_step_equivalence.rs`).

use crate::Workload;
use dlb_core::LoadEvent;
use dlb_json::{Json, ToJson};

/// A fully materialised event schedule: `events[t][i]` is processor `i`'s
/// action at step `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventTrace {
    events: Vec<Vec<LoadEvent>>,
    n: usize,
}

impl EventTrace {
    /// Records `steps` steps of a workload.
    pub fn record<W: Workload>(workload: &mut W, steps: usize) -> Self {
        let n = workload.n();
        let mut events = Vec::with_capacity(steps);
        let mut out = Vec::new();
        for t in 0..steps {
            workload.events_at(t, &mut out);
            events.push(out.clone());
        }
        EventTrace { events, n }
    }

    /// Number of recorded steps.
    pub fn steps(&self) -> usize {
        self.events.len()
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("n".into(), self.n.to_json()),
            ("events".into(), self.events.to_json()),
        ])
        .render()
    }

    /// Deserialises from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = Json::parse(text)?;
        let n: usize = dlb_json::req(&value, "n")?;
        let events: Vec<Vec<LoadEvent>> = dlb_json::req(&value, "events")?;
        for (t, row) in events.iter().enumerate() {
            if row.len() != n {
                return Err(format!("step {t} has {} events, expected {n}", row.len()));
            }
        }
        Ok(EventTrace { events, n })
    }

    /// A replaying [`Workload`] over this trace (idles past the end).
    pub fn replay(&self) -> TraceReplay<'_> {
        TraceReplay { trace: self }
    }
}

/// Replays a recorded trace as a [`Workload`].
#[derive(Debug, Clone)]
pub struct TraceReplay<'a> {
    trace: &'a EventTrace,
}

impl Workload for TraceReplay<'_> {
    fn n(&self) -> usize {
        self.trace.n
    }

    fn events_at(&mut self, t: usize, out: &mut Vec<LoadEvent>) {
        out.clear();
        if t < self.trace.events.len() {
            out.extend_from_slice(&self.trace.events[t]);
        } else {
            out.resize(self.trace.n, LoadEvent::Idle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::UniformRandom;

    #[test]
    fn record_and_replay_are_identical() {
        let mut original = UniformRandom::new(6, 0.4, 0.3, 21);
        let trace = EventTrace::record(&mut original, 50);
        assert_eq!(trace.steps(), 50);

        let mut fresh = UniformRandom::new(6, 0.4, 0.3, 21);
        let mut replay = trace.replay();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for t in 0..50 {
            fresh.events_at(t, &mut a);
            replay.events_at(t, &mut b);
            assert_eq!(a, b, "step {t}");
        }
    }

    #[test]
    fn replay_idles_past_end() {
        let mut w = UniformRandom::new(2, 0.9, 0.0, 1);
        let trace = EventTrace::record(&mut w, 3);
        let mut replay = trace.replay();
        let mut out = Vec::new();
        replay.events_at(10, &mut out);
        assert_eq!(out, vec![LoadEvent::Idle, LoadEvent::Idle]);
    }

    #[test]
    fn json_roundtrip() {
        let mut w = UniformRandom::new(3, 0.5, 0.2, 4);
        let trace = EventTrace::record(&mut w, 10);
        let json = trace.to_json();
        let back = EventTrace::from_json(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(EventTrace::from_json("{not json").is_err());
    }
}
