//! Replay of `dlb-trace` JSONL traces into derived series.
//!
//! A trace is self-describing: each `RunStarted` event carries the
//! parameter triple, so the analysis can rebuild the §6 cost bounds
//! (Lemmas 5/6) without access to the scenario that produced it.  The
//! `trace_analyze` binary drives this module; the logic lives here so it
//! is unit-testable against a live engine.
//!
//! Derived per-run series:
//!
//! * cumulative balancing operations per step (one `BalanceInitiated`
//!   event = one operation), compared against the bounds claims
//!   `lemma5` and `lemma6` put on the observed max-load decrease;
//! * per-step max/mean load ratio from `LoadSample` snapshots;
//! * cumulative migration volume from `PacketsMigrated`;
//! * the engine's full `Metrics`, reconstructed by summing `StepDelta`
//!   increments.

use std::collections::BTreeMap;
use std::io::BufRead;

use dlb_core::Metrics;
use dlb_theory::claims::{self, Margin, Observation};
use dlb_theory::AlgoParams;
use dlb_trace::TraceEvent;

/// The configuration a `RunStarted` event announced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunInfo {
    /// Run index within the scenario.
    pub run: u64,
    /// The run's RNG seed.
    pub seed: u64,
    /// Processor count.
    pub n: u64,
    /// Strategy name (e.g. `spaa93-cluster`).
    pub strategy: String,
    /// Neighbourhood size `δ`.
    pub delta: u64,
    /// Trigger factor `f`.
    pub f: f64,
    /// Borrow limit `C`.
    pub c: u64,
}

/// Aggregates accumulated for one logical step.
#[derive(Debug, Clone, Copy, Default)]
struct StepAccum {
    ops: u64,
    migrated: u64,
    load: Option<(u64, u64, u64)>, // (min, max, total); last sample wins
}

/// One per-step row of the derived series (cumulative counters).
#[derive(Debug, Clone, Copy)]
pub struct StepRow {
    /// Logical step.
    pub step: u64,
    /// Balancing operations up to and including this step.
    pub ops_cum: u64,
    /// Packets moved by balancing up to and including this step.
    pub migrated_cum: u64,
    /// Most recent `LoadSample` at this step, if any.
    pub load: Option<(u64, u64, u64)>,
}

/// Everything derived from one run's events.
#[derive(Debug, Clone)]
pub struct RunAnalysis {
    /// The announcing `RunStarted`, when the trace had one.
    pub info: Option<RunInfo>,
    /// `Metrics` reconstructed by summing `StepDelta` increments.
    pub metrics: Metrics,
    /// Total `BalanceInitiated` events (equals the engine's
    /// `balance_ops` counter for the synchronous clusters).
    pub balance_initiated: u64,
    /// Total packets moved (sum of `PacketsMigrated.count`).
    pub packets_migrated: u64,
    /// Fault / recovery event counts.
    pub faults: u64,
    /// Crash recoveries observed.
    pub recoveries: u64,
    /// Per-step derived series, in step order.
    pub steps: Vec<StepRow>,
}

impl RunAnalysis {
    fn new(info: Option<RunInfo>) -> Self {
        RunAnalysis {
            info,
            metrics: Metrics::new(),
            balance_initiated: 0,
            packets_migrated: 0,
            faults: 0,
            recoveries: 0,
            steps: Vec::new(),
        }
    }

    /// max/mean ratio of the last load sample at `row` (needs `n`).
    pub fn max_over_mean(&self, row: &StepRow) -> Option<f64> {
        let (_, max, total) = row.load?;
        let n = self.info.as_ref()?.n;
        if n == 0 || total == 0 {
            return None;
        }
        Some(max as f64 / (total as f64 / n as f64))
    }

    /// This run's parameters, when they are valid for `dlb-theory`.
    pub fn algo_params(&self) -> Option<AlgoParams> {
        let info = self.info.as_ref()?;
        AlgoParams::new(
            usize::try_from(info.n).ok()?,
            usize::try_from(info.delta).ok()?,
            info.f,
        )
        .ok()
    }
}

/// Parses every non-empty line of a JSONL trace.
pub fn parse_lines<R: BufRead>(reader: R) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (no, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", no + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = TraceEvent::from_line(&line).map_err(|e| format!("line {}: {e}", no + 1))?;
        events.push(ev);
    }
    Ok(events)
}

/// Validates that every line parses *and* re-renders byte-identically
/// (the CI trace-schema gate).  Returns the number of validated lines.
pub fn check_lines<R: BufRead>(reader: R) -> Result<usize, String> {
    let mut count = 0usize;
    let mut back = Vec::new();
    for (no, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", no + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = TraceEvent::from_line(&line).map_err(|e| format!("line {}: {e}", no + 1))?;
        back.clear();
        ev.write_line(&mut back);
        if back != line.as_bytes() {
            return Err(format!(
                "line {}: not byte-stable\n  input:  {line}\n  output: {}",
                no + 1,
                String::from_utf8_lossy(&back)
            ));
        }
        count += 1;
    }
    Ok(count)
}

/// Splits an event stream into runs (on `RunStarted`) and derives the
/// per-run series.  Events before the first `RunStarted` form an
/// anonymous run with `info: None`.
pub fn analyze(events: &[TraceEvent]) -> Vec<RunAnalysis> {
    let mut runs: Vec<(RunAnalysis, BTreeMap<u64, StepAccum>)> = Vec::new();
    for ev in events {
        if let TraceEvent::RunStarted {
            run,
            seed,
            n,
            strategy,
            delta,
            f,
            c,
        } = ev
        {
            runs.push((
                RunAnalysis::new(Some(RunInfo {
                    run: *run,
                    seed: *seed,
                    n: *n,
                    strategy: strategy.clone(),
                    delta: *delta,
                    f: *f,
                    c: *c,
                })),
                BTreeMap::new(),
            ));
            continue;
        }
        if runs.is_empty() {
            runs.push((RunAnalysis::new(None), BTreeMap::new()));
        }
        let (current, accum) = runs.last_mut().expect("pushed above");
        match ev {
            TraceEvent::BalanceInitiated { step, .. } => {
                current.balance_initiated += 1;
                accum.entry(*step).or_default().ops += 1;
            }
            TraceEvent::PacketsMigrated { step, count, .. } => {
                current.packets_migrated += count;
                accum.entry(*step).or_default().migrated += count;
            }
            TraceEvent::FaultInjected { .. } => current.faults += 1,
            TraceEvent::CrashRecovered { .. } => current.recoveries += 1,
            TraceEvent::StepDelta { counters, .. } => {
                for (name, v) in counters {
                    let base = current.metrics.get_field(name).unwrap_or(0);
                    current.metrics.set_field(name, base + v);
                }
            }
            TraceEvent::LoadSample {
                step,
                min,
                max,
                total,
            } => {
                accum.entry(*step).or_default().load = Some((*min, *max, *total));
            }
            // The schema-v2 serving events (`req`/`req_done`/`redirect`)
            // describe requests, not the balancing algorithm this
            // analysis reconstructs; `dlb serve` reports them itself.
            TraceEvent::MarkerMoved { .. }
            | TraceEvent::StepProfile { .. }
            | TraceEvent::RequestRouted { .. }
            | TraceEvent::RequestCompleted { .. }
            | TraceEvent::RequestsRedirected { .. }
            | TraceEvent::AcceptorHandoff { .. }
            | TraceEvent::ArenaContender { .. }
            | TraceEvent::RunFinished { .. } => {}
            TraceEvent::RunStarted { .. } => unreachable!("handled above"),
        }
    }
    runs.into_iter()
        .map(|(mut run, accum)| {
            let (mut ops, mut migrated) = (0u64, 0u64);
            run.steps = accum
                .into_iter()
                .map(|(step, a)| {
                    ops += a.ops;
                    migrated += a.migrated;
                    StepRow {
                        step,
                        ops_cum: ops,
                        migrated_cum: migrated,
                        load: a.load,
                    }
                })
                .collect();
            run
        })
        .collect()
}

/// CSV rows for one analysed run: cumulative ops and migration volume,
/// the max/mean load ratio, and the bounds claims `lemma5`/`lemma6` put
/// on the operations needed for the max-load decrease observed so far
/// (empty cells where a bound is undefined or the claim is outside its
/// hypothesis).
pub fn csv_rows(run_idx: usize, run: &RunAnalysis) -> Vec<Vec<String>> {
    let algo = run.algo_params();
    let x0 = run.steps.iter().find_map(|r| r.load.map(|(_, max, _)| max));
    run.steps
        .iter()
        .map(|row| {
            let (x, ops) = (x0.unwrap_or(0), row.ops_cum as f64);
            let observed = row.load.filter(|&(_, max, _)| max < x);
            let observed = observed.map(|(_, max, _)| Observation::Decrease { x, c: x - max, ops });
            let bound = |id, side: fn(Margin) -> f64| {
                let margin = observed.and_then(|o| claims::by_id(id).evaluate(algo.as_ref()?, &o));
                let t = margin.map(side).filter(|t| t.is_finite());
                t.map_or(String::new(), |t| t.to_string())
            };
            vec![
                run_idx.to_string(),
                row.step.to_string(),
                row.ops_cum.to_string(),
                row.migrated_cum.to_string(),
                row.load
                    .map_or(String::new(), |(_, max, _)| max.to_string()),
                run.max_over_mean(row)
                    .map_or(String::new(), |r| format!("{r:.4}")),
                bound("lemma5", |m| m.lower),
                bound("lemma6", |m| m.upper),
                bound("lemma5", |m| m.upper),
            ]
        })
        .collect()
}

/// Header row matching [`csv_rows`].
pub const CSV_HEADERS: [&str; 9] = [
    "run",
    "step",
    "ops_cum",
    "migrated_cum",
    "max_load",
    "max_over_mean",
    "lemma5_lower",
    "lemma6_upper",
    "lemma5_upper",
];

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::{Cluster, LoadBalancer, LoadEvent, Params};
    use dlb_trace::BufferSink;
    use std::io::Cursor;

    fn traced_cluster_events(seed: u64, steps: usize) -> (Vec<TraceEvent>, Metrics, Vec<u64>) {
        let params = Params::paper_section7(8);
        let mut cluster = Cluster::with_initial_load(params, seed, 0);
        let buf = BufferSink::new();
        cluster.set_trace_sink(buf.handle());
        let events = vec![LoadEvent::Generate; 8];
        let mut trace = vec![TraceEvent::RunStarted {
            run: 0,
            seed,
            n: 8,
            strategy: "spaa93-cluster".into(),
            delta: params.delta() as u64,
            f: params.f(),
            c: params.c_borrow() as u64,
        }];
        for step in 0..steps {
            cluster.step(&events);
            let loads = cluster.loads();
            trace.push(TraceEvent::LoadSample {
                step: step as u64,
                min: *loads.iter().min().unwrap(),
                max: *loads.iter().max().unwrap(),
                total: loads.iter().sum(),
            });
        }
        trace.extend(buf.take());
        trace.push(TraceEvent::RunFinished { run: 0 });
        (trace, *cluster.metrics(), cluster.loads())
    }

    #[test]
    fn op_counts_match_engine_metrics_exactly() {
        // Satellite: trace_analyze op-counts equal the engine's
        // `balance_ops` on a fixed seed, and the StepDelta replay
        // reproduces the whole Metrics struct.
        let (trace, metrics, _) = traced_cluster_events(42, 200);
        let runs = analyze(&trace);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].balance_initiated, metrics.balance_ops);
        assert_eq!(runs[0].metrics, metrics);
        assert!(metrics.balance_ops > 0, "workload must balance");
    }

    #[test]
    fn jsonl_round_trip_preserves_analysis() {
        let (trace, metrics, _) = traced_cluster_events(7, 100);
        let text: String = trace.iter().map(|e| e.to_line() + "\n").collect();
        assert_eq!(check_lines(Cursor::new(text.clone())).unwrap(), trace.len());
        let parsed = parse_lines(Cursor::new(text)).unwrap();
        assert_eq!(parsed, trace);
        let runs = analyze(&parsed);
        assert_eq!(runs[0].metrics, metrics);
    }

    #[test]
    fn check_lines_rejects_garbage_and_unstable_lines() {
        assert!(check_lines(Cursor::new("not json\n")).is_err());
        // Valid JSON, but key order differs from the canonical rendering.
        let ev = TraceEvent::RunFinished { run: 3 };
        let line = ev.to_line();
        let spaced = line.replace(':', ": ");
        assert_ne!(line, spaced);
        assert!(check_lines(Cursor::new(spaced)).is_err());
        assert_eq!(check_lines(Cursor::new(line + "\n")).unwrap(), 1);
    }

    #[test]
    fn derived_series_accumulate_and_bounds_apply() {
        let info = TraceEvent::RunStarted {
            run: 0,
            seed: 1,
            n: 64,
            strategy: "test".into(),
            delta: 1,
            f: 1.1,
            c: 4,
        };
        let mut trace = vec![info];
        // A shrinking max load: 1000 → 600 over three sampled steps.
        for (step, max) in [(0u64, 1000u64), (1, 800), (2, 600)] {
            trace.push(TraceEvent::BalanceInitiated {
                step,
                initiator: 0,
                partners: vec![1],
                trigger: 1.2,
            });
            trace.push(TraceEvent::PacketsMigrated {
                step,
                initiator: 0,
                count: 10,
            });
            trace.push(TraceEvent::LoadSample {
                step,
                min: 0,
                max,
                total: 2 * max,
            });
        }
        let runs = analyze(&trace);
        let run = &runs[0];
        assert_eq!(run.steps.len(), 3);
        assert_eq!(run.steps[2].ops_cum, 3);
        assert_eq!(run.steps[2].migrated_cum, 30);
        let rows = csv_rows(0, run);
        assert_eq!(rows.len(), 3);
        // Step 0: no decrease yet, bound cells empty.
        assert!(rows[0][6].is_empty());
        // Step 2: decrease of 400 from x0 = 1000 — bounds present and
        // ordered lower <= lemma6 <= lemma5 upper.
        let lower: u64 = rows[2][6].parse().unwrap();
        let l6: u64 = rows[2][7].parse().unwrap();
        let upper: u64 = rows[2][8].parse().unwrap();
        assert!(lower <= l6 && l6 <= upper, "{lower} {l6} {upper}");
        // Ratio = max / (total / n) = 64 / 2.
        assert_eq!(rows[2][5], "32.0000");
    }

    #[test]
    fn events_before_run_start_form_anonymous_run() {
        let trace = vec![TraceEvent::StepDelta {
            step: 0,
            counters: vec![("generated".into(), 5)],
        }];
        let runs = analyze(&trace);
        assert_eq!(runs.len(), 1);
        assert!(runs[0].info.is_none());
        assert_eq!(runs[0].metrics.generated, 5);
        assert!(runs[0].algo_params().is_none());
    }
}
