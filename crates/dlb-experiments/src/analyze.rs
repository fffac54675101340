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
use dlb_theory::claims::{self, Estimate, Margin, Observation};
use dlb_theory::AlgoParams;
use dlb_trace::TraceEvent;

/// The configuration a `RunStarted` event announced.  Public, like
/// [`StepRow`], because `trace_analyze` reads it from [`RunAnalysis`].
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
/// Public because `trace_analyze` reads [`RunAnalysis::steps`].
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

/// Everything derived from one run's events.  Public because
/// [`Analysis::finish`] returns it to `trace_analyze`.
#[derive(Debug, Clone, Default)]
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
    pub(crate) fn algo_params(&self) -> Option<AlgoParams> {
        let info = self.info.as_ref()?;
        AlgoParams::new(
            usize::try_from(info.n).ok()?,
            usize::try_from(info.delta).ok()?,
            info.f,
        )
        .ok()
    }
}

/// Reads a JSONL trace one line at a time — the one reader, with or
/// without a fold.  Every non-empty line must parse as a known event and
/// re-render byte for byte (the CI trace-schema gate); `fold` then takes
/// the event, so no trace is held in memory.  The first refusal, the
/// reader's or the fold's, comes back as `line N: …`.  Returns the
/// number of events read.
pub fn read_lines<R: BufRead>(
    reader: R,
    mut fold: impl FnMut(TraceEvent) -> Result<(), String>,
) -> Result<usize, String> {
    let mut count = 0usize;
    let mut back = Vec::new();
    for (no, line) in reader.lines().enumerate() {
        let at = |e: String| format!("line {}: {e}", no + 1);
        let line = line.map_err(|e| at(format!("read error: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = TraceEvent::from_line(&line).map_err(at)?;
        back.clear();
        ev.write_line(&mut back);
        if back != line.as_bytes() {
            return Err(at(format!(
                "not byte-stable\n  input:  {line}\n  output: {}",
                String::from_utf8_lossy(&back)
            )));
        }
        fold(ev).map_err(at)?;
        count += 1;
    }
    Ok(count)
}

/// The per-run series of a trace, folded one event at a time: a
/// `RunStarted` opens a run, and events before the first one form an
/// anonymous run with `info: None`.
#[derive(Default)]
pub struct Analysis {
    runs: Vec<(RunAnalysis, BTreeMap<u64, StepAccum>)>,
}

impl Analysis {
    /// Takes one event.  Refuses a `StepDelta` that names an unknown
    /// counter, and any sum past `u64::MAX`.
    pub fn fold(&mut self, ev: TraceEvent) -> Result<(), String> {
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
            let info = RunInfo {
                run,
                seed,
                n,
                strategy,
                delta,
                f,
                c,
            };
            let run = RunAnalysis {
                info: Some(info),
                ..RunAnalysis::default()
            };
            self.runs.push((run, BTreeMap::new()));
            return Ok(());
        }
        if self.runs.is_empty() {
            self.runs.push(Default::default());
        }
        let (current, accum) = self.runs.last_mut().expect("pushed above");
        match ev {
            TraceEvent::BalanceInitiated { step, .. } => {
                current.balance_initiated += 1;
                accum.entry(step).or_default().ops += 1;
            }
            TraceEvent::PacketsMigrated { step, count, .. } => {
                current.packets_migrated = current
                    .packets_migrated
                    .checked_add(count)
                    .ok_or("packets migrated pass u64::MAX")?;
                // No step's volume passes the run's.
                accum.entry(step).or_default().migrated += count;
            }
            TraceEvent::FaultInjected { .. } => current.faults += 1,
            TraceEvent::CrashRecovered { .. } => current.recoveries += 1,
            TraceEvent::StepDelta { counters, .. } => {
                for (name, inc) in counters {
                    current.metrics.add_named(&name, inc)?;
                }
            }
            TraceEvent::LoadSample {
                step,
                min,
                max,
                total,
            } => {
                accum.entry(step).or_default().load = Some((min, max, total));
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
        Ok(())
    }

    /// The runs, each with its cumulative per-step series.
    pub fn finish(self) -> Vec<RunAnalysis> {
        self.runs
            .into_iter()
            .map(|(mut run, accum)| {
                // Neither running sum passes its run's total.
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
            let observed = observed.map(|(_, max, _)| Observation::Decrease {
                x,
                c: x - max,
                ops: Estimate::exact(ops),
            });
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

    /// The runs of `trace`, folded event by event.
    fn analyze(trace: &[TraceEvent]) -> Vec<RunAnalysis> {
        let mut analysis = Analysis::default();
        for ev in trace {
            analysis.fold(ev.clone()).unwrap();
        }
        analysis.finish()
    }

    /// `trace_analyze --check`: the reader with no fold.
    fn check_lines(text: &str) -> Result<usize, String> {
        read_lines(Cursor::new(text), |_| Ok(()))
    }

    /// `trace_analyze`: the reader with the analysis fold.
    fn analyze_lines(text: &str) -> Result<Vec<RunAnalysis>, String> {
        let mut analysis = Analysis::default();
        read_lines(Cursor::new(text), |ev| analysis.fold(ev))?;
        Ok(analysis.finish())
    }

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
        assert_eq!(check_lines(&text).unwrap(), trace.len());
        let mut parsed = Vec::new();
        let read = read_lines(Cursor::new(&text), |ev| {
            parsed.push(ev);
            Ok(())
        });
        assert_eq!(read.unwrap(), trace.len());
        assert_eq!(parsed, trace);
        let runs = analyze_lines(&text).unwrap();
        assert_eq!(runs[0].metrics, metrics);
        assert_eq!(runs[0].balance_initiated, metrics.balance_ops);
    }

    #[test]
    fn check_lines_rejects_garbage_and_unstable_lines() {
        let garbage = "{\"t\":\"run_end\",\"run\":1}\n\nnot json\n";
        let err = check_lines(garbage).unwrap_err();
        assert!(err.starts_with("line 3: "), "{err}");
        // The analysis reads through the same reader.
        assert_eq!(analyze_lines(garbage).unwrap_err(), err);
        // Valid JSON, but key order differs from the canonical rendering.
        let ev = TraceEvent::RunFinished { run: 3 };
        let line = ev.to_line();
        let spaced = line.replace(':', ": ");
        assert_ne!(line, spaced);
        let err = check_lines(&spaced).unwrap_err();
        assert!(err.starts_with("line 1: not byte-stable"), "{err}");
        assert_eq!(analyze_lines(&spaced).unwrap_err(), err);
        assert_eq!(check_lines(&(line + "\n")).unwrap(), 1);
        // Bytes that are not UTF-8 are a read error, not a panic.
        let err = read_lines(Cursor::new(b"\xff\n"), |_| Ok(())).unwrap_err();
        assert!(err.starts_with("line 1: read error: "), "{err}");
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

    #[test]
    fn a_delta_past_u64_max_is_refused_by_line() {
        // Every line is a valid event on its own; the second delta's
        // `balance_ops` carries the run's sum past `u64::MAX`.
        let delta = |ops: u64| {
            TraceEvent::StepDelta {
                step: 0,
                counters: vec![("balance_ops".into(), ops)],
            }
            .to_line()
        };
        let text = [delta(u64::MAX), delta(2)].join("\n");
        assert_eq!(check_lines(&text).unwrap(), 2, "the schema holds");
        assert_eq!(
            analyze_lines(&text).unwrap_err(),
            "line 2: counter 'balance_ops' passes u64::MAX"
        );
        let migrated = |count: u64| {
            TraceEvent::PacketsMigrated {
                step: count,
                initiator: 0,
                count,
            }
            .to_line()
        };
        let text = [migrated(u64::MAX), migrated(1)].join("\n");
        assert_eq!(
            analyze_lines(&text).unwrap_err(),
            "line 2: packets migrated pass u64::MAX"
        );
    }

    #[test]
    fn a_delta_naming_an_unknown_counter_is_refused_by_line() {
        let text = [
            TraceEvent::RunFinished { run: 0 }.to_line(),
            TraceEvent::StepDelta {
                step: 0,
                counters: vec![("generated".into(), 1), ("teleported".into(), 1)],
            }
            .to_line(),
        ]
        .join("\n");
        assert_eq!(check_lines(&text).unwrap(), 2, "the schema holds");
        assert_eq!(
            analyze_lines(&text).unwrap_err(),
            "line 2: unknown counter 'teleported'"
        );
    }
}
