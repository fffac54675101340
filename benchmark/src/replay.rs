//! The replay: the generated scenario re-run in-process from the
//! crates' public functions, with a span around every call into a
//! layer.
//!
//! It mirrors `dlb-cli`'s `run_one_sync` / `run_one_async` /
//! `serve_main` call for call (same seeds via `stream_seed`, same
//! construction order, same observers), so it produces the very
//! statistics the binary prints — which is the output check — and its
//! layer times add up to the binary's run time — which is the
//! attribution.  When the binary's run loop changes, this file must
//! follow; `cli.residual_share` growing is the symptom of drift.

use std::path::Path;

use dlb_core::{Cluster, LoadBalancer, LoadEvent, LoadRecorder, Metrics, Params, SimpleCluster};
use dlb_experiments::{par_map, stream_seed, StreamId};
use dlb_faults::{FaultInjector, FaultPlan, FaultStats};
use dlb_json::ToJson;
use dlb_net::{AsyncConfig, AsyncNetwork, AsyncStats};
use dlb_serve::{ServiceScenario, ServiceStats};
use dlb_trace::{BufferSink, FileSink, NullSink, SharedSink, TraceEvent, TraceSink};
use dlb_workload::patterns::{ProducerConsumerSplit, UniformRandom};
use dlb_workload::phase::{PhaseConfig, PhaseWorkload};
use dlb_workload::service::RequestSource;
use dlb_workload::sparse::{SparseActivity, SparsePattern, SparseWorkload};
use dlb_workload::Workload;

use crate::check::{self, Fields};
use crate::spans::Recorder;
use crate::workloads::{Load, RunScenario, Strategy, WARMUP_FRACTION};

/// What trace sink the replayed engine carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// No sink: what `dlb run` does without `--trace`.
    None,
    /// A disabled `NullSink` handle on the engine (the <1.02 gate).
    Null,
    /// `dlb run --trace`: per-run `BufferSink`, driver events included;
    /// `profile` adds the `--profile` per-step `StepProfile` events.
    Buffer { profile: bool },
}

/// Everything one replay produced besides its spans.
#[derive(Default)]
pub struct Replay {
    /// The simulated statistics, rendered as the binary renders them.
    pub fields: Fields,
    /// Work done, in the workload's event unit.
    pub work: u64,
    /// Processor-steps offered (`n × steps × runs`; 0 for serve).
    pub slots: u64,
    pub mask_rebuilds: u64,
    /// Engine counters summed over runs (synchronous engines).
    pub core: Metrics,
    /// `Cluster::state_bytes` of the last run (full model only).
    pub state_bytes: usize,
    pub n: usize,
    /// Protocol counters summed over runs (async strategy).
    pub net: Option<AsyncStats>,
    /// Injector counters summed over runs (async strategy).
    pub faults: FaultStats,
    pub serve: Option<ServiceStats>,
    /// Captured trace events in run order (with a `Buffer` sink).
    pub trace: Vec<TraceEvent>,
}

/// One run's share of a [`Replay`], aggregated in run order exactly as
/// `execute_with` aggregates its `RunOutcome`s.
struct RunOutcome {
    recorder: LoadRecorder,
    ops: u64,
    migrated: u64,
    final_total: u64,
    stats: Option<AsyncStats>,
    lost: u64,
    events: Vec<TraceEvent>,
    work: u64,
    mask_rebuilds: u64,
    core: Metrics,
    state_bytes: usize,
    faults: FaultStats,
}

/// The two synchronous engines, kept concrete so the full model's
/// `state_bytes` stays reachable; boxed and stepped through
/// `dyn LoadBalancer` like the binary's `Box<dyn LoadBalancer>`.
enum Engine {
    Full(Box<Cluster>),
    Simple(Box<SimpleCluster>),
}

impl Engine {
    fn balancer(&mut self) -> &mut dyn LoadBalancer {
        match self {
            Engine::Full(c) => c.as_mut(),
            Engine::Simple(c) => c.as_mut(),
        }
    }

    fn state_bytes(&self) -> usize {
        match self {
            Engine::Full(c) => c.state_bytes(),
            Engine::Simple(_) => 0,
        }
    }
}

/// Crash masks recomputed only when a crash or rejoin fires (the
/// binary's `MaskCache`): `mask_at` is O(n) and would swamp an
/// O(active) sparse step if called every step.
struct MaskCache {
    boundaries: Vec<u64>,
    next: usize,
    mask: Vec<bool>,
    rebuilds: u64,
}

impl MaskCache {
    fn new(injector: &FaultInjector) -> Self {
        let mut boundaries: Vec<u64> = injector
            .crashes()
            .iter()
            .flat_map(|c| [Some(c.at), c.recover_at])
            .flatten()
            .collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        MaskCache {
            boundaries,
            next: 0,
            mask: Vec::new(),
            rebuilds: 0,
        }
    }

    fn at(&mut self, injector: &FaultInjector, t: u64, rec: &mut Recorder) -> &[bool] {
        let mut crossed = false;
        while self.next < self.boundaries.len() && self.boundaries[self.next] <= t {
            self.next += 1;
            crossed = true;
        }
        if crossed || self.mask.is_empty() {
            self.mask = rec.span("faults.mask", || injector.mask_at(t));
            self.rebuilds += 1;
        }
        &self.mask
    }
}

fn plan_for_run(sc: &RunScenario, r: usize) -> Option<FaultPlan> {
    sc.faults.as_ref().map(|plan| {
        let mut plan = plan.clone();
        plan.seed = stream_seed(plan.seed, r as u64, StreamId::Faults);
        plan
    })
}

fn warmup_steps(sc: &RunScenario) -> usize {
    (sc.steps as f64 * WARMUP_FRACTION) as usize
}

fn dense_workload(sc: &RunScenario, seed: u64) -> Box<dyn Workload> {
    match sc.load {
        Load::Phase => Box::new(PhaseWorkload::new(
            sc.n,
            sc.steps,
            PhaseConfig::paper_section7(),
            seed,
        )),
        Load::Uniform { p_gen, p_con } => Box::new(UniformRandom::new(sc.n, p_gen, p_con, seed)),
        Load::Split { swap_every } => Box::new(ProducerConsumerSplit::new(sc.n, swap_every)),
        Load::SparsePhase { work, gap } => Box::new(SparseActivity::new(
            sc.n,
            SparsePattern::Phase { work, gap },
            seed,
        )),
    }
}

fn non_idle(events: &[LoadEvent]) -> u64 {
    events.iter().filter(|&&e| e != LoadEvent::Idle).count() as u64
}

/// Mirror of `run_one_sync`.
fn run_sync(
    sc: &RunScenario,
    r: usize,
    sink: Sink,
    rec: &mut Recorder,
) -> Result<RunOutcome, String> {
    let seed = stream_seed(sc.seed, r as u64, StreamId::Balancer);
    let params = |delta, f, c| Params::new(sc.n, delta, f, c).map_err(|e| e.to_string());
    let (delta, f, c) = match sc.strategy {
        Strategy::Full { delta, f, c } => (delta, f, c),
        Strategy::Simple { delta, f } => (delta, f, 0),
        Strategy::Async { .. } => return Err("async runs on the event simulator".into()),
    };
    let mut engine = rec.span("core.construct", || {
        Ok::<_, String>(match sc.strategy {
            Strategy::Full { .. } => {
                Engine::Full(Box::new(Cluster::new(params(delta, f, c)?, seed)))
            }
            _ => Engine::Simple(Box::new(SimpleCluster::new(params(delta, f, 4)?, seed))),
        })
    })?;
    engine.balancer().set_step_jobs(1);
    let wseed = stream_seed(sc.seed, r as u64, StreamId::Workload);
    let mut sparse: Option<Box<dyn SparseWorkload>> = None;
    let mut dense: Option<Box<dyn Workload>> = None;
    rec.span("workload.new", || match sc.load {
        Load::SparsePhase { work, gap } => {
            sparse = Some(Box::new(SparseActivity::new(
                sc.n,
                SparsePattern::Phase { work, gap },
                wseed,
            )));
        }
        _ => dense = Some(dense_workload(sc, wseed)),
    });
    let mut recorder = LoadRecorder::new(warmup_steps(sc), 3.0);
    let buf = BufferSink::new();
    let driver = buf.handle();
    let tracing = matches!(sink, Sink::Buffer { .. });
    match sink {
        Sink::None => {}
        Sink::Null => engine.balancer().set_trace_sink(SharedSink::new(NullSink)),
        Sink::Buffer { .. } => {
            driver.record(&TraceEvent::RunStarted {
                run: r as u64,
                seed,
                n: sc.n as u64,
                strategy: engine.balancer().name().to_string(),
                delta: delta as u64,
                f,
                c: c as u64,
            });
            engine.balancer().set_trace_sink(buf.handle());
        }
    }
    let injector = match plan_for_run(sc, r) {
        Some(plan) => Some(FaultInjector::new(plan, sc.n)?),
        None => None,
    };
    let mut masks = injector.as_ref().map(MaskCache::new);
    let mut events = Vec::new();
    let mut active = Vec::new();
    let mut work = 0u64;
    let balancer = engine.balancer();
    for t in 0..sc.steps {
        let started = std::time::Instant::now();
        let ops_before = balancer.metrics().balance_ops;
        match (&mut sparse, &mut dense) {
            (Some(w), _) => {
                rec.span("workload.gen", || w.active_at(t, &mut active));
                work += active.len() as u64;
                match &injector {
                    Some(inj) => {
                        let mask = masks
                            .as_mut()
                            .expect("built with injector")
                            .at(inj, t as u64, rec);
                        rec.span("core.step", || balancer.step_sparse_masked(&active, mask));
                    }
                    None => rec.span("core.step", || balancer.step_sparse(&active)),
                }
            }
            (None, Some(w)) => {
                rec.span("workload.gen", || w.events_at(t, &mut events));
                work += non_idle(&events);
                match &injector {
                    Some(inj) => {
                        let mask = masks
                            .as_mut()
                            .expect("built with injector")
                            .at(inj, t as u64, rec);
                        rec.span("core.step", || balancer.step_masked(&events, mask));
                    }
                    None => rec.span("core.step", || balancer.step(&events)),
                }
            }
            (None, None) => unreachable!("one workload form is always built"),
        }
        rec.span("core.observe", || {
            let summary = balancer.load_summary();
            recorder.record_summary(summary, sc.n);
            if tracing {
                driver.record(&TraceEvent::LoadSample {
                    step: t as u64,
                    min: summary.min,
                    max: summary.max,
                    total: summary.total,
                });
                if sink == (Sink::Buffer { profile: true }) {
                    driver.record(&TraceEvent::StepProfile {
                        step: t as u64,
                        wall_ns: started.elapsed().as_nanos() as u64,
                        ops: balancer.metrics().balance_ops - ops_before,
                    });
                }
            }
        });
    }
    if tracing {
        driver.record(&TraceEvent::RunFinished { run: r as u64 });
    }
    let core = *balancer.metrics();
    let final_total = rec.span("core.finish", || balancer.loads().iter().sum());
    let state_bytes = engine.state_bytes();
    rec.span("workload.drop", || drop((sparse, dense)));
    rec.span("core.drop", || drop(engine));
    Ok(RunOutcome {
        recorder,
        ops: core.balance_ops,
        migrated: core.packets_migrated,
        final_total,
        stats: None,
        lost: 0,
        events: buf.take(),
        work,
        mask_rebuilds: masks.map_or(0, |m| m.rebuilds),
        core,
        state_bytes,
        faults: FaultStats::default(),
    })
}

/// Mirror of `run_one_async`.
fn run_async(
    sc: &RunScenario,
    r: usize,
    (delta, f, latency): (usize, f64, u64),
    rec: &mut Recorder,
) -> Result<RunOutcome, String> {
    let params = Params::new(sc.n, delta, f, 4).map_err(|e| e.to_string())?;
    let seed = stream_seed(sc.seed, r as u64, StreamId::Balancer);
    let config = AsyncConfig::reliable(params, latency, seed);
    let mut net = rec.span("net.construct", || match plan_for_run(sc, r) {
        Some(plan) => AsyncNetwork::with_faults(config, plan),
        None => Ok(AsyncNetwork::new(config)),
    })?;
    let wseed = stream_seed(sc.seed, r as u64, StreamId::Workload);
    let mut workload = rec.span("workload.new", || dense_workload(sc, wseed));
    let mut recorder = LoadRecorder::new(warmup_steps(sc), 3.0);
    let mut events = Vec::new();
    let mut actions = vec![0i8; sc.n];
    let mut work = 0u64;
    for t in 0..sc.steps {
        rec.span("workload.gen", || workload.events_at(t, &mut events));
        work += non_idle(&events);
        for (a, e) in actions.iter_mut().zip(events.iter()) {
            *a = match e {
                LoadEvent::Generate => 1,
                LoadEvent::Consume => -1,
                LoadEvent::Idle => 0,
            };
        }
        rec.span("net.tick", || net.tick(t as u64, &actions));
        rec.span("net.conservation", || net.check_conservation())?;
        rec.span("net.observe", || recorder.record(&net.loads()));
    }
    rec.span("net.quiesce", || net.quiesce());
    rec.span("net.conservation", || net.check_conservation())?;
    let stats = *net.stats();
    let final_total = rec.span("net.observe", || net.loads().iter().sum());
    let lost = net.lost();
    let faults = net.fault_stats().unwrap_or_default();
    rec.span("workload.drop", || drop(workload));
    rec.span("net.drop", || drop(net));
    Ok(RunOutcome {
        recorder,
        ops: stats.completed_ops,
        migrated: stats.packets_moved,
        final_total,
        stats: Some(stats),
        lost,
        events: Vec::new(),
        work,
        mask_rebuilds: 0,
        core: Metrics::default(),
        state_bytes: 0,
        faults,
    })
}

/// Replays a `dlb run` scenario (mirror of `execute_with`).  The root
/// `replay` span covers what the binary does between decoding the
/// scenario and printing the report; `trace_out` is where a `Buffer`
/// sink's events are written, as `--trace` would.  `jobs > 1` runs the
/// runs through `par_map` and needs a disabled recorder.
pub fn replay_run(
    sc: &RunScenario,
    sink: Sink,
    trace_out: Option<&Path>,
    jobs: usize,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    rec.enter("replay");
    let async_cfg = match sc.strategy {
        Strategy::Async { delta, f, latency } => Some((delta, f, latency)),
        _ => None,
    };
    let one = |r: usize, rec: &mut Recorder| {
        rec.set_run(r);
        rec.enter("run");
        let outcome = match async_cfg {
            Some(cfg) => run_async(sc, r, cfg, rec),
            None => run_sync(sc, r, sink, rec),
        };
        rec.exit();
        outcome
    };
    let outcomes: Vec<Result<RunOutcome, String>> = if jobs > 1 {
        assert!(rec.spans().is_empty(), "parallel replays are untraced");
        par_map(jobs, sc.runs, |r| one(r, &mut Recorder::new(false)))
    } else {
        (0..sc.runs).map(|r| one(r, rec)).collect()
    };

    let mut out = Replay {
        n: sc.n,
        slots: (sc.n * sc.steps * sc.runs) as u64,
        ..Replay::default()
    };
    let mut recorder = LoadRecorder::new(0, 3.0);
    let (mut ops, mut migrated, mut final_total, mut lost_load) = (0.0, 0.0, 0, 0);
    let mut stats = AsyncStats::default();
    for outcome in outcomes {
        let o = outcome?;
        recorder.merge(&o.recorder);
        ops += o.ops as f64;
        migrated += o.migrated as f64;
        final_total = o.final_total;
        if let Some(s) = o.stats {
            stats += s;
        }
        lost_load += o.lost;
        out.work += o.work;
        out.mask_rebuilds += o.mask_rebuilds;
        out.core += o.core;
        out.state_bytes = o.state_bytes;
        out.faults.dropped_control += o.faults.dropped_control;
        out.faults.dropped_transfers += o.faults.dropped_transfers;
        out.faults.duplicated += o.faults.duplicated;
        out.faults.delayed += o.faults.delayed;
        out.faults.partition_cuts += o.faults.partition_cuts;
        out.trace.extend(o.events);
    }
    if let Some(path) = trace_out {
        rec.span("trace.write", || -> Result<(), String> {
            let mut file =
                FileSink::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
            for ev in &out.trace {
                file.record(ev);
            }
            file.flush();
            Ok(())
        })?;
    }
    let runs = sc.runs as f64;
    let mut fields: Fields = vec![
        (
            "mean max/mean".into(),
            format!("{:.3}", recorder.mean_ratio()),
        ),
        (
            "p95 max/mean".into(),
            format!("{:.3}", recorder.ratio_quantile(0.95)),
        ),
        (
            "worst max/mean".into(),
            format!("{:.3}", recorder.worst_ratio()),
        ),
        ("ops/run".into(), format!("{:.1}", ops / runs)),
        ("migrated/run".into(), format!("{:.1}", migrated / runs)),
        ("final total".into(), final_total.to_string()),
    ];
    if async_cfg.is_some() {
        for (label, value) in [
            ("completed ops", stats.completed_ops),
            ("aborted ops", stats.aborted_ops),
            ("retries", stats.retries),
            ("timeout recov.", stats.timeout_recoveries),
            ("lost messages", stats.lost_messages),
            ("duplicated", stats.duplicated_messages),
            ("crashes", stats.crashes),
            ("recoveries", stats.recoveries),
            ("lost load", lost_load),
        ] {
            fields.push((label.into(), value.to_string()));
        }
        out.net = Some(stats);
    }
    out.fields = fields;
    rec.exit();
    Ok(out)
}

/// Replays a `dlb serve --mode sim` scenario file (mirror of
/// `serve_main`), writing the stats JSON to `stats_out`.
///
/// `serve.gen` — the request source driven alone over the same ticks —
/// is recorded *outside* the root span: it repeats work `run_sim`
/// already did, to say how much of `serve.sim` is generation.
pub fn replay_serve(
    scenario_path: &Path,
    stats_out: &Path,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    let io = |e: std::io::Error| e.to_string();
    rec.enter("replay");
    let text = std::fs::read_to_string(scenario_path).map_err(io)?;
    let scenario = rec.span("serve.parse", || ServiceScenario::parse(&text))?;
    let stats = rec.span("serve.sim", || dlb_serve::run_sim(&scenario, None))?;
    let doc = rec.span("serve.render", || {
        let doc = stats.to_json();
        std::fs::write(stats_out, doc.render_pretty()).map_err(io)?;
        Ok::<_, String>(doc)
    })?;
    rec.exit();
    let issued = rec.span("serve.gen", || {
        let mut source = RequestSource::new(scenario.load.clone(), scenario.seed);
        let mut batch = Vec::new();
        for t in 0..scenario.ticks {
            batch.clear();
            source.arrivals_at(t, &mut batch);
        }
        source.issued()
    });
    if issued != stats.issued {
        return Err(format!(
            "request source alone issued {issued}, run_sim {}",
            stats.issued
        ));
    }
    Ok(Replay {
        fields: check::stats_fields(&doc)?,
        work: stats.issued,
        n: scenario.shards,
        serve: Some(stats),
        ..Replay::default()
    })
}
