//! Builds and executes a [`Scenario`].
//!
//! Runs execute through the deterministic parallel harness of
//! `dlb-experiments` (`par_map` + `stream_seed`): each run's RNG streams
//! depend only on the scenario seed and the run index, results are
//! reduced in run-index order, and each run streams its trace events
//! through its own handle of one [`RunOrderedWriter`], which writes
//! them in run-index order — so the report and any `--trace` output are
//! byte-identical for every `--jobs N`.

use crate::config::{Scenario, StrategyConfig, TopologyConfig, WorkloadConfig};
use dlb_baselines::{
    Diffusion, DimensionExchange, DynamicAveraging, Gradient, LocallyOptimal, NoBalance,
    Quasirandom, RandomScatter, Rsu91, WorkStealing,
};
use dlb_core::{
    Cluster, LoadBalancer, LoadRecorder, LoadSummary, Params, SimpleCluster, WeightedCluster,
};
use dlb_experiments::arena::{
    league_csv_rows, lemma6_budget, run_league, run_seeded, run_seeded_async, ArenaConfig,
    Contender, RunWorkload, LEAGUE_HEADERS,
};
use dlb_experiments::{par_map, render_table};
use dlb_net::{AsyncConfig, AsyncStats, PartnerMode, TopoCluster, TopoRule, Topology};
use dlb_trace::{RunOrderedWriter, SharedSink, TraceEvent};
use dlb_workload::patterns::{MovingHotspot, OneProducer, ProducerConsumerSplit, UniformRandom};
use dlb_workload::phase::{PhaseConfig, PhaseWorkload};
use dlb_workload::sparse::SparseActivity;
use dlb_workload::Workload;
use std::cell::RefCell;
use std::fs::File;
use std::time::Instant;

/// Execution options (CLI flags, not scenario content).
#[derive(Debug, Clone, Default)]
pub(crate) struct RunOptions {
    /// Write a JSONL event trace here (`--trace`, the one way to name
    /// the path).
    pub trace: Option<String>,
    /// Worker threads for the run loop (`0`/`1` = sequential; output is
    /// identical for every value).
    pub jobs: usize,
    /// Emit per-step `StepProfile` events (wall times are
    /// machine-dependent, so profiled traces are not byte-reproducible).
    pub profile: bool,
    /// Force the dense O(n)-per-step path even for sparse-capable
    /// workloads (the event-driven path is taken automatically
    /// otherwise; both produce byte-identical output, so this flag
    /// exists for comparison and CI identity gates).
    pub dense: bool,
}

/// Aggregated outcome of all runs of a scenario.
#[derive(Debug, Clone)]
pub(crate) struct Report {
    /// Strategy name (from the balancer).
    pub strategy: String,
    /// Mean of per-step max/mean ratios (quality; 1.0 is perfect).
    pub mean_ratio: f64,
    /// 95th percentile of the ratios.
    pub p95_ratio: f64,
    /// Worst ratio ever observed.
    pub worst_ratio: f64,
    /// Balancing operations per run.
    pub ops_per_run: f64,
    /// Packets migrated per run.
    pub migrated_per_run: f64,
    /// Final total load of the last run.
    pub final_total: u64,
    /// Protocol counters summed over all runs (async strategy only).
    pub async_stats: Option<AsyncStats>,
    /// Packets destroyed by fault injection, summed over all runs
    /// (async strategy only; 0 without faults).
    pub lost_load: u64,
}

impl Report {
    /// Renders the report as aligned text.
    pub(crate) fn render(&self) -> String {
        let mut out = format!(
            "strategy        {}\n\
             mean max/mean   {:.3}\n\
             p95 max/mean    {:.3}\n\
             worst max/mean  {:.3}\n\
             ops/run         {:.1}\n\
             migrated/run    {:.1}\n\
             final total     {}",
            self.strategy,
            self.mean_ratio,
            self.p95_ratio,
            self.worst_ratio,
            self.ops_per_run,
            self.migrated_per_run,
            self.final_total
        );
        if let Some(s) = &self.async_stats {
            out.push_str(&format!(
                "\ncompleted ops   {}\n\
                 aborted ops     {}\n\
                 retries         {}\n\
                 timeout recov.  {}\n\
                 lost messages   {}\n\
                 duplicated      {}\n\
                 crashes         {}\n\
                 recoveries      {}\n\
                 lost load       {}",
                s.completed_ops,
                s.aborted_ops,
                s.retries,
                s.timeout_recoveries,
                s.lost_messages,
                s.duplicated_messages,
                s.crashes,
                s.recoveries,
                self.lost_load
            ));
        }
        out
    }
}

// The builders below construct what `Scenario::validate` has already
// admitted, so none of them can fail.

fn build_topology(config: &TopologyConfig, n: usize) -> Topology {
    match *config {
        TopologyConfig::Complete => Topology::Complete { n },
        TopologyConfig::Ring => Topology::Ring { n },
        TopologyConfig::Torus { w, h } => Topology::Torus2D { w, h },
        TopologyConfig::Hypercube { dim } => Topology::Hypercube { dim },
        TopologyConfig::DeBruijn { dim } => Topology::DeBruijn { dim },
        TopologyConfig::Star => Topology::Star { n },
    }
}

/// The balancer `config` names on `n` processors, drawing from `seed`.
///
/// # Panics
///
/// Panics on an `async` config, which runs on the event simulator.
pub(crate) fn build_strategy_config(
    config: &StrategyConfig,
    n: usize,
    seed: u64,
) -> Box<dyn LoadBalancer> {
    let params = |delta: usize, f: f64, c: usize| {
        Params::new(n, delta, f, c).expect("Scenario::validate admitted (n, delta, f)")
    };
    match config {
        StrategyConfig::Full { delta, f, c } => {
            Box::new(Cluster::new(params(*delta, *f, *c), seed))
        }
        StrategyConfig::Simple { delta, f } => {
            Box::new(SimpleCluster::new(params(*delta, *f, 4), seed))
        }
        StrategyConfig::Async { .. } => {
            unreachable!("async strategy runs on the event simulator, not a LoadBalancer")
        }
        StrategyConfig::Weighted { delta, f, speeds } => Box::new(WeightedCluster::new(
            params(*delta, *f, 4),
            speeds.clone(),
            seed,
        )),
        StrategyConfig::Topo {
            delta,
            f,
            topology,
            neighbors_only,
        } => {
            let mode = if *neighbors_only {
                PartnerMode::Neighbors
            } else {
                PartnerMode::GlobalRandom
            };
            let rule = TopoRule::new(build_topology(topology, n), mode);
            Box::new(TopoCluster::with_rule(params(*delta, *f, 4), rule, seed))
        }
        StrategyConfig::Rsu91 => Box::new(Rsu91::new(n, seed)),
        StrategyConfig::WorkStealing => Box::new(WorkStealing::new(n, seed)),
        StrategyConfig::RandomScatter => Box::new(RandomScatter::new(n, seed)),
        StrategyConfig::Diffusion { topology, alpha } => {
            Box::new(Diffusion::new(build_topology(topology, n), *alpha))
        }
        StrategyConfig::Gradient {
            topology,
            low,
            high,
        } => Box::new(Gradient::new(build_topology(topology, n), *low, *high)),
        StrategyConfig::Quasirandom { topology } => {
            Box::new(Quasirandom::new(build_topology(topology, n)))
        }
        StrategyConfig::DynamicAveraging { topology } => {
            Box::new(DynamicAveraging::new(build_topology(topology, n), seed))
        }
        StrategyConfig::LocallyOptimal { topology } => {
            Box::new(LocallyOptimal::new(build_topology(topology, n)))
        }
        StrategyConfig::DimensionExchange { topology } => {
            Box::new(DimensionExchange::new(build_topology(topology, n)))
        }
        StrategyConfig::None => Box::new(NoBalance::new(n)),
    }
}

fn build_workload(scenario: &Scenario, seed: u64) -> Box<dyn Workload> {
    let n = scenario.n;
    match scenario.workload {
        WorkloadConfig::Phase { g, c, len } => Box::new(PhaseWorkload::new(
            n,
            scenario.steps,
            PhaseConfig { g, c, len },
            seed,
        )),
        WorkloadConfig::OneProducer { producer } => Box::new(OneProducer::new(n, producer)),
        WorkloadConfig::Uniform { p_gen, p_con } => {
            Box::new(UniformRandom::new(n, p_gen, p_con, seed))
        }
        WorkloadConfig::MovingHotspot { period, p_con } => {
            Box::new(MovingHotspot::new(n, period, p_con, seed))
        }
        WorkloadConfig::Split { swap_every } => Box::new(ProducerConsumerSplit::new(n, swap_every)),
        WorkloadConfig::Sparse { pattern } => Box::new(SparseActivity::new(n, pattern, seed)),
    }
}

/// The workload of one sync run in the form it is stepped: a
/// sparse-capable workload's active list unless `dense`, else the dense
/// vector (same seed ⇒ the identical event stream either way).
fn run_workload(scenario: &Scenario, seed: u64, dense: bool) -> RunWorkload {
    match scenario.workload {
        WorkloadConfig::Sparse { pattern } if !dense => {
            RunWorkload::Active(Box::new(SparseActivity::new(scenario.n, pattern, seed)))
        }
        _ => RunWorkload::Dense(build_workload(scenario, seed)),
    }
}

/// `(δ, f, C)` as announced in `RunStarted` (zeroes for baselines that
/// have no such parameters — `trace_analyze` then skips the bounds).
fn strategy_triple(strategy: &StrategyConfig) -> (u64, f64, u64) {
    match strategy {
        StrategyConfig::Full { delta, f, c } => (*delta as u64, *f, *c as u64),
        StrategyConfig::Simple { delta, f }
        | StrategyConfig::Async { delta, f, .. }
        | StrategyConfig::Weighted { delta, f, .. }
        | StrategyConfig::Topo { delta, f, .. } => (*delta as u64, *f, 0),
        _ => (0, 0.0, 0),
    }
}

/// Everything one run produces; aggregated in run-index order.
struct RunOutcome {
    recorder: LoadRecorder,
    strategy: String,
    ops: u64,
    migrated: u64,
    final_total: u64,
    stats: Option<AsyncStats>,
    lost: u64,
}

/// The steps a run's recorder skips: `warmup_fraction` of them.
// `warmup_fraction` is validated into [0, 1), so the product is below
// `steps`, a `usize`.
#[allow(clippy::cast_possible_truncation)]
fn warmup_steps(scenario: &Scenario) -> usize {
    (scenario.steps as f64 * scenario.warmup_fraction) as usize
}

/// The `RunStarted` line of run `r`, whose balancer `strategy` draws
/// from `seed`.
fn run_started(scenario: &Scenario, r: usize, seed: u64, strategy: &str) -> TraceEvent {
    let (delta, f, c) = strategy_triple(&scenario.strategy);
    TraceEvent::RunStarted {
        run: r as u64,
        seed,
        n: scenario.n as u64,
        strategy: strategy.to_string(),
        delta,
        f,
        c,
    }
}

/// What a run records after each step: the load summary into its
/// recorder and, when traced, a `LoadSample` plus (under `--profile`)
/// a `StepProfile` line.
struct StepLog {
    recorder: LoadRecorder,
    n: usize,
    trace: Option<SharedSink>,
    /// Under `--profile` on a traced run: when the timed step began and
    /// the balance operations counted before it.  The runs read the
    /// clock only when a profile line will be written.
    profile: Option<(Instant, u64)>,
}

impl StepLog {
    fn new(scenario: &Scenario, trace: Option<SharedSink>, profile: bool) -> Self {
        StepLog {
            recorder: LoadRecorder::new(warmup_steps(scenario), 3.0),
            n: scenario.n,
            profile: (trace.is_some() && profile).then(|| (Instant::now(), 0)),
            trace,
        }
    }

    /// Starts timing a step here, `ops` operations into the run.
    fn start_clock(&mut self, ops: u64) {
        if let Some(clock) = &mut self.profile {
            *clock = (Instant::now(), ops);
        }
    }

    /// Records step `t`, which left `summary` after `ops` operations in
    /// all; the next step's clock starts when the lines are written.
    fn record(&mut self, t: usize, summary: LoadSummary, ops: u64) {
        self.recorder.record_summary(summary, self.n);
        let Some(sink) = &self.trace else { return };
        sink.record(&TraceEvent::LoadSample {
            step: t as u64,
            min: summary.min,
            max: summary.max,
            total: summary.total,
        });
        if let Some((started, ops_before)) = self.profile {
            sink.record(&TraceEvent::StepProfile {
                step: t as u64,
                wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                ops: ops - ops_before,
            });
            self.start_clock(ops);
        }
    }

    /// Closes run `r`'s trace and hands back its recorder.
    fn finish(self, r: usize) -> LoadRecorder {
        if let Some(sink) = &self.trace {
            sink.record(&TraceEvent::RunFinished { run: r as u64 });
            sink.flush();
        }
        self.recorder
    }
}

/// One run of a synchronous (LoadBalancer) strategy through
/// [`run_seeded`]: sparse-capable workloads hand the engine their
/// active list unless `--dense`, and both forms produce byte-identical
/// output.
fn sync_run(
    scenario: &Scenario,
    r: usize,
    trace: Option<SharedSink>,
    opts: &RunOptions,
) -> RunOutcome {
    let log = RefCell::new(StepLog::new(scenario, trace.clone(), opts.profile));
    let mut balancer = run_seeded(
        scenario.seed,
        r as u64,
        scenario.steps,
        scenario.faults.as_ref(),
        |seed| {
            let mut balancer = build_strategy_config(&scenario.strategy, scenario.n, seed);
            if let Some(sink) = &trace {
                sink.record(&run_started(scenario, r, seed, balancer.name()));
                balancer.set_trace_sink(sink.clone());
            }
            balancer
        },
        |seed| {
            let workload = run_workload(scenario, seed, opts.dense);
            log.borrow_mut().start_clock(0);
            workload
        },
        |t, balancer| {
            let ops = balancer.metrics().balance_ops;
            log.borrow_mut().record(t, balancer.load_summary(), ops);
        },
    );
    RunOutcome {
        recorder: log.into_inner().finish(r),
        strategy: balancer.name().to_string(),
        ops: balancer.metrics().balance_ops,
        migrated: balancer.metrics().packets_migrated,
        // The ledger total: no load vector for one sum.
        final_total: balancer.load_summary().total,
        stats: None,
        lost: 0,
    }
}

/// One run of the async (message-level) strategy through
/// [`run_seeded_async`], recorded as [`sync_run`] records its runs.
fn async_run(
    scenario: &Scenario,
    r: usize,
    trace: Option<SharedSink>,
    opts: &RunOptions,
    (delta, f, latency): (usize, f64, u64),
) -> Result<RunOutcome, String> {
    let log = RefCell::new(StepLog::new(scenario, trace.clone(), opts.profile));
    let net = run_seeded_async(
        scenario.seed,
        r as u64,
        scenario.steps,
        scenario.faults.as_ref(),
        |seed| {
            let params = Params::new(scenario.n, delta, f, 4)
                .expect("Scenario::validate admitted (n, delta, f)");
            if let Some(sink) = &trace {
                sink.record(&run_started(scenario, r, seed, "spaa93-async"));
            }
            (AsyncConfig::reliable(params, latency, seed), trace.clone())
        },
        |seed| {
            let workload = build_workload(scenario, seed);
            log.borrow_mut().start_clock(0);
            workload
        },
        |t, net| {
            let ops = net.stats().completed_ops;
            log.borrow_mut().record(t, net.load_summary(), ops);
        },
    )?;
    Ok(RunOutcome {
        recorder: log.into_inner().finish(r),
        strategy: "spaa93-async".to_string(),
        ops: net.stats().completed_ops,
        migrated: net.stats().packets_moved,
        final_total: net.loads_slice().iter().sum(),
        stats: Some(*net.stats()),
        lost: net.lost(),
    })
}

/// The trace a run writes, if `--trace` named one.
pub(crate) type Trace = Option<RunOrderedWriter<File>>;

/// Validates `scenario` and creates (truncates) the trace `opts` names,
/// in that order, before the first run: a refused scenario leaves an
/// existing trace untouched, and neither refusal costs a simulation or,
/// since `dlb run` prints its header after this, a line on stdout.
pub(crate) fn open_trace(scenario: &Scenario, opts: &RunOptions) -> Result<Trace, String> {
    scenario.validate()?;
    opts.trace
        .as_ref()
        .map(|path| {
            RunOrderedWriter::create(std::path::Path::new(path))
                .map_err(|e| format!("cannot create trace {path}: {e}"))
        })
        .transpose()
}

/// [`run_traced`] on the trace [`open_trace`] opens.
#[cfg(test)]
pub(crate) fn execute_with(scenario: &Scenario, opts: &RunOptions) -> Result<Report, String> {
    run_traced(scenario, opts, open_trace(scenario, opts)?)
}

/// [`league_traced`] on the trace [`open_trace`] opens.
#[cfg(test)]
pub(crate) fn execute_league(scenario: &Scenario, opts: &RunOptions) -> Result<String, String> {
    league_traced(scenario, opts, open_trace(scenario, opts)?)
}

/// Writes what the runs left parked and reports the first write error.
fn finish_trace(writer: Trace, path: &Option<String>) -> Result<(), String> {
    match (writer, path) {
        (Some(writer), Some(path)) => writer
            .into_inner()
            .map(drop)
            .map_err(|e| format!("cannot write trace {path}: {e}")),
        _ => Ok(()),
    }
}

/// Runs a scenario under explicit [`RunOptions`]: `jobs` worker
/// threads (identical output for every value) and the JSONL trace
/// [`open_trace`] opened, written in run-index order.
pub(crate) fn run_traced(
    scenario: &Scenario,
    opts: &RunOptions,
    writer: Trace,
) -> Result<Report, String> {
    let jobs = opts.jobs.max(1);
    let async_cfg = match scenario.strategy {
        StrategyConfig::Async { delta, f, latency } => Some((delta, f, latency)),
        _ => None,
    };
    let outcomes: Vec<Result<RunOutcome, String>> = par_map(jobs, scenario.runs, |r| {
        let trace = writer.as_ref().map(|w| w.handle(r));
        match async_cfg {
            Some(cfg) => async_run(scenario, r, trace, opts, cfg),
            None => Ok(sync_run(scenario, r, trace, opts)),
        }
    });

    let mut recorder = LoadRecorder::new(0, 3.0); // per-run warm-up applied above
    let mut strategy_name = String::new();
    let mut ops = 0.0;
    let mut migrated = 0.0;
    let mut final_total = 0;
    let mut stats = AsyncStats::default();
    let mut lost_load = 0;
    for outcome in outcomes {
        let o = outcome?;
        recorder.merge(&o.recorder);
        strategy_name = o.strategy;
        ops += o.ops as f64;
        migrated += o.migrated as f64;
        final_total = o.final_total;
        if let Some(s) = o.stats {
            stats += s;
        }
        lost_load += o.lost;
    }
    finish_trace(writer, &opts.trace)?;
    Ok(Report {
        strategy: strategy_name,
        mean_ratio: recorder.mean_ratio(),
        p95_ratio: recorder.ratio_quantile(0.95),
        worst_ratio: recorder.worst_ratio(),
        ops_per_run: ops / scenario.runs as f64,
        migrated_per_run: migrated / scenario.runs as f64,
        final_total,
        async_stats: if async_cfg.is_some() {
            Some(stats)
        } else {
            None
        },
        lost_load,
    })
}

/// Races `scenario.strategy` against every `scenario.balancer` entry —
/// identical workloads, fault plans and per-run RNG streams for every
/// contender — and returns the rendered league table.  The primary
/// strategy's trigger-rule draws are byte-identical to a plain
/// [`run_traced`] run of the same scenario.  With tracing enabled the
/// JSONL carries one `ArenaContender` announcement per (contender, run),
/// that run's engine events and its `RunFinished`, in contender-major
/// order, streamed as [`run_traced`] streams its runs.
pub(crate) fn league_traced(
    scenario: &Scenario,
    opts: &RunOptions,
    writer: Trace,
) -> Result<String, String> {
    let n = scenario.n;
    let mut contenders: Vec<Contender> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for config in std::iter::once(&scenario.strategy).chain(&scenario.balancer) {
        let base = config.kind();
        let dups = labels.iter().filter(|l| l.as_str() == base).count();
        let label = if dups == 0 {
            base.to_string()
        } else {
            format!("{base}#{}", dups + 1)
        };
        labels.push(base.to_string());
        let config = config.clone();
        contenders.push(Contender::new(&label, move |seed| {
            build_strategy_config(&config, n, seed)
        }));
    }

    let cfg = ArenaConfig {
        n,
        steps: scenario.steps,
        runs: scenario.runs,
        seed: scenario.seed,
        warmup_fraction: scenario.warmup_fraction,
        faults: scenario.faults.clone(),
        jobs: opts.jobs.max(1),
    };
    let rows = run_league(
        &cfg,
        &contenders,
        |seed| run_workload(scenario, seed, opts.dense),
        writer.as_ref(),
    );
    finish_trace(writer, &opts.trace)?;

    // The Lemma 6 cost yardstick applies only when the primary strategy
    // is the full algorithm (it alone runs decrease simulations).
    let budget = match &scenario.strategy {
        StrategyConfig::Full { delta, f, c } => {
            lemma6_budget(Params::new(n, *delta, *f, *c).expect("validated above"))
        }
        _ => None,
    };
    Ok(render_table(
        &LEAGUE_HEADERS,
        &league_csv_rows(&rows, budget),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scenario;
    use dlb_faults::{CrashEvent, FaultPlan};

    /// Default options: sequential, untraced.
    fn execute(scenario: &Scenario) -> Result<Report, String> {
        execute_with(scenario, &RunOptions::default())
    }

    fn small_scenario(strategy: StrategyConfig, workload: WorkloadConfig) -> Scenario {
        Scenario {
            n: 8,
            steps: 120,
            runs: 2,
            seed: 1,
            warmup_fraction: 0.2,
            strategy,
            workload,
            balancer: vec![],
            faults: None,
        }
    }

    /// Latency 1 with jitter 13 lets a reply outlive its last timeout:
    /// `dlb run` on this scenario used to exit 1 with "21 processors
    /// still locked after quiescence" (a debug build panicked on the
    /// reply count's underflow instead).
    #[test]
    fn a_reply_after_its_timeouts_leaks_no_lock() {
        let scenario = Scenario::from_json(
            r#"{
                "n": 34, "steps": 2000, "runs": 5, "seed": 7,
                "strategy": { "kind": "async", "delta": 4, "f": 1.3, "latency": 1 },
                "workload": { "kind": "uniform", "p_gen": 0.5, "p_con": 0.3 },
                "faults": { "seed": 99, "loss": 0.37, "duplication": 0.02,
                            "jitter": 13, "crash_mode": "frozen" }
            }"#,
        )
        .unwrap();
        let stats = execute(&scenario).unwrap().async_stats.unwrap();
        assert!(stats.timeout_recoveries > 0, "no retries ran out");
    }

    #[test]
    fn demo_scenario_executes() {
        let mut demo = Scenario::demo();
        demo.runs = 2;
        demo.steps = 150;
        let report = execute(&demo).unwrap();
        assert_eq!(report.strategy, "spaa93-simple");
        assert!(report.mean_ratio >= 1.0);
        assert!(report.ops_per_run > 0.0);
    }

    #[test]
    fn every_strategy_kind_executes() {
        let strategies = vec![
            StrategyConfig::Full {
                delta: 1,
                f: 1.1,
                c: 4,
            },
            StrategyConfig::Simple { delta: 2, f: 1.4 },
            StrategyConfig::Async {
                delta: 2,
                f: 1.4,
                latency: 2,
            },
            StrategyConfig::Weighted {
                delta: 1,
                f: 1.1,
                speeds: vec![1; 8],
            },
            StrategyConfig::Topo {
                delta: 1,
                f: 1.1,
                topology: TopologyConfig::Hypercube { dim: 3 },
                neighbors_only: true,
            },
            StrategyConfig::Rsu91,
            StrategyConfig::WorkStealing,
            StrategyConfig::RandomScatter,
            StrategyConfig::Gradient {
                topology: TopologyConfig::Ring,
                low: 2,
                high: 8,
            },
            StrategyConfig::Diffusion {
                topology: TopologyConfig::Ring,
                alpha: 0.25,
            },
            StrategyConfig::Quasirandom {
                topology: TopologyConfig::Hypercube { dim: 3 },
            },
            StrategyConfig::DynamicAveraging {
                topology: TopologyConfig::Complete,
            },
            StrategyConfig::LocallyOptimal {
                topology: TopologyConfig::Torus { w: 2, h: 4 },
            },
            StrategyConfig::DimensionExchange {
                topology: TopologyConfig::Ring,
            },
            StrategyConfig::None,
        ];
        for strategy in strategies {
            let scenario = small_scenario(
                strategy.clone(),
                WorkloadConfig::Uniform {
                    p_gen: 0.5,
                    p_con: 0.3,
                },
            );
            let report = execute(&scenario).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert!(report.mean_ratio >= 1.0, "{strategy:?}");
        }
    }

    #[test]
    fn every_workload_kind_executes() {
        let workloads = vec![
            WorkloadConfig::Phase {
                g: (0.1, 0.9),
                c: (0.1, 0.7),
                len: (20, 60),
            },
            WorkloadConfig::OneProducer { producer: 3 },
            WorkloadConfig::Uniform {
                p_gen: 0.4,
                p_con: 0.4,
            },
            WorkloadConfig::MovingHotspot {
                period: 10,
                p_con: 0.2,
            },
            WorkloadConfig::Split { swap_every: 25 },
        ];
        for workload in workloads {
            let scenario = small_scenario(
                StrategyConfig::Simple { delta: 1, f: 1.2 },
                workload.clone(),
            );
            execute(&scenario).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
        }
    }

    #[test]
    fn async_strategy_reports_protocol_stats() {
        let mut scenario = small_scenario(
            StrategyConfig::Async {
                delta: 2,
                f: 1.3,
                latency: 2,
            },
            WorkloadConfig::Uniform {
                p_gen: 0.6,
                p_con: 0.2,
            },
        );
        scenario.steps = 300;
        let report = execute(&scenario).unwrap();
        assert_eq!(report.strategy, "spaa93-async");
        let stats = report.async_stats.expect("async stats present");
        assert!(stats.completed_ops > 0, "{stats:?}");
        assert!(report.render().contains("completed ops"));
    }

    #[test]
    fn async_strategy_with_faults_executes_and_accounts_loss() {
        let mut scenario = small_scenario(
            StrategyConfig::Async {
                delta: 2,
                f: 1.3,
                latency: 2,
            },
            WorkloadConfig::Uniform {
                p_gen: 0.6,
                p_con: 0.2,
            },
        );
        scenario.steps = 400;
        scenario.faults = Some(FaultPlan {
            seed: 1,
            loss: 0.2,
            ..FaultPlan::default()
        });
        let report = execute(&scenario).unwrap();
        let stats = report.async_stats.expect("async stats present");
        assert!(stats.lost_messages > 0, "{stats:?}");
        assert!(report.render().contains("lost messages"));
    }

    #[test]
    fn trace_is_byte_identical_across_jobs() {
        let dir = std::env::temp_dir().join("dlb_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut scenario = small_scenario(
            StrategyConfig::Full {
                delta: 1,
                f: 1.1,
                c: 4,
            },
            WorkloadConfig::Phase {
                g: (0.1, 0.9),
                c: (0.1, 0.7),
                len: (20, 60),
            },
        );
        // More runs than workers, so runs end ahead of their turn and
        // park; each run's bytes pass the writer's 64 KiB write-through.
        scenario.runs = 7;
        scenario.steps = 400;
        let run_with = |jobs: usize| {
            let path = dir.join(format!("j{jobs}.jsonl"));
            let opts = RunOptions {
                trace: Some(path.to_string_lossy().into_owned()),
                jobs,
                ..RunOptions::default()
            };
            let report = execute_with(&scenario, &opts).unwrap();
            (std::fs::read(&path).unwrap(), report)
        };
        let (trace1, report1) = run_with(1);
        assert!(
            trace1.len() > scenario.runs * 64 * 1024,
            "{} bytes",
            trace1.len()
        );
        for jobs in [2, 3, 4] {
            let (trace, report) = run_with(jobs);
            assert!(trace == trace1, "traces must not depend on --jobs ({jobs})");
            assert_eq!(report1.mean_ratio, report.mean_ratio);
            assert_eq!(report1.ops_per_run, report.ops_per_run);
        }
        // Every line parses and re-renders byte-identically.
        let text = String::from_utf8(trace1).unwrap();
        for line in text.lines() {
            let ev = dlb_trace::TraceEvent::from_line(line).unwrap();
            assert_eq!(ev.to_line(), line);
        }
        // The trace carries engine events, not just driver samples.
        assert!(text.contains("\"t\":\"balance\""), "engine events present");
        assert!(text.contains("\"t\":\"run_start\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn untraced_report_matches_traced_report() {
        let dir = std::env::temp_dir().join("dlb_cli_trace_inert_test");
        std::fs::create_dir_all(&dir).unwrap();
        let scenario = small_scenario(
            StrategyConfig::Simple { delta: 1, f: 1.2 },
            WorkloadConfig::Uniform {
                p_gen: 0.5,
                p_con: 0.3,
            },
        );
        let plain = execute(&scenario).unwrap();
        let opts = RunOptions {
            trace: Some(dir.join("t.jsonl").to_string_lossy().into_owned()),
            jobs: 2,
            profile: true,
            dense: false,
        };
        let traced = execute_with(&scenario, &opts).unwrap();
        assert_eq!(plain.mean_ratio, traced.mean_ratio, "tracing is inert");
        assert_eq!(plain.ops_per_run, traced.ops_per_run);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `FileSink::record` used to `expect` its write, so a full disk
    /// unwound out of `dlb run` with a backtrace.
    #[cfg(target_os = "linux")]
    #[test]
    fn unwritable_trace_is_an_error_not_a_panic() {
        let opts = RunOptions {
            trace: Some("/dev/full".into()),
            ..RunOptions::default()
        };
        let scenario = small_scenario(
            StrategyConfig::Simple { delta: 1, f: 1.2 },
            WorkloadConfig::Uniform {
                p_gen: 0.5,
                p_con: 0.3,
            },
        );
        let err = execute_with(&scenario, &opts).unwrap_err();
        assert!(err.starts_with("cannot write trace /dev/full: "), "{err}");
        let err = execute_league(&league_scenario(), &opts).unwrap_err();
        assert!(err.starts_with("cannot write trace /dev/full: "), "{err}");
    }

    /// The trace file used to be created after every run had finished,
    /// so a path that cannot exist cost the whole simulation first.
    #[cfg(unix)]
    #[test]
    fn uncreatable_trace_is_refused_before_any_run() {
        let opts = RunOptions {
            trace: Some("/dev/null/x.jsonl".into()),
            ..RunOptions::default()
        };
        // Minutes of simulation in a debug build.
        let mut scenario = small_scenario(
            StrategyConfig::Simple { delta: 1, f: 1.2 },
            WorkloadConfig::Uniform {
                p_gen: 0.5,
                p_con: 0.3,
            },
        );
        scenario.n = 1 << 16;
        scenario.steps = 10_000;
        let started = std::time::Instant::now();
        for err in [
            execute_with(&scenario, &opts).unwrap_err(),
            execute_league(&league_scenario(), &opts).unwrap_err(),
        ] {
            // The OS's own reason: no directory is made on the way.
            assert!(
                err.starts_with("cannot create trace /dev/null/x.jsonl: Not a directory"),
                "{err}"
            );
        }
        let took = started.elapsed();
        assert!(took.as_secs() < 5, "refused only after {took:?}");
    }

    /// A scenario `Scenario::validate` refuses is refused before the
    /// trace is opened, so an existing file keeps its bytes.  A plain run
    /// used to truncate it and only then fail in a builder.
    #[test]
    fn a_refused_scenario_leaves_an_existing_trace_untouched() {
        let dir = std::env::temp_dir().join("dlb_cli_refused_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let before = b"an earlier run's trace\n";
        std::fs::write(&path, before).unwrap();
        let opts = RunOptions {
            trace: Some(path.to_string_lossy().into_owned()),
            ..RunOptions::default()
        };
        let diffusion = StrategyConfig::Diffusion {
            topology: TopologyConfig::Ring,
            alpha: 0.9,
        };
        let mut league = league_scenario();
        league.balancer.push(diffusion.clone());
        let plain = small_scenario(diffusion, league.workload.clone());
        for (err, key) in [
            (execute_with(&plain, &opts).unwrap_err(), "strategy.alpha"),
            (
                execute_league(&league, &opts).unwrap_err(),
                "balancer[2].alpha",
            ),
        ] {
            assert_eq!(std::fs::read(&path).unwrap(), before, "{key}");
            assert!(err.starts_with(key), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A scenario with a three-way league: the full algorithm vs two
    /// rivals, with a frozen crash in play.
    fn league_scenario() -> Scenario {
        let mut scenario = small_scenario(
            StrategyConfig::Full {
                delta: 1,
                f: 1.1,
                c: 4,
            },
            WorkloadConfig::Uniform {
                p_gen: 0.5,
                p_con: 0.3,
            },
        );
        scenario.balancer = vec![
            StrategyConfig::Quasirandom {
                topology: TopologyConfig::Hypercube { dim: 3 },
            },
            StrategyConfig::None,
        ];
        scenario.faults = Some(FaultPlan {
            crashes: vec![CrashEvent {
                proc: 2,
                at: 30,
                recover_at: Some(60),
            }],
            ..FaultPlan::default()
        });
        scenario
    }

    #[test]
    fn league_table_is_identical_across_jobs() {
        let scenario = league_scenario();
        let run_with = |jobs| {
            execute_league(
                &scenario,
                &RunOptions {
                    jobs,
                    ..RunOptions::default()
                },
            )
            .unwrap()
        };
        let table = run_with(1);
        for label in ["full", "quasirandom", "none", "cost_vs_l6"] {
            assert!(table.contains(label), "missing {label} in:\n{table}");
        }
        assert_eq!(table, run_with(4), "league must not depend on --jobs");
    }

    #[test]
    fn league_announces_contenders_in_the_trace() {
        let dir = std::env::temp_dir().join("dlb_cli_league_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("league.jsonl");
        let scenario = league_scenario();
        let opts = RunOptions {
            trace: Some(path.to_string_lossy().into_owned()),
            ..RunOptions::default()
        };
        execute_league(&scenario, &opts).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let announced: Vec<String> = text
            .lines()
            .map(|l| dlb_trace::TraceEvent::from_line(l).unwrap())
            .filter_map(|ev| match ev {
                TraceEvent::ArenaContender { label, .. } => Some(label),
                _ => None,
            })
            .collect();
        // Contender-major: each contender announces all its runs in order.
        assert_eq!(
            announced,
            ["full", "full", "quasirandom", "quasirandom", "none", "none"]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_league_kinds_get_distinct_labels() {
        let mut scenario = league_scenario();
        scenario.balancer = vec![
            StrategyConfig::Diffusion {
                topology: TopologyConfig::Ring,
                alpha: 0.1,
            },
            StrategyConfig::Diffusion {
                topology: TopologyConfig::Ring,
                alpha: 0.5,
            },
        ];
        let table = execute_league(&scenario, &RunOptions::default()).unwrap();
        assert!(table.contains("diffusion"), "{table}");
        assert!(table.contains("diffusion#2"), "{table}");
    }

    #[test]
    fn league_primary_matches_a_plain_run_bit_for_bit() {
        // The trigger-rule contender inside the league must consume its
        // RNG streams exactly as a plain single-strategy run does.
        let mut scenario = league_scenario();
        scenario.faults = None;
        let plain = execute(&scenario).unwrap();
        let table = execute_league(&scenario, &RunOptions::default()).unwrap();
        let full_row: Vec<&str> = table
            .lines()
            .find(|l| l.trim_start().starts_with("full"))
            .expect("full row present")
            .split_whitespace()
            .collect();
        // Columns: contender strategy mean p95 worst ops migrated ...
        assert_eq!(full_row[2], format!("{:.3}", plain.mean_ratio));
        assert_eq!(full_row[4], format!("{:.3}", plain.worst_ratio));
        assert_eq!(full_row[5], format!("{:.3}", plain.ops_per_run));
    }

    fn sparse_workloads() -> Vec<WorkloadConfig> {
        use dlb_workload::sparse::SparsePattern;
        vec![
            WorkloadConfig::Sparse {
                pattern: SparsePattern::Phase {
                    work: 2,
                    gap: (3, 9),
                },
            },
            WorkloadConfig::Sparse {
                pattern: SparsePattern::Hotspot {
                    period: 5,
                    consumer_gap: 4,
                },
            },
            WorkloadConfig::Sparse {
                pattern: SparsePattern::Bursty {
                    burst: 3,
                    quiet: 12,
                    quiet_gap: 8,
                },
            },
            WorkloadConfig::Sparse {
                pattern: SparsePattern::Arrivals {
                    arrival_gap: 6,
                    service_gap: 3,
                },
            },
        ]
    }

    #[test]
    fn every_sparse_workload_kind_executes() {
        for workload in sparse_workloads() {
            let scenario = small_scenario(
                StrategyConfig::Simple { delta: 1, f: 1.2 },
                workload.clone(),
            );
            execute(&scenario).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
        }
    }

    #[test]
    fn sparse_trace_is_byte_identical_to_dense() {
        // The event-driven path must not change a single byte of the
        // trace or report relative to --dense, with a crash/rejoin in
        // play.  The raw-load engines answer a summary query from their
        // load counts after an active-list step and from a scan after a
        // dense one, so the per-step `LoadSample` rows hold the two to
        // the same bytes.
        let dir = std::env::temp_dir().join("dlb_cli_sparse_identity_test");
        std::fs::create_dir_all(&dir).unwrap();
        let strategies = [
            StrategyConfig::Full {
                delta: 1,
                f: 1.1,
                c: 4,
            },
            StrategyConfig::Simple { delta: 2, f: 1.1 },
            StrategyConfig::Weighted {
                delta: 2,
                f: 1.1,
                speeds: (0..16).map(|i| 1 + i % 3).collect(),
            },
            StrategyConfig::Topo {
                delta: 1,
                f: 1.1,
                topology: TopologyConfig::Hypercube { dim: 4 },
                neighbors_only: true,
            },
        ];
        let cases = strategies.iter().flat_map(|strategy| {
            sparse_workloads()
                .into_iter()
                .map(move |workload| (strategy.clone(), workload))
        });
        for (w, (strategy, workload)) in cases.enumerate() {
            let mut scenario = small_scenario(strategy, workload);
            scenario.n = 16;
            scenario.steps = 200;
            scenario.runs = 2;
            scenario.faults = Some(FaultPlan {
                crashes: vec![CrashEvent {
                    proc: 3,
                    at: 40,
                    recover_at: Some(90),
                }],
                ..FaultPlan::default()
            });
            let run_with = |dense: bool, name: &str| {
                let path = dir.join(name);
                let opts = RunOptions {
                    trace: Some(path.to_string_lossy().into_owned()),
                    dense,
                    ..RunOptions::default()
                };
                let report = execute_with(&scenario, &opts).unwrap();
                (std::fs::read(&path).unwrap(), report)
            };
            let (dense, dense_report) = run_with(true, &format!("w{w}_dense.jsonl"));
            let (sparse, sparse_report) = run_with(false, &format!("w{w}_sparse.jsonl"));
            assert!(!dense.is_empty());
            assert_eq!(dense, sparse, "workload {w}");
            assert_eq!(dense_report.mean_ratio, sparse_report.mean_ratio);
            assert_eq!(dense_report.ops_per_run, sparse_report.ops_per_run);
            assert_eq!(dense_report.final_total, sparse_report.final_total);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sparse_league_is_byte_identical_to_dense() {
        // A league steps a sparse workload's active list unless --dense;
        // neither the table nor a trace byte may tell the two apart,
        // with a crash/rejoin in play.
        let dir = std::env::temp_dir().join("dlb_cli_sparse_league_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (w, workload) in sparse_workloads().into_iter().enumerate() {
            let mut scenario = league_scenario();
            scenario.workload = workload;
            let run_with = |dense: bool| {
                let path = dir.join(format!("w{w}_dense_{dense}.jsonl"));
                let opts = RunOptions {
                    trace: Some(path.to_string_lossy().into_owned()),
                    dense,
                    ..RunOptions::default()
                };
                let table = execute_league(&scenario, &opts).unwrap();
                (table, std::fs::read(&path).unwrap())
            };
            let (table, trace) = run_with(false);
            assert!(table.contains("quasirandom"), "{table}");
            assert!(!trace.is_empty());
            assert!(run_with(true) == (table, trace), "workload {w}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `Params` accepts any δ < n; δ ≥ 64 used to exit 101 at the first
    /// trigger, on a scratch array sized for groups of at most 64.
    #[test]
    fn full_model_runs_with_groups_wider_than_64() {
        let scenario = Scenario::from_json(
            r#"{"n":128,"steps":20,"runs":1,"seed":42,"warmup_fraction":0.2,
                "strategy":{"kind":"full","delta":70,"f":1.1,"c":4},
                "workload":{"kind":"phase"}}"#,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("dlb_cli_wide_groups_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let opts = RunOptions {
            trace: Some(path.to_string_lossy().into_owned()),
            ..RunOptions::default()
        };
        let report = execute_with(&scenario, &opts).unwrap();
        assert!(report.ops_per_run > 0.0, "groups of 71 were balanced");
        // The ledger: what the step deltas say was generated and not
        // consumed is what the processors hold at the end.
        let (mut generated, mut consumed) = (0u64, 0u64);
        for line in std::fs::read_to_string(&path).unwrap().lines() {
            if let TraceEvent::StepDelta { counters, .. } = TraceEvent::from_line(line).unwrap() {
                for (name, inc) in counters {
                    match &*name {
                        "generated" => generated += inc,
                        "consumed" => consumed += inc,
                        _ => {}
                    }
                }
            }
        }
        assert_eq!(generated - consumed, report.final_total);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_strategy_accepts_a_crash_mask() {
        let mut scenario = small_scenario(
            StrategyConfig::Simple { delta: 1, f: 1.2 },
            WorkloadConfig::Uniform {
                p_gen: 0.5,
                p_con: 0.3,
            },
        );
        scenario.faults = Some(FaultPlan {
            crashes: vec![CrashEvent {
                proc: 2,
                at: 30,
                recover_at: Some(60),
            }],
            ..FaultPlan::default()
        });
        let report = execute(&scenario).unwrap();
        assert!(report.mean_ratio >= 1.0);
    }
}
