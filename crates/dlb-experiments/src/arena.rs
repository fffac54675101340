//! Balancer arena: every contender races the *same* workloads, fault
//! plans and seed streams, producing a league table — and the two
//! seeded-run drivers every run steps through: [`run_seeded`] for a
//! synchronous [`LoadBalancer`] (the league, the §7 rows and `dlb run`)
//! and [`run_seeded_async`] for the message-level simulator (`dlb run`'s
//! async strategy, `faults_sweep` and `async_latency`).
//!
//! The point of the arena is attribution: run `r` of every contender
//! generates the identical workload (workload stream), sees the
//! identical crash mask (fault stream) and draws its own randomness from
//! the balancer stream — all via [`stream_seed`] inside [`run_seeded`],
//! so the trigger rule's RNG consumption is byte-identical to what
//! `fig7_quality` and the golden results already pin down.  Any
//! difference between two league rows is therefore the algorithm, not
//! the harness.
//!
//! Runs fan out through [`crate::parallel::par_map`], one index per
//! (contender, run), and reduce in that order, so the league table is
//! bit-identical for every `--jobs` value.  A traced league streams
//! through one [`RunOrderedWriter`]: run `r` of contender `c` writes its
//! `ArenaContender` announcement, its engine events and `RunFinished` to
//! handle `c·runs + r`, so the trace bytes do not depend on `--jobs`
//! either.

use crate::parallel::{par_map, stream_seed, StreamId};
use crate::report::f3;
use dlb_core::{Events, LoadBalancer, LoadRecorder, Params};
use dlb_faults::{FaultInjector, FaultPlan, MaskCursor};
use dlb_net::{AsyncConfig, AsyncNetwork};
use dlb_theory::CostBounds;
use dlb_trace::{RunOrderedWriter, SharedSink, TraceEvent};
use dlb_workload::sparse::SparseWorkload;
use dlb_workload::Workload;

/// The workload of one seeded run, in the form its balancer steps it.
/// Both forms mean the same steps ([`Events`]), so the choice changes
/// the cost of a step, never a byte of its outcome.
pub enum RunWorkload {
    /// One event per processor per step.
    Dense(Box<dyn Workload>),
    /// The processors that act, per step: O(active), however large `n`.
    Active(Box<dyn SparseWorkload>),
}

/// Run `run`'s copy of `plan`: the plan's own seed is re-derived per run,
/// so runs see independent fault streams.
pub fn plan_for_run(plan: &FaultPlan, run: u64) -> FaultPlan {
    let mut plan = plan.clone();
    plan.seed = stream_seed(plan.seed, run, StreamId::Faults);
    plan
}

/// One seeded run: derives run `run`'s balancer and workload seeds from
/// `seed` (and the fault stream from `faults`' own seed), builds the
/// balancer, then the workload, then the crash masks, and steps the
/// balancer `steps` times, handing it to `observe(t, balancer)` after
/// each step.  What a run announces, records and reduces is the
/// caller's; the finished balancer is returned for its end-of-run
/// metrics.
///
/// # Panics
///
/// Panics when the balancer and the workload disagree on `n`, or the
/// fault plan does not validate for it.
pub fn run_seeded<B: LoadBalancer + ?Sized>(
    seed: u64,
    run: u64,
    steps: usize,
    faults: Option<&FaultPlan>,
    make_balancer: impl FnOnce(u64) -> Box<B>,
    make_workload: impl FnOnce(u64) -> RunWorkload,
    mut observe: impl FnMut(usize, &mut B),
) -> Box<B> {
    let mut balancer = make_balancer(stream_seed(seed, run, StreamId::Balancer));
    let mut workload = make_workload(stream_seed(seed, run, StreamId::Workload));
    let n = balancer.n();
    let workload_n = match &workload {
        RunWorkload::Dense(w) => w.n(),
        RunWorkload::Active(w) => w.n(),
    };
    assert_eq!(n, workload_n, "balancer/workload size mismatch");
    // Synchronous engines take the fault plan as a per-step crash mask
    // (message faults do not apply to atomic balancing operations).
    let injector = faults.map(|plan| {
        FaultInjector::new(plan_for_run(plan, run), n).expect("a fault plan valid for n")
    });
    let mut masks = injector.as_ref().map(MaskCursor::new);
    let (mut events, mut active) = (Vec::new(), Vec::new());
    for t in 0..steps {
        let step = match &mut workload {
            RunWorkload::Dense(w) => {
                w.events_at(t, &mut events);
                Events::Dense(&events)
            }
            RunWorkload::Active(w) => {
                w.active_at(t, &mut active);
                Events::Active(&active)
            }
        };
        balancer.step_events(step, masks.as_mut().map(|m| m.at(t as u64)));
        observe(t, &mut balancer);
    }
    balancer
}

/// One seeded run of the message-level simulator, as [`run_seeded`] is
/// one of a synchronous balancer: `make_config` gets run `run`'s
/// balancer-stream seed and returns the network's configuration and,
/// for a traced run, the sink to attach; the network runs `faults`'
/// [`plan_for_run`] copy when there is a plan; `make_workload` gets the
/// workload-stream seed.  The network ticks `steps` times on the
/// workload's events and is handed to `observe(t, net)` after each tick,
/// then quiesces.  Conservation is checked after every tick and after
/// quiescence, and no processor may hold a lock then: the first
/// violation is returned before any further tick.
///
/// # Panics
///
/// Panics when the network and the workload disagree on `n`, the fault
/// plan does not validate for it, or the configuration's latency exceeds
/// [`dlb_net::MAX_LATENCY`].
pub fn run_seeded_async<W: Workload + ?Sized>(
    seed: u64,
    run: u64,
    steps: usize,
    faults: Option<&FaultPlan>,
    make_config: impl FnOnce(u64) -> (AsyncConfig, Option<SharedSink>),
    make_workload: impl FnOnce(u64) -> Box<W>,
    mut observe: impl FnMut(usize, &AsyncNetwork),
) -> Result<AsyncNetwork, String> {
    let (config, sink) = make_config(stream_seed(seed, run, StreamId::Balancer));
    let mut net = match faults {
        Some(plan) => AsyncNetwork::with_faults(config, plan_for_run(plan, run))
            .expect("a fault plan valid for n"),
        None => AsyncNetwork::new(config),
    };
    if let Some(sink) = sink {
        net.set_trace_sink(sink);
    }
    let mut workload = make_workload(stream_seed(seed, run, StreamId::Workload));
    let mut events = Vec::new();
    for t in 0..steps {
        workload.events_at(t, &mut events);
        net.tick(t as u64, &events);
        net.check_conservation()
            .map_err(|e| format!("after tick {t}: {e}"))?;
        observe(t, &net);
    }
    net.quiesce();
    net.check_conservation()
        .map_err(|e| format!("after quiescence: {e}"))?;
    match net.locked_count() {
        0 => Ok(net),
        locked => Err(format!("{locked} processors still locked after quiescence")),
    }
}

/// Max/mean ratio under which a step counts as converged.
const CONV_THRESHOLD: f64 = 1.5;

/// Builds one contender instance from that run's balancer-stream seed.
pub type ContenderFactory = Box<dyn Fn(u64) -> Box<dyn LoadBalancer> + Sync + Send>;

/// One arena entrant: a display label plus a per-run factory.
pub struct Contender {
    /// League-table label (unique per entrant; the balancer's
    /// `name()` may repeat across parameterisations).
    pub label: String,
    /// Per-run constructor, fed `stream_seed(seed, run, Balancer)`.
    pub make: ContenderFactory,
}

impl Contender {
    /// Convenience constructor.
    pub fn new(
        label: &str,
        make: impl Fn(u64) -> Box<dyn LoadBalancer> + Sync + Send + 'static,
    ) -> Self {
        Contender {
            label: label.to_string(),
            make: Box::new(make),
        }
    }
}

/// Arena dimensions shared by every contender.
#[derive(Debug, Clone)]
pub struct ArenaConfig {
    /// Processors.
    pub n: usize,
    /// Driver steps per run.
    pub steps: usize,
    /// Independent seeded runs per contender.
    pub runs: usize,
    /// Base seed; per-run streams derive via [`stream_seed`].
    pub seed: u64,
    /// Fraction of `steps` excluded from the quality statistics.
    pub warmup_fraction: f64,
    /// Fault plan applied identically to every contender (the plan seed
    /// is re-derived per run, mirroring `dlb run`).
    pub faults: Option<FaultPlan>,
    /// Worker threads (output is bit-identical for every value).
    pub jobs: usize,
}

impl ArenaConfig {
    /// First step included in the quality statistics.
    // Callers keep the fraction in [0, 1), so the product stays below
    // `steps`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn warmup(&self) -> usize {
        (self.steps as f64 * self.warmup_fraction) as usize
    }
}

/// One league-table row: a contender's aggregate over all runs.
#[derive(Debug, Clone)]
pub struct ArenaRow {
    /// Contender label.
    pub label: String,
    /// `LoadBalancer::name()` of the contender.
    pub strategy: String,
    /// Mean max/mean load ratio over recorded (post-warmup) steps.
    pub mean_ratio: f64,
    /// 95th-percentile max/mean ratio.
    pub p95_ratio: f64,
    /// Worst max/mean ratio ever observed post-warmup.
    pub worst_ratio: f64,
    /// Mean balancing operations per run.
    pub ops_per_run: f64,
    /// Mean packets migrated per run.
    pub migrated_per_run: f64,
    /// Mean point-to-point messages per run.
    pub messages_per_run: f64,
    /// Mean §4 decrease simulations per run (0 for every non-trigger
    /// contender — the Lemma 6 yardstick divides by this).
    pub decrease_per_run: f64,
    /// Mean first step after which the max/mean ratio stayed below the
    /// convergence threshold (`steps` when a run never settled).
    pub conv_steps: f64,
    /// Mean max/mean ratio per step, over runs (the SVG curve).
    pub ratio_curve: Vec<f64>,
    /// Each run's own figures, in run order: the spread behind the means.
    pub per_run: Vec<RunStats>,
}

/// One run of one contender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Mean max/mean ratio over the run's recorded steps.
    pub mean_ratio: f64,
    /// Balancing operations.
    pub balance_ops: u64,
    /// First step after which the ratio stayed below the threshold.
    pub conv_steps: usize,
}

struct RunOutcome {
    recorder: LoadRecorder,
    ratios: Vec<f64>,
    balance_ops: u64,
    packets_migrated: u64,
    messages: u64,
    decrease_sim: u64,
    conv_steps: usize,
    strategy: &'static str,
}

/// Races every contender over the same `runs` workloads and fault
/// masks through [`run_seeded`]; `workload` builds one run's workload
/// from its workload-stream seed.  With `trace`, every run streams its
/// events into the writer (see the module doc); finishing it is the
/// caller's.
///
/// # Panics
///
/// Panics when `runs` is 0, a contender and the workload disagree on
/// `n` or the fault plan does not validate.
pub fn run_league(
    cfg: &ArenaConfig,
    contenders: &[Contender],
    workload: impl Fn(u64) -> RunWorkload + Sync,
    trace: Option<&RunOrderedWriter<std::fs::File>>,
) -> Vec<ArenaRow> {
    let warmup = cfg.warmup();
    let outcomes = par_map(cfg.jobs, contenders.len() * cfg.runs, |i| {
        let sink = trace.map(|writer| writer.handle(i));
        let contender = &contenders[i / cfg.runs];
        let r = (i % cfg.runs) as u64;
        let mut recorder = LoadRecorder::new(warmup, 3.0);
        let mut ratios = vec![0.0f64; cfg.steps];
        let balancer = run_seeded(
            cfg.seed,
            r,
            cfg.steps,
            cfg.faults.as_ref(),
            |seed| {
                let mut balancer = (contender.make)(seed);
                if let Some(sink) = &sink {
                    sink.record(&TraceEvent::ArenaContender {
                        run: r,
                        label: contender.label.clone(),
                        strategy: balancer.name().to_string(),
                        seed,
                    });
                    balancer.set_trace_sink(sink.clone());
                }
                balancer
            },
            &workload,
            |t, balancer| {
                let summary = balancer.load_summary();
                recorder.record_summary(summary, cfg.n);
                let mean = summary.mean(cfg.n);
                ratios[t] = if mean > 0.0 {
                    summary.max as f64 / mean
                } else {
                    1.0
                };
            },
        );
        if let Some(sink) = &sink {
            sink.record(&TraceEvent::RunFinished { run: r });
            sink.flush();
        }
        // Convergence: the first post-warmup step after which the ratio
        // never exceeds the threshold again (`steps` when it never settles).
        let last_bad = ratios
            .iter()
            .rposition(|&x| x > CONV_THRESHOLD)
            .map_or(0, |t| t + 1);
        let m = balancer.metrics();
        RunOutcome {
            recorder,
            balance_ops: m.balance_ops,
            packets_migrated: m.packets_migrated,
            messages: m.messages,
            decrease_sim: m.decrease_sim,
            conv_steps: last_bad.clamp(warmup, cfg.steps),
            strategy: balancer.name(),
            ratios,
        }
    });
    // Reduce in (contender, run) order: bit-identical for every jobs value.
    let per_run = |total: u64| total as f64 / cfg.runs as f64;
    contenders
        .iter()
        .zip(outcomes.chunks(cfg.runs))
        .map(|(contender, runs)| {
            let mut recorder = LoadRecorder::new(warmup, 3.0);
            let mut curve = vec![0.0f64; cfg.steps];
            let (mut ops, mut migrated, mut messages, mut dec) = (0u64, 0u64, 0u64, 0u64);
            let mut conv_sum = 0usize;
            for out in runs {
                recorder.merge(&out.recorder);
                for (acc, &x) in curve.iter_mut().zip(out.ratios.iter()) {
                    *acc += x;
                }
                ops += out.balance_ops;
                migrated += out.packets_migrated;
                messages += out.messages;
                dec += out.decrease_sim;
                conv_sum += out.conv_steps;
            }
            for x in &mut curve {
                *x /= cfg.runs as f64;
            }
            ArenaRow {
                label: contender.label.clone(),
                strategy: runs[0].strategy.to_string(),
                mean_ratio: recorder.mean_ratio(),
                p95_ratio: recorder.ratio_quantile(0.95),
                worst_ratio: recorder.worst_ratio(),
                ops_per_run: per_run(ops),
                migrated_per_run: per_run(migrated),
                messages_per_run: per_run(messages),
                decrease_per_run: per_run(dec),
                conv_steps: conv_sum as f64 / cfg.runs as f64,
                ratio_curve: curve,
                per_run: runs
                    .iter()
                    .map(|out| RunStats {
                        mean_ratio: out.recorder.mean_ratio(),
                        balance_ops: out.balance_ops,
                        conv_steps: out.conv_steps,
                    })
                    .collect(),
            }
        })
        .collect()
}

/// The Lemma 6 balance-op budget per decrease simulation of the trigger
/// rule with `params`, at `x = 2C` (`None` out of the lemma's domain,
/// or when `2C` overflows):
/// the yardstick of [`league_csv_rows`]' `cost_vs_l6`.
pub fn lemma6_budget(params: Params) -> Option<u64> {
    let c = params.c_borrow() as u64;
    CostBounds::for_params(params.algo()).lemma6_upper(c.checked_mul(2)?, c, 64)
}

/// League CSV header, matched by [`league_csv_rows`].
pub const LEAGUE_HEADERS: [&str; 11] = [
    "contender",
    "strategy",
    "mean_ratio",
    "p95_ratio",
    "worst_ratio",
    "ops_per_run",
    "migrated_per_run",
    "msgs_per_run",
    "dec_sims_per_run",
    "conv_steps",
    "cost_vs_l6",
];

/// Renders the league rows for [`crate::report::write_csv`] /
/// [`crate::report::render_table`].
///
/// `lemma6_budget` is the Lemma 6 per-decrease-simulation balance-op
/// budget of the trigger rule's parameters; `cost_vs_l6` divides each
/// contender's measured ops by `decrease_sims × budget` (0.000 when the
/// contender never runs a decrease simulation — only the trigger rule
/// does).
pub fn league_csv_rows(rows: &[ArenaRow], lemma6_budget: Option<u64>) -> Vec<Vec<String>> {
    rows.iter()
        .map(|row| {
            let cost_vs_l6 = match lemma6_budget {
                Some(budget) if row.decrease_per_run > 0.0 && budget > 0 => {
                    row.ops_per_run / (row.decrease_per_run * budget as f64)
                }
                _ => 0.0,
            };
            vec![
                row.label.clone(),
                row.strategy.clone(),
                f3(row.mean_ratio),
                f3(row.p95_ratio),
                f3(row.worst_ratio),
                f3(row.ops_per_run),
                f3(row.migrated_per_run),
                f3(row.messages_per_run),
                f3(row.decrease_per_run),
                f3(row.conv_steps),
                f3(cost_vs_l6),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::paper_workload;
    use dlb_baselines::{LocallyOptimal, Quasirandom};
    use dlb_core::Cluster;
    use dlb_net::Topology;
    use dlb_workload::phase::{PhaseConfig, PhaseWorkload};

    fn tiny_cfg(jobs: usize) -> ArenaConfig {
        ArenaConfig {
            n: 8,
            steps: 60,
            runs: 3,
            seed: 7,
            warmup_fraction: 0.25,
            faults: None,
            jobs,
        }
    }

    fn tiny_contenders() -> Vec<Contender> {
        let params = Params::new(8, 1, 1.1, 4).expect("valid");
        vec![
            Contender::new("spaa93-full", move |seed| {
                Box::new(Cluster::new(params, seed))
            }),
            Contender::new("quasirandom", |_| {
                Box::new(Quasirandom::new(Topology::Hypercube { dim: 3 }))
            }),
            Contender::new("locally-optimal", |_| {
                Box::new(LocallyOptimal::new(Topology::Hypercube { dim: 3 }))
            }),
        ]
    }

    fn league(jobs: usize, trace: Option<&RunOrderedWriter<std::fs::File>>) -> Vec<ArenaRow> {
        run_league(
            &tiny_cfg(jobs),
            &tiny_contenders(),
            |seed| paper_workload(8, 60, seed),
            trace,
        )
    }

    fn csv(rows: &[ArenaRow]) -> Vec<Vec<String>> {
        league_csv_rows(rows, Some(17))
    }

    /// The league at `jobs`, traced into a file: its rows and the bytes.
    fn traced_league(jobs: usize) -> (Vec<ArenaRow>, Vec<u8>) {
        let path = std::env::temp_dir().join(format!(
            "dlb_arena_trace_{}_{jobs}.jsonl",
            std::process::id()
        ));
        let writer = RunOrderedWriter::create(&path).expect("temp trace");
        let rows = league(jobs, Some(&writer));
        writer.into_inner().expect("trace written");
        let bytes = std::fs::read(&path).expect("trace read");
        std::fs::remove_file(&path).ok();
        (rows, bytes)
    }

    #[test]
    fn every_contender_sees_the_same_workload() {
        // The workload stream depends only on (seed, run), never on the
        // contender: the factory must receive the identical seed
        // sequence for each entrant.
        let seen = std::sync::Mutex::new(Vec::new());
        run_league(
            &tiny_cfg(1),
            &tiny_contenders(),
            |seed| {
                seen.lock().unwrap().push(seed);
                paper_workload(8, 60, seed)
            },
            None,
        );
        let seen = seen.into_inner().unwrap();
        let per_run: Vec<u64> = (0..3)
            .map(|r| stream_seed(7, r, StreamId::Workload))
            .collect();
        assert_eq!(seen, per_run.repeat(3), "3 contenders × the same 3 seeds");
    }

    #[test]
    fn trace_announces_contenders_in_order() {
        let (rows, bytes) = traced_league(1);
        let events: Vec<TraceEvent> = std::str::from_utf8(&bytes)
            .expect("UTF-8 trace")
            .lines()
            .map(|line| TraceEvent::from_line(line).expect("trace line parses"))
            .collect();
        let labels: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ArenaContender { label, .. } => Some(label.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(labels.len(), 9, "3 contenders × 3 runs");
        assert_eq!(&labels[..3], &["spaa93-full"; 3]);
        assert_eq!(&labels[3..6], &["quasirandom"; 3]);
        // Every announced run is closed before the next is announced.
        let brackets: String = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ArenaContender { .. } => Some('['),
                TraceEvent::RunFinished { .. } => Some(']'),
                _ => None,
            })
            .collect();
        assert_eq!(brackets, "[]".repeat(9));
        // Tracing must not change the league numbers, and the bytes do
        // not depend on how many runs stream at once.
        assert_eq!(csv(&rows), csv(&league(1, None)));
        let (rows4, bytes4) = traced_league(4);
        assert_eq!(csv(&rows4), csv(&rows));
        assert!(bytes4 == bytes, "--jobs 4 changed the trace bytes");
    }

    #[test]
    fn trigger_rule_matches_a_direct_simulation() {
        // No harness drift: the arena's spaa93-full row must reproduce a
        // hand-driven Cluster over the same streams exactly.
        let cfg = tiny_cfg(1);
        let params = Params::new(8, 1, 1.1, 4).expect("valid");
        let rows = run_league(
            &cfg,
            &[Contender::new("spaa93-full", move |seed| {
                Box::new(Cluster::new(params, seed))
            })],
            |seed| paper_workload(8, 60, seed),
            None,
        );
        let mut ops = 0u64;
        let mut recorder = LoadRecorder::new(cfg.warmup(), 3.0);
        for r in 0..cfg.runs as u64 {
            let wseed = stream_seed(cfg.seed, r, StreamId::Workload);
            let mut workload = PhaseWorkload::new(8, 60, PhaseConfig::paper_section7(), wseed);
            let mut cluster = Cluster::new(params, stream_seed(cfg.seed, r, StreamId::Balancer));
            let mut events = Vec::new();
            let mut loads = Vec::new();
            // Warmup applies per run, exactly as the arena does it.
            let mut run_recorder = LoadRecorder::new(cfg.warmup(), 3.0);
            for t in 0..cfg.steps {
                workload.events_at(t, &mut events);
                cluster.step(&events);
                cluster.loads_into(&mut loads);
                run_recorder.record(&loads);
            }
            recorder.merge(&run_recorder);
            ops += cluster.metrics().balance_ops;
        }
        let row = &rows[0];
        assert_eq!(row.ops_per_run, ops as f64 / cfg.runs as f64);
        assert_eq!(row.mean_ratio, recorder.mean_ratio());
        assert_eq!(row.worst_ratio, recorder.worst_ratio());
    }

    #[test]
    fn async_driver_matches_a_hand_stepped_network() {
        // No harness drift on the async side either: the driver's network
        // is the one a hand-stepped loop over the same three streams
        // builds, tick for tick, under loss, duplication and a crash.
        use dlb_faults::{CrashEvent, CrashMode};
        use dlb_workload::patterns::UniformRandom;
        let params = Params::new(8, 2, 1.3, 4).expect("valid");
        let plan = FaultPlan {
            seed: 3,
            loss: 0.1,
            duplication: 0.05,
            crash_mode: CrashMode::Frozen,
            crashes: vec![CrashEvent {
                proc: 2,
                at: 60,
                recover_at: Some(150),
            }],
            ..FaultPlan::default()
        };
        for run in 0..2 {
            let mut summaries = Vec::new();
            let net = run_seeded_async(
                7,
                run,
                300,
                Some(&plan),
                |seed| (AsyncConfig::reliable(params, 2, seed), None),
                |seed| Box::new(UniformRandom::new(8, 0.5, 0.3, seed)),
                |_, net| summaries.push(net.load_summary()),
            )
            .expect("sound run");
            let config = AsyncConfig::reliable(params, 2, stream_seed(7, run, StreamId::Balancer));
            let mut hand = AsyncNetwork::with_faults(config, plan_for_run(&plan, run)).unwrap();
            let wseed = stream_seed(7, run, StreamId::Workload);
            let mut workload = UniformRandom::new(8, 0.5, 0.3, wseed);
            let mut events = Vec::new();
            for (t, summary) in summaries.iter().enumerate() {
                workload.events_at(t, &mut events);
                hand.tick(t as u64, &events);
                assert_eq!(hand.load_summary(), *summary, "run {run}, tick {t}");
            }
            assert_eq!(summaries.len(), 300);
            hand.quiesce();
            assert_eq!(net.loads_slice(), hand.loads_slice());
            assert_eq!(net.stats(), hand.stats());
            assert!(net.stats().lost_messages > 0 && net.stats().crashes == 1);
            assert_eq!(net.lost(), hand.lost());
            assert_eq!((net.locked_count(), hand.locked_count()), (0, 0));
        }
    }
}
