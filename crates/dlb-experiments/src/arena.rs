//! Balancer arena: every contender races the *same* workloads, fault
//! plans and seed streams, producing a league table.
//!
//! The point of the arena is attribution: run `r` of every contender
//! replays the identical recorded event trace (workload stream), sees
//! the identical crash mask (fault stream) and draws its own randomness
//! from the balancer stream — all via [`stream_seed`], so the trigger
//! rule's RNG consumption is byte-identical to what `fig7_quality` and
//! the golden results already pin down.  Any difference between two
//! league rows is therefore the algorithm, not the harness.
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
use dlb_theory::CostBounds;
use dlb_trace::{RunOrderedWriter, SharedSink, TraceEvent};
use dlb_workload::trace::EventTrace;
use dlb_workload::Workload;

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

/// Races every contender over the same `runs` recorded workloads and
/// fault masks; `trace_for` records the workload trace for one run's
/// workload-stream seed.  With `trace`, every run streams its events
/// into the writer (see the module doc); finishing it is the caller's.
///
/// # Panics
///
/// Panics when `runs` is 0, a contender reports the wrong `n` or the
/// fault plan does not validate.
pub fn run_league<TF>(
    cfg: &ArenaConfig,
    contenders: &[Contender],
    trace_for: TF,
    trace: Option<&RunOrderedWriter<std::fs::File>>,
) -> Vec<ArenaRow>
where
    TF: Fn(u64) -> EventTrace + Sync,
{
    let warmup = cfg.warmup();
    let outcomes = par_map(cfg.jobs, contenders.len() * cfg.runs, |i| {
        let sink = trace.map(|writer| writer.handle(i));
        let contender = &contenders[i / cfg.runs];
        run_one(
            cfg,
            contender,
            &trace_for,
            sink,
            (i % cfg.runs) as u64,
            warmup,
        )
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
            }
        })
        .collect()
}

fn run_one<TF>(
    cfg: &ArenaConfig,
    contender: &Contender,
    trace_for: &TF,
    sink: Option<SharedSink>,
    r: u64,
    warmup: usize,
) -> RunOutcome
where
    TF: Fn(u64) -> EventTrace + Sync,
{
    let trace = trace_for(stream_seed(cfg.seed, r, StreamId::Workload));
    let seed = stream_seed(cfg.seed, r, StreamId::Balancer);
    let mut balancer = (contender.make)(seed);
    assert_eq!(
        balancer.n(),
        cfg.n,
        "contender {} has wrong n",
        contender.label
    );
    if let Some(sink) = &sink {
        sink.record(&TraceEvent::ArenaContender {
            run: r,
            label: contender.label.clone(),
            strategy: balancer.name().to_string(),
            seed,
        });
        balancer.set_trace_sink(sink.clone());
    }
    let injector = cfg.faults.as_ref().map(|plan| {
        let mut run_plan = plan.clone();
        run_plan.seed = stream_seed(plan.seed, r, StreamId::Faults);
        FaultInjector::new(run_plan, cfg.n).expect("valid fault plan")
    });
    let mut masks = injector.as_ref().map(MaskCursor::new);
    let mut replay = trace.replay();
    let mut events = Vec::new();
    let mut recorder = LoadRecorder::new(warmup, 3.0);
    let mut ratios = vec![0.0f64; cfg.steps];
    for (t, ratio) in ratios.iter_mut().enumerate() {
        replay.events_at(t, &mut events);
        let down = masks.as_mut().map(|m| m.at(t as u64));
        balancer.step_events(Events::Dense(&events), down);
        let summary = balancer.load_summary();
        recorder.record_summary(summary, cfg.n);
        let mean = summary.mean(cfg.n);
        *ratio = if mean > 0.0 {
            summary.max as f64 / mean
        } else {
            1.0
        };
    }
    if let Some(sink) = &sink {
        sink.record(&TraceEvent::RunFinished { run: r });
        sink.flush();
    }
    // Convergence: the first post-warmup step after which the ratio never
    // exceeds the threshold again (`steps` when it never settles).
    let last_bad = ratios
        .iter()
        .rposition(|&x| x > CONV_THRESHOLD)
        .map_or(0, |t| t + 1);
    let m = balancer.metrics();
    RunOutcome {
        recorder,
        ratios,
        balance_ops: m.balance_ops,
        packets_migrated: m.packets_migrated,
        messages: m.messages,
        decrease_sim: m.decrease_sim,
        conv_steps: last_bad.clamp(warmup, cfg.steps),
        strategy: balancer.name(),
    }
}

/// The Lemma 6 balance-op budget per decrease simulation of the trigger
/// rule with `params`, at `x = 2C` (`None` out of the lemma's domain):
/// the yardstick of [`league_csv_rows`]' `cost_vs_l6`.
pub fn lemma6_budget(params: Params) -> Option<u64> {
    let c = params.c_borrow() as u64;
    CostBounds::for_params(params.algo()).lemma6_upper(2 * c, c, 64)
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
    use crate::quality::paper_trace;
    use dlb_baselines::{LocallyOptimal, Quasirandom};
    use dlb_core::Cluster;
    use dlb_net::Topology;

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
            |seed| paper_trace(8, 60, seed),
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
    fn league_is_identical_across_jobs_and_repeats() {
        let base = csv(&league(1, None));
        assert_eq!(base, csv(&league(1, None)), "repeat");
        assert_eq!(base, csv(&league(4, None)), "jobs=4");
        assert_eq!(base.len(), 3);
    }

    #[test]
    fn every_contender_sees_the_same_workload() {
        // The workload stream depends only on (seed, run), never on the
        // contender: trace_for must receive the identical seed sequence
        // for each entrant.
        let seen = std::sync::Mutex::new(Vec::new());
        run_league(
            &tiny_cfg(1),
            &tiny_contenders(),
            |seed| {
                seen.lock().unwrap().push(seed);
                paper_trace(8, 60, seed)
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
            |seed| paper_trace(8, 60, seed),
            None,
        );
        let mut ops = 0u64;
        let mut recorder = LoadRecorder::new(cfg.warmup(), 3.0);
        for r in 0..cfg.runs as u64 {
            let trace = paper_trace(8, 60, stream_seed(cfg.seed, r, StreamId::Workload));
            let mut cluster = Cluster::new(params, stream_seed(cfg.seed, r, StreamId::Balancer));
            let mut replay = trace.replay();
            let mut events = Vec::new();
            let mut loads = Vec::new();
            // Warmup applies per run, exactly as the arena does it.
            let mut run_recorder = LoadRecorder::new(cfg.warmup(), 3.0);
            for t in 0..cfg.steps {
                replay.events_at(t, &mut events);
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
}
