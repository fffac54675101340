//! Balance quality under injected faults: the logic behind the
//! `faults_sweep` binary.
//!
//! Two sweeps over the asynchronous protocol simulator with `dlb-faults`
//! injection:
//!
//! * **loss sweep** — message loss (control *and* transfer plane) from 0%
//!   upward; the hardened timeout/retry machinery keeps the protocol live
//!   and the extended conservation ledger accounts every destroyed
//!   packet;
//! * **crash sweep** — a growing fraction of processors crashed mid-run
//!   (frozen, later recovering); survivors keep balancing around the
//!   holes.
//!
//! Every cell asserts extended conservation after every tick and zero
//! leaked locks after quiescence, so the sweep doubles as a protocol
//! soundness harness.  All randomness is seeded: the same
//! [`SweepConfig`] renders byte-identical JSON on every run (the
//! determinism regression test relies on this).

use crate::parallel::{par_map, stream_seed, StreamId};
use crate::svg::{ChartConfig, Series};
use dlb_core::Params;
use dlb_faults::{CrashEvent, CrashMode, FaultPlan};
use dlb_json::{Json, ToJson};
use dlb_net::{AsyncConfig, AsyncNetwork, AsyncStats};
use dlb_theory::ParamError;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Sweep dimensions and simulation sizes.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Processors.
    pub n: usize,
    /// Workload ticks per run (quiescence excluded).
    pub steps: u64,
    /// Message latency in ticks.
    pub latency: u64,
    /// Independent runs averaged per sweep point.
    pub runs: usize,
    /// Seed for the workload action stream.
    pub workload_seed: u64,
    /// Base fault plan (its seed anchors the injector; the swept knob is
    /// overridden per point).
    pub base: FaultPlan,
    /// Loss rates to sweep (applied to both message classes).
    pub losses: Vec<f64>,
    /// Crashed-processor counts to sweep.
    pub crash_counts: Vec<usize>,
    /// Worker threads for the per-cell Monte Carlo runs (the output is
    /// bit-identical for every value; 1 = inline).
    pub jobs: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            n: 32,
            steps: 3_000,
            latency: 4,
            runs: 3,
            workload_seed: 5,
            base: FaultPlan::reliable(),
            losses: vec![0.0, 0.05, 0.10, 0.15, 0.20],
            crash_counts: vec![0, 1, 2, 4, 8],
            jobs: 1,
        }
    }
}

impl SweepConfig {
    /// The trigger parameters every cell runs with (δ = 2, f = 1.3,
    /// C = 4); an error when `n` is too small for them.
    pub fn params(&self) -> Result<Params, ParamError> {
        Params::new(self.n, 2, 1.3, 4)
    }

    /// The crash sweep's plan at `count` crashed processors: evenly
    /// spaced, frozen at `steps/4`, recovering at `3·steps/4`.
    pub fn crash_plan(&self, count: usize) -> FaultPlan {
        let mut plan = self.base.clone();
        plan.crash_mode = CrashMode::Frozen;
        plan.crashes = (0..count)
            .map(|i| CrashEvent {
                proc: i * self.n / count.max(1),
                at: self.steps / 4,
                recover_at: Some(3 * self.steps / 4),
            })
            .collect();
        plan
    }
}

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Swept coordinate: loss probability, or crashed fraction of `n`.
    pub x: f64,
    /// Time-averaged max/mean load ratio (lower is better, 1.0 ideal).
    pub quality: f64,
    /// Protocol counters summed over the runs.
    pub stats: AsyncStats,
    /// Load destroyed by faults (lost ledger), summed over the runs.
    pub lost_load: u64,
}

impl ToJson for SweepPoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("x".into(), self.x.to_json()),
            ("quality".into(), self.quality.to_json()),
            ("completed_ops".into(), self.stats.completed_ops.to_json()),
            ("aborted_ops".into(), self.stats.aborted_ops.to_json()),
            ("retries".into(), self.stats.retries.to_json()),
            (
                "timeout_recoveries".into(),
                self.stats.timeout_recoveries.to_json(),
            ),
            ("lost_messages".into(), self.stats.lost_messages.to_json()),
            (
                "duplicated_messages".into(),
                self.stats.duplicated_messages.to_json(),
            ),
            ("crashes".into(), self.stats.crashes.to_json()),
            ("recoveries".into(), self.stats.recoveries.to_json()),
            ("lost_load".into(), self.lost_load.to_json()),
        ])
    }
}

/// Full sweep result.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The configuration the sweep ran with.
    pub config: SweepConfig,
    /// Quality vs message-loss probability.
    pub loss_sweep: Vec<SweepPoint>,
    /// Quality vs crashed-processor fraction.
    pub crash_sweep: Vec<SweepPoint>,
}

impl ToJson for SweepResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("experiment".into(), "faults_sweep".to_json()),
            (
                "config".into(),
                Json::Obj(vec![
                    ("n".into(), (self.config.n as u64).to_json()),
                    ("steps".into(), self.config.steps.to_json()),
                    ("latency".into(), self.config.latency.to_json()),
                    ("runs".into(), self.config.runs.to_json()),
                    ("workload_seed".into(), self.config.workload_seed.to_json()),
                    ("fault_seed".into(), self.config.base.seed.to_json()),
                ]),
            ),
            (
                "loss_sweep".into(),
                Json::Arr(self.loss_sweep.iter().map(|p| p.to_json()).collect()),
            ),
            (
                "crash_sweep".into(),
                Json::Arr(self.crash_sweep.iter().map(|p| p.to_json()).collect()),
            ),
        ])
    }
}

impl SweepResult {
    /// The two sweeps as chart series (x in percent).
    pub fn chart(&self) -> (ChartConfig, Vec<Series>) {
        let config = ChartConfig {
            title: format!(
                "Balance quality under faults ({} procs, latency {})",
                self.config.n, self.config.latency
            ),
            x_label: "fault rate (%)".into(),
            y_label: "avg max/mean load".into(),
            ..ChartConfig::default()
        };
        let series = vec![
            Series {
                name: "message loss".into(),
                points: self
                    .loss_sweep
                    .iter()
                    .map(|p| (p.x * 100.0, p.quality))
                    .collect(),
            },
            Series {
                name: "crashed procs".into(),
                points: self
                    .crash_sweep
                    .iter()
                    .map(|p| (p.x * 100.0, p.quality))
                    .collect(),
            },
        ];
        (config, series)
    }
}

/// Runs one sweep cell: `runs` seeded simulations under `plan`,
/// asserting extended conservation after every tick and no leaked locks
/// after quiescence.
///
/// # Panics
///
/// Panics when conservation breaks or a lock leaks — that is the point:
/// the experiment doubles as a soundness harness.
pub fn run_cell(cfg: &SweepConfig, plan: &FaultPlan) -> SweepPoint {
    let params = cfg.params().expect("n admits the sweep's delta");
    let per_run = par_map(cfg.jobs, cfg.runs, |run| {
        let run = run as u64;
        let mut run_plan = plan.clone();
        run_plan.seed = stream_seed(plan.seed, run, StreamId::Faults);
        let net_cfg = AsyncConfig::reliable(
            params,
            cfg.latency,
            stream_seed(cfg.workload_seed, run, StreamId::Network),
        );
        let mut net = AsyncNetwork::with_faults(net_cfg, run_plan).expect("valid plan");
        let mut wl_rng =
            ChaCha8Rng::seed_from_u64(stream_seed(cfg.workload_seed, run, StreamId::Workload));
        let mut ratio = 0.0;
        let mut samples = 0usize;
        for t in 0..cfg.steps {
            let actions: Vec<i8> = (0..cfg.n)
                .map(|_| match wl_rng.gen_range(0..10) {
                    0..=4 => 1,
                    5..=7 => -1,
                    _ => 0,
                })
                .collect();
            net.tick(t, &actions);
            net.check_conservation()
                .expect("extended conservation at every tick");
            if t >= cfg.steps / 5 && t % 20 == 0 {
                let s = net.load_summary();
                let mean = s.mean(cfg.n);
                if mean >= 1.0 {
                    ratio += s.max as f64 / mean;
                    samples += 1;
                }
            }
        }
        net.quiesce();
        net.check_conservation()
            .expect("extended conservation after quiescence");
        assert_eq!(
            net.locked_count(),
            0,
            "no processor may stay locked after quiescence"
        );
        (ratio / samples.max(1) as f64, *net.stats(), net.lost())
    });
    let mut quality_acc = 0.0;
    let mut stats = AsyncStats::default();
    let mut lost_load = 0u64;
    for (quality, run_stats, lost) in &per_run {
        quality_acc += quality;
        stats += *run_stats;
        lost_load += lost;
    }
    SweepPoint {
        x: 0.0,
        quality: quality_acc / cfg.runs as f64,
        stats,
        lost_load,
    }
}

/// Runs the full sweep.
pub fn sweep(cfg: &SweepConfig) -> SweepResult {
    let loss_sweep = cfg
        .losses
        .iter()
        .map(|&loss| {
            let mut plan = cfg.base.clone();
            plan.loss = loss;
            plan.transfer_loss = loss;
            SweepPoint {
                x: loss,
                ..run_cell(cfg, &plan)
            }
        })
        .collect();
    let crash_sweep = cfg
        .crash_counts
        .iter()
        .map(|&count| SweepPoint {
            x: count as f64 / cfg.n as f64,
            ..run_cell(cfg, &cfg.crash_plan(count))
        })
        .collect();
    SweepResult {
        config: cfg.clone(),
        loss_sweep,
        crash_sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            n: 8,
            steps: 400,
            runs: 1,
            losses: vec![0.0, 0.2],
            crash_counts: vec![0, 2],
            ..SweepConfig::default()
        }
    }

    #[test]
    fn sweep_exercises_the_fault_machinery() {
        let result = sweep(&tiny());
        assert_eq!(result.loss_sweep.len(), 2);
        assert_eq!(result.crash_sweep.len(), 2);
        let lossy = &result.loss_sweep[1];
        assert!(lossy.stats.lost_messages > 0, "20% loss must drop messages");
        assert!(
            lossy.stats.retries + lossy.stats.timeout_recoveries > 0,
            "recovery machinery must fire: {:?}",
            lossy.stats
        );
        let crashed = &result.crash_sweep[1];
        assert!(crashed.stats.crashes >= 2, "both scheduled crashes happen");
        assert!(crashed.stats.recoveries >= 2, "both recoveries happen");
    }

    #[test]
    fn json_output_is_deterministic_across_runs() {
        // Satellite requirement: same seed + plan => byte-identical JSON.
        let a = sweep(&tiny()).to_json().render_pretty();
        let b = sweep(&tiny()).to_json().render_pretty();
        assert_eq!(a, b, "faults_sweep output must be byte-stable");
        assert!(a.contains("\"experiment\": \"faults_sweep\""), "{a}");
    }

    #[test]
    fn parallel_sweep_renders_byte_identical_json() {
        let seq = sweep(&tiny()).to_json().render_pretty();
        let par = sweep(&SweepConfig {
            jobs: 3,
            runs: 3,
            ..tiny()
        })
        .to_json()
        .render_pretty();
        let seq3 = sweep(&SweepConfig { runs: 3, ..tiny() })
            .to_json()
            .render_pretty();
        assert_eq!(seq3, par, "jobs must not change the rendered sweep");
        assert_ne!(seq, seq3, "sanity: more runs change the sweep");
    }

    #[test]
    fn chart_renders_both_series() {
        let result = sweep(&tiny());
        let (config, series) = result.chart();
        let svg = crate::svg::line_chart(&config, &series);
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("message loss") && svg.contains("crashed procs"));
    }
}
