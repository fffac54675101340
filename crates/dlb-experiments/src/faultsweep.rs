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
//! Every run steps through [`run_seeded_async`], which checks extended
//! conservation after every tick and zero leaked locks after
//! quiescence, so the sweep doubles as a protocol soundness harness.
//! The workload is `uniform` (generate 50 %, consume 30 %, idle 20 %).
//! The sizes are constants and all randomness is seeded: every sweep
//! renders byte-identical JSON, whatever its worker count (the
//! determinism regression tests rely on this).

use crate::arena::run_seeded_async;
use crate::parallel::par_map;
use crate::svg::{ChartConfig, Series};
use dlb_core::Params;
use dlb_faults::{CrashEvent, CrashMode, FaultPlan};
use dlb_json::{Json, ToJson};
use dlb_net::{AsyncConfig, AsyncStats};
use dlb_workload::patterns::UniformRandom;

/// Processors.
pub const N: usize = 32;
/// Workload ticks per run (quiescence excluded).
pub const STEPS: usize = 3_000;
/// Message latency in ticks.
pub const LATENCY: u64 = 4;
/// Independent runs averaged per sweep point.
pub const RUNS: usize = 3;
/// Base seed of every run's network and workload streams (the fault
/// stream derives from the plans' own seed, `FaultPlan::reliable()`'s).
const SEED: u64 = 5;
/// Loss rates to sweep (applied to both message classes).
const LOSSES: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];
/// Crashed-processor counts to sweep.
const CRASH_COUNTS: [usize; 5] = [0, 1, 2, 4, 8];

/// The crash sweep's plan at `count` crashed processors: evenly spaced,
/// frozen at `STEPS/4`, recovering at `3·STEPS/4`.
fn crash_plan(count: usize) -> FaultPlan {
    let steps = STEPS as u64;
    FaultPlan {
        crash_mode: CrashMode::Frozen,
        crashes: (0..count)
            .map(|i| CrashEvent {
                proc: i * N / count.max(1),
                at: steps / 4,
                recover_at: Some(3 * steps / 4),
            })
            .collect(),
        ..FaultPlan::reliable()
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
                    ("n".into(), (N as u64).to_json()),
                    ("steps".into(), STEPS.to_json()),
                    ("latency".into(), LATENCY.to_json()),
                    ("runs".into(), RUNS.to_json()),
                    ("seed".into(), SEED.to_json()),
                    ("fault_seed".into(), FaultPlan::reliable().seed.to_json()),
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
            title: format!("Balance quality under faults ({N} procs, latency {LATENCY})"),
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

/// Runs one sweep cell: [`RUNS`] seeded simulations under `plan`, over
/// `jobs` workers.
///
/// # Panics
///
/// Panics when conservation breaks or a lock leaks — that is the point:
/// the experiment doubles as a soundness harness.
fn run_cell(plan: &FaultPlan, jobs: usize) -> SweepPoint {
    let params = Params::new(N, 2, 1.3, 4).expect("N admits delta = 2");
    let per_run = par_map(jobs, RUNS, |run| {
        let (mut ratio, mut samples) = (0.0, 0usize);
        let net = run_seeded_async(
            SEED,
            run as u64,
            STEPS,
            Some(plan),
            |seed| (AsyncConfig::reliable(params, LATENCY, seed), None),
            |seed| Box::new(UniformRandom::new(N, 0.5, 0.3, seed)),
            |t, net| {
                if t >= STEPS / 5 && t % 20 == 0 {
                    let s = net.load_summary();
                    let mean = s.mean(N);
                    if mean >= 1.0 {
                        ratio += s.max as f64 / mean;
                        samples += 1;
                    }
                }
            },
        )
        .expect("conservation holds and no lock leaks");
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
        quality: quality_acc / RUNS as f64,
        stats,
        lost_load,
    }
}

/// Runs the full sweep over `jobs` workers (the output is bit-identical
/// for every value; 1 = inline).
pub fn sweep(jobs: usize) -> SweepResult {
    let loss_sweep = LOSSES
        .iter()
        .map(|&loss| {
            let plan = FaultPlan {
                loss,
                transfer_loss: loss,
                ..FaultPlan::reliable()
            };
            SweepPoint {
                x: loss,
                ..run_cell(&plan, jobs)
            }
        })
        .collect();
    let crash_sweep = CRASH_COUNTS
        .iter()
        .map(|&count| SweepPoint {
            x: count as f64 / N as f64,
            ..run_cell(&crash_plan(count), jobs)
        })
        .collect();
    SweepResult {
        loss_sweep,
        crash_sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_exercises_the_fault_machinery() {
        let result = sweep(1);
        assert_eq!(result.loss_sweep.len(), LOSSES.len());
        assert_eq!(result.crash_sweep.len(), CRASH_COUNTS.len());
        let lossy = &result.loss_sweep[LOSSES.len() - 1];
        assert!(lossy.stats.lost_messages > 0, "20% loss must drop messages");
        assert!(
            lossy.stats.retries + lossy.stats.timeout_recoveries > 0,
            "recovery machinery must fire: {:?}",
            lossy.stats
        );
        let crashed = &result.crash_sweep[CRASH_COUNTS.len() - 1];
        assert!(crashed.stats.crashes >= 8, "every scheduled crash happens");
        assert!(crashed.stats.recoveries >= 8, "every recovery happens");
    }

    #[test]
    fn json_output_is_deterministic_across_runs() {
        // Same seed + plan => byte-identical JSON.
        let a = sweep(1).to_json().render_pretty();
        let b = sweep(1).to_json().render_pretty();
        assert_eq!(a, b, "faults_sweep output must be byte-stable");
        assert!(a.contains("\"experiment\": \"faults_sweep\""), "{a}");
    }

    #[test]
    fn parallel_sweep_renders_byte_identical_json() {
        let seq = sweep(1).to_json().render_pretty();
        let par = sweep(3).to_json().render_pretty();
        assert_eq!(seq, par, "jobs must not change the rendered sweep");
    }

    #[test]
    fn chart_renders_both_series() {
        let result = sweep(1);
        let (config, series) = result.chart();
        let svg = crate::svg::line_chart(&config, &series);
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("message loss") && svg.contains("crashed procs"));
    }
}
