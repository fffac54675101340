//! Figures 9 and 10: per-processor load distribution (mean over runs plus
//! min/max ever observed) at time steps 50, 200 and 400, for
//! `f ∈ {1.1, 1.8}` at `δ = 1` (Figure 9) and `δ = 4` (Figure 10).  It
//! judges the `fig9.*` claims on the snapshots at t = 400.
//!
//! Usage: `dlb-exp fig9_distribution [--jobs N] [--out results]`
//! (`--out` is the directory of both figures' CSV/SVG pairs)

use super::{magnitude, minus, shape, Row};
use crate::args::{Args, Key};
use crate::outln;
use crate::parallel::default_jobs;
use crate::quality::{distribution_at, SnapshotDistribution};
use crate::report::{ascii_plot, f3, render_table, write_csv};
use crate::svg::{write_chart, ChartConfig, Series};
use dlb_core::Params;
use dlb_theory::claims::Estimate;

pub const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

/// The paper's §7 setting: processors, steps, runs and borrow limit C.
const N: usize = 64;
const STEPS: usize = 500;
const RUNS: usize = 100;
const C: usize = 4;
const SEED: u64 = 4096;
/// The claims judge the last checkpoint.
const CHECKPOINTS: [usize; 3] = [50, 200, 400];
const JUDGED: usize = CHECKPOINTS[2];
/// `(figure, δ)` of each panel pair, and the `f` of each panel.
const FIGURES: [(u32, usize); 2] = [(9, 1), (10, 4)];
const FS: [f64; 2] = [1.1, 1.8];

pub fn run(args: &Args) -> Vec<Row> {
    let jobs: usize = args.get("jobs", default_jobs());
    let out: String = args.get("out", args.results().to_string());
    let snap = FIGURES.map(|(figure, delta)| figure_pair(figure, delta, jobs, &out));
    judge(&snap)
}

/// One figure: both `f` at `δ`, as `<out>/fig<figure>_delta<δ>.csv`
/// and `.svg`.  Returns each panel's snapshot at [`JUDGED`].
fn figure_pair(figure: u32, delta: usize, jobs: usize, out: &str) -> [SnapshotDistribution; 2] {
    outln!(
        "Figure {figure}: per-processor distribution, delta = {delta}, f in {{1.1, 1.8}} \
         ({N} procs, {RUNS} runs, checkpoints {CHECKPOINTS:?})\n"
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut summary = Vec::new();
    let mut svg_series: Vec<Series> = Vec::new();
    let mut judged = Vec::new();
    for f in FS {
        let params = Params::new(N, delta, f, C).expect("a §7 setting");
        let mut snaps = distribution_at(params, STEPS, &CHECKPOINTS, RUNS, SEED, jobs);
        for snap in &snaps {
            for i in 0..N {
                csv_rows.push(vec![
                    format!("{f:.1}"),
                    snap.t.to_string(),
                    i.to_string(),
                    f3(snap.mean[i]),
                    snap.min[i].to_string(),
                    snap.max[i].to_string(),
                ]);
            }
            let grand = snap.mean.iter().sum::<f64>() / N as f64;
            let worst_min = *snap.min.iter().min().expect("n > 0");
            let worst_max = *snap.max.iter().max().expect("n > 0");
            summary.push(vec![
                format!("{f:.1}"),
                snap.t.to_string(),
                f3(grand),
                f3(snap.mean_spread()),
                worst_min.to_string(),
                worst_max.to_string(),
            ]);
            if snap.t == JUDGED {
                outln!("f = {f}, t = {JUDGED}: mean load by processor");
                outln!("{}", ascii_plot(&[("mean", &snap.mean)], 8));
            }
            svg_series.push(Series::from_ys(&format!("f={f} t={}", snap.t), &snap.mean));
        }
        judged.push(snaps.pop().expect("a snapshot per checkpoint"));
    }

    outln!(
        "{}",
        render_table(
            &[
                "f",
                "t",
                "grand mean",
                "mean spread",
                "min ever",
                "max ever"
            ],
            &summary
        )
    );
    let [csv, svg] = ["csv", "svg"].map(|ext| format!("{out}/fig{figure}_delta{delta}.{ext}"));
    let headers = ["f", "t", "proc", "mean", "min", "max"];
    write_csv(&csv, &headers, &csv_rows).expect("CSV written");
    let chart = ChartConfig {
        title: format!("Figure {figure}: per-processor mean load, delta = {delta}"),
        x_label: "processor".into(),
        y_label: "mean load".into(),
        ..Default::default()
    };
    write_chart(&svg, &chart, &svg_series).expect("SVG written");
    outln!("\nwrote {csv} and {svg}\n");
    judged.try_into().expect("one per f")
}

/// The `fig9.*` claims on `snap[panel][k]`: the figure's δ, its k-th f.
fn judge(snap: &[[SnapshotDistribution; 2]; 2]) -> Vec<Row> {
    let t = JUDGED;
    let runs = format!("{RUNS} runs of seed {SEED}");
    let mut rows = Vec::new();
    for (panel, (_, delta)) in snap.iter().zip(FIGURES) {
        for (s, f) in panel.iter().zip(FS) {
            // The processor farthest from the grand mean, and each run's
            // distance of it from that run's mean load.
            let grand = s.mean.iter().sum::<f64>() / s.mean.len() as f64;
            let far = |i: &usize| (s.mean[*i] - grand).abs();
            let worst = (0..s.mean.len()).max_by(|a, b| far(a).total_cmp(&far(b)));
            let worst = worst.expect("n > 0");
            let deviation: Vec<f64> = s
                .runs
                .iter()
                .map(|run| {
                    let mean = run.iter().sum::<u64>() as f64 / run.len() as f64;
                    (run[worst] as f64 - mean) / grand
                })
                .collect();
            let d = Estimate::of_runs(&deviation);
            let far = Estimate {
                mean: d.mean.abs(),
                ..d
            };
            let regime = format!("n=64 C=4 t={t} delta={delta} f={f:.1}");
            let what = format!("|E(l_{worst}) - mean| / mean (the farthest processor): {runs}");
            rows.push(shape("fig9.flat", &regime, &what, far));
        }
    }
    let [(_, d1), (_, d4)] = FIGURES;
    let spreads = snap
        .each_ref()
        .map(|panel| panel.each_ref().map(|s| s.spreads()));
    let what = format!("spread(delta={d4}) - spread(delta={d1}) per run: {runs}");
    for (k, f) in FS.iter().enumerate() {
        let fall = Estimate::of_runs(&minus(&spreads[1][k], &spreads[0][k]));
        let regime = format!("n=64 C=4 t={t} f={f:.1}");
        rows.push(shape("fig9.delta", &regime, &what, fall));
    }
    let f_effect = magnitude(minus(&spreads[0][1], &spreads[0][0]));
    let delta_effect = magnitude(minus(&spreads[1][0], &spreads[0][0]));
    let regime = format!("n=64 C=4 t={t} delta={d1} f=1.1");
    let what = format!("|spread change to f=1.8| - |spread change to delta={d4}| per run: {runs}");
    let lead = Estimate::of_runs(&minus(&f_effect, &delta_effect));
    rows.push(shape("fig9.f_secondary", &regime, &what, lead));
    rows
}
