//! Figures 7 and 8: balancing quality over 500 steps on the §7 workload —
//! mean load plus the min/max ever observed across 100 runs, for
//! `f ∈ {1.1, 1.8}` at `δ = 1` (Figure 7) and `δ = 4` (Figure 8).  It
//! judges the `fig7.*` claims on each run's spread at the last step.
//!
//! Usage: `dlb-exp fig7_quality [--jobs N] [--out results]`
//! (`--out` is the directory of both figures' CSV/SVG pairs; jobs
//! defaults to the available cores, and any value produces
//! byte-identical output)

use super::{magnitude, minus, shape, Row};
use crate::args::{Args, Key};
use crate::outln;
use crate::parallel::default_jobs;
use crate::quality::balancing_quality;
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
const SEED: u64 = 2024;
/// `(figure, δ)` of each panel pair, and the `f` of each panel.
const FIGURES: [(u32, usize); 2] = [(7, 1), (8, 4)];
const FS: [f64; 2] = [1.1, 1.8];

pub fn run(args: &Args) -> Vec<Row> {
    let jobs: usize = args.get("jobs", default_jobs());
    let out: String = args.get("out", args.results().to_string());
    let spread = FIGURES.map(|(figure, delta)| figure_pair(figure, delta, jobs, &out));
    judge(&spread)
}

/// One figure: both `f` at `δ`, as `<out>/fig<figure>_delta<δ>.csv`
/// and `.svg`.  Returns each panel's spreads at the last step, run by
/// run.
fn figure_pair(figure: u32, delta: usize, jobs: usize, out: &str) -> [Vec<f64>; 2] {
    outln!(
        "Figure {figure}: balancing quality, delta = {delta}, f in {{1.1, 1.8}} \
         ({N} procs, {STEPS} steps, {RUNS} runs, C = {C}, {jobs} jobs)\n"
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut summary = Vec::new();
    let mut svg_series: Vec<Series> = Vec::new();
    let mut spreads = Vec::new();
    for f in FS {
        let params = Params::new(N, delta, f, C).expect("a §7 setting");
        let q = balancing_quality(params, STEPS, RUNS, SEED, jobs);
        spreads.push(q.final_spreads.iter().map(|&s| s as f64).collect());

        for t in 0..STEPS {
            csv_rows.push(vec![
                format!("{f:.1}"),
                t.to_string(),
                f3(q.mean[t]),
                q.min[t].to_string(),
                q.max[t].to_string(),
            ]);
        }
        // Plot mean/min/max, downsampled to 100 columns.
        let ds = |v: &[f64]| -> Vec<f64> { (0..100).map(|k| v[k * STEPS / 100]).collect() };
        let mean_s = ds(&q.mean);
        let min_s = ds(&q.min.iter().map(|&x| x as f64).collect::<Vec<_>>());
        let max_s = ds(&q.max.iter().map(|&x| x as f64).collect::<Vec<_>>());
        outln!("f = {f}: load per processor over time (min / mean / max over runs)");
        outln!(
            "{}",
            ascii_plot(&[("max", &max_s), ("mean", &mean_s), ("min", &min_s)], 12)
        );
        for curve in [
            ("mean", &q.mean),
            ("min", &q.min.iter().map(|&x| x as f64).collect::<Vec<_>>()),
            ("max", &q.max.iter().map(|&x| x as f64).collect::<Vec<_>>()),
        ] {
            svg_series.push(Series::from_ys(&format!("f={f} {}", curve.0), curve.1));
        }
        for &t in &[STEPS / 10, STEPS / 2, STEPS - 1] {
            summary.push(vec![
                format!("{f:.1}"),
                t.to_string(),
                f3(q.mean[t]),
                q.min[t].to_string(),
                q.max[t].to_string(),
                (q.max[t] - q.min[t]).to_string(),
            ]);
        }
    }

    outln!(
        "{}",
        render_table(&["f", "t", "mean", "min", "max", "band"], &summary)
    );
    let [csv, svg] = ["csv", "svg"].map(|ext| format!("{out}/fig{figure}_delta{delta}.{ext}"));
    write_csv(&csv, &["f", "t", "mean", "min", "max"], &csv_rows).expect("CSV written");
    let chart = ChartConfig {
        title: format!(
            "Figure {figure}: balancing quality, delta = {delta} ({N} procs, {RUNS} runs)"
        ),
        x_label: "time step".into(),
        y_label: "load per processor".into(),
        ..Default::default()
    };
    write_chart(&svg, &chart, &svg_series).expect("SVG written");
    outln!("\nwrote {csv} and {svg}\n");
    spreads.try_into().expect("one per f")
}

/// The `fig7.*` claims on `spread[panel][k]`: the figure's δ, its k-th
/// f.
fn judge(spread: &[[Vec<f64>; 2]; 2]) -> Vec<Row> {
    let [(_, d1), (_, d4)] = FIGURES;
    let t = STEPS - 1;
    let runs = format!("{RUNS} runs of seed {SEED}");
    let mut rows = Vec::new();
    let what = format!("spread(delta={d4}) - spread(delta={d1}) per run: {runs}");
    for (k, f) in FS.iter().enumerate() {
        let fall = Estimate::of_runs(&minus(&spread[1][k], &spread[0][k]));
        let regime = format!("n=64 C=4 t={t} f={f:.1}");
        rows.push(shape("fig7.delta", &regime, &what, fall));
    }
    let regime = format!("n=64 C=4 t={t} delta={d1}");
    let what = format!("spread(f=1.1) - spread(f=1.8) per run: {runs}");
    let fall = Estimate::of_runs(&minus(&spread[0][0], &spread[0][1]));
    rows.push(shape("fig7.f", &regime, &what, fall));
    let effect = |panel: &[Vec<f64>; 2]| magnitude(minus(&panel[1], &panel[0]));
    let what = format!("|spread(f=1.8) - spread(f=1.1)| at delta={d4} minus at delta={d1}: {runs}");
    let growth = Estimate::of_runs(&minus(&effect(&spread[1]), &effect(&spread[0])));
    let regime = format!("n=64 C=4 t={t}");
    rows.push(shape("fig7.f_secondary", &regime, &what, growth));
    rows
}
