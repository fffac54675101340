//! Figures 7 and 8: balancing quality over 500 steps on the §7 workload —
//! mean load plus the min/max ever observed across 100 runs, for
//! `f ∈ {1.1, 1.8}` at `δ = 1` (Figure 7) and `δ = 4` (Figure 8).  The
//! shapes they show are `fig7.*` rows of `dlb-exp claims`.
//!
//! Usage: `dlb-exp fig7_quality [--jobs N] [--out results]`
//! (`--out` is the directory of both figures' CSV/SVG pairs; jobs
//! defaults to the available cores, and any value produces
//! byte-identical output)

use crate::args::{Args, Key};
use crate::parallel::default_jobs;
use crate::quality::{balancing_quality, QualityCurves};
use crate::report::{ascii_plot, f3, render_table, write_csv};
use crate::svg::{write_chart, ChartConfig, Series};
use dlb_core::Params;

pub const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

/// The paper's §7 setting: processors, steps, runs and borrow limit C.
const N: usize = 64;
pub(super) const STEPS: usize = 500;
pub(super) const RUNS: usize = 100;
const C: usize = 4;
pub(super) const SEED: u64 = 2024;
/// `(figure, δ)` of each panel pair, and the `f` of each panel.
pub(super) const FIGURES: [(u32, usize); 2] = [(7, 1), (8, 4)];
pub(super) const FS: [f64; 2] = [1.1, 1.8];

/// The curves of one panel: `RUNS` runs of the §7 workload at `δ`, `f`.
pub(super) fn curves(delta: usize, f: f64, jobs: usize) -> QualityCurves {
    let params = Params::new(N, delta, f, C).expect("a §7 setting");
    balancing_quality(params, STEPS, RUNS, SEED, jobs)
}

pub fn run(args: &Args) {
    let jobs: usize = args.get("jobs", default_jobs());
    let out: String = args.get("out", "results".to_string());
    for (figure, delta) in FIGURES {
        figure_pair(figure, delta, jobs, &out);
    }
}

/// One figure: both `f` at `δ`, as `<out>/fig<figure>_delta<δ>.csv`
/// and `.svg`.
fn figure_pair(figure: u32, delta: usize, jobs: usize, out: &str) {
    println!(
        "Figure {figure}: balancing quality, delta = {delta}, f in {{1.1, 1.8}} \
         ({N} procs, {STEPS} steps, {RUNS} runs, C = {C}, {jobs} jobs)\n"
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut summary = Vec::new();
    let mut svg_series: Vec<Series> = Vec::new();
    for f in FS {
        let q = curves(delta, f, jobs);

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
        println!("f = {f}: load per processor over time (min / mean / max over runs)");
        println!(
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

    println!(
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
    println!("\nwrote {csv} and {svg}\n");
}
