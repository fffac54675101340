//! Figures 7 and 8: balancing quality over 500 steps on the §7 workload —
//! mean load plus the min/max ever observed across 100 runs, for
//! `f ∈ {1.1, 1.8}` at a given `δ` (Figure 7: `δ = 1`; Figure 8: `δ = 4`).
//!
//! Usage: `dlb-exp fig7_quality
//!         [--delta 1] [--n 64] [--steps 500] [--runs 100] [--c 4]
//!         [--jobs N]`  (jobs defaults to the available cores; any value
//! produces byte-identical output)

use crate::args::{Args, Key};
use crate::parallel::default_jobs;
use crate::quality::balancing_quality;
use crate::report::{ascii_plot, f3, render_table, write_csv};
use crate::svg::{write_chart, ChartConfig, Series};
use dlb_core::Params;
use std::num::NonZeroUsize;

pub const KEYS: &[Key] = crate::keys![
    "delta": usize, "n": usize, "steps": NonZeroUsize, "runs": NonZeroUsize, "c": usize,
    "jobs": usize, "out": String,
];

pub fn run(args: &Args) {
    let delta: usize = args.get("delta", 1);
    let n: usize = args.get("n", 64);
    let steps = args.count("steps", 500);
    let runs = args.count("runs", 100);
    let c: usize = args.get("c", 4);
    let jobs: usize = args.get("jobs", default_jobs());
    let params = |f| args.build_or_exit(&["n", "delta"], Params::new(n, delta, f, c));
    let curves = [1.1f64, 1.8].map(|f| (f, params(f)));
    let figure = if delta == 1 { 7 } else { 8 };
    let out: String = args.get("out", format!("results/fig{figure}_delta{delta}.csv"));

    println!(
        "Figure {figure}: balancing quality, delta = {delta}, f in {{1.1, 1.8}} \
         ({n} procs, {steps} steps, {runs} runs, C = {c}, {jobs} jobs)\n"
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut summary = Vec::new();
    let mut svg_series: Vec<Series> = Vec::new();
    for (f, params) in curves {
        let q = balancing_quality(params, steps, runs, 2024, jobs);

        for t in 0..steps {
            csv_rows.push(vec![
                format!("{f:.1}"),
                t.to_string(),
                f3(q.mean[t]),
                q.min[t].to_string(),
                q.max[t].to_string(),
            ]);
        }
        // Plot mean/min/max, downsampled to 100 columns.
        let ds = |v: &[f64]| -> Vec<f64> { (0..100).map(|k| v[k * steps / 100]).collect() };
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
        for &t in &[steps / 10, steps / 2, steps - 1] {
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
    println!("Expected shape: a narrow band around the mean; f = 1.1 narrower than f = 1.8;");
    println!("delta = 4 (Figure 8) narrower than delta = 1 (Figure 7).");
    write_csv(&out, &["f", "t", "mean", "min", "max"], &csv_rows).expect("CSV written");
    let svg_path = out.replace(".csv", ".svg");
    let chart = ChartConfig {
        title: format!(
            "Figure {figure}: balancing quality, delta = {delta} ({n} procs, {runs} runs)"
        ),
        x_label: "time step".into(),
        y_label: "load per processor".into(),
        ..Default::default()
    };
    write_chart(&svg_path, &chart, &svg_series).expect("SVG written");
    println!("\nwrote {out} and {svg_path}");
}
