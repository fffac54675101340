//! Figures 9 and 10: per-processor load distribution (mean over runs plus
//! min/max ever observed) at time steps 50, 200 and 400, for
//! `f ∈ {1.1, 1.8}` at a given `δ` (Figure 9: `δ = 1`; Figure 10: `δ = 4`).
//!
//! Usage: `dlb-exp fig9_distribution
//!         [--delta 1] [--n 64] [--runs 100] [--c 4] [--jobs N]`

use crate::args::{Args, Key};
use crate::parallel::default_jobs;
use crate::quality::distribution_at;
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
    let figure = if delta == 1 { 9 } else { 10 };
    let out: String = args.get("out", format!("results/fig{figure}_delta{delta}.csv"));
    let checkpoints = [50usize, 200, 400];

    println!(
        "Figure {figure}: per-processor distribution, delta = {delta}, f in {{1.1, 1.8}} \
         ({n} procs, {runs} runs, checkpoints {checkpoints:?})\n"
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut summary = Vec::new();
    let mut svg_series: Vec<Series> = Vec::new();
    for (f, params) in curves {
        let snaps = distribution_at(params, steps, &checkpoints, runs, 4096, jobs);
        for snap in &snaps {
            for i in 0..n {
                csv_rows.push(vec![
                    format!("{f:.1}"),
                    snap.t.to_string(),
                    i.to_string(),
                    f3(snap.mean[i]),
                    snap.min[i].to_string(),
                    snap.max[i].to_string(),
                ]);
            }
            let grand = snap.mean.iter().sum::<f64>() / n as f64;
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
            if snap.t == 400 {
                println!("f = {f}, t = 400: mean load by processor");
                println!("{}", ascii_plot(&[("mean", &snap.mean)], 8));
            }
            svg_series.push(Series::from_ys(&format!("f={f} t={}", snap.t), &snap.mean));
        }
    }

    println!(
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
    println!("Expected shape: mean spread small relative to the grand mean; the");
    println!("delta = 4 figure is visibly flatter than delta = 1, while f matters less.");
    write_csv(&out, &["f", "t", "proc", "mean", "min", "max"], &csv_rows).expect("CSV written");
    let svg_path = out.replace(".csv", ".svg");
    let chart = ChartConfig {
        title: format!("Figure {figure}: per-processor mean load, delta = {delta}"),
        x_label: "processor".into(),
        y_label: "mean load".into(),
        ..Default::default()
    };
    write_chart(&svg_path, &chart, &svg_series).expect("SVG written");
    println!("\nwrote {out} and {svg_path}");
}
