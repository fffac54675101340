//! Figure 6: variation density of a non-generating processor for
//! `δ ∈ {1, 2, 4}`, `f ∈ {1.1, 1.2}`, processor counts 2–35 and up to 150
//! balancing steps, via the exact moment recursion (plus a Monte-Carlo
//! cross-check column).
//!
//! Usage: `dlb-exp fig6_variation
//!         [--steps 150] [--out results/fig6.csv] [--jobs N]`

use crate::args::{Args, Key};
use crate::parallel::default_jobs;
use crate::report::{ascii_plot, f3, render_table, write_csv};
use crate::svg::{write_chart, ChartConfig, Series};
use crate::variation::{figure6_curves, mc_crosscheck, paper_processor_counts};
use std::num::NonZeroUsize;

pub const KEYS: &[Key] = crate::keys!["steps": NonZeroUsize, "jobs": usize, "out": String];

pub fn run(args: &Args) {
    let steps = args.count("steps", 150);
    let jobs: usize = args.get("jobs", default_jobs());
    let out: String = args.get("out", "results/fig6.csv".to_string());

    let deltas = [1usize, 2, 4];
    let fs = [1.1f64, 1.2];
    let counts = paper_processor_counts();
    let curves = figure6_curves(&deltas, &fs, &counts, steps, jobs);

    // Summary table: converged VD per (delta, f) at the largest network.
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for c in &curves {
        csv_rows.push(vec![
            c.delta.to_string(),
            format!("{:.1}", c.f),
            (c.p + 1).to_string(),
            f3(c.final_vd()),
        ]);
        if c.p + 1 == 35 {
            rows.push(vec![
                c.delta.to_string(),
                format!("{:.1}", c.f),
                (c.p + 1).to_string(),
                f3(c.vd[steps / 10]),
                f3(c.vd[steps / 2]),
                f3(c.final_vd()),
            ]);
        }
    }
    println!("Figure 6: variation density VD(l_i,t) (exact moment recursion)\n");
    println!(
        "{}",
        render_table(
            &[
                "delta",
                "f",
                "procs",
                &format!("VD@t={}", steps / 10),
                &format!("VD@t={}", steps / 2),
                &format!("VD@t={steps}")
            ],
            &rows
        )
    );

    // One representative plot: delta sweep at f = 1.2, 35 processors.
    let plot_series: Vec<(String, Vec<f64>)> = deltas
        .iter()
        .filter_map(|&d| {
            curves
                .iter()
                .find(|c| c.delta == d && (c.f - 1.2).abs() < 1e-9 && c.p + 1 == 35)
                .map(|c| (format!("delta={d}"), c.vd.clone()))
        })
        .collect();
    let series_refs: Vec<(&str, &[f64])> = plot_series
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    println!("VD over balancing steps (f = 1.2, 35 processors):\n");
    println!("{}", ascii_plot(&series_refs, 12));

    // The paper's own Figure 6 used a *relaxed* engine for delta > 1
    // (delta successive pairwise balances); quantify the relaxation error.
    println!("Relaxed engine (the paper's Figure 6 method) vs the true algorithm");
    println!("(35 processors, converged VD):\n");
    let mut relax_rows = Vec::new();
    for &delta in &deltas[1..] {
        for &f in &fs {
            let true_vd = dlb_theory::moments::vd_curve(34, delta, f, steps)[steps];
            let relaxed_vd = dlb_theory::moments::vd_curve_relaxed(34, delta, f, steps)[steps];
            relax_rows.push(vec![
                delta.to_string(),
                format!("{f:.1}"),
                f3(true_vd),
                f3(relaxed_vd),
                format!("{:+.1}%", (relaxed_vd - true_vd) / true_vd * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["delta", "f", "true VD", "relaxed VD", "error"],
            &relax_rows
        )
    );

    // Monte-Carlo cross-check of a few points.
    println!("Monte-Carlo cross-check (30k runs):");
    for &(d, f, n) in &[(1usize, 1.1f64, 10usize), (2, 1.2, 35), (4, 1.1, 20)] {
        let (exact, mc) = mc_crosscheck(d, f, n, steps.min(60), 30_000, 9);
        println!("  delta={d} f={f} procs={n}: exact {exact:.4} vs MC {mc:.4}");
    }
    println!("\nExpected shape: VD small (< 1), converging in t and in network size;");
    println!("larger delta and smaller f give lower VD (tradeoff with balancing cost).");

    write_csv(&out, &["delta", "f", "procs", "vd_final"], &csv_rows).expect("CSV written");
    let svg_series: Vec<Series> = curves
        .iter()
        .filter(|c| c.p + 1 == 35)
        .map(|c| Series::from_ys(&format!("delta={} f={}", c.delta, c.f), &c.vd))
        .collect();
    let svg_path = out.replace(".csv", ".svg");
    let chart = ChartConfig {
        title: "Figure 6: variation density (35 processors)".into(),
        x_label: "balancing steps".into(),
        y_label: "VD(l_i,t)".into(),
        ..Default::default()
    };
    write_chart(&svg_path, &chart, &svg_series).expect("SVG written");
    println!("\nwrote {out} and {svg_path}");
}
