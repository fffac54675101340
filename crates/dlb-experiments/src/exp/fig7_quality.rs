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
use crate::quality::{Band, Config, Draw, Setting, PANELS, PAPER};
use crate::report::{ascii_plot, f3, render_table, write_csv};
use crate::svg::{write_chart, ChartConfig, Series};
use dlb_theory::claims::Estimate;

pub const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

/// The figure of each row of [`PANELS`].
const FIGURES: [u32; 2] = [7, 8];

pub fn run(args: &Args) -> Vec<Row> {
    view(args, &super::draw(args, PAPER, &PANELS.concat()))
}

/// Both figures and the `fig7.*` claims, from `draw`.
pub fn view(args: &Args, draw: &Draw) -> Vec<Row> {
    let out: String = args.get("out", args.results().to_string());
    for (figure, panels) in FIGURES.into_iter().zip(PANELS) {
        figure_pair(figure, panels, draw, &out);
    }
    judge(draw)
}

/// One figure: both `f` at its `δ`, as `<out>/fig<figure>_delta<δ>.csv`
/// and `.svg`.
fn figure_pair(figure: u32, panels: [Config; 2], draw: &Draw, out: &str) {
    let (delta, c) = (panels[0].delta, panels[0].c);
    let Setting { n, steps, runs, .. } = draw.setting;
    outln!(
        "Figure {figure}: balancing quality, delta = {delta}, f in {{1.1, 1.8}} \
         ({n} procs, {steps} steps, {runs} runs, C = {c})\n"
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut summary = Vec::new();
    let mut svg_series: Vec<Series> = Vec::new();
    for config in panels {
        let f = config.f;
        let q = Band::per_step(draw.runs(config), n);
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
        let (mean_s, min_s, max_s) = (ds(&q.mean), ds(&q.min), ds(&q.max));
        outln!("f = {f}: load per processor over time (min / mean / max over runs)");
        outln!(
            "{}",
            ascii_plot(&[("max", &max_s), ("mean", &mean_s), ("min", &min_s)], 12)
        );
        for (curve, ys) in [("mean", &q.mean), ("min", &q.min), ("max", &q.max)] {
            svg_series.push(Series::from_ys(&format!("f={f} {curve}"), ys));
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

    outln!(
        "{}",
        render_table(&["f", "t", "mean", "min", "max", "band"], &summary)
    );
    let [csv, svg] = ["csv", "svg"].map(|ext| format!("{out}/fig{figure}_delta{delta}.{ext}"));
    write_csv(&csv, &["f", "t", "mean", "min", "max"], &csv_rows).expect("CSV written");
    let chart = ChartConfig {
        title: format!(
            "Figure {figure}: balancing quality, delta = {delta} ({n} procs, {runs} runs)"
        ),
        x_label: "time step".into(),
        y_label: "load per processor".into(),
        ..Default::default()
    };
    write_chart(&svg, &chart, &svg_series).expect("SVG written");
    outln!("\nwrote {csv} and {svg}\n");
}

/// The `fig7.*` claims on each run's spread at the last step.
fn judge(draw: &Draw) -> Vec<Row> {
    let [d1, d4] = PANELS.map(|row| row[0].delta);
    let t = draw.setting.steps - 1;
    // `spread[panel][k]`: the figure's δ, its k-th f.
    let spread = draw.panel_spreads(t);
    let runs = draw.provenance();
    let mut rows = Vec::new();
    let what = format!("spread(delta={d4}) - spread(delta={d1}) per run: {runs}");
    for (k, f) in PANELS[0].iter().map(|config| config.f).enumerate() {
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
