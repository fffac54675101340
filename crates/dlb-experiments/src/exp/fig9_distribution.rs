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
use crate::quality::{Band, Config, Draw, Run, PANELS, PAPER};
use crate::report::{ascii_plot, f3, render_table, write_csv};
use crate::svg::{write_chart, ChartConfig, Series};
use dlb_theory::claims::Estimate;

pub const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

/// The paper's §7 setting and its checkpoints (the claims judge the
/// last), and the figure of each row of [`PANELS`].
const N: usize = PAPER.n;
const RUNS: usize = PAPER.runs;
const CHECKPOINTS: &[usize] = PAPER.checkpoints;
const JUDGED: usize = CHECKPOINTS.len() - 1;
const FIGURES: [u32; 2] = [9, 10];

pub fn run(args: &Args) -> Vec<Row> {
    view(args, &super::draw(args, PAPER, &PANELS.concat()))
}

/// Both figures and the `fig9.*` claims, from `draw`.
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
    let delta = panels[0].delta;
    outln!(
        "Figure {figure}: per-processor distribution, delta = {delta}, f in {{1.1, 1.8}} \
         ({N} procs, {RUNS} runs, checkpoints {CHECKPOINTS:?})\n"
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut summary = Vec::new();
    let mut svg_series: Vec<Series> = Vec::new();
    for config in panels {
        let (f, runs) = (config.f, draw.runs(config));
        for (k, &t) in CHECKPOINTS.iter().enumerate() {
            let snap = Band::per_processor(runs, k);
            for i in 0..N {
                csv_rows.push(vec![
                    format!("{f:.1}"),
                    t.to_string(),
                    i.to_string(),
                    f3(snap.mean[i]),
                    snap.min[i].to_string(),
                    snap.max[i].to_string(),
                ]);
            }
            let grand = snap.mean.iter().sum::<f64>() / N as f64;
            let lo = snap.mean.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = snap.mean.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let worst_min = snap.min.iter().copied().fold(f64::INFINITY, f64::min);
            let worst_max = snap.max.iter().copied().fold(0.0, f64::max);
            summary.push(vec![
                format!("{f:.1}"),
                t.to_string(),
                f3(grand),
                f3(hi - lo),
                worst_min.to_string(),
                worst_max.to_string(),
            ]);
            if k == JUDGED {
                outln!("f = {f}, t = {t}: mean load by processor");
                outln!("{}", ascii_plot(&[("mean", &snap.mean)], 8));
            }
            svg_series.push(Series::from_ys(&format!("f={f} t={t}"), &snap.mean));
        }
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
}

/// The `fig9.*` claims on the runs at the judged checkpoint.
fn judge(draw: &Draw) -> Vec<Row> {
    let t = CHECKPOINTS[JUDGED];
    let runs = draw.provenance();
    let mut rows = Vec::new();
    for config in PANELS.concat() {
        let (delta, f, panel) = (config.delta, config.f, draw.runs(config));
        // The processor farthest from the grand mean, and each run's
        // distance of it from that run's mean load.
        let mean = Band::per_processor(panel, JUDGED).mean;
        let grand = mean.iter().sum::<f64>() / N as f64;
        let far = |i: &usize| (mean[*i] - grand).abs();
        let worst = (0..N).max_by(|a, b| far(a).total_cmp(&far(b)));
        let worst = worst.expect("n > 0");
        let run_mean = |run: &Run| run.total[t] as f64 / N as f64;
        let deviation: Vec<f64> = panel
            .iter()
            .map(|run| (run.loads[JUDGED][worst] as f64 - run_mean(run)) / grand)
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
    let [d1, d4] = PANELS.map(|row| row[0].delta);
    // `spreads[panel][k]`: the figure's δ, its k-th f.
    let spreads = draw.panel_spreads(t);
    let what = format!("spread(delta={d4}) - spread(delta={d1}) per run: {runs}");
    for (k, f) in PANELS[0].iter().map(|config| config.f).enumerate() {
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
