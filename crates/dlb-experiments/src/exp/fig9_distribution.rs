//! Figures 9 and 10: per-processor load distribution (mean over runs plus
//! min/max ever observed) at time steps 50, 200 and 400, for
//! `f ∈ {1.1, 1.8}` at `δ = 1` (Figure 9) and `δ = 4` (Figure 10).  The
//! shapes they show are `fig9.*` rows of `dlb-exp claims`.
//!
//! Usage: `dlb-exp fig9_distribution [--jobs N] [--out results]`
//! (`--out` is the directory of both figures' CSV/SVG pairs)

use crate::args::{Args, Key};
use crate::parallel::default_jobs;
use crate::quality::{distribution_at, SnapshotDistribution};
use crate::report::{ascii_plot, f3, render_table, write_csv};
use crate::svg::{write_chart, ChartConfig, Series};
use dlb_core::Params;

pub const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String];

/// The paper's §7 setting: processors, steps, runs and borrow limit C.
const N: usize = 64;
const STEPS: usize = 500;
pub(super) const RUNS: usize = 100;
const C: usize = 4;
pub(super) const SEED: u64 = 4096;
pub(super) const CHECKPOINTS: [usize; 3] = [50, 200, 400];
/// `(figure, δ)` of each panel pair, and the `f` of each panel.
pub(super) const FIGURES: [(u32, usize); 2] = [(9, 1), (10, 4)];
pub(super) const FS: [f64; 2] = [1.1, 1.8];

/// The snapshots of one panel at [`CHECKPOINTS`]: `RUNS` runs of the §7
/// workload at `δ`, `f`.
pub(super) fn snapshots(delta: usize, f: f64, jobs: usize) -> Vec<SnapshotDistribution> {
    let params = Params::new(N, delta, f, C).expect("a §7 setting");
    distribution_at(params, STEPS, &CHECKPOINTS, RUNS, SEED, jobs)
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
        "Figure {figure}: per-processor distribution, delta = {delta}, f in {{1.1, 1.8}} \
         ({N} procs, {RUNS} runs, checkpoints {CHECKPOINTS:?})\n"
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut summary = Vec::new();
    let mut svg_series: Vec<Series> = Vec::new();
    for f in FS {
        let snaps = snapshots(delta, f, jobs);
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
    println!("\nwrote {csv} and {svg}\n");
}
