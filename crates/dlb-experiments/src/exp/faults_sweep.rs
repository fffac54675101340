//! Balance quality vs injected fault rates on the asynchronous protocol
//! simulator: message loss swept 0%–20% and crashed-processor fraction
//! swept 0%–25%, with extended conservation asserted after every tick
//! and zero leaked locks after quiescence.
//!
//! Output is a byte-stable JSON report (all randomness is seeded, no
//! timestamps) plus an SVG chart of both sweeps.
//!
//! Usage: `dlb-exp faults_sweep [--jobs N]
//!         [--out results/faults_sweep.json]
//!         [--svg results/faults_sweep.svg]`
//!
//! The sweep runs 32 processors for 3000 ticks, 3 runs per point.

use crate::args::{Args, Key};
use crate::faultsweep::{sweep, LATENCY, N, RUNS, STEPS};
use crate::outln;
use crate::report::{f3, render_table};
use crate::svg::write_chart;
use dlb_json::ToJson;

pub const KEYS: &[Key] = crate::keys!["jobs": usize, "out": String, "svg": String];

pub fn run(args: &Args) -> Vec<super::Row> {
    let jobs = args.get("jobs", crate::parallel::default_jobs());
    let out = args.output("out", "faults_sweep.json");
    let svg = args.output("svg", "faults_sweep.svg");

    outln!(
        "Fault sweep: balance quality vs loss and crash rates \
         ({N} procs, {STEPS} ticks, latency {LATENCY}, {RUNS} runs per point)\n"
    );
    let result = sweep(jobs);

    let headers = [
        "rate",
        "max/mean",
        "completed",
        "retries",
        "timeout recov.",
        "lost msgs",
        "lost load",
    ];
    let rows = |points: &[crate::faultsweep::SweepPoint]| {
        points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}%", p.x * 100.0),
                    f3(p.quality),
                    p.stats.completed_ops.to_string(),
                    p.stats.retries.to_string(),
                    p.stats.timeout_recoveries.to_string(),
                    p.stats.lost_messages.to_string(),
                    p.lost_load.to_string(),
                ]
            })
            .collect::<Vec<_>>()
    };
    outln!("Message loss (control + transfer plane):");
    outln!("{}", render_table(&headers, &rows(&result.loss_sweep)));
    outln!("Crashed processors (frozen at t = steps/4, recovering at 3·steps/4):");
    outln!("{}", render_table(&headers, &rows(&result.crash_sweep)));
    outln!("Conservation held at every tick; no locks leaked after quiescence.");

    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("output directory");
    }
    std::fs::write(&out, result.to_json().render_pretty()).expect("JSON written");
    let (chart_cfg, series) = result.chart();
    write_chart(&svg, &chart_cfg, &series).expect("SVG written");
    outln!("\nwrote {out} and {svg}");
    Vec::new()
}
