//! Balance quality vs injected fault rates on the asynchronous protocol
//! simulator: message loss swept 0%–20% and crashed-processor fraction
//! swept 0%–25%, with extended conservation asserted after every tick
//! and zero leaked locks after quiescence.
//!
//! Output is a byte-stable JSON report (all randomness is seeded, no
//! timestamps) plus an SVG chart of both sweeps.
//!
//! Usage: `dlb-exp faults_sweep
//!         [--scenario scenarios/lossy_network.json] [--jobs N]
//!         [--out results/faults_sweep.json]
//!         [--svg results/faults_sweep.svg]`
//!
//! Without `--scenario` the sweep runs 32 processors for 3000 ticks, 3
//! runs per point.  With it, the scenario's `n`, `steps`, `seed` and
//! `faults` section seed the sweep (the swept knob overrides the plan's
//! own value per point).  A scenario that cannot be read or decoded, or whose
//! values the sweep cannot run, is refused like a bad `--key`: the
//! reason, naming the path and the key, the usage line, exit 2.

use crate::args::{Args, Key};
use crate::faultsweep::{sweep, SweepConfig};
use crate::outln;
use crate::report::{f3, render_table};
use crate::svg::write_chart;
use dlb_faults::FaultPlan;
use dlb_json::{FromJson, Json, ToJson};

pub const KEYS: &[Key] = crate::keys![
    "scenario": String, "jobs": usize, "out": String, "svg": String,
];

/// Seeds `cfg` from the scenario file at `path`.
fn from_scenario(cfg: &mut SweepConfig, path: &str) -> Result<(), String> {
    let json = Json::parse(&std::fs::read_to_string(path).map_err(|e| e.to_string())?)?;
    cfg.n = dlb_json::field_or(&json, "n", cfg.n)?;
    cfg.steps = dlb_json::field_or(&json, "steps", cfg.steps)?;
    cfg.seed = dlb_json::field_or(&json, "seed", cfg.seed)?;
    if let Some(faults) = json.get("faults").filter(|f| !matches!(f, Json::Null)) {
        cfg.base = FaultPlan::from_json(faults).map_err(|e| format!("field 'faults': {e}"))?;
    }
    Ok(())
}

/// Whether the sweep can run `cfg`: the trigger parameters admit `n`,
/// and the base plan and every crash-sweep plan fit `n` and `steps`.
fn runnable(cfg: &SweepConfig) -> Result<(), String> {
    cfg.params().map_err(|e| e.to_string())?;
    cfg.base
        .validate(cfg.n)
        .map_err(|e| format!("field 'faults': {e}"))?;
    for &count in &cfg.crash_counts {
        cfg.crash_plan(count)
            .validate(cfg.n)
            .map_err(|e| format!("steps = {}: crash sweep: {e}", cfg.steps))?;
    }
    Ok(())
}

pub fn run(args: &Args) -> Vec<super::Row> {
    let mut cfg = SweepConfig::default();
    let scenario: Option<String> = args
        .has("scenario")
        .then(|| args.get("scenario", String::new()));
    if let Some(path) = &scenario {
        args.build_or_exit(
            "scenario",
            from_scenario(&mut cfg, path).and_then(|()| runnable(&cfg)),
        );
        outln!(
            "scenario {path}: n = {}, steps = {}, seed = {}\n",
            cfg.n,
            cfg.steps,
            cfg.seed
        );
    }
    cfg.jobs = args.get("jobs", crate::parallel::default_jobs());
    let out = args.output("out", "faults_sweep.json");
    let svg = args.output("svg", "faults_sweep.svg");

    outln!(
        "Fault sweep: balance quality vs loss and crash rates \
         ({} procs, {} ticks, latency {}, {} runs per point)\n",
        cfg.n,
        cfg.steps,
        cfg.latency,
        cfg.runs
    );
    let result = sweep(&cfg);

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
