//! The benchmark of the whole stack (see `README.md` beside this
//! package and `BENCHMARK.json` at the repo root).
//!
//! ```text
//! dlb-benchmark [--workload NAME]... [--seed S] [--seconds T | --reps R]
//!               [--trace 0|1] [--smoke] [--out FILE]
//! dlb-benchmark --compare A.json B.json
//! ```
//!
//! Run through `benchmark/run.sh`, which builds `dlb`, `trace_analyze`
//! and this harness into one target directory and starts the harness
//! from the repo root.  End-to-end numbers come from spawning the real
//! `dlb` process; per-layer numbers from a traced in-process replay.
//! `--trace 0` measures end to end only, `--trace 1` per layer only;
//! with neither, both.  With one `--workload` and a `--trace`, the last
//! line of stdout is the single JSON object the benchmark driver reads.

mod bench;
mod calib;
mod check;
mod compare;
mod layers;
mod metrics;
mod micro;
mod proc;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use bench::Bench;
use dlb_json::{Json, ToJson};
use metrics::{unit_of, END_TO_END, PER_LAYER};
use workloads::WORKLOADS;

/// Fewest timed spawns per workload, whatever the time budget says.
const MIN_REPS: usize = 3;
/// Pins are recorded for this seed at full size; other seeds rely on
/// rep agreement, the replay and the ledger.
const PINNED_SEED: u64 = 42;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: PINNED_SEED,
        seconds: None,
        reps: None,
        trace: None,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut iter = std::env::args().skip(1);
    fn parsed<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
        let raw = raw.ok_or(format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("invalid {flag} value {raw:?}"))
    }
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--workload" => args.workloads.push(parsed(&flag, iter.next())?),
            "--seed" => args.seed = parsed(&flag, iter.next())?,
            "--seconds" => args.seconds = Some(parsed(&flag, iter.next())?),
            "--reps" => args.reps = Some(parsed(&flag, iter.next())?),
            "--trace" => {
                args.trace = Some(match parsed::<u8>(&flag, iter.next())? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(parsed(&flag, iter.next())?),
            "--compare" => {
                args.compare = Some((parsed(&flag, iter.next())?, parsed(&flag, iter.next())?))
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(args)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `{name: {"value": v, "unit": u}}` as the driver's `metrics` object.
fn metric_json(value: f64, name: &str) -> Json {
    obj(vec![
        ("value", value.to_json()),
        ("unit", unit_of(name).expect("registered metric").to_json()),
    ])
}

fn print_and_collect(b: &Bench, end_to_end: bool, layers: bool) -> (Json, Json) {
    println!("\n== {} — {}", b.workload.name, b.workload.why);
    let mut e2e_full = Vec::new();
    let mut driver = Vec::new();
    if end_to_end {
        if let Some(e2e) = b.end_to_end() {
            for (name, unit, _) in END_TO_END {
                let s = &e2e[name];
                let (lo, hi) = s
                    .samples
                    .iter()
                    .fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
                        (lo.min(x), hi.max(x))
                    });
                println!(
                    "{name:<28} {:>16.6} {unit:<6} median of {} (min {lo:.6}, max {hi:.6}, spread {:.1}%)",
                    s.median,
                    s.samples.len(),
                    stats::spread(&s.samples) * 100.0
                );
                if let Some(raw) = &s.raw {
                    println!(
                        "{:<28} {:>16.6} {unit:<6} before the speed-state correction (spread {:.1}%)",
                        "",
                        stats::median(raw),
                        stats::spread(raw) * 100.0
                    );
                }
                if name == "events_per_s" {
                    println!("{:<28} events are {}", "", b.workload.event_unit);
                }
                driver.push((name, metric_json(s.median, name)));
                e2e_full.push((
                    name,
                    obj(vec![
                        ("unit", unit.to_json()),
                        ("median", s.median.to_json()),
                        ("min", lo.to_json()),
                        ("max", hi.to_json()),
                        ("n", s.samples.len().to_json()),
                        ("samples", s.samples.to_json()),
                        ("raw_samples", s.raw.clone().to_json()),
                    ]),
                ));
            }
        }
    }
    let mut layer_full = Vec::new();
    if layers && !b.layers.is_empty() {
        let mut idle = 0;
        for (name, unit, _) in PER_LAYER {
            let value = b.layers[name];
            // A layer that does not run on this workload reads 0
            // throughout; printing those rows only buries the others.
            if value == 0.0 {
                idle += 1;
            } else {
                println!("{name:<28} {value:>16.6} {unit}");
            }
            if !end_to_end {
                driver.push((name, metric_json(value, name)));
            }
            layer_full.push((name, metric_json(value, name)));
        }
        println!(
            "({idle} per-layer metrics read 0 here: their layer does not run on this workload)"
        );
    }
    let mut full = vec![
        ("checksum", b.checksum.clone().to_json()),
        ("problems", b.problems.to_json()),
    ];
    if !e2e_full.is_empty() {
        full.push(("end_to_end", obj(e2e_full)));
    }
    if !layer_full.is_empty() {
        full.push(("per_layer", obj(layer_full)));
    }
    (obj(full), obj(driver))
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let benchmark = read_json(Path::new("BENCHMARK.json"))?;
        return compare::compare(&benchmark, &read_json(a)?, &read_json(b)?);
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin_dir = exe.parent().ok_or("harness binary has no directory")?;
    if !bin_dir.join("dlb").is_file() {
        return Err(format!(
            "{} not found — start the benchmark with benchmark/run.sh, which builds it",
            bin_dir.join("dlb").display()
        ));
    }
    let pins = read_json(Path::new("benchmark/pins.json"))?;
    let dir = PathBuf::from(format!(
        "benchmark/out/{}{}",
        args.seed,
        if args.smoke { "-smoke" } else { "" }
    ));
    let names: Vec<&str> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };
    let mut benches = Vec::new();
    for name in names {
        let workload = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or(format!("unknown workload {name:?}"))?;
        let scenario = workloads::scenario(name, args.seed, args.smoke).expect("listed workload");
        let pin = (args.seed == PINNED_SEED && !args.smoke)
            .then(|| pins.get(name).and_then(Json::as_str).map(str::to_string))
            .flatten();
        benches.push(
            Bench::prepare(workload, scenario, &dir, bin_dir, pin).map_err(|e| e.to_string())?,
        );
    }

    let end_to_end = args.trace != Some(true);
    let layers = args.trace != Some(false);
    // A smoke run stops at MIN_REPS; otherwise --reps, else --seconds.
    let window =
        Duration::from_secs_f64(args.seconds.unwrap_or(if args.smoke { 0.0 } else { 10.0 }));
    let mut calib = calib::Calibrator::new();
    if end_to_end {
        let pinned = proc::Pinned::new();
        if pinned.is_none() {
            eprintln!("warning: cannot pin to one CPU; the speed-state correction will be loose");
        }
        for b in &mut benches {
            b.probe(&mut calib);
        }
        // Round-robin over workloads, so a noisy stretch of the shared
        // box is spread over all of them instead of landing on one.
        loop {
            let mut ran = false;
            for b in &mut benches {
                let more = match args.reps {
                    Some(reps) => b.reps() < reps,
                    None => b.measured < window,
                };
                if b.failed == 0 && (b.reps() < MIN_REPS || more) {
                    b.rep(&mut calib);
                    ran = true;
                }
            }
            if !ran {
                break;
            }
        }
        drop(pinned);
        for b in &mut benches {
            b.check();
        }
    }
    if layers {
        for b in &mut benches {
            b.trace_layers(&mut calib);
        }
    }

    let mut workloads_json = Vec::new();
    let mut driver_metrics = Json::Null;
    for b in &benches {
        let (full, driver) = print_and_collect(b, end_to_end, layers);
        workloads_json.push((b.workload.name, full));
        driver_metrics = driver;
    }
    let attempted: u64 = benches.iter().map(|b| b.attempted).sum();
    let failed: u64 = benches.iter().map(|b| b.failed).sum();
    let correct = failed == 0 && benches.iter().all(|b| b.checksum.is_some());
    println!(
        "\nfail_share {:.4} ({failed} failed of {attempted} dlb invocations and checks), outputs {}",
        failed as f64 / attempted.max(1) as f64,
        if correct { "correct" } else { "INCORRECT" }
    );

    let result = obj(vec![
        ("seed", args.seed.to_json()),
        ("smoke", args.smoke.to_json()),
        (
            "machine",
            obj(vec![
                ("nproc", dlb_pool::default_jobs().to_json()),
                ("rustc", first_line_of("rustc", &["--version"]).to_json()),
                (
                    "commit",
                    first_line_of("git", &["rev-parse", "HEAD"]).to_json(),
                ),
            ]),
        ),
        ("correct", correct.to_json()),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        ("workloads", obj(workloads_json)),
    ]);
    let out = args.out.clone().unwrap_or_else(|| dir.join("result.json"));
    std::fs::write(&out, result.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result written to {}", out.display());

    if benches.len() == 1 && args.trace.is_some() {
        // The driver's contract: one JSON object, last line of stdout.
        println!(
            "{}",
            obj(vec![
                ("correct", correct.to_json()),
                ("attempted", attempted.to_json()),
                ("failed", failed.to_json()),
                ("metrics", driver_metrics),
            ])
            .render()
        );
    }
    Ok(correct)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
