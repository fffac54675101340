//! Replays a `dlb-trace` JSONL trace into derived series: cumulative
//! balancing operations per step against the Lemma 5/6 cost bounds,
//! per-step max/mean load ratio, and migration volume.
//!
//! Usage: `cargo run --release -p dlb-experiments --bin trace_analyze --
//!         --in trace.jsonl [--out-csv results/trace.csv]
//!         [--svg results/trace.svg] [--check]`
//!
//! `--check` validates the schema instead of analysing: every line must
//! parse as a known event *and* re-render byte-identically (the CI
//! trace-schema gate runs this).

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

use std::fs::File;
use std::io::BufReader;

use dlb_experiments::analyze::{analyze, check_lines, csv_rows, parse_lines, CSV_HEADERS};
use dlb_experiments::args::{Args, Flag, Key};
use dlb_experiments::report::{render_table, write_csv};
use dlb_experiments::svg::{write_chart, ChartConfig, Series};

const KEYS: &[Key] =
    dlb_experiments::keys!["in": String, "out-csv": String, "svg": String, "check": Flag];

fn main() {
    let args = Args::from_env("trace_analyze", KEYS);
    let input: String = args.get("in", String::new());
    assert!(!input.is_empty(), "required: --in <trace.jsonl>");
    let reader = || BufReader::new(File::open(&input).unwrap_or_else(|e| panic!("{input}: {e}")));

    if args.flag("check") {
        match check_lines(reader()) {
            Ok(n) => {
                println!("{input}: {n} lines, schema OK (parse + byte-stable re-render)");
                return;
            }
            Err(e) => {
                eprintln!("{input}: schema check FAILED\n{e}");
                std::process::exit(1);
            }
        }
    }

    let events = parse_lines(reader()).unwrap_or_else(|e| panic!("{input}: {e}"));
    let runs = analyze(&events);
    println!("{input}: {} events, {} run(s)\n", events.len(), runs.len());

    let mut summary = Vec::new();
    let mut all_rows = Vec::new();
    for (idx, run) in runs.iter().enumerate() {
        let label = run.info.as_ref().map_or("-".to_string(), |i| {
            format!("{} n={} d={} f={} C={}", i.strategy, i.n, i.delta, i.f, i.c)
        });
        let last_ratio = run
            .steps
            .iter()
            .rev()
            .find_map(|r| run.max_over_mean(r))
            .map_or("-".to_string(), |r| format!("{r:.3}"));
        summary.push(vec![
            idx.to_string(),
            label,
            run.balance_initiated.to_string(),
            run.metrics.balance_ops.to_string(),
            run.packets_migrated.to_string(),
            run.faults.to_string(),
            last_ratio,
        ]);
        all_rows.extend(csv_rows(idx, run));
    }
    println!(
        "{}",
        render_table(
            &[
                "run",
                "config",
                "balance events",
                "metrics.balance_ops",
                "migrated",
                "faults",
                "final max/mean"
            ],
            &summary,
        )
    );

    if args.has("out-csv") {
        let out: String = args.get("out-csv", String::new());
        write_csv(&out, &CSV_HEADERS, &all_rows).expect("CSV written");
        println!("wrote {out}");
    }

    if args.has("svg") {
        let out: String = args.get("svg", String::new());
        // Chart the first run that has per-step data.
        let run = runs
            .iter()
            .find(|r| !r.steps.is_empty())
            .expect("no per-step events to chart");
        let mut series = vec![Series {
            name: "ops (cumulative)".into(),
            points: run
                .steps
                .iter()
                .map(|r| (r.step as f64, r.ops_cum as f64))
                .collect(),
        }];
        let ratio: Vec<(f64, f64)> = run
            .steps
            .iter()
            .filter_map(|r| run.max_over_mean(r).map(|v| (r.step as f64, v)))
            .collect();
        if !ratio.is_empty() {
            series.push(Series {
                name: "max/mean load".into(),
                points: ratio,
            });
        }
        write_chart(
            &out,
            &ChartConfig {
                title: "trace replay: balancing ops and load ratio".into(),
                x_label: "step".into(),
                y_label: "ops / ratio".into(),
                ..Default::default()
            },
            &series,
        )
        .expect("SVG written");
        println!("wrote {out}");
    }
}
