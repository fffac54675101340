//! Replays a `dlb-trace` JSONL trace into derived series: cumulative
//! balancing operations per step against the Lemma 5/6 cost bounds,
//! per-step max/mean load ratio, and migration volume.
//!
//! Usage: `cargo run --release -p dlb-experiments --bin trace_analyze --
//!         --in trace.jsonl [--out-csv results/trace.csv]
//!         [--svg results/trace.svg] [--check]`
//!
//! Every line goes through one reader: it must parse as a known event
//! and re-render byte-identically.  `--check` stops there (the CI
//! trace-schema gate runs it); the analysis folds each event as it is
//! read, so no trace is held in memory.  A line the reader or the fold
//! refuses — bad JSON, an unknown counter, a sum past `u64::MAX` — exits
//! 1 naming the line, in both modes; a missing `--in` or a file that
//! cannot be opened is refused with the usage line, exit 2.

#![forbid(unsafe_code)]
#![warn(clippy::cast_possible_truncation)]

use std::fs::File;
use std::io::BufReader;

use dlb_experiments::analyze::{csv_rows, read_lines, Analysis, CSV_HEADERS};
use dlb_experiments::args::{Args, Flag, Key};
use dlb_experiments::outln;
use dlb_experiments::report::{render_table, write_csv};
use dlb_experiments::svg::{write_chart, ChartConfig, Series};

const KEYS: &[Key] =
    dlb_experiments::keys!["in": String, "out-csv": String, "svg": String, "check": Flag];

/// Reports a trace or an output the tool could not use, exit 1.
fn fail(what: &str, reason: &str) -> ! {
    eprintln!("error: {what}: {reason}");
    std::process::exit(1)
}

fn main() {
    let args = Args::from_env("trace_analyze", KEYS);
    if !args.has("in") {
        args.refuse("--in <trace.jsonl> is required");
    }
    let input: String = args.get("in", String::new());
    let reader = File::open(&input)
        .map(BufReader::new)
        .unwrap_or_else(|e| args.refuse(&format!("--in {input}: {e}")));

    if args.flag("check") {
        let n = read_lines(reader, |_| Ok(())).unwrap_or_else(|e| fail(&input, &e));
        outln!("{input}: {n} lines, schema OK (parse + byte-stable re-render)");
        return;
    }

    let mut analysis = Analysis::default();
    let events = read_lines(reader, |ev| analysis.fold(ev)).unwrap_or_else(|e| fail(&input, &e));
    let runs = analysis.finish();
    outln!("{input}: {events} events, {} run(s)\n", runs.len());

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
    outln!(
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
        write_csv(&out, &CSV_HEADERS, &all_rows).unwrap_or_else(|e| fail(&out, &e.to_string()));
        outln!("wrote {out}");
    }

    if args.has("svg") {
        let out: String = args.get("svg", String::new());
        // Chart the first run that has per-step data.
        let Some(run) = runs.iter().find(|r| !r.steps.is_empty()) else {
            fail(&out, "the trace has no per-step events to chart");
        };
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
        .unwrap_or_else(|e| fail(&out, &e.to_string()));
        outln!("wrote {out}");
    }
}
