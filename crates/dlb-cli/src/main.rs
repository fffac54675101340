//! `dlb` — config-driven runner for the SPAA'93 load balancing workspace.
//!
//! ```text
//! dlb demo [options]                  run the built-in §7 demo scenario
//! dlb run <scenario.json> [options]   run a scenario from a JSON file
//!                                     (a non-empty "balancer" list races
//!                                     the strategy against each entry and
//!                                     prints a league table instead)
//! dlb template                        print a scenario template to stdout
//! dlb serve <scenario.json> [--mode sim|wall] [--workers N] [--acceptors A]
//!                                     run the request-routing service
//!                                     (see src/serve.rs for options)
//!
//! options:
//!   --trace <path>   write a JSONL event trace (dlb-trace schema)
//!   --jobs N         worker threads; output is identical for every N
//!   --step-jobs N    worker threads inside each step (wave-executed
//!                    balance operations); output is identical for every N
//!   --wave-threshold N  minimum queued operations per flush before the
//!                    wave executor engages (smaller flushes run
//!                    sequentially); output is identical for every N
//!   --profile        add per-step StepProfile events to the trace
//!   --dense          force the dense O(n)-per-step path for
//!                    sparse-capable workloads (output is byte-identical
//!                    either way; the event-driven path is the default)
//! ```

mod config;
#[cfg(test)]
mod contract;
mod run;
mod serve;

use config::Scenario;
use run::RunOptions;

const USAGE: &str = "usage: dlb <demo | run <scenario.json> | template | \
                     serve <scenario.json>> [--trace <path>] [--jobs N] \
                     [--step-jobs N] [--wave-threshold N] [--profile] [--dense]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("demo") => {
            parse_options(&args[1..]).and_then(|opts| run_scenario(Scenario::demo(), &opts))
        }
        Some("run") => match args.get(1).filter(|a| !a.starts_with("--")) {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => match Scenario::from_json(&text) {
                    Ok(scenario) => {
                        parse_options(&args[2..]).and_then(|opts| run_scenario(scenario, &opts))
                    }
                    Err(e) => Err(format!("invalid scenario {path}: {e}")),
                },
                Err(e) => Err(format!("cannot read {path}: {e}")),
            },
            None => Err(
                "usage: dlb run <scenario.json> [--trace <path>] [--jobs N] \
                 [--step-jobs N] [--profile]"
                    .to_string(),
            ),
        },
        Some("serve") => serve::serve_main(&args[1..]),
        Some("template") => {
            println!("{}", Scenario::demo().to_json());
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    };
    if let Err(message) = result {
        eprintln!("error: {message}");
        std::process::exit(1);
    }
}

fn parse_options(rest: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions::default();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trace" => {
                opts.trace = Some(iter.next().ok_or("--trace needs a path")?.clone());
            }
            "--jobs" => {
                let raw = iter.next().ok_or("--jobs needs a thread count")?;
                opts.jobs = raw
                    .parse()
                    .map_err(|e| format!("invalid --jobs {raw:?}: {e}"))?;
            }
            "--step-jobs" => {
                let raw = iter.next().ok_or("--step-jobs needs a thread count")?;
                opts.step_jobs = raw
                    .parse()
                    .map_err(|e| format!("invalid --step-jobs {raw:?}: {e}"))?;
            }
            "--wave-threshold" => {
                let raw = iter.next().ok_or("--wave-threshold needs a count")?;
                opts.wave_threshold = Some(
                    raw.parse()
                        .map_err(|e| format!("invalid --wave-threshold {raw:?}: {e}"))?,
                );
            }
            "--profile" => opts.profile = true,
            "--dense" => opts.dense = true,
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn run_scenario(scenario: Scenario, opts: &RunOptions) -> Result<(), String> {
    if !scenario.balancer.is_empty() {
        println!(
            "league: {} processors, {} steps x {} runs, {} contenders\n",
            scenario.n,
            scenario.steps,
            scenario.runs,
            scenario.balancer.len() + 1
        );
        let table = run::execute_league(&scenario, opts)?;
        println!("{table}");
        if let Some(path) = opts.trace.as_ref().or(scenario.trace.as_ref()) {
            println!("\ntrace written to {path}");
        }
        return Ok(());
    }
    println!(
        "running: {} processors, {} steps x {} runs, strategy {:?}\n",
        scenario.n, scenario.steps, scenario.runs, scenario.strategy
    );
    let report = run::execute_with(&scenario, opts)?;
    println!("{}", report.render());
    if let Some(path) = opts.trace.as_ref().or(scenario.trace.as_ref()) {
        println!("\ntrace written to {path}");
    }
    Ok(())
}
